"""Selective state-space layer: an input-dependent discretized linear
recurrence with sequential and parallel prefix-scan evaluators and an
exact hand-derived backward pass.

The recurrence (per channel d, state n):

    delta = softplus(u @ W_delta + b_delta)         u = x @ W_in + b_in
    B(u)  = u @ W_B          C(u) = u @ W_C          A = -exp(A_log)
    Abar  = exp(delta * A)   Bbar = expm1(delta * A) / A * B(u)
    h_t   = Abar * h_{t-1} + Bbar * u_t
    y_t   = (h_t @ C_t) + D_skip * u_t              out = y @ W_out + b_out

A is diagonal and stored through its log, a (d_model, d_state) array
A_log, as in S4D and Mamba.  A < 0 holds for every A_log, so
0 <= Abar < 1 (up to rounding) and Bbar is the exact zero-order hold with
no special case at A = 0.  All arrays are float64.  Every pass takes one
sequence: xs is (L, d_model) and h0 is None (zeros) or (d_model, d_state).

The sequential forward and the backward walk time in chunks whose
(steps, d_state, d_model) tensors hold SCAN_CHUNK_ELEMENTS elements (or
one step, if that is more).  Every chunk tensor is laid out d_model
innermost, as is the transition A inside a pass, so each broadcast over
the chunk and each sum over d_state runs along the contiguous d_model
axis; h0, h_final and A_log keep their (d_model, d_state) shape and are
transposed once per call.  Each chunk's Abar, E = expm1(delta * A) / A
and Bbar are built from the cached delta and B(u) into scratch buffers
that one call allocates once and every chunk reuses (a shorter last
chunk uses their first steps).  The forward keeps the hidden state only
where a chunk starts (and h_final) and emits y one chunk at a time.  The
backward walks the chunks in reverse: it rebuilds the chunk's Abar, E
and Bbar, re-runs the chunk's recurrence from its stored start state,
and uses those states at once (recomputation, not caching, as in
Mamba's scan).  So no cached array has a (length, d_state, d_model)
shape unless a chunk is a single step, which it is once
d_model * d_state reaches SCAN_CHUNK_ELEMENTS.

A weight gradient over time, sum_t a_t^T b_t, is one weight_grad call:
BLAS products over fixed blocks of rows, each with at most
BLAS_BLOCK_ELEMENTS elements m * n * rows, added in block order.  A
block that small runs on one OpenBLAS thread, so the gradient's bytes
do not depend on the BLAS thread count (they do depend on the CPU's
BLAS kernel, as the forward's xs @ W_in does).  The Q-model's head and
embedding gradients take the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: element budget of one time chunk of the (steps, d_state, d_model)
#: discretized tensors that the sequential forward and the backward build
#: (128 KiB of float64; a chunk holds at least one step).  Timed as one
#: forward + backward pass of one sequence on one core, of 2**12 to
#: 2**16: at paper shape (1500, 64, 16) 2**15 and 2**16 tie as the
#: fastest, and 2**14 is 5-7% slower, 2**13 24% and 2**12 59%; at desk
#: shape (150, 32, 8) 2**16 is the fastest, and 2**14 is 8% slower,
#: 2**13 16% and 2**12 39%.  The value stays 2**14, as checkpoint bytes
#: depend on it (the backward sums the A_log gradient chunk by chunk); a
#: backward's scratch takes 776 KiB.  The forward keeps one hidden state
#: per chunk, so a chunk of c steps stores 1/c of the state trajectory.
SCAN_CHUNK_ELEMENTS = 1 << 14

#: element budget (m * n * rows) of one BLAS product in weight_grad and in
#: the s1 Gram plane of env.cal_state.
#: OpenBLAS runs a GEMM of M * N * K <= 65536 * 4 on one thread, so each
#: block's bits do not depend on the BLAS thread count; a whole-sequence
#: product does (1 and 2 threads give different bits at paper shape).
BLAS_BLOCK_ELEMENTS = 1 << 18


def weight_grad(a, b):
    """sum_t a_t^T b_t (m, n) for a (L, m) and b (L, n): the weight
    gradient of a linear map over time.  BLAS products over fixed blocks
    of rows = BLAS_BLOCK_ELEMENTS // (m * n) steps (at least one), added
    in block order, so the bits depend on L, m and n only."""
    m, n = a.shape[1], b.shape[1]
    rows = max(1, BLAS_BLOCK_ELEMENTS // (m * n))
    g = a[:rows].T @ b[:rows]
    for t0 in range(rows, len(a), rows):
        g += a[t0:t0 + rows].T @ b[t0:t0 + rows]
    return g


def softplus(x):
    """log(1 + exp(x)), as max(x, 0) + log1p(exp(-|x|)): the split of
    np.logaddexp(0, x) without its scalar loop, so exp never overflows."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_inv(y):
    """Inverse of softplus for y > 0."""
    return np.log(np.expm1(y))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class SsmParams:
    """Learnable tensors of one selective-SSM layer.

    version increments on every in-place parameter update so caches from
    older forward passes can be rejected.
    """

    A_log: np.ndarray     # (D, N) log of -A, the diagonal transition
    W_in: np.ndarray      # (D, D) input mixing
    b_in: np.ndarray      # (D,)
    W_delta: np.ndarray   # (D, D) step-size projection
    b_delta: np.ndarray   # (D,)
    W_B: np.ndarray       # (D, N) input->B projection
    W_C: np.ndarray       # (D, N) input->C projection
    D_skip: np.ndarray    # (D,) residual skip gain
    W_out: np.ndarray     # (D, D) output mixing
    b_out: np.ndarray     # (D,)
    version: int = 0

    @property
    def d_model(self) -> int:
        return self.A_log.shape[0]

    @property
    def d_state(self) -> int:
        return self.A_log.shape[1]

    def tensors(self) -> dict:
        return {"A_log": self.A_log, "W_in": self.W_in, "b_in": self.b_in,
                "W_delta": self.W_delta, "b_delta": self.b_delta,
                "W_B": self.W_B, "W_C": self.W_C, "D_skip": self.D_skip,
                "W_out": self.W_out, "b_out": self.b_out}

    def bump(self) -> None:
        self.version += 1


def init_ssm_params(rng, d_model: int, d_state: int) -> SsmParams:
    """Defaults: A in [-1, -0.01), small positive initial step sizes,
    unit skip, scaled-normal mixing weights."""
    s = 1.0 / np.sqrt(d_model)
    return SsmParams(
        A_log=np.log(rng.uniform(0.01, 1.0, (d_model, d_state))),
        W_in=rng.normal(0.0, s, (d_model, d_model)),
        b_in=np.zeros(d_model),
        W_delta=rng.normal(0.0, s, (d_model, d_model)),
        b_delta=softplus_inv(rng.uniform(1e-3, 1e-1, d_model)),
        W_B=rng.normal(0.0, s, (d_model, d_state)),
        W_C=rng.normal(0.0, s, (d_model, d_state)),
        D_skip=np.ones(d_model),
        W_out=rng.normal(0.0, s, (d_model, d_model)),
        b_out=np.zeros(d_model),
    )


@dataclass
class SsmCache:
    """Forward intermediates of one sequence retained for the backward pass.

    The hidden state is kept only at the time-chunk bounds, in the chunk
    layout (d_state, d_model): h_starts[k] enters chunks[k] and
    h_starts[-1] is h_final transposed.  ssm_backward re-runs each
    chunk's recurrence from its start state, rebuilding Abar, E and Bbar
    from delta and Bix; y_pre saves it the emission.
    """

    params: SsmParams
    version: int
    chunks: list          # (t0, t1) time bounds of each chunk
    xs: np.ndarray        # (L, D)
    u: np.ndarray         # (L, D)
    sig: np.ndarray       # (L, D) sigmoid of the delta pre-activation
    delta: np.ndarray     # (L, D)
    Bix: np.ndarray       # (L, N) input-dependent B
    Cix: np.ndarray       # (L, N) input-dependent C
    y_pre: np.ndarray     # (L, D) output before W_out
    h_starts: np.ndarray  # (len(chunks) + 1, N, D)


def _check_inputs(params: SsmParams, h0, xs):
    """(xs, h0) as float64 arrays, h0 None made zeros; a shape that is not
    xs (L, D) and h0 (D, N) raises ValueError."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError(f"xs must be (L, D), got {xs.shape}")
    D = xs.shape[1]
    if D != params.d_model:
        raise ValueError(f"input dim {D} != d_model {params.d_model}")
    N = params.d_state
    if h0 is None:
        return xs, np.zeros((D, N))
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.shape != (D, N):
        raise ValueError(f"h0 shape {h0.shape} incompatible with ({D}, {N})")
    return xs, h0


def _input_projections(params: SsmParams, xs):
    u = xs @ params.W_in + params.b_in
    z = u @ params.W_delta + params.b_delta
    delta = softplus(z)
    sig = sigmoid(z)
    Bix = u @ params.W_B
    Cix = u @ params.W_C
    return u, sig, delta, Bix, Cix


def _transition(params: SsmParams):
    """A = -exp(A_log) in the chunk layout: (N, D), C-contiguous."""
    return -np.exp(np.ascontiguousarray(params.A_log.T))


def _discretize(delta, A, Bix, out):
    """Abar = exp(delta*A), E = expm1(delta*A)/A and Bbar = E*B for
    delta (c, D), A (N, D) and Bix (c, N); each result is (c, N, D).

    out is three (steps, N, D) scratch buffers of at least c steps, whose
    first c steps are written and returned.  The outer products run
    through einsum: at c = 16 its loop is about a third faster than
    numpy's broadcast multiply."""
    c = len(delta)
    Abar, E, Bbar = out[0][:c], out[1][:c], out[2][:c]
    P = np.einsum("ld,nd->lnd", delta, A, out=Abar)
    np.expm1(P, out=E)
    np.exp(P, out=Abar)
    E /= A
    np.einsum("lnd,ln->lnd", E, Bix, out=Bbar)
    return Abar, E, Bbar


def _chunks(L, D, N):
    """(t0, t1) bounds of the time chunks, each within the element budget."""
    c = max(1, SCAN_CHUNK_ELEMENTS // (D * N))
    return [(t0, min(t0 + c, L)) for t0 in range(0, L, c)]


def _scratch(chunks, N, D, k):
    """k empty (steps, N, D) buffers, one array, as long as the first and
    widest chunk."""
    c = chunks[0][1] if chunks else 0
    return np.empty((k, c, N, D))


def _run_states(Abar, Bbar, u, h, out):
    """Run the recurrence over the first len(out) steps of a chunk from
    state h: out[i] = Abar_i * h + Bbar_i * u_i, then h = out[i].
    Returns out, the states after each step; out must not overlap
    Bbar."""
    n = len(out)
    np.einsum("lnd,ld->lnd", Bbar[:n], u[:n], out=out)
    step = np.empty_like(h)
    # a local view per step: `out[i] += ...` would also copy it back
    for a, o in zip(Abar, out):
        o += np.multiply(a, h, out=step)
        h = o
    return out


def _emit(params: SsmParams, hs_steps, Cix, u, out=None):
    """Output before W_out: y[l,d] = sum_n h[l,n,d] C[l,n]
    + D_skip[d] u[l,d]."""
    y = np.einsum("lnd,ln->ld", hs_steps, Cix, out=out)
    y += params.D_skip * u
    return y


def ssm_forward_sequential(params: SsmParams, h0, xs):
    """Step-by-step evaluation of xs (L, D) from h0 (None: zeros, or
    (D, N)); returns (ys (L, D), h_final (D, N), cache)."""
    xs, h0 = _check_inputs(params, h0, xs)
    L, D = xs.shape
    N = params.d_state
    u, sig, delta, Bix, Cix = _input_projections(params, xs)
    A = _transition(params)
    chunks = _chunks(L, D, N)
    h_starts = np.empty((len(chunks) + 1, N, D))
    h_starts[0] = h0.T
    y_pre = np.empty((L, D))
    discretized = _scratch(chunks, N, D, 3)
    for k, (t0, t1) in enumerate(chunks):
        Abar, E, Bbar = _discretize(delta[t0:t1], A, Bix[t0:t1], discretized)
        # einsum cannot write over its operand: the states overwrite E,
        # which the forward does not use
        hc = _run_states(Abar, Bbar, u[t0:t1], h_starts[k], E)
        h_starts[k + 1] = hc[-1]
        _emit(params, hc, Cix[t0:t1], u[t0:t1], out=y_pre[t0:t1])
    ys = y_pre @ params.W_out + params.b_out
    h_final = h_starts[-1].T
    cache = SsmCache(params, params.version, chunks, xs, u, sig, delta, Bix,
                     Cix, y_pre, h_starts)
    return ys, h_final, cache


def ssm_forward_scan(params: SsmParams, h0, xs):
    """Prefix-scan evaluation (inclusive Hillis-Steele); same outputs as
    the sequential path up to floating-point reassociation.  It holds the
    whole (L, N, D) discretization at once and serves as a verification
    oracle, not as a fast path."""
    xs, h0 = _check_inputs(params, h0, xs)
    L = len(xs)
    u, sig, delta, Bix, Cix = _input_projections(params, xs)
    A = _transition(params)
    a, _, Bbar = _discretize(delta, A, Bix, np.empty((3, L) + A.shape))
    b = Bbar * u[:, None, :]
    b[0] += a[0] * h0.T
    offset = 1
    while offset < L:
        # full-slice RHS temporaries make the in-place update safe
        b[offset:] = b[offset:] + a[offset:] * b[:-offset]
        a[offset:] = a[offset:] * a[:-offset]
        offset *= 2
    ys = _emit(params, b, Cix, u) @ params.W_out + params.b_out
    return ys, b[-1].T


def ssm_backward(cache: SsmCache, grad_ys):
    """Reverse-mode gradients of the sequential forward pass.

    Returns (grads: name->array matching params.tensors(), grad_h0,
    grad_xs).  grad_ys must match the forward ys shape; no gradient
    reaches h_final.
    """
    p = cache.params
    if cache.version != p.version:
        raise ValueError("stale cache: parameters were updated after the "
                         "forward pass")
    xs, u, delta, sig = cache.xs, cache.u, cache.delta, cache.sig
    Bix, Cix = cache.Bix, cache.Cix
    A = _transition(p)
    L, D = xs.shape
    N = p.d_state

    gys = np.asarray(grad_ys, dtype=np.float64)
    if gys.shape != (L, D):
        raise ValueError(f"grad_ys shape {gys.shape} does not match ys")
    gh = np.zeros((N, D))

    # output mixing
    gW_out = weight_grad(cache.y_pre, gys)
    gb_out = gys.sum(0)
    gy = gys @ p.W_out.T

    # through the emission: y = h.C + D_skip*u
    gD_skip = (gy * u).sum(0)
    gu = gy * p.D_skip

    # reverse recurrence over chunks, last first: rebuild the chunk's
    # Abar, E and Bbar, re-run its states hc from the stored ones,
    # accumulate the total dL/dh_t of its steps in ghs, then take the
    # chunk's share of every gradient (gC from the states after each
    # step, X from the states before).  Abar = exp(delta*A),
    # Bbar = E*B with E = expm1(delta*A)/A: from dAbar/ddelta = A*Abar,
    # dE/ddelta = Abar, dE/dA = (delta*Abar - E)/A and dA/dA_log = A, with
    # X = (gAbar*A + gE)*Abar, gdelta = sum_n X and
    # gA_log = sum delta*X - sum gE*E.  Every chunk tensor is a view of
    # the first t1 - t0 steps of one of this call's scratch buffers
    gB = np.empty((L, N))
    gC = np.empty((L, N))
    gdelta = np.empty((L, D))
    gA_log = np.zeros((N, D))
    *discretized, ghs_buf, gE_buf = _scratch(cache.chunks, N, D, 5)
    states = np.empty((len(ghs_buf) + 1, N, D))
    for k in reversed(range(len(cache.chunks))):
        t0, t1 = cache.chunks[k]
        n = t1 - t0
        Abar, E, Bbar = _discretize(delta[t0:t1], A, Bix[t0:t1], discretized)
        # the states around the chunk's steps: the first and last are
        # stored, the ones between are re-run
        hc = states[:n + 1]
        hc[0] = cache.h_starts[k]
        hc[-1] = cache.h_starts[k + 1]
        _run_states(Abar, Bbar, u[t0:t1], hc[0], hc[1:-1])
        np.einsum("ld,lnd->ln", gy[t0:t1], hc[1:], out=gC[t0:t1])
        # dL/dh_t = gy_t C_t + Abar_{t+1} dL/dh_{t+1}, written in place;
        # gh carries Abar_t dL/dh_t to the step before
        ghs = np.einsum("ln,ld->lnd", Cix[t0:t1], gy[t0:t1], out=ghs_buf[:n])
        for g, a in zip(ghs[::-1], Abar[::-1]):
            g += gh
            np.multiply(g, a, out=gh)

        gu[t0:t1] += np.einsum("lnd,lnd->ld", ghs, Bbar)
        # gBbar, then gE = gBbar*B
        gE = np.einsum("lnd,ld->lnd", ghs, u[t0:t1], out=gE_buf[:n])
        np.einsum("lnd,lnd->ln", gE, E, out=gB[t0:t1])
        gE *= Bix[t0:t1, :, None]
        X = ghs                 # X = (ghs*h*A + gE)*Abar, in place
        X *= hc[:-1]
        X *= A
        X += gE
        X *= Abar
        np.sum(X, axis=1, out=gdelta[t0:t1])
        gA_log += (np.einsum("lnd,ld->nd", X, delta[t0:t1])
                   - np.einsum("lnd,lnd->nd", gE, E))
    gA_log = np.ascontiguousarray(gA_log.T)
    grad_h0 = np.ascontiguousarray(gh.T)

    # delta = softplus(z), z = u@W_delta + b_delta
    gz = gdelta * sig
    gW_delta = weight_grad(u, gz)
    gb_delta = gz.sum(0)
    gu += gz @ p.W_delta.T

    # B = u@W_B, C = u@W_C
    gW_B = weight_grad(u, gB)
    gW_C = weight_grad(u, gC)
    gu += gB @ p.W_B.T
    gu += gC @ p.W_C.T

    # u = xs@W_in + b_in
    gW_in = weight_grad(xs, gu)
    gb_in = gu.sum(0)
    gxs = gu @ p.W_in.T

    grads = {"A_log": gA_log, "W_in": gW_in, "b_in": gb_in,
             "W_delta": gW_delta, "b_delta": gb_delta, "W_B": gW_B,
             "W_C": gW_C, "D_skip": gD_skip, "W_out": gW_out, "b_out": gb_out}
    return grads, grad_h0, gxs
