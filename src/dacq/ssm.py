"""Selective state-space layer: an input-dependent discretized linear
recurrence with sequential and parallel prefix-scan evaluators and an
exact hand-derived backward pass.

The recurrence (per channel d, state n):

    delta = softplus(u @ W_delta + b_delta)         u = x @ W_in + b_in
    B(u)  = u @ W_B          C(u) = u @ W_C
    Abar  = exp(delta * A)   Bbar = delta * phi1(delta * A) * B(u)
    h_t   = Abar * h_{t-1} + Bbar * u_t
    y_t   = (h_t @ C_t) + D_skip * u_t              out = y @ W_out + b_out

with phi1(z) = (e^z - 1)/z (the exact zero-order-hold factor).  phi1 and
its derivative use the direct formula, and a cubic Taylor series only on
the entries with |z| < 1e-5 (_SERIES_CUTOFF).  A is diagonal, stored as
a (d_model, d_state) array.  All arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SERIES_CUTOFF = 1e-5


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus for y > 0."""
    return np.log(np.expm1(y))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def phi1(z):
    """(e^z - 1)/z with a Taylor fallback near zero."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.expm1(zs, out=np.empty_like(zs))
        out /= zs
    zm = z[small]
    out[small] = 1.0 + zm / 2.0 + zm * zm / 6.0 + zm ** 3 / 24.0
    return out


def phi1_deriv(z):
    """d/dz of phi1: (e^z (z - 1) + 1)/z^2, series near zero."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.exp(zs, out=np.empty_like(zs))
        tmp = np.subtract(zs, 1.0, out=np.empty_like(zs))
        out *= tmp
        out += 1.0
        out /= np.multiply(zs, zs, out=tmp)
    zm = z[small]
    out[small] = 0.5 + zm / 3.0 + zm * zm / 8.0 + zm ** 3 / 30.0
    return out


def discretize(A, B, delta):
    """Zero-order-hold discretization for diagonal A.

    A: (..., D, N) diagonal entries; B: (..., N); delta: (..., D) > 0.
    Returns (Abar, Bbar), both (..., D, N), with the exact A -> 0 limit
    Bbar -> delta * B.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    P = delta[..., None] * A
    Abar = np.exp(P)
    Bbar = delta[..., None] * phi1(P) * B[..., None, :]
    return Abar, Bbar


@dataclass
class SsmParams:
    """Learnable tensors of one selective-SSM layer.

    version increments on every in-place parameter update so caches from
    older forward passes can be rejected.
    """

    A: np.ndarray         # (D, N) diagonal transition
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
        return self.A.shape[0]

    @property
    def d_state(self) -> int:
        return self.A.shape[1]

    def tensors(self) -> dict:
        return {"A": self.A, "W_in": self.W_in, "b_in": self.b_in,
                "W_delta": self.W_delta, "b_delta": self.b_delta,
                "W_B": self.W_B, "W_C": self.W_C, "D_skip": self.D_skip,
                "W_out": self.W_out, "b_out": self.b_out}

    def bump(self) -> None:
        self.version += 1


def init_ssm_params(rng, d_model: int, d_state: int) -> SsmParams:
    """Stable defaults: negative diagonal A, small positive initial step
    sizes, unit skip, scaled-normal mixing weights."""
    s = 1.0 / np.sqrt(d_model)
    return SsmParams(
        A=-rng.uniform(0.01, 1.0, (d_model, d_state)),
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
    """Forward intermediates retained for the backward pass."""

    params: SsmParams
    version: int
    unbatched: bool
    xs: np.ndarray        # (B, L, D)
    u: np.ndarray         # (B, L, D)
    sig: np.ndarray       # (B, L, D) sigmoid of the delta pre-activation
    delta: np.ndarray     # (B, L, D)
    Bix: np.ndarray       # (B, L, N) input-dependent B
    Cix: np.ndarray       # (B, L, N) input-dependent C
    P: np.ndarray         # (B, L, D, N) delta * A
    Abar: np.ndarray      # (B, L, D, N)
    phi: np.ndarray       # (B, L, D, N)
    Bbar: np.ndarray      # (B, L, D, N)
    hs: np.ndarray        # (B, L+1, D, N), hs[:, 0] = h0


def _normalize_inputs(params: SsmParams, h0, xs):
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 2:
        unbatched = True
        xs = xs[None]
    elif xs.ndim == 3:
        unbatched = False
    else:
        raise ValueError(f"xs must be (L, D) or (batch, L, D), got {xs.shape}")
    nb, L, D = xs.shape
    if D != params.d_model:
        raise ValueError(f"input dim {D} != d_model {params.d_model}")
    N = params.d_state
    if h0 is None:
        h0 = np.zeros((nb, D, N))
    else:
        h0 = np.asarray(h0, dtype=np.float64)
        if h0.ndim == 2:
            h0 = np.broadcast_to(h0[None], (nb, D, N)).copy()
        if h0.shape != (nb, D, N):
            raise ValueError(f"h0 shape {h0.shape} incompatible with "
                             f"({nb}, {D}, {N})")
    return xs, h0, unbatched


def _input_projections(params: SsmParams, xs):
    u = xs @ params.W_in + params.b_in
    z = u @ params.W_delta + params.b_delta
    delta = softplus(z)
    sig = sigmoid(z)
    Bix = u @ params.W_B
    Cix = u @ params.W_C
    P = delta[..., None] * params.A
    Abar = np.exp(P)
    phi = phi1(P)
    Bbar = delta[..., None] * phi * Bix[..., None, :]
    return u, sig, delta, Bix, Cix, P, Abar, phi, Bbar


def _emit(params: SsmParams, hs_steps, Cix, u):
    # y[b,l,d] = sum_n h[b,l,d,n] C[b,l,n] + D_skip[d] u[b,l,d]
    y = np.einsum("bldn,bln->bld", hs_steps, Cix) + params.D_skip * u
    return y @ params.W_out + params.b_out


def ssm_forward_sequential(params: SsmParams, h0, xs):
    """Step-by-step evaluation; returns (ys, h_final, cache)."""
    xs, h0, unbatched = _normalize_inputs(params, h0, xs)
    nb, L, D = xs.shape
    N = params.d_state
    u, sig, delta, Bix, Cix, P, Abar, phi, Bbar = _input_projections(params, xs)
    hs = np.empty((nb, L + 1, D, N))
    hs[:, 0] = h0
    for t in range(L):
        hs[:, t + 1] = Abar[:, t] * hs[:, t] + Bbar[:, t] * u[:, t, :, None]
    ys = _emit(params, hs[:, 1:], Cix, u)
    h_final = hs[:, -1]
    cache = SsmCache(params, params.version, unbatched, xs, u, sig, delta,
                     Bix, Cix, P, Abar, phi, Bbar, hs)
    if unbatched:
        return ys[0], h_final[0], cache
    return ys, h_final, cache


def scan_combine(a1, b1, a2, b2):
    """Associative combine of recurrence elements: applying (a1, b1) then
    (a2, b2) equals (a2*a1, a2*b1 + b2)."""
    return a2 * a1, a2 * b1 + b2


def ssm_forward_scan(params: SsmParams, h0, xs):
    """Prefix-scan evaluation (inclusive Hillis-Steele); same outputs as
    the sequential path up to floating-point reassociation."""
    xs, h0, unbatched = _normalize_inputs(params, h0, xs)
    nb, L, D = xs.shape
    u, sig, delta, Bix, Cix, P, Abar, phi, Bbar = _input_projections(params, xs)
    a = Abar.copy()
    b = Bbar * u[..., None]
    b[:, 0] += a[:, 0] * h0
    offset = 1
    while offset < L:
        # full-slice RHS temporaries make the in-place update safe
        b[:, offset:] = b[:, offset:] + a[:, offset:] * b[:, :-offset]
        a[:, offset:] = a[:, offset:] * a[:, :-offset]
        offset *= 2
    ys = _emit(params, b, Cix, u)
    h_final = b[:, -1]
    if unbatched:
        return ys[0], h_final[0]
    return ys, h_final


def ssm_backward(cache: SsmCache, grad_ys, grad_h_final=None):
    """Reverse-mode gradients of the sequential forward pass.

    Returns (grads: name->array matching params.tensors(), grad_h0,
    grad_xs).  grad_ys must match the forward ys shape; grad_h_final is
    the gradient arriving at the carried final hidden state, if any.
    """
    p = cache.params
    if cache.version != p.version:
        raise ValueError("stale cache: parameters were updated after the "
                         "forward pass")
    xs, u, delta, sig = cache.xs, cache.u, cache.delta, cache.sig
    Bix, Cix = cache.Bix, cache.Cix
    Abar, phi, Bbar, P, hs = cache.Abar, cache.phi, cache.Bbar, cache.P, cache.hs
    nb, L, D = xs.shape
    N = p.d_state

    gys = np.asarray(grad_ys, dtype=np.float64)
    if cache.unbatched:
        gys = gys[None]
    if gys.shape != (nb, L, D):
        raise ValueError(f"grad_ys shape {grad_ys.shape} does not match ys")
    if grad_h_final is None:
        gh = np.zeros((nb, D, N))
    else:
        gh = np.asarray(grad_h_final, dtype=np.float64)
        if cache.unbatched:
            gh = gh[None]
        gh = gh.copy()

    # output mixing
    y_pre = np.einsum("bldn,bln->bld", hs[:, 1:], Cix) + p.D_skip * u
    gW_out = np.einsum("bld,ble->de", y_pre, gys)
    gb_out = gys.sum((0, 1))
    gy = gys @ p.W_out.T

    # through the emission: y = h.C + D_skip*u
    gC = np.einsum("bld,bldn->bln", gy, hs[:, 1:])
    gD_skip = (gy * u).sum((0, 1))
    gu = gy * p.D_skip

    # reverse recurrence: accumulate total dL/dh_t for every t
    ghs = np.empty((nb, L, D, N))
    for t in range(L - 1, -1, -1):
        gh += gy[:, t, :, None] * Cix[:, t, None, :]
        ghs[:, t] = gh
        gh = gh * Abar[:, t]
    grad_h0 = gh

    # the (B, L, D, N) temporaries below reuse ghs, gBbar and one scratch
    # buffer; each product keeps its left-to-right order, so the results
    # are bit-identical to fresh arrays
    gBbar = ghs * u[..., None]
    gu += np.einsum("bldn,bldn->bld", ghs, Bbar)

    # Abar = exp(P), Bbar = delta*phi1(P)*B
    gP = ghs                    # gP = (ghs * h) * Abar
    gP *= hs[:, :-1]
    gP *= Abar
    scratch = np.multiply(phi, Bix[:, :, None, :])
    gdelta = np.einsum("bldn,bldn->bld", gBbar, scratch)
    np.multiply(delta[..., None], phi, out=scratch)
    gB = np.einsum("bldn,bldn->bln", gBbar, scratch)
    del scratch
    gphi = gBbar                # gphi = (gBbar * delta) * B
    gphi *= delta[..., None]
    gphi *= Bix[:, :, None, :]
    gphi *= phi1_deriv(P)
    gP += gphi
    # P = delta * A
    gdelta += np.einsum("bldn,dn->bld", gP, p.A)
    gA = np.einsum("bldn,bld->dn", gP, delta)

    # delta = softplus(z), z = u@W_delta + b_delta
    gz = gdelta * sig
    gW_delta = np.einsum("bld,ble->de", u, gz)
    gb_delta = gz.sum((0, 1))
    gu += gz @ p.W_delta.T

    # B = u@W_B, C = u@W_C
    gW_B = np.einsum("bld,bln->dn", u, gB)
    gW_C = np.einsum("bld,bln->dn", u, gC)
    gu += gB @ p.W_B.T
    gu += gC @ p.W_C.T

    # u = xs@W_in + b_in
    gW_in = np.einsum("bld,ble->de", xs, gu)
    gb_in = gu.sum((0, 1))
    gxs = gu @ p.W_in.T

    grads = {"A": gA, "W_in": gW_in, "b_in": gb_in, "W_delta": gW_delta,
             "b_delta": gb_delta, "W_B": gW_B, "W_C": gW_C,
             "D_skip": gD_skip, "W_out": gW_out, "b_out": gb_out}
    if cache.unbatched:
        return grads, grad_h0[0], gxs[0]
    return grads, grad_h0, gxs
