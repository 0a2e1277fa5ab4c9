"""Tests for the selective state-space layer: discretization, forward
paths, scan equivalence, and the hand-derived backward pass."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import reference
from dacq import ssm


def small_params(seed=0, d_model=8, d_state=4):
    return ssm.init_ssm_params(np.random.default_rng(seed), d_model, d_state)


# ---------------------------------------------------------------------------
# scalar helpers

def test_softplus_inverse_round_trip():
    y = np.array([1e-3, 0.01, 0.1, 1.0, 5.0])
    assert_allclose(ssm.softplus(ssm.softplus_inv(y)), y, rtol=1e-12)


def test_softplus_matches_logaddexp():
    # max(z, 0) + log1p(exp(-|z|)) is logaddexp(0, z) split by the sign
    # of z; exp never sees a positive argument, so finite z raises nothing
    edges = np.array([0.0, 1e-300, 1.0, 20.0, 36.7, 700.0, 1e4])
    draws = np.random.default_rng(35).normal(size=10**4) * 10.0
    for z in (np.concatenate([edges, -edges]), draws):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = ssm.softplus(z)
        assert_allclose(got, np.logaddexp(0.0, z), rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# discretization

def test_discretize_half_life():
    # A = -1, delta = ln 2: Abar = 1/2 and Bbar = (Abar - 1)/A * B = 1/2;
    # B, C and u equal the input
    one = np.array([[1.0]])
    p = ssm.SsmParams(
        A_log=np.zeros((1, 1)), W_in=one, b_in=np.zeros(1),
        W_delta=np.zeros((1, 1)),
        b_delta=ssm.softplus_inv(np.array([math.log(2.0)])),
        W_B=one, W_C=one, D_skip=np.zeros(1), W_out=one, b_out=np.zeros(1))
    _, h1, cache = ssm.ssm_forward_sequential(p, one, one)
    Abar, _, Bbar = ssm._discretize(cache.delta, -np.exp(p.A_log), cache.Bix,
                                    np.empty((3, 1, 1, 1)))
    assert_allclose(Abar[0], [[0.5]], rtol=1e-14)
    assert_allclose(Bbar[0], [[0.5]], rtol=1e-14)
    assert_allclose(h1, [[1.0]], rtol=1e-14)


def test_discretize_matches_ode_integration():
    # one forward step is the zero-order hold: it must agree with
    # integrating dh = A h + B u over [0, delta], A = -exp(A_log), also
    # for A = -exp(-20), where |delta * A| < 1e-9
    rng = np.random.default_rng(7)
    D, N = 3, 4
    p = small_params(7, d_model=D, d_state=N)
    p.A_log[:] = np.log(rng.uniform(0.05, 2.0, (D, N)))
    p.A_log[0, 0] = -20.0
    x = rng.normal(size=(1, D))
    h0 = rng.normal(size=(D, N))
    _, want, cache = ssm.ssm_forward_sequential(p, h0, x)
    A = -np.exp(p.A_log)
    delta, B, u = cache.delta[0], cache.Bix[0], cache.u[0]

    steps = 4000
    h = h0.copy()
    dt = delta[:, None] / steps
    forcing = B[None, :] * u[:, None]

    def f(hh):
        return A * hh + forcing

    for _ in range(steps):
        k1 = f(h)
        k2 = f(h + 0.5 * dt * k1)
        k3 = f(h + 0.5 * dt * k2)
        k4 = f(h + dt * k3)
        h = h + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(h - want)) < 1e-8


def test_stable_by_construction():
    # any A_log gives A < 0, so 0 <= Abar < 1 and the state under a
    # constant input stays below the geometric-series bound
    p = small_params(29)
    p.A_log[:] = np.linspace(-20.0, 20.0, p.A_log.size).reshape(p.A_log.shape)
    x_row = np.random.default_rng(30).normal(size=8) * 3
    xs = np.tile(x_row, (2048, 1))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    A = ssm._transition(p)
    Abar, _, Bbar = ssm._discretize(cache.delta, A, cache.Bix,
                                    np.empty((3, len(xs)) + A.shape))
    hs = reference.ssm_states_ref(cache)
    assert np.all(Abar >= 0.0) and np.all(Abar < 1.0)
    assert Abar.min() == 0.0 and Abar.max() > 1.0 - 1e-9
    assert np.all(np.isfinite(hs))
    bu = np.abs(Bbar * cache.u[:, None, :])
    assert np.abs(hs).max() <= bu.max() / (1.0 - Abar.max())
    # with a constant input each (d, n) is its own geometric series
    bound = bu[0] / (1.0 - Abar[0])
    assert np.all(np.abs(hs) <= bound * (1.0 + 1e-12))


# ---------------------------------------------------------------------------
# forward passes

def test_zero_input_zero_state_gives_zero_output():
    p = small_params()
    xs = np.zeros((5, 8))
    ys, h_final, _ = ssm.ssm_forward_sequential(p, None, xs)
    assert_array_equal(ys, np.zeros((5, 8)))
    assert_array_equal(h_final, np.zeros((8, 4)))


def test_empty_sequence():
    p = small_params()
    xs = np.zeros((0, 8))
    ys, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    assert ys.shape == (0, 8)
    _, gh0, gxs = ssm.ssm_backward(cache, np.zeros((0, 8)))
    assert gh0.shape == (8, 4) and gxs.shape == xs.shape


def test_memoryless_limit_is_time_independent():
    # huge negative A underflows Abar to exactly 0: no state carried over
    p = small_params(1)
    p.A_log[:] = np.log(1e6)
    x_row = np.random.default_rng(2).normal(size=8)
    xs = np.tile(x_row, (4, 1))
    ys, _, _ = ssm.ssm_forward_sequential(p, None, xs)
    for t in range(1, 4):
        assert_array_equal(ys[t], ys[0])


def test_sequential_matches_scalar_oracle():
    p = small_params(4, d_model=6, d_state=3)
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(7, 6))
    h0 = rng.normal(size=(6, 3))
    ys, h_final, _ = ssm.ssm_forward_sequential(p, h0, xs)
    ten = {k: v.tolist() for k, v in p.tensors().items()}
    ys_ref, h_ref = reference.ssm_forward_ref(ten, h0.tolist(), xs.tolist())
    assert_allclose(ys, ys_ref, rtol=1e-12, atol=1e-12)
    assert_allclose(h_final, h_ref, rtol=1e-12, atol=1e-12)


def test_hidden_state_continuity():
    p = small_params(9)
    rng = np.random.default_rng(10)
    xs = rng.normal(size=(10, 8))
    full_ys, full_h, _ = ssm.ssm_forward_sequential(p, None, xs)
    y1, h_mid, _ = ssm.ssm_forward_sequential(p, None, xs[:4])
    y2, h_end, _ = ssm.ssm_forward_sequential(p, h_mid, xs[4:])
    assert_allclose(np.concatenate([y1, y2]), full_ys, atol=1e-12,
                    rtol=0)
    assert_allclose(h_end, full_h, atol=1e-12, rtol=0)


def test_forward_shape_errors():
    # xs is (L, D) and h0 (D, N): one sequence, no batch axis
    p = small_params()
    for xs in (np.zeros(8), np.zeros((1, 4, 8)), np.zeros((4, 7))):
        with pytest.raises(ValueError):
            ssm.ssm_forward_sequential(p, None, xs)
    for h0 in (np.zeros((3, 3)), np.zeros((1, 8, 4)), np.zeros((4, 8))):
        with pytest.raises(ValueError):
            ssm.ssm_forward_sequential(p, h0, np.zeros((4, 8)))


# ---------------------------------------------------------------------------
# scan

@pytest.mark.parametrize("L", [1, 2, 7, 64, 2048])
def test_scan_matches_sequential(L):
    p = small_params(12)
    rng = np.random.default_rng(L)
    xs = rng.normal(size=(L, 8))
    h0 = rng.normal(size=(8, 4))
    ys_seq, hf_seq, _ = ssm.ssm_forward_sequential(p, h0, xs)
    ys_scan, hf_scan = ssm.ssm_forward_scan(p, h0, xs)
    assert np.max(np.abs(ys_seq - ys_scan)) <= 1e-6
    assert np.max(np.abs(hf_seq - hf_scan)) <= 1e-6


def test_scan_deterministic():
    p = small_params(13)
    rng = np.random.default_rng(14)
    xs = rng.normal(size=(33, 8))
    a1 = ssm.ssm_forward_scan(p, None, xs)
    a2 = ssm.ssm_forward_scan(p, None, xs)
    assert_array_equal(a1[0], a2[0])
    ys_seq, _, _ = ssm.ssm_forward_sequential(p, None, xs)
    assert np.max(np.abs(a1[0] - ys_seq)) <= 1e-6


# ---------------------------------------------------------------------------
# backward

def loss_only(p, h0, xs, Wr):
    ys, _, _ = ssm.ssm_forward_sequential(p, h0, xs)
    return float((ys * Wr).sum())


def test_zero_upstream_gradient():
    p = small_params(15)
    xs = np.random.default_rng(16).normal(size=(5, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    grads, gh0, gxs = ssm.ssm_backward(cache, np.zeros((5, 8)))
    for g in grads.values():
        assert_array_equal(g, np.zeros_like(g))
    assert_array_equal(gh0, np.zeros((8, 4)))
    assert_array_equal(gxs, np.zeros((5, 8)))


def test_single_step_scalar_hand_chain_rule():
    # D = N = 1, L = 1: every gradient has a short closed form
    a_log, w_in, b_in = math.log(0.4), 1.3, 0.2
    w_d, b_d = 0.7, -0.3
    w_b, w_c, d_skip = 0.9, 1.1, 0.5
    w_out, b_out = 1.7, 0.1
    x, h0 = 0.8, 0.6
    p = ssm.SsmParams(
        A_log=np.array([[a_log]]), W_in=np.array([[w_in]]),
        b_in=np.array([b_in]),
        W_delta=np.array([[w_d]]), b_delta=np.array([b_d]),
        W_B=np.array([[w_b]]), W_C=np.array([[w_c]]),
        D_skip=np.array([d_skip]), W_out=np.array([[w_out]]),
        b_out=np.array([b_out]))
    ys, hf, cache = ssm.ssm_forward_sequential(p, np.array([[h0]]),
                                               np.array([[x]]))
    grads, gh0, gxs = ssm.ssm_backward(cache, np.array([[1.0]]))

    a = -math.exp(a_log)
    u = x * w_in + b_in
    z = u * w_d + b_d
    delta = math.log1p(math.exp(z))
    sig = 1.0 / (1.0 + math.exp(-z))
    abar, e = math.exp(delta * a), math.expm1(delta * a) / a
    Bv, Cv = u * w_b, u * w_c
    bbar = e * Bv
    h1 = abar * h0 + bbar * u
    y = h1 * Cv + d_skip * u
    assert_allclose(ys, [[y * w_out + b_out]], rtol=1e-14)

    # hand chain rule, outermost first
    dy = w_out
    dh1 = dy * Cv
    dC = dy * h1
    du = dy * d_skip + dC * w_c
    dabar = dh1 * h0
    dbbar = dh1 * u
    du += dh1 * bbar
    de = dbbar * Bv
    dB = dbbar * e
    du += dB * w_b
    # abar = exp(delta*a), e = (exp(delta*a) - 1)/a
    ddelta = dabar * abar * a + de * abar
    dA = dabar * abar * delta + de * (delta * abar - e) / a
    dA_log = dA * a
    dz = ddelta * sig
    du += dz * w_d
    dx = du * w_in

    assert_allclose(grads["W_out"], [[y]], rtol=1e-13)
    assert_allclose(grads["b_out"], [1.0], rtol=1e-15)
    assert_allclose(grads["D_skip"], [dy * u], rtol=1e-13)
    assert_allclose(grads["W_C"], [[dC * u]], rtol=1e-13)
    assert_allclose(grads["W_B"], [[dB * u]], rtol=1e-13)
    assert_allclose(grads["A_log"], [[dA_log]], rtol=1e-13)
    assert_allclose(grads["W_delta"], [[dz * u]], rtol=1e-13)
    assert_allclose(grads["b_delta"], [dz], rtol=1e-13)
    assert_allclose(grads["W_in"], [[du * x]], rtol=1e-13)
    assert_allclose(grads["b_in"], [du], rtol=1e-13)
    assert_allclose(gh0, [[dh1 * abar]], rtol=1e-13)
    assert_allclose(gxs, [[dx]], rtol=1e-13)


def test_backward_matches_finite_differences():
    p = small_params(17)
    rng = np.random.default_rng(18)
    L = 6
    xs = rng.normal(size=(L, 8))
    h0 = rng.normal(size=(8, 4)) * 0.3
    Wr = rng.normal(size=(L, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, h0, xs)
    grads, gh0, gxs = ssm.ssm_backward(cache, Wr)

    h = 1e-4
    worst = 0.0
    for name, arr in p.tensors().items():
        g = grads[name]
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_only(p, h0, xs, Wr)
            flat[i] = orig - h
            dn = loss_only(p, h0, xs, Wr)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            an = g.ravel()[i]
            if abs(an) > 1e-6:
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd)))
            else:
                assert abs(fd) < 1e-5, f"{name}[{i}]"
    assert worst <= 1e-4

    for target, g in (("h0", gh0), ("xs", gxs)):
        arr = h0 if target == "h0" else xs
        flat = arr.ravel()
        for i in range(0, flat.size, 3):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_only(p, h0, xs, Wr)
            flat[i] = orig - h
            dn = loss_only(p, h0, xs, Wr)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            an = g.ravel()[i]
            if abs(an) > 1e-6:
                assert abs(an - fd) / max(abs(an), abs(fd)) <= 1e-4
            else:
                assert abs(fd) < 1e-5


def test_backward_matches_finite_differences_across_chunks(monkeypatch):
    # a budget of 3 steps runs L = 7 as chunks of 3 + 3 + 1, so every
    # gradient crosses two chunk bounds and one chunk is partial (the
    # first step of each scratch buffer)
    D, N, L = 5, 3, 7
    monkeypatch.setattr(ssm, "SCAN_CHUNK_ELEMENTS", 3 * D * N)
    p = small_params(36, d_model=D, d_state=N)
    rng = np.random.default_rng(37)
    xs = rng.normal(size=(L, D))
    h0 = rng.normal(size=(D, N)) * 0.3
    Wr = rng.normal(size=(L, D))
    _, _, cache = ssm.ssm_forward_sequential(p, h0, xs)
    assert cache.chunks == [(0, 3), (3, 6), (6, 7)]
    assert_every_gradient_matches_fd(p, h0, xs, Wr)


def test_backward_matches_finite_differences_across_blas_blocks(
        monkeypatch):
    # a budget of 3 * D * D elements runs L = 7 through weight_grad as
    # row blocks of 3 + 3 + 1 for W_in, W_delta and W_out (D, D) and of
    # 5 + 2 for W_B and W_C (D, N): every weight gradient over time adds
    # several blocks, the last one partial
    D, N, L = 5, 3, 7
    monkeypatch.setattr(ssm, "BLAS_BLOCK_ELEMENTS", 3 * D * D)
    p = small_params(38, d_model=D, d_state=N)
    rng = np.random.default_rng(39)
    xs = rng.normal(size=(L, D))
    h0 = rng.normal(size=(D, N)) * 0.3
    Wr = rng.normal(size=(L, D))
    assert_every_gradient_matches_fd(p, h0, xs, Wr)


def assert_every_gradient_matches_fd(p, h0, xs, Wr):
    """Every parameter's, h0's and xs's gradient of sum(ys * Wr) against
    central differences, each element within rel 1e-4."""
    _, _, cache = ssm.ssm_forward_sequential(p, h0, xs)
    grads, gh0, gxs = ssm.ssm_backward(cache, Wr)
    h = 1e-4
    wrt = [(name, arr, grads[name]) for name, arr in p.tensors().items()]
    wrt += [("h0", h0, gh0), ("xs", xs, gxs)]
    for name, arr, g in wrt:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_only(p, h0, xs, Wr)
            flat[i] = orig - h
            dn = loss_only(p, h0, xs, Wr)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            an = g.ravel()[i]
            if abs(an) > 1e-6:
                rel = abs(an - fd) / max(abs(an), abs(fd))
                assert rel <= 1e-4, (name, i, rel)
            else:
                assert abs(fd) < 1e-5, (name, i)


def test_stale_cache_rejected():
    p = small_params(21)
    xs = np.random.default_rng(22).normal(size=(3, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    p.bump()
    with pytest.raises(ValueError):
        ssm.ssm_backward(cache, np.zeros((3, 8)))


def test_backward_shape_check():
    # a grad_ys of another shape than ys is named before the reverse loop
    # can broadcast it
    p = small_params(23)
    xs = np.random.default_rng(24).normal(size=(3, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    for bad in ((4, 8), (3, 7), (1, 3, 8)):
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            ssm.ssm_backward(cache, np.zeros(bad))


CHUNK = 4


@pytest.mark.parametrize("L", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2])
def test_chunked_pass_matches_full_tensor_reference(monkeypatch, L):
    # a budget of CHUNK steps forces many chunks at a tiny shape.  The
    # chunked forward and backward do the arithmetic of the full-tensor
    # ones element for element; only grads["A_log"], which sums over l,
    # adds its terms one chunk at a time
    D, N = 5, 3
    p = small_params(31, d_model=D, d_state=N)
    rng = np.random.default_rng([32, L, 1])
    xs = rng.normal(size=(L, D))
    h0 = rng.normal(size=(D, N))
    gy = rng.normal(size=(L, D))

    # one chunk: the whole-sequence forward to compare against
    monkeypatch.setattr(ssm, "SCAN_CHUNK_ELEMENTS", L * D * N)
    ys_ref, hf_ref, cache_ref = ssm.ssm_forward_sequential(p, h0, xs)
    want, gh0_ref, gxs_ref = reference.ssm_backward_ref(cache_ref, gy)
    monkeypatch.setattr(ssm, "SCAN_CHUNK_ELEMENTS", CHUNK * D * N)
    ys, hf, cache = ssm.ssm_forward_sequential(p, h0, xs)
    got, gh0, gxs = ssm.ssm_backward(cache, gy)

    assert_array_equal(ys, ys_ref)
    assert_array_equal(hf, hf_ref)
    assert_array_equal(cache.y_pre, cache_ref.y_pre)
    # the chunked cache keeps the states at the chunk bounds only
    bounds = [t0 for t0, _ in cache.chunks] + [L]
    assert len(cache.chunks) == -(-L // CHUNK)
    assert_array_equal(cache.h_starts,
                       reference.ssm_states_ref(cache_ref)[bounds])
    assert_array_equal(gh0, gh0_ref)
    assert_array_equal(gxs, gxs_ref)
    for k in want:
        if k == "A_log" and L > CHUNK:
            err = np.max(np.abs(got[k] - want[k]))
            assert err <= 1e-13 * np.max(np.abs(want[k])), err
        else:
            assert_array_equal(got[k], want[k], err_msg=k)


# ---------------------------------------------------------------------------
# weight gradients over time in fixed BLAS blocks

class _MatmulSpy(np.ndarray):
    """An array whose views log, for each matmul they enter as the first
    operand, its first row in the spied array and its row count."""

    def __array_finalize__(self, obj):
        self.spy = getattr(obj, "spy", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            at = inputs[0]      # a block's a.T: (m, rows)
            addr, row_bytes, log = self.spy
            log.append(((at.__array_interface__["data"][0] - addr)
                        // row_bytes, at.shape[1]))
        inputs = [x.view(np.ndarray) if isinstance(x, _MatmulSpy) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _spy(a):
    """a as a _MatmulSpy and the list its matmuls log into."""
    s = a.view(_MatmulSpy)
    s.spy = (a.__array_interface__["data"][0], a.strides[0], [])
    return s, s.spy[2]


@pytest.mark.parametrize("m, n, rows", [
    (64, 64, 64), (64, 16, 256), (14, 64, 292), (128, 128, 16)])
@pytest.mark.parametrize("extra", ["1", "rows-1", "rows", "rows+1",
                                   "3rows+5"])
def test_weight_grad_is_exact_in_fixed_blocks(m, n, rows, extra):
    # integer-valued inputs make every product and sum exact, so the
    # blocked sum must equal the int64 product; a spy on a's matmuls
    # gives each block's first row and length
    L = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
         "3rows+5": 3 * rows + 5}[extra]
    rng = np.random.default_rng([m, n, L])
    ai = rng.integers(-8, 9, size=(L, m))
    bi = rng.integers(-8, 9, size=(L, n))
    a, log = _spy(ai.astype(np.float64))
    g = ssm.weight_grad(a, bi.astype(np.float64))
    assert type(g) is np.ndarray and g.shape == (m, n)
    assert_array_equal(g, ai.T @ bi)
    # blocks of `rows` steps from the top, in order: the most rows whose
    # product stays within OpenBLAS's single-thread size
    assert m * n * rows <= ssm.BLAS_BLOCK_ELEMENTS < m * n * (rows + 1)
    assert log == [(t0, min(rows, L - t0)) for t0 in range(0, L, rows)]


def _memory_case():
    # d_state 32 at d_model 16 makes a time chunk 32 steps
    p = small_params(33, d_model=16, d_state=32)
    rng = np.random.default_rng(34)
    return p, rng.normal(size=(2048, 16)), rng.normal(size=(2048, 16))


def test_cache_holds_no_per_step_state():
    # the states are kept at the 64 chunk starts and h_final only: no
    # cache array comes near the L*D*N elements of a per-step trajectory
    p, xs, _ = _memory_case()
    L, D = xs.shape
    _, hf, cache = ssm.ssm_forward_sequential(p, None, xs)
    assert len(cache.chunks) == 64
    assert cache.h_starts.shape == (65, p.d_state, D)
    assert_array_equal(cache.h_starts[-1].T, hf)
    arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) < L * D * p.d_state // 8


def test_forward_backward_memory_bounded():
    # in units of one (L, D) array: the cache holds 5 such arrays, B(u)
    # and C(u) at 2 units each (N = 2D) and the chunk-start states at about
    # 2; the backward adds its gradient arrays (about 8 units) and scratch
    # of a few 32-step chunks (1/2 unit each).  Measured: 21.2 units.
    # Keeping every step's state instead, 32 units on its own, peaks at 52
    p, xs, gy = _memory_case()
    tracemalloc.start()
    try:
        _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
        ssm.ssm_backward(cache, gy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 26 * xs.nbytes, (peak, xs.nbytes)


def test_backward_reuses_only_its_own_buffers():
    # ssm_backward works in place on its own temporaries: a second call on
    # the same cache gives the same gradients, and neither the cache nor
    # the upstream gradients change
    p = small_params(27)
    rng = np.random.default_rng(28)
    xs = rng.normal(size=(6, 8))
    gy = rng.normal(size=(6, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    arrays = {k: v for k, v in vars(cache).items()
              if isinstance(v, np.ndarray)}
    arrays.update(("param." + k, v) for k, v in p.tensors().items())
    arrays.update(grad_ys=gy)
    before = {k: v.tobytes() for k, v in arrays.items()}
    g1, gh0_1, gxs_1 = ssm.ssm_backward(cache, gy)
    g2, gh0_2, gxs_2 = ssm.ssm_backward(cache, gy)
    for k in g1:
        assert g1[k].tobytes() == g2[k].tobytes(), k
    assert gh0_1.tobytes() == gh0_2.tobytes()
    assert gxs_1.tobytes() == gxs_2.tobytes()
    for k, v in arrays.items():
        assert v.tobytes() == before[k], k


def test_forward_scratch_not_shared_between_calls(monkeypatch):
    # each call allocates its own chunk scratch: a second call on other
    # inputs leaves every array the first one returned as it was, the
    # cache's included (three chunks, the last one partial)
    monkeypatch.setattr(ssm, "SCAN_CHUNK_ELEMENTS", 4 * 8 * 4)
    p = small_params(38)
    rng = np.random.default_rng(39)
    ys, hf, cache = ssm.ssm_forward_sequential(
        p, rng.normal(size=(8, 4)), rng.normal(size=(10, 8)))
    assert len(cache.chunks) == 3
    first = {"ys": ys, "h_final": hf}
    first.update((k, v) for k, v in vars(cache).items()
                 if isinstance(v, np.ndarray))
    before = {k: v.tobytes() for k, v in first.items()}
    ys2, hf2, _ = ssm.ssm_forward_sequential(
        p, rng.normal(size=(8, 4)), rng.normal(size=(10, 8)))
    for k, v in first.items():
        assert v.tobytes() == before[k], k
    assert not np.array_equal(hf2, hf)


def test_hidden_state_stays_finite():
    p = small_params(25)
    xs = np.random.default_rng(26).normal(size=(200, 8)) * 3
    ys, hf, cache = ssm.ssm_forward_sequential(p, None, xs)
    assert np.all(np.isfinite(ys)) and np.all(np.isfinite(hf))
    assert np.all(np.isfinite(reference.ssm_states_ref(cache)))
