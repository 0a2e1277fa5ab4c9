"""Tests for the selective state-space layer: discretization, forward
paths, scan equivalence, and the hand-derived backward pass."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import reference
from dacq import ssm


def small_params(seed=0, d_model=8, d_state=4):
    return ssm.init_ssm_params(np.random.default_rng(seed), d_model, d_state)


# ---------------------------------------------------------------------------
# scalar helpers

def test_phi1_special_values():
    assert ssm.phi1(0.0) == 1.0
    assert_allclose(ssm.phi1(1.0), math.e - 1.0, rtol=1e-15)
    z = -math.log(2.0)
    assert_allclose(ssm.phi1(z), (0.5 - 1.0) / z, rtol=1e-15)


def test_phi1_branches_agree_at_cutoff():
    # series and direct formulas nearly coincide where the switch happens
    for z in (1.2e-5, -1.2e-5):
        direct = math.expm1(z) / z
        series = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
        assert abs(direct - series) < 1e-10
        d_direct = (math.exp(z) * (z - 1.0) + 1.0) / (z * z)
        d_series = 0.5 + z / 3.0 + z * z / 8.0 + z ** 3 / 30.0
        assert abs(d_direct - d_series) < 1e-6


def test_phi1_deriv_matches_finite_difference():
    rng = np.random.default_rng(3)
    for z in np.concatenate([rng.uniform(-3, 3, 10), [0.0, 1e-6, -1e-6]]):
        h = 1e-6
        fd = (ssm.phi1(z + h) - ssm.phi1(z - h)) / (2 * h)
        assert abs(ssm.phi1_deriv(z) - fd) < 1e-8


def _mixed_z():
    c = ssm._SERIES_CUTOFF
    special = [0.0, -0.0, c, -c, 1e-6, -1e-6, 1.2e-5, -1.2e-5, 700.0, -700.0]
    rng = np.random.default_rng(4)
    return np.concatenate([special, rng.uniform(-3.0, 3.0, 14)])


@pytest.mark.parametrize("shape", [(24,), (2, 3, 4)])
def test_phi1_masked_series_matches_scalar_calls(shape):
    # the series is written into the small entries only: every element of
    # an array call must be bit-for-bit its own scalar call, and the
    # entries below the cutoff bit-for-bit the Taylor polynomial
    z = _mixed_z().reshape(shape)
    series = {ssm.phi1: lambda v: 1.0 + v / 2.0 + v * v / 6.0 + v ** 3 / 24.0,
              ssm.phi1_deriv: lambda v: 0.5 + v / 3.0 + v * v / 8.0
              + v ** 3 / 30.0}
    for fn, poly in series.items():
        got = fn(z)
        assert got.shape == shape and got.dtype == np.float64
        for idx in np.ndindex(shape):
            v = float(z[idx])
            assert got[idx].tobytes() == fn(v).tobytes(), (fn.__name__, v)
            if abs(v) < ssm._SERIES_CUTOFF:
                assert got[idx].tobytes() == np.float64(poly(v)).tobytes()


def test_softplus_inverse_round_trip():
    y = np.array([1e-3, 0.01, 0.1, 1.0, 5.0])
    assert_allclose(ssm.softplus(ssm.softplus_inv(y)), y, rtol=1e-12)


# ---------------------------------------------------------------------------
# discretization

def test_discretize_zero_A_limit():
    B = np.array([0.7, -1.2])
    delta = np.array([0.3])
    Abar, Bbar = ssm.discretize(np.zeros((1, 2)), B, delta)
    assert_array_equal(Abar, np.ones((1, 2)))
    assert_allclose(Bbar, (0.3 * B)[None, :], rtol=1e-15)


def test_discretize_half_life():
    Abar, Bbar = ssm.discretize(np.array([[-1.0]]), np.array([1.0]),
                                np.array([math.log(2.0)]))
    assert_allclose(Abar, [[0.5]], rtol=1e-15)
    # (Abar - 1)/A * B = 0.5 for A=-1
    assert_allclose(Bbar, [[0.5]], rtol=1e-14)


def test_discretize_matches_ode_integration():
    # ZOH over [0, delta] must agree with integrating dh = A h + B x
    rng = np.random.default_rng(7)
    D, N = 3, 4
    A = rng.uniform(-2.0, 0.5, (D, N))
    B = rng.normal(size=N)
    delta = rng.uniform(0.1, 1.0, D)
    x = rng.normal(size=D)
    h0 = rng.normal(size=(D, N))
    Abar, Bbar = ssm.discretize(A, B, delta)
    want = Abar * h0 + Bbar * x[:, None]

    steps = 4000
    h = h0.copy()
    dt = delta[:, None] / steps
    forcing = B[None, :] * x[:, None]

    def f(hh):
        return A * hh + forcing

    for _ in range(steps):
        k1 = f(h)
        k2 = f(h + 0.5 * dt * k1)
        k3 = f(h + 0.5 * dt * k2)
        k4 = f(h + dt * k3)
        h = h + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(h - want)) < 1e-8


# ---------------------------------------------------------------------------
# forward passes

def test_zero_input_zero_state_gives_zero_output():
    p = small_params()
    xs = np.zeros((5, 8))
    ys, h_final, _ = ssm.ssm_forward_sequential(p, None, xs)
    assert_array_equal(ys, np.zeros((5, 8)))
    assert_array_equal(h_final, np.zeros((8, 4)))


def test_memoryless_limit_is_time_independent():
    # huge negative A underflows Abar to exactly 0: no state carried over
    p = small_params(1)
    p.A[:] = -1e6
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


def test_batched_equals_per_sequence():
    p = small_params(6)
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(3, 9, 8))
    h0 = rng.normal(size=(3, 8, 4))
    ys, hf, _ = ssm.ssm_forward_sequential(p, h0, xs)
    for b in range(3):
        yb, hb, _ = ssm.ssm_forward_sequential(p, h0[b], xs[b])
        assert_array_equal(ys[b], yb)
        assert_array_equal(hf[b], hb)


def test_hidden_state_continuity():
    p = small_params(9)
    rng = np.random.default_rng(10)
    xs = rng.normal(size=(10, 8))
    full_ys, full_h, _ = ssm.ssm_forward_sequential(p, None, xs)
    y1, h_mid, _ = ssm.ssm_forward_sequential(p, None, xs[:4])
    y2, h_end, _ = ssm.ssm_forward_sequential(p, h_mid, xs[4:])
    assert_allclose(np.vstack([y1, y2]), full_ys, atol=1e-12, rtol=0)
    assert_allclose(h_end, full_h, atol=1e-12, rtol=0)


def test_forward_shape_errors():
    p = small_params()
    with pytest.raises(ValueError):
        ssm.ssm_forward_sequential(p, None, np.zeros(8))
    with pytest.raises(ValueError):
        ssm.ssm_forward_sequential(p, None, np.zeros((4, 7)))
    with pytest.raises(ValueError):
        ssm.ssm_forward_sequential(p, np.zeros((3, 3)), np.zeros((4, 8)))


# ---------------------------------------------------------------------------
# scan

def test_scan_combine_associative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a1, a2, a3 = rng.uniform(0, 1, (3, 4))
        b1, b2, b3 = rng.normal(size=(3, 4))
        left = ssm.scan_combine(*ssm.scan_combine(a1, b1, a2, b2), a3, b3)
        right_inner = ssm.scan_combine(a2, b2, a3, b3)
        right = ssm.scan_combine(a1, b1, *right_inner)
        assert_allclose(left[0], right[0], rtol=1e-12)
        assert_allclose(left[1], right[1], rtol=1e-12, atol=1e-12)


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


def test_scan_batched_and_deterministic():
    p = small_params(13)
    rng = np.random.default_rng(14)
    xs = rng.normal(size=(2, 33, 8))
    a1 = ssm.ssm_forward_scan(p, None, xs)
    a2 = ssm.ssm_forward_scan(p, None, xs)
    assert_array_equal(a1[0], a2[0])
    ys_seq, _, _ = ssm.ssm_forward_sequential(p, None, xs)
    assert np.max(np.abs(a1[0] - ys_seq)) <= 1e-6


# ---------------------------------------------------------------------------
# backward

def loss_and_grads(p, h0, xs, Wr, Sr):
    ys, hf, cache = ssm.ssm_forward_sequential(p, h0, xs)
    loss = float((ys * Wr).sum() + (hf * Sr).sum())
    grads, gh0, gxs = ssm.ssm_backward(cache, Wr, Sr)
    return loss, grads, gh0, gxs


def loss_only(p, h0, xs, Wr, Sr):
    ys, hf, _ = ssm.ssm_forward_sequential(p, h0, xs)
    return float((ys * Wr).sum() + (hf * Sr).sum())


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
    a, w_in, b_in = -0.4, 1.3, 0.2
    w_d, b_d = 0.7, -0.3
    w_b, w_c, d_skip = 0.9, 1.1, 0.5
    w_out, b_out = 1.7, 0.1
    x, h0 = 0.8, 0.6
    p = ssm.SsmParams(
        A=np.array([[a]]), W_in=np.array([[w_in]]), b_in=np.array([b_in]),
        W_delta=np.array([[w_d]]), b_delta=np.array([b_d]),
        W_B=np.array([[w_b]]), W_C=np.array([[w_c]]),
        D_skip=np.array([d_skip]), W_out=np.array([[w_out]]),
        b_out=np.array([b_out]))
    ys, hf, cache = ssm.ssm_forward_sequential(p, np.array([[h0]]),
                                               np.array([[x]]))
    grads, gh0, gxs = ssm.ssm_backward(cache, np.array([[1.0]]))

    u = x * w_in + b_in
    z = u * w_d + b_d
    delta = math.log1p(math.exp(z))
    sig = 1.0 / (1.0 + math.exp(-z))
    P = delta * a
    abar, phi = math.exp(P), (math.expm1(P) / P)
    phi_d = (math.exp(P) * (P - 1) + 1) / P ** 2
    Bv, Cv = u * w_b, u * w_c
    bbar = delta * phi * Bv
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
    dP = dabar * abar + dbbar * delta * Bv * phi_d
    ddelta = dbbar * phi * Bv + dP * a
    dB = dbbar * delta * phi
    du += dB * w_b
    dA = dP * delta
    dz = ddelta * sig
    du += dz * w_d
    dx = du * w_in

    assert_allclose(grads["W_out"], [[y]], rtol=1e-13)
    assert_allclose(grads["b_out"], [1.0], rtol=1e-15)
    assert_allclose(grads["D_skip"], [dy * u], rtol=1e-13)
    assert_allclose(grads["W_C"], [[dC * u]], rtol=1e-13)
    assert_allclose(grads["W_B"], [[dB * u]], rtol=1e-13)
    assert_allclose(grads["A"], [[dA]], rtol=1e-13)
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
    Sr = rng.normal(size=(8, 4))
    _, grads, gh0, gxs = loss_and_grads(p, h0, xs, Wr, Sr)

    h = 1e-4
    worst = 0.0
    for name, arr in p.tensors().items():
        g = grads[name]
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_only(p, h0, xs, Wr, Sr)
            flat[i] = orig - h
            dn = loss_only(p, h0, xs, Wr, Sr)
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
            up = loss_only(p, h0, xs, Wr, Sr)
            flat[i] = orig - h
            dn = loss_only(p, h0, xs, Wr, Sr)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            an = g.ravel()[i]
            if abs(an) > 1e-6:
                assert abs(an - fd) / max(abs(an), abs(fd)) <= 1e-4
            else:
                assert abs(fd) < 1e-5


def test_backward_batched_sums_per_sequence():
    p = small_params(19)
    rng = np.random.default_rng(20)
    xs = rng.normal(size=(2, 4, 8))
    gy = rng.normal(size=(2, 4, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    grads, gh0, gxs = ssm.ssm_backward(cache, gy)
    assert gh0.shape == (2, 8, 4) and gxs.shape == (2, 4, 8)
    total = {k: np.zeros_like(v) for k, v in grads.items()}
    for b in range(2):
        _, _, cb = ssm.ssm_forward_sequential(p, None, xs[b])
        gb, _, _ = ssm.ssm_backward(cb, gy[b])
        for k in total:
            total[k] += gb[k]
    for k in total:
        assert_allclose(grads[k], total[k], rtol=1e-12, atol=1e-12)


def test_stale_cache_rejected():
    p = small_params(21)
    xs = np.random.default_rng(22).normal(size=(3, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    p.bump()
    with pytest.raises(ValueError):
        ssm.ssm_backward(cache, np.zeros((3, 8)))


def test_backward_shape_check():
    p = small_params(23)
    xs = np.random.default_rng(24).normal(size=(3, 8))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    with pytest.raises(ValueError):
        ssm.ssm_backward(cache, np.zeros((4, 8)))


@pytest.mark.parametrize("batched", [False, True])
def test_backward_reuses_only_its_own_buffers(batched):
    # ssm_backward works in place on its own temporaries: a second call on
    # the same cache gives the same gradients, and neither the cache nor
    # the upstream gradients change
    p = small_params(27)
    rng = np.random.default_rng(28)
    lead = (2,) if batched else ()
    xs = rng.normal(size=lead + (6, 8))
    gy = rng.normal(size=lead + (6, 8))
    ghf = rng.normal(size=lead + (8, 4))
    _, _, cache = ssm.ssm_forward_sequential(p, None, xs)
    arrays = {k: v for k, v in vars(cache).items()
              if isinstance(v, np.ndarray)}
    arrays.update(("param." + k, v) for k, v in p.tensors().items())
    arrays.update(grad_ys=gy, grad_h_final=ghf)
    before = {k: v.tobytes() for k, v in arrays.items()}
    g1, gh0_1, gxs_1 = ssm.ssm_backward(cache, gy, ghf)
    g2, gh0_2, gxs_2 = ssm.ssm_backward(cache, gy, ghf)
    for k in g1:
        assert g1[k].tobytes() == g2[k].tobytes(), k
    assert gh0_1.tobytes() == gh0_2.tobytes()
    assert gxs_1.tobytes() == gxs_2.tobytes()
    for k, v in arrays.items():
        assert v.tobytes() == before[k], k


def test_hidden_state_stays_finite():
    p = small_params(25)
    xs = np.random.default_rng(26).normal(size=(200, 8)) * 3
    ys, hf, cache = ssm.ssm_forward_sequential(p, None, xs)
    assert np.all(np.isfinite(ys)) and np.all(np.isfinite(hf))
    assert np.all(np.isfinite(cache.hs))
