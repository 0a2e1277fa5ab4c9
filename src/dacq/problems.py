"""BBOB-style synthetic minimization suite on [-5, 5]^dim.

Implements the 24 classic benchmark families (sphere, ellipsoids,
Rastrigin variants, Rosenbrock, Schwefel, Gallagher peaks, ...) with
per-instance random shift and rotation.  Every instance is constructed so
that its global minimum sits exactly at the shift vector with objective
value ``f_opt``; families whose textbook form places the optimum
elsewhere (linear slope, Rosenbrock, Schwefel, Lunacek) are re-centred
accordingly, and families that traditionally use two independent
rotations reuse the single per-instance rotation for both.

Instances are deterministic in (function_id, dim, seed).  Their arrays,
those in ``aux`` included, are read-only, and ``evaluate`` is pure and
vectorized over rows, so it is safe to share one instance across
concurrent episode workers.  It is also row-batch invariant: a row's value
is bit-identical whatever other rows are passed with it, so splitting,
merging or reordering a batch never changes a result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

LOWER = -5.0
UPPER = 5.0

#: 16 training / 8 held-out function ids.
TRAIN_IDS = (1, 4, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24)
TEST_IDS = (2, 3, 5, 6, 7, 8, 9, 10)

SUPPORTED_DIMS = (5, 10, 20, 50)

#: Default dimension per function id.
DEFAULT_DIMS = {
    1: 50, 2: 5, 3: 5, 4: 10, 5: 50, 6: 5, 7: 20, 8: 10,
    9: 10, 10: 10, 11: 5, 12: 50, 13: 10, 14: 20, 15: 5, 16: 20,
    17: 50, 18: 50, 19: 10, 20: 20, 21: 20, 22: 10, 23: 20, 24: 20,
}

# Schwefel: interior argmin of g(y) = -y*sin(sqrt(|y|)) on [-500, 500],
# solved from sin(u) + (u/2)cos(u) = 0 with u = sqrt(y) near u = 20.52.
SCHWEFEL_YSTAR = 420.96874635998205

#: elements in one (rows, peaks) plane of ``_gallagher``: 2^14, the block
#: budget of the s1 pair blocks and the SSM chunks too
_PLANE_ELEMS = 1 << 14

#: ``_gallagher``'s screen: log values are bounded to within
#: ``_SCREEN_ERR (dim + 8)`` times their scale, a peak stays a candidate
#: within ``_SCREEN_SLACK (8 + |log value|)`` of the best, and a row whose
#: best peak may lie below e**-700 (subnormal below e**-708.4) takes every
#: peak
_SCREEN_ERR = 2.0 * np.finfo(float).eps
_SCREEN_SLACK = 32.0 * np.finfo(float).eps
_LOG_NORMAL = -700.0


@dataclass(frozen=True)
class ProblemInstance:
    """One shifted/rotated benchmark function with its optimum value."""

    function_id: int
    dim: int
    shift: np.ndarray         # (dim,) location of the global minimum
    rotation: np.ndarray      # (dim, dim) orthogonal
    f_opt: float              # objective value at the minimum
    lower: float = LOWER
    upper: float = UPPER
    seed: int | None = None
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProblemSplit:
    train_ids: tuple
    test_ids: tuple
    dims: dict


def default_split() -> ProblemSplit:
    """The 16/8 train/test partition with per-function default dims."""
    return ProblemSplit(TRAIN_IDS, TEST_IDS, dict(DEFAULT_DIMS))


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthogonalize a Gaussian matrix; sign-fix the diagonal of R so the
    result is deterministic and ||Q^T Q - I||_max stays at machine level."""
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def make_instance(function_id: int, dim: int, seed: int) -> ProblemInstance:
    """Deterministic instance: seeded rotation, shift in the central 80%
    of the range, f_opt ~ U[-100, 100]."""
    _check_ids(function_id, dim)
    rng = np.random.default_rng([function_id, dim, int(seed)])
    rotation = random_rotation(rng, dim)
    shift = rng.uniform(0.8 * LOWER, 0.8 * UPPER, dim)
    f_opt = float(rng.uniform(-100.0, 100.0))
    return _finalize(function_id, dim, shift, rotation, f_opt, seed, rng)


def make_identity_instance(function_id: int, dim: int,
                           f_opt: float = 0.0) -> ProblemInstance:
    """Debug constructor: shift = 0, rotation = I, chosen f_opt.  Any
    instance-level extras (e.g. Gallagher peaks) still come from a fixed
    seeded stream so the instance stays deterministic."""
    _check_ids(function_id, dim)
    rng = np.random.default_rng([function_id, dim, 0x5EED])
    shift = np.zeros(dim)
    rotation = np.eye(dim)
    return _finalize(function_id, dim, shift, rotation, float(f_opt), None, rng)


def _check_ids(function_id, dim):
    if function_id not in range(1, 25):
        raise ValueError(f"unknown function_id {function_id}")
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported dim {dim} (choose from {SUPPORTED_DIMS})")


def _finalize(function_id, dim, shift, rotation, f_opt, seed, rng):
    aux = {}
    if function_id in (21, 22):
        n_peaks = 101 if function_id == 21 else 21
        peaks = rng.uniform(-4.9, 4.9, (n_peaks, dim))
        peaks[0] = shift
        weights = np.empty(n_peaks)
        weights[0] = 10.0
        weights[1:] = 1.1 + 8.0 * np.arange(n_peaks - 1) / (n_peaks - 2)
        alphas = np.empty(n_peaks)
        alphas[0] = 1000.0
        alphas[1:] = rng.permutation(
            np.power(1000.0, 2.0 * np.arange(n_peaks - 1) / (n_peaks - 2)))
        # per-peak diagonal conditioning, axes decorrelated by permutation
        lams = alphas[:, None] ** (0.5 * np.arange(dim) / (dim - 1))
        diags = np.array([rng.permutation(lam) / a ** 0.25
                          for lam, a in zip(lams, alphas)])
        aux = {"peaks": peaks, "weights": weights, "diags": diags}
    p = ProblemInstance(function_id, dim, shift.copy(), rotation.copy(), f_opt,
                        LOWER, UPPER, seed, aux)
    if aux:
        # _gallagher's rotated peaks zp and screening constants: against
        # [zx^2, zx, 1], the rows [diag_k, -2 diag_k zp_k, sum_j diag_kj
        # zp_kj^2] give q_k; scaled by -1/(2 dim) and offset by log w_k
        # they give the log value, and [diag_k, 2 diag_k |zp_k|, sum_j
        # diag_kj zp_kj^2 + 2 dim |log w_k|] scaled by the error factor
        # bound its error
        zpeaks = _rot(p, peaks)
        dzp = diags * zpeaks
        base = np.sum(dzp * zpeaks, axis=1)
        log_w = np.log(weights)
        s = 0.5 / dim
        aux["zpeaks"] = zpeaks
        aux["screen"] = np.vstack([-s * diags.T, 2.0 * s * dzp.T,
                                   log_w - s * base])
        aux["screen_err"] = _SCREEN_ERR * (dim + 8) * s * np.vstack(
            [diags.T, 2.0 * np.abs(dzp.T), base + 2.0 * dim * np.abs(log_w)])
    for a in (p.shift, p.rotation, *aux.values()):
        a.flags.writeable = False
    return p


def evaluate(p: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """Vectorized objective: (NP, dim) -> (NP,).  Pure, thread-safe.

    Row-batch invariant: row ``i`` of the result is bit-identical to
    ``evaluate(p, X[i:i + 1])[0]``; it does not depend on the other rows.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != p.dim:
        raise ValueError(f"expected (NP, {p.dim}) matrix, got {X.shape}")
    base = _FUNCTIONS[p.function_id](p, X)
    return base + p.f_opt


# ---------------------------------------------------------------------------
# shared transforms

def _t_osz(u):
    """Oscillation transform; fixes 0 and preserves sign."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    nz = u != 0.0
    x = np.log(np.abs(u[nz]))
    sgn = np.sign(u[nz])
    c1 = np.where(sgn > 0, 10.0, 5.5)
    c2 = np.where(sgn > 0, 7.9, 3.1)
    out[nz] = sgn * np.exp(x + 0.049 * (np.sin(c1 * x) + np.sin(c2 * x)))
    return out


def _t_asy(u, beta):
    """Asymmetry transform on rows of shape (..., D); fixes 0."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    idx = np.arange(d) / (d - 1)
    safe = np.where(u > 0, u, 1.0)
    return np.where(u > 0, safe ** (1.0 + beta * idx * np.sqrt(safe)), u)


def _lam(alpha, d):
    """Diagonal of the conditioning matrix Lambda^alpha."""
    return alpha ** (0.5 * np.arange(d) / (d - 1))


def _pen(X):
    """Boundary penalty: sum of squared excess of |x| over UPPER."""
    over = np.maximum(0.0, np.abs(X) - UPPER)
    return np.sum(over * over, axis=-1)


def _rot(p, V):
    # row-vector form of z = R v, as one (1, dim) @ (dim, dim) product per
    # row: BLAS picks its kernel, and so its summation order, by the shape
    # of the whole operand, so a plain ``V @ R.T`` lets a row's value
    # depend on how many rows share the call
    return (V[:, None, :] @ p.rotation.T)[:, 0, :]


def _power_weights(d, expo):
    return 10.0 ** (expo * np.arange(d) / (d - 1))


# ---------------------------------------------------------------------------
# the 24 families (all formulated so the base value at X == shift is 0)

def _f1(p, X):  # sphere
    w = X - p.shift
    return np.sum(w * w, axis=1)


def _f2(p, X):  # separable ellipsoidal
    z = _t_osz(X - p.shift)
    return np.sum(_power_weights(p.dim, 6) * z * z, axis=1)


def _rastrigin(z):
    return 10.0 * (z.shape[1] - np.sum(np.cos(2 * np.pi * z), axis=1)) \
        + np.sum(z * z, axis=1)


def _f3(p, X):  # separable Rastrigin
    return _rastrigin(_lam(10, p.dim) * _t_asy(_t_osz(X - p.shift), 0.2))


def _f4(p, X):  # Buche-Rastrigin
    t = _t_osz(X - p.shift)
    s = np.tile(10.0 ** (0.5 * np.arange(p.dim) / (p.dim - 1)), (X.shape[0], 1))
    odd = np.zeros(p.dim, dtype=bool)
    odd[::2] = True  # odd coordinates in 1-based counting
    s = np.where(odd & (t > 0), 10.0 * s, s)
    return _rastrigin(s * t) + 100.0 * _pen(X)


def _f5(p, X):  # linear slope, re-centred as a rotated weighted cone
    z = _rot(p, X - p.shift)
    return np.sum(_power_weights(p.dim, 1) * np.abs(z), axis=1)


def _f6(p, X):  # attractive sector
    z = _rot(p, _lam(10, p.dim) * _rot(p, X - p.shift))
    s = np.where(z * p.shift > 0, 100.0, 1.0)
    return _t_osz(np.sum((s * z) ** 2, axis=1)) ** 0.9


def _f7(p, X):  # step ellipsoidal
    zhat = _lam(10, p.dim) * _rot(p, X - p.shift)
    ztilde = np.where(np.abs(zhat) > 0.5,
                      np.floor(0.5 + zhat),
                      np.floor(0.5 + 10.0 * zhat) / 10.0)
    z = _rot(p, ztilde)
    body = np.sum(_power_weights(p.dim, 2) * z * z, axis=1)
    return 0.1 * np.maximum(np.abs(zhat[:, 0]) / 1e4, body) + _pen(X)


def _rosen(p, v):
    z = max(1.0, np.sqrt(p.dim) / 8.0) * v + 1.0
    a = z[:, :-1]
    b = z[:, 1:]
    return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)


def _f8(p, X):  # Rosenbrock, axis-aligned
    return _rosen(p, X - p.shift)


def _f9(p, X):  # Rosenbrock, rotated
    return _rosen(p, _rot(p, X - p.shift))


def _f10(p, X):  # rotated ellipsoidal
    z = _t_osz(_rot(p, X - p.shift))
    return np.sum(_power_weights(p.dim, 6) * z * z, axis=1)


def _f11(p, X):  # discus
    z = _t_osz(_rot(p, X - p.shift))
    return 1e6 * z[:, 0] ** 2 + np.sum(z[:, 1:] ** 2, axis=1)


def _f12(p, X):  # bent cigar
    z = _rot(p, _t_asy(_rot(p, X - p.shift), 0.5))
    return z[:, 0] ** 2 + 1e6 * np.sum(z[:, 1:] ** 2, axis=1)


def _f13(p, X):  # sharp ridge
    z = _rot(p, _lam(10, p.dim) * _rot(p, X - p.shift))
    return z[:, 0] ** 2 + 100.0 * np.sqrt(np.sum(z[:, 1:] ** 2, axis=1))


def _f14(p, X):  # different powers
    z = _rot(p, X - p.shift)
    expo = 2.0 + 4.0 * np.arange(p.dim) / (p.dim - 1)
    return np.sqrt(np.sum(np.abs(z) ** expo, axis=1))


def _f15(p, X):  # multimodal Rastrigin
    t = _t_asy(_t_osz(_rot(p, X - p.shift)), 0.2)
    return _rastrigin(_rot(p, _lam(10, p.dim) * _rot(p, t)))


_WEIER_F0 = sum(0.5 ** k * np.cos(2 * np.pi * 3 ** k * 0.5) for k in range(12))


def _f16(p, X):  # Weierstrass
    t = _t_osz(_rot(p, X - p.shift))
    z = _rot(p, _lam(0.01, p.dim) * _rot(p, t))
    acc = np.zeros(X.shape[0])
    for k in range(12):
        acc += np.sum(0.5 ** k * np.cos(2 * np.pi * 3 ** k * (z + 0.5)), axis=1)
    return 10.0 * (acc / p.dim - _WEIER_F0) ** 3 + 10.0 / p.dim * _pen(X)


def _schaffers(p, X, alpha):
    t = _t_asy(_rot(p, X - p.shift), 0.5)
    z = _lam(alpha, p.dim) * _rot(p, t)
    s = np.sqrt(z[:, :-1] ** 2 + z[:, 1:] ** 2)
    body = np.mean(np.sqrt(s) + np.sqrt(s) * np.sin(50.0 * s ** 0.2) ** 2, axis=1)
    return body ** 2 + 10.0 * _pen(X)


def _f19(p, X):  # composite Griewank-Rosenbrock, re-centred
    z = _rot(p, X - p.shift) + 1.0
    s = 100.0 * (z[:, :-1] ** 2 - z[:, 1:]) ** 2 + (z[:, :-1] - 1.0) ** 2
    return 10.0 / (p.dim - 1) * np.sum(s / 4000.0 - np.cos(s), axis=1) + 10.0


def _f20(p, X):  # Schwefel, per-coordinate difference form
    z = _rot(p, X - p.shift)
    y = SCHWEFEL_YSTAR + 50.0 * z
    g = -y * np.sin(np.sqrt(np.abs(y)))
    gstar = -SCHWEFEL_YSTAR * np.sin(np.sqrt(np.abs(SCHWEFEL_YSTAR)))
    over = np.maximum(0.0, np.abs(y) - 500.0)
    return np.sum(g - gstar, axis=1) + 0.05 * np.sum(over * over, axis=1)


def _gallagher(p, X):
    """Gallagher's peaks: the best w_k exp(-q_k / (2 dim)) over the peaks k,
    where q_k sums diag_kj (zx_j - zp_kj)^2 over the rotated coordinates j.

    Only one peak's value survives the max, so the peaks are screened
    first, in log space, ``log w_k - q_k / (2 dim)``.  Expanded, ``q_k =
    zx^2 . diag_k + zx . (-2 diag_k zp_k) + sum_j diag_kj zp_kj^2``, so one
    BLAS product of each block's rows ``[zx^2, zx, 1]`` with the instance's
    ``aux["screen"]`` estimates every peak's log value.  A second, of
    ``[zx^2, |zx|, 1]`` with ``aux["screen_err"]``, gives ``c (U_k / (2
    dim) + |log w_k|)``, where ``U_k = sum_j diag_kj (|zx_j| + |zp_kj|)^2``
    and ``c = 2 (dim + 8) eps``.  By the dot-product error bound, whatever
    order BLAS adds in, the estimate is off by at most about ``(3 dim + 6)
    eps / 2 (U_k / (2 dim) + |log w_k|)`` (its 2 dim + 1 terms, and the
    rounding of the constants, whose sums of ``diag zp^2`` are dot products
    too), and the exact sum below by ``(dim + 3) eps / 2 U_k``; c covers
    both.  That gives each peak a lower and an upper bound.  A peak stays a
    candidate if its upper bound reaches the best lower bound of its row,
    less ``_SCREEN_SLACK (8 + |bound|)`` for the rounding of the division,
    ``exp``, the product and the bounds themselves.

    Each candidate is then recomputed as the per-peak loop computes every
    peak: ``d = zx - zp_k; d *= d; d *= diag_k``, ``np.sum`` along the row,
    then ``w_k * exp(-q / (2 dim))``.  These are the same operations in the
    same order, and the peak with the largest of those values is always a
    candidate, so the max over the candidates has the bits of the max over
    every peak.  The screen's own bits depend on the BLAS kernel and thread
    count; they only choose which peaks are recomputed.  A row whose best
    lower bound is not above ``_LOG_NORMAL`` (its value may be subnormal,
    where ``exp``'s relative error bound fails) or is NaN (non-finite
    input, no candidate) takes every peak.

    Rows go in the fewest equal blocks whose (rows, peaks) planes hold at
    most ``_PLANE_ELEMS`` elements (162 rows at 101 peaks), and candidates
    are recomputed in pieces of at most ``_PLANE_ELEMS`` elements, which
    bounds the memory; rows are independent, so the blocks never change a
    value.
    """
    zp, diags, weights = p.aux["zpeaks"], p.aux["diags"], p.aux["weights"]
    n_peaks, dim = zp.shape
    step = _PLANE_ELEMS // dim
    zx = _rot(p, X)
    n_blocks = max(1, -(-len(zx) // (_PLANE_ELEMS // n_peaks)))
    best = []
    for z in np.array_split(zx, n_blocks):
        terms = np.empty((len(z), 2 * dim + 1))
        terms[:, -1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(z, z, out=terms[:, :dim])
            terms[:, dim:-1] = z
            estimate = terms @ p.aux["screen"]
            np.abs(z, out=terms[:, dim:-1])
            err = terms @ p.aux["screen_err"]
            floor = np.max(estimate - err, axis=1)
            estimate += err
            floor -= _SCREEN_SLACK * (8.0 + np.abs(floor))
            keep = estimate >= floor[:, None]
        keep[~(floor > _LOG_NORMAL)] = True
        rows, ks = np.divmod(np.flatnonzero(keep), n_peaks)
        v = np.empty(len(rows))
        for i in range(0, len(rows), step):
            k = ks[i:i + step]
            d = z[rows[i:i + step]] - zp[k]
            d *= d
            d *= diags[k]
            v[i:i + step] = weights[k] * np.exp(-d.sum(axis=1) / (2.0 * dim))
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        best.append(np.maximum.reduceat(v, starts))
    return _t_osz(10.0 - np.concatenate(best)) ** 2 + _pen(X)


def _f23(p, X):  # Katsuura
    z = _rot(p, _lam(100, p.dim) * _rot(p, X - p.shift))
    acc = np.zeros_like(z)
    for j in range(1, 33):
        v = 2.0 ** j * z
        acc += np.abs(v - np.rint(v)) / 2.0 ** j
    prod = np.ones(X.shape[0])
    for i in range(p.dim):
        prod *= (1.0 + (i + 1) * acc[:, i]) ** (10.0 / p.dim ** 1.2)
    return 10.0 / p.dim ** 2 * prod - 10.0 / p.dim ** 2 + _pen(X)


def _f24(p, X):  # Lunacek bi-Rastrigin, re-centred
    d = p.dim
    mu0 = 2.5
    s = 1.0 - 1.0 / (2.0 * np.sqrt(d + 20.0) - 8.2)
    mu1 = -np.sqrt((mu0 * mu0 - 1.0) / s)
    v = _rot(p, X - p.shift)
    sphere = np.sum(v * v, axis=1)
    funnel = 1.0 * d + s * np.sum((v + mu0 - mu1) ** 2, axis=1)
    cosine = 10.0 * (d - np.sum(np.cos(2 * np.pi * v), axis=1))
    return np.minimum(sphere, funnel) + cosine + 100.0 * _pen(X)


#: function id -> objective less f_opt.  f17/f18 are Schaffers F7 at
#: conditioning 10/1000; f21/f22 are Gallagher, 101/21 peaks in ``aux``.
_FUNCTIONS = {
    1: _f1, 2: _f2, 3: _f3, 4: _f4, 5: _f5, 6: _f6, 7: _f7, 8: _f8,
    9: _f9, 10: _f10, 11: _f11, 12: _f12, 13: _f13, 14: _f14, 15: _f15,
    16: _f16, 17: functools.partial(_schaffers, alpha=10.0),
    18: functools.partial(_schaffers, alpha=1000.0), 19: _f19, 20: _f20,
    21: _gallagher, 22: _gallagher, 23: _f23, 24: _f24,
}
