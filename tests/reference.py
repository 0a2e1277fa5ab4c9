"""Independent scalar-loop reference implementations used as test oracles.

Everything here is deliberately written with plain Python loops and
``math`` scalar calls (no vectorization), directly from the published
definitions, so that agreement with the vectorized package code is
meaningful.  Slow and simple on purpose.

The loop oracles section keeps the package's earlier row and digit
loops (Halton radical inverse, row-at-a-time pairwise distances, the
Katsuura double loop).  They compute each element with the same
floating-point operations, in the same order, as the vectorized
kernels, so those kernels must match them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# benchmark suite oracle

def osz(u: float) -> float:
    if u == 0.0:
        return 0.0
    x = math.log(abs(u))
    if u > 0:
        c1, c2, sgn = 10.0, 7.9, 1.0
    else:
        c1, c2, sgn = 5.5, 3.1, -1.0
    return sgn * math.exp(x + 0.049 * (math.sin(c1 * x) + math.sin(c2 * x)))


def asy(u: float, beta: float, i: int, d: int) -> float:
    if u > 0:
        return u ** (1.0 + beta * (i / (d - 1)) * math.sqrt(u))
    return u


def lam(alpha: float, i: int, d: int) -> float:
    return alpha ** (0.5 * i / (d - 1))


def pen_point(x, upper=5.0) -> float:
    total = 0.0
    for v in x:
        over = max(0.0, abs(v) - upper)
        total += over * over
    return total


def rotate_point(R, v):
    d = len(v)
    out = [0.0] * d
    for i in range(d):
        acc = 0.0
        for j in range(d):
            acc += R[i][j] * v[j]
        out[i] = acc
    return out


def _shifted(p, x):
    return [x[j] - p.shift[j] for j in range(p.dim)]


def _pw(i, d, expo):
    return 10.0 ** (expo * i / (d - 1))


def eval_point(p, x) -> float:
    """Reference objective for one point (list of floats) of instance p."""
    d = p.dim
    R = p.rotation.tolist()
    w = _shifted(p, x)
    fid = p.function_id

    if fid == 1:
        return sum(v * v for v in w) + p.f_opt

    if fid == 2:
        z = [osz(v) for v in w]
        return sum(_pw(i, d, 6) * z[i] * z[i] for i in range(d)) + p.f_opt

    if fid == 3:
        z = [lam(10, i, d) * asy(osz(w[i]), 0.2, i, d) for i in range(d)]
        return (10.0 * (d - sum(math.cos(2 * math.pi * v) for v in z))
                + sum(v * v for v in z)) + p.f_opt

    if fid == 4:
        t = [osz(v) for v in w]
        z = []
        for i in range(d):
            s = 10.0 ** (0.5 * i / (d - 1))
            if i % 2 == 0 and t[i] > 0:
                s *= 10.0
            z.append(s * t[i])
        return (10.0 * (d - sum(math.cos(2 * math.pi * v) for v in z))
                + sum(v * v for v in z) + 100.0 * pen_point(x)) + p.f_opt

    if fid == 5:
        z = rotate_point(R, w)
        return sum(_pw(i, d, 1) * abs(z[i]) for i in range(d)) + p.f_opt

    if fid == 6:
        u = rotate_point(R, w)
        u = [lam(10, i, d) * u[i] for i in range(d)]
        z = rotate_point(R, u)
        total = 0.0
        for i in range(d):
            s = 100.0 if z[i] * p.shift[i] > 0 else 1.0
            total += (s * z[i]) ** 2
        return osz(total) ** 0.9 + p.f_opt

    if fid == 7:
        u = rotate_point(R, w)
        zhat = [lam(10, i, d) * u[i] for i in range(d)]
        ztilde = []
        for v in zhat:
            if abs(v) > 0.5:
                ztilde.append(math.floor(0.5 + v))
            else:
                ztilde.append(math.floor(0.5 + 10.0 * v) / 10.0)
        z = rotate_point(R, ztilde)
        body = sum(_pw(i, d, 2) * z[i] * z[i] for i in range(d))
        return 0.1 * max(abs(zhat[0]) / 1e4, body) + pen_point(x) + p.f_opt

    if fid in (8, 9):
        c = max(1.0, math.sqrt(d) / 8.0)
        base = w if fid == 8 else rotate_point(R, w)
        z = [c * v + 1.0 for v in base]
        total = 0.0
        for i in range(d - 1):
            total += 100.0 * (z[i] * z[i] - z[i + 1]) ** 2 + (z[i] - 1.0) ** 2
        return total + p.f_opt

    if fid == 10:
        z = [osz(v) for v in rotate_point(R, w)]
        return sum(_pw(i, d, 6) * z[i] * z[i] for i in range(d)) + p.f_opt

    if fid == 11:
        z = [osz(v) for v in rotate_point(R, w)]
        return 1e6 * z[0] * z[0] + sum(z[i] * z[i] for i in range(1, d)) + p.f_opt

    if fid == 12:
        u = rotate_point(R, w)
        u = [asy(u[i], 0.5, i, d) for i in range(d)]
        z = rotate_point(R, u)
        return z[0] * z[0] + 1e6 * sum(z[i] * z[i] for i in range(1, d)) + p.f_opt

    if fid == 13:
        u = rotate_point(R, w)
        u = [lam(10, i, d) * u[i] for i in range(d)]
        z = rotate_point(R, u)
        return z[0] * z[0] + 100.0 * math.sqrt(sum(z[i] * z[i] for i in range(1, d))) + p.f_opt

    if fid == 14:
        z = rotate_point(R, w)
        total = 0.0
        for i in range(d):
            total += abs(z[i]) ** (2.0 + 4.0 * i / (d - 1))
        return math.sqrt(total) + p.f_opt

    if fid == 15:
        u = rotate_point(R, w)
        t = [asy(osz(u[i]), 0.2, i, d) for i in range(d)]
        u2 = rotate_point(R, t)
        u2 = [lam(10, i, d) * u2[i] for i in range(d)]
        z = rotate_point(R, u2)
        return (10.0 * (d - sum(math.cos(2 * math.pi * v) for v in z))
                + sum(v * v for v in z)) + p.f_opt

    if fid == 16:
        t = [osz(v) for v in rotate_point(R, w)]
        u2 = rotate_point(R, t)
        u2 = [lam(0.01, i, d) * u2[i] for i in range(d)]
        z = rotate_point(R, u2)
        f0 = sum(0.5 ** k * np.cos(2 * np.pi * 3 ** k * 0.5) for k in range(12))
        acc = 0.0
        for k in range(12):
            for i in range(d):
                acc += 0.5 ** k * math.cos(2 * math.pi * 3 ** k * (z[i] + 0.5))
        return 10.0 * (acc / d - f0) ** 3 + 10.0 / d * pen_point(x) + p.f_opt

    if fid in (17, 18):
        alpha = 10.0 if fid == 17 else 1000.0
        u = rotate_point(R, w)
        t = [asy(u[i], 0.5, i, d) for i in range(d)]
        t = rotate_point(R, t)
        z = [lam(alpha, i, d) * t[i] for i in range(d)]
        body = 0.0
        for i in range(d - 1):
            s = math.sqrt(z[i] * z[i] + z[i + 1] * z[i + 1])
            body += math.sqrt(s) + math.sqrt(s) * math.sin(50.0 * s ** 0.2) ** 2
        body /= d - 1
        return body * body + 10.0 * pen_point(x) + p.f_opt

    if fid == 19:
        u = rotate_point(R, w)
        z = [v + 1.0 for v in u]
        total = 0.0
        for i in range(d - 1):
            s = 100.0 * (z[i] * z[i] - z[i + 1]) ** 2 + (z[i] - 1.0) ** 2
            total += s / 4000.0 - math.cos(s)
        return 10.0 / (d - 1) * total + 10.0 + p.f_opt

    if fid == 20:
        from dacq.problems import SCHWEFEL_YSTAR
        z = rotate_point(R, w)
        gstar = -SCHWEFEL_YSTAR * math.sin(math.sqrt(abs(SCHWEFEL_YSTAR)))
        total = 0.0
        penalty = 0.0
        for i in range(d):
            y = SCHWEFEL_YSTAR + 50.0 * z[i]
            total += -y * math.sin(math.sqrt(abs(y))) - gstar
            over = max(0.0, abs(y) - 500.0)
            penalty += over * over
        return total + 0.05 * penalty + p.f_opt

    if fid in (21, 22):
        peaks = p.aux["peaks"]
        weights = p.aux["weights"]
        diags = p.aux["diags"]
        zx = rotate_point(R, list(x))
        best = -math.inf
        for k in range(peaks.shape[0]):
            zp = rotate_point(R, peaks[k].tolist())
            q = 0.0
            for i in range(d):
                dd = zx[i] - zp[i]
                q += dd * dd * diags[k][i]
            best = max(best, weights[k] * math.exp(-q / (2.0 * d)))
        return osz(10.0 - best) ** 2 + pen_point(x) + p.f_opt

    if fid == 23:
        u = rotate_point(R, w)
        u = [lam(100, i, d) * u[i] for i in range(d)]
        z = rotate_point(R, u)
        prod = 1.0
        for i in range(d):
            acc = 0.0
            for j in range(1, 33):
                v = 2.0 ** j * z[i]
                acc += abs(v - float(np.rint(v))) / 2.0 ** j
            prod *= (1.0 + (i + 1) * acc) ** (10.0 / d ** 1.2)
        return 10.0 / d ** 2 * prod - 10.0 / d ** 2 + pen_point(x) + p.f_opt

    if fid == 24:
        mu0 = 2.5
        s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
        mu1 = -math.sqrt((mu0 * mu0 - 1.0) / s)
        v = rotate_point(R, w)
        sphere = sum(t * t for t in v)
        funnel = 1.0 * d + s * sum((t + mu0 - mu1) ** 2 for t in v)
        cosine = 10.0 * (d - sum(math.cos(2 * math.pi * t) for t in v))
        return min(sphere, funnel) + cosine + 100.0 * pen_point(x) + p.f_opt

    raise ValueError(fid)


def eval_matrix(p, X):
    return np.array([eval_point(p, list(map(float, row))) for row in np.asarray(X)])


# ---------------------------------------------------------------------------
# evolutionary operator oracles (same drawn randomness passed in explicitly)

def de_mutation_ref(variant, X, best, idx, f1, f2):
    NP, dim = X.shape
    out = np.empty_like(X)
    for i in range(NP):
        r = [X[idx[i, j]] for j in range(idx.shape[1])]
        for j in range(dim):
            if variant == "current_to_rand_1":
                out[i, j] = X[i, j] + f1 * (r[0][j] - X[i, j]) + f2 * (r[1][j] - r[2][j])
            elif variant == "best_2":
                out[i, j] = best[j] + f1 * (r[0][j] - r[1][j]) + f2 * (r[2][j] - r[3][j])
            elif variant == "rand_2":
                out[i, j] = r[0][j] + f1 * (r[1][j] - r[2][j]) + f2 * (r[3][j] - r[4][j])
            elif variant == "current_to_best_1":
                out[i, j] = X[i, j] + f1 * (best[j] - X[i, j]) + f2 * (r[0][j] - r[1][j])
            else:
                raise ValueError(variant)
    return out


def exponential_ref(X, Xp, ks, ls):
    NP, dim = X.shape
    out = X.copy()
    for i in range(NP):
        for step in range(ls[i]):
            j = (ks[i] + step) % dim
            out[i, j] = Xp[i, j]
    return out


def binomial_ref(X, Xp, rand, jrand, cr):
    NP, dim = X.shape
    out = np.empty_like(X)
    for i in range(NP):
        for j in range(dim):
            if rand[i, j] < cr or j == jrand[i]:
                out[i, j] = Xp[i, j]
            else:
                out[i, j] = X[i, j]
    return out


def mpx_ref(X, donor, partner, rand, cr):
    NP, dim = X.shape
    out = np.empty_like(X)
    for i in range(NP):
        for j in range(dim):
            out[i, j] = donor[partner[i], j] if rand[i, j] < cr else X[i, j]
    return out


def sbx_ref(X, donor, partner, u, swap, eta_c):
    NP, dim = X.shape
    out = np.empty_like(X)
    for i in range(NP):
        for j in range(dim):
            uu = u[i, j]
            if uu <= 0.5:
                beta = (2.0 * uu) ** (1.0 / (1.0 + eta_c)) - 1.0
            else:
                beta = (1.0 / (2.0 - 2.0 * uu)) ** (1.0 / (1.0 + eta_c))
            xi = X[i, j]
            xr = donor[partner[i], j]
            if swap[i, j]:
                out[i, j] = 0.5 * ((1.0 + beta) * xi + (1.0 - beta) * xr)
            else:
                out[i, j] = 0.5 * ((1.0 - beta) * xi + (1.0 + beta) * xr)
    return out


def gaussian_ref(Xp, sigma, bounds, noise):
    lo, hi = bounds
    NP, dim = Xp.shape
    out = np.empty_like(Xp)
    for i in range(NP):
        for j in range(dim):
            out[i, j] = Xp[i, j] + sigma * (hi - lo) * noise[i, j]
    return out


def polynomial_ref(Xp, eta_m, bounds, u):
    lo, hi = bounds
    NP, dim = Xp.shape
    out = np.empty_like(Xp)
    e = 1.0 / (1.0 + eta_m)
    for i in range(NP):
        for j in range(dim):
            uu = u[i, j]
            x = Xp[i, j]
            if uu <= 0.5:
                out[i, j] = x + ((2.0 * uu) ** e - 1.0) * (x - lo)
            else:
                out[i, j] = x + (1.0 - (2.0 - 2.0 * uu) ** e) * (hi - x)
    return out


def star_discrepancy_2d(points) -> float:
    """Exact star discrepancy of a 2-D point set in [0,1)^2 (corner scan)."""
    pts = np.asarray(points)
    n = len(pts)
    xs = sorted(set(pts[:, 0]) | {1.0})
    ys = sorted(set(pts[:, 1]) | {1.0})
    worst = 0.0
    for x in xs:
        for y in ys:
            closed = 0
            open_ = 0
            for px, py in pts:
                if px <= x and py <= y:
                    closed += 1
                if px < x and py < y:
                    open_ += 1
            area = x * y
            worst = max(worst, abs(closed / n - area), abs(open_ / n - area))
    return worst


# ---------------------------------------------------------------------------
# optimization-state features, scalar loops

def cal_state_ref(X_rows, fit, bsf_x, bsf_f, t, T, st, improved):
    """The nine state features, un-normalized, via pure-python loops."""
    n = len(X_rows)
    gi = min(range(n), key=lambda i: fit[i])

    def dist(a, b):
        return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))

    pairs = [dist(X_rows[i], X_rows[j])
             for i in range(n) for j in range(i + 1, n)]
    s1 = sum(pairs) / len(pairs) if pairs else 0.0
    s2 = sum(dist(x, X_rows[gi]) for x in X_rows) / n
    s3 = sum(dist(x, bsf_x) for x in X_rows) / n
    s4 = sum(f - bsf_f for f in fit) / n
    s5 = sum(f - fit[gi] for f in fit) / n
    mean_f = sum(fit) / n
    s6 = math.sqrt(sum((f - mean_f) ** 2 for f in fit) / n)
    s7 = (T - t) / T
    s8 = st / T
    s9 = 1.0 if improved else 0.0
    return [s1, s2, s3, s4, s5, s6, s7, s8, s9]


# ---------------------------------------------------------------------------
# selective-SSM forward, scalar loops

def ssm_softplus_ref(z):
    return math.log1p(math.exp(z)) if z < 30 else z


def ssm_forward_ref(ten, h0, xs):
    """Pure-python recurrence over a dict of parameter arrays (indexable
    nested sequences); returns (ys, h_final) as lists."""
    A_log, W_in, b_in = ten["A_log"], ten["W_in"], ten["b_in"]
    W_delta, b_delta = ten["W_delta"], ten["b_delta"]
    W_B, W_C, D_skip = ten["W_B"], ten["W_C"], ten["D_skip"]
    W_out, b_out = ten["W_out"], ten["b_out"]
    D, N = len(A_log), len(A_log[0])
    h = [[h0[d][n] for n in range(N)] for d in range(D)]
    ys = []
    for x in xs:
        u = [sum(x[e] * W_in[e][d] for e in range(D)) + b_in[d]
             for d in range(D)]
        z = [sum(u[e] * W_delta[e][d] for e in range(D)) + b_delta[d]
             for d in range(D)]
        delta = [ssm_softplus_ref(zz) for zz in z]
        Bv = [sum(u[d] * W_B[d][n] for d in range(D)) for n in range(N)]
        Cv = [sum(u[d] * W_C[d][n] for d in range(D)) for n in range(N)]
        for d in range(D):
            for n in range(N):
                A = -math.exp(A_log[d][n])
                P = delta[d] * A
                abar = math.exp(P)
                bbar = math.expm1(P) / A * Bv[n]
                h[d][n] = abar * h[d][n] + bbar * u[d]
        y = [sum(h[d][n] * Cv[n] for n in range(N)) + D_skip[d] * u[d]
             for d in range(D)]
        o = [sum(y[d] * W_out[d][e] for d in range(D)) + b_out[e]
             for e in range(D)]
        ys.append(o)
    return ys, h


# ---------------------------------------------------------------------------
# selective-SSM states and backward, whole sequence at once

def ssm_states_ref(cache):
    """The full (L + 1, N, D) state trajectory of the forward pass that
    made cache, rebuilt over the whole sequence from its inputs in the
    chunk layout (d_state, d_model) of ``SsmCache.h_starts``:
    hs[0] = h0 and hs[t + 1] = Abar_t hs[t] + Bbar_t u_t."""
    A = -np.exp(np.ascontiguousarray(cache.params.A_log.T))
    P = cache.delta[:, None, :] * A
    Abar = np.exp(P)
    Bu = np.expm1(P) / A * cache.Bix[:, :, None] * cache.u[:, None, :]
    L, N, D = Bu.shape
    hs = np.empty((L + 1, N, D))
    hs[0] = cache.h_starts[0]
    for t in range(L):
        hs[t + 1] = Abar[t] * hs[t] + Bu[t]
    return hs


def ssm_backward_ref(cache, grad_ys):
    """Full-tensor backward of the selective SSM: the states, Abar, E,
    Bbar and the dL/dh_t of every step are built over the whole sequence
    at once, each (L, N, D) as in the chunked pass.  Same arguments and
    returns as ``dacq.ssm.ssm_backward``, whose blocked weight gradients
    over time (``weight_grad``) it shares."""
    from dacq.ssm import weight_grad

    p = cache.params
    if cache.version != p.version:
        raise ValueError("stale cache: parameters were updated after the "
                         "forward pass")
    xs, u, delta, sig = cache.xs, cache.u, cache.delta, cache.sig
    Bix, Cix = cache.Bix, cache.Cix
    hs = ssm_states_ref(cache)
    A = -np.exp(np.ascontiguousarray(p.A_log.T))
    P = delta[:, None, :] * A
    Abar = np.exp(P)
    E = np.expm1(P, out=P)
    E /= A
    Bbar = E * Bix[:, :, None]
    L, D = xs.shape
    N = p.d_state

    gys = np.asarray(grad_ys, dtype=np.float64)
    if gys.shape != (L, D):
        raise ValueError(f"grad_ys shape {gys.shape} does not match ys")
    gh = np.zeros((N, D))

    # output mixing
    y_pre = np.einsum("lnd,ln->ld", hs[1:], Cix) + p.D_skip * u
    gW_out = weight_grad(y_pre, gys)
    gb_out = gys.sum(0)
    gy = gys @ p.W_out.T

    # through the emission: y = h.C + D_skip*u
    gC = np.einsum("ld,lnd->ln", gy, hs[1:])
    gD_skip = (gy * u).sum(0)
    gu = gy * p.D_skip

    # reverse recurrence: accumulate total dL/dh_t for every t
    ghs = np.empty((L, N, D))
    for t in range(L - 1, -1, -1):
        gh += gy[t, None, :] * Cix[t, :, None]
        ghs[t] = gh
        gh = gh * Abar[t]
    grad_h0 = np.ascontiguousarray(gh.T)

    gu += np.einsum("lnd,lnd->ld", ghs, Bbar)

    # Abar = exp(delta*A), Bbar = E*B with E = expm1(delta*A)/A: from
    # dAbar/ddelta = A*Abar, dE/ddelta = Abar, dE/dA = (delta*Abar - E)/A
    # and dA/dA_log = A, with X = (gAbar*A + gE)*Abar,
    # gdelta = sum_n X and gA_log = sum delta*X - sum gE*E
    gE = ghs * u[:, None, :]     # gBbar, then gE = gBbar*B
    gB = np.einsum("lnd,lnd->ln", gE, E)
    gE *= Bix[:, :, None]
    X = ghs                     # X = (ghs*h*A + gE)*Abar, in place
    X *= hs[:-1]
    X *= A
    X += gE
    X *= Abar
    gdelta = X.sum(1)
    gA_log = np.ascontiguousarray(
        (np.einsum("lnd,ld->nd", X, delta)
         - np.einsum("lnd,lnd->nd", gE, E)).T)

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


# ---------------------------------------------------------------------------
# decomposed conservative loss, triple loops

def q_loss_ref(Q, actions, rewards, masks, beta, lam, gamma):
    """Naive per-entry loss of one trajectory; Q nested (T, K, M)."""
    T, K, M = len(Q), len(Q[0]), len(Q[0][0])
    total = 0.0
    for t in range(T):
        for i in range(K):
            a = actions[t][i]
            if i < K - 1:
                target = max(Q[t][i + 1][:masks[i + 1]])
            else:
                if t < T - 1:
                    nxt = max(Q[t + 1][0][:masks[0]])
                else:
                    nxt = 0.0
                target = rewards[t] + gamma * nxt
            for j in range(M):
                if j == a:
                    c = beta if i == K - 1 else 1.0
                    total += c / 2.0 * (Q[t][i][j] - target) ** 2
                else:
                    total += lam / 2.0 * Q[t][i][j] ** 2
    return total


# ---------------------------------------------------------------------------
# loop oracles: the earlier scalar/row loops, matched bit for bit

def halton_ref(NP, dim, seed=None, scramble=True):
    """Halton points via one scalar radical inverse per (index, base)."""
    bases = []
    cand = 2
    while len(bases) < dim:
        if all(cand % q for q in bases):
            bases.append(cand)
        cand += 1
    perms = [None] * dim
    if scramble:
        rng = np.random.default_rng(seed)
        perms = [np.concatenate(([0], rng.permutation(np.arange(1, b))))
                 for b in bases]
    pts = np.empty((NP, dim))
    for j, b in enumerate(bases):
        for i in range(NP):
            n, inv, denom = i + 1, 0.0, 1.0
            while n > 0:
                n, digit = divmod(n, b)
                if perms[j] is not None:
                    digit = perms[j][digit]
                denom *= b
                inv += digit / denom
            pts[i, j] = inv
    return pts


def mean_pairwise_distance_ref(X):
    """State feature s1 to within an ULP or so: ``math.dist`` per pair and
    an exactly rounded ``math.fsum`` over the pairs i < j."""
    rows = np.asarray(X, float).tolist()
    n = len(rows)
    if n < 2:
        return 0.0
    total = math.fsum(math.dist(rows[i], rows[j])
                      for i in range(n) for j in range(i + 1, n))
    return total / (n * (n - 1) / 2)


def katsuura_ref(p, X):
    """Katsuura (f23) with the 32-term digit sum looped per coordinate."""
    from dacq import problems
    z = problems._rot(p, problems._lam(100, p.dim) * problems._rot(p, X - p.shift))
    prod = np.ones(X.shape[0])
    for i in range(p.dim):
        acc = np.zeros(X.shape[0])
        for j in range(1, 33):
            v = 2.0 ** j * z[:, i]
            acc += np.abs(v - np.rint(v)) / 2.0 ** j
        prod *= (1.0 + (i + 1) * acc) ** (10.0 / p.dim ** 1.2)
    return 10.0 / p.dim ** 2 * prod - 10.0 / p.dim ** 2 + problems._pen(X) + p.f_opt


def gallagher_loop_ref(p, X):
    """Gallagher (f21/f22) as the earlier loop over peaks, one row sum per
    peak and a running maximum."""
    from dacq import problems
    peaks = p.aux["peaks"]
    weights = p.aux["weights"]
    diags = p.aux["diags"]
    zx = problems._rot(p, X)
    zp = problems._rot(p, peaks)
    best = np.full(X.shape[0], -np.inf)
    for k in range(peaks.shape[0]):
        d = zx - zp[k]
        q = np.sum(d * d * diags[k], axis=1)
        best = np.maximum(best, weights[k] * np.exp(-q / (2.0 * p.dim)))
    return problems._t_osz(10.0 - best) ** 2 + problems._pen(X) + p.f_opt
