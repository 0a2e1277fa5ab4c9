"""Evolutionary operator library: DE mutations, crossovers, GA mutations,
selections, bound control, linear population-size reduction, Halton
initialization and inter-population information sharing.

Every randomized operator is split into an index/number-drawing phase and
a pure arithmetic kernel (``*_kernel``), so tests can replay the exact
drawn randomness through an independent scalar reference.  All functions
are deterministic given the passed-in ``numpy.random.Generator`` and never
mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problems

DE_VARIANTS = ("current_to_rand_1", "best_2", "rand_2", "current_to_best_1")
CROSSOVER_VARIANTS = ("exponential", "mpx", "binomial", "sbx")
SELECTIONS = ("greedy_pairwise", "roulette", "tournament")
BOUND_METHODS = ("clip", "rand", "periodic", "reflect", "halving")

#: distinct random rows needed per DE variant (excluding the base row)
_N_RANDOM_INDICES = {"current_to_rand_1": 3, "best_2": 4,
                     "rand_2": 5, "current_to_best_1": 2}


@dataclass
class Population:
    """A set of candidate solutions and, once evaluated, their objective
    values.  The best point found so far is not a population's: the
    episode keeps it (``algorithms.AlgorithmState``)."""

    X: np.ndarray                      # (NP, dim)
    fitness: np.ndarray | None = None  # (NP,) objective values

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.fitness))


def evaluate_population(pop: Population, problem) -> int:
    """Fill in fitness via the problem objective and return the number of
    objective evaluations consumed."""
    pop.fitness = problems.evaluate(problem, pop.X)
    return pop.size


@dataclass
class OperatorParams:
    """Concrete parameter values for one operator application."""

    f1: float | None = None
    f2: float | None = None
    cr: float | None = None
    sigma: float | None = None
    eta_m: int | None = None
    eta_c: int | None = None
    xr: str | None = None     # "uniform" | "rank" partner selector


# ---------------------------------------------------------------------------
# Halton initialization

def _first_primes(n: int) -> list[int]:
    primes, cand = [], 2
    while len(primes) < n:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def halton_points(NP: int, dim: int, seed=None, scramble: bool = True):
    """First NP points (index starting at 1) of the Halton sequence in
    [0,1)^dim, optionally with seeded digit-permutation scrambling.  The
    permutations fix digit 0 so the scrambled sequence keeps finite
    expansions; scramble=False gives the classical sequence whose first
    2-D point is (1/2, 1/3)."""
    rng = np.random.default_rng(seed) if scramble else None
    pts = np.empty((NP, dim))
    for j, b in enumerate(_first_primes(dim)):
        perm = (np.concatenate(([0], rng.permutation(np.arange(1, b))))
                if scramble else np.arange(b))
        # radical inverse of every index at once, least significant digit
        # first; finished indices add perm[0] / denom = 0.0
        n = np.arange(1, NP + 1)
        inv, denom = np.zeros(NP), 1.0
        while n.any():
            n, digit = np.divmod(n, b)
            denom *= b
            inv += perm[digit] / denom
        pts[:, j] = inv
    return pts


def halton_init(NP: int, dim: int, bounds, seed, scramble: bool = True) -> Population:
    """Unevaluated population of NP Halton points scaled into bounds."""
    if NP < 2:
        raise ValueError("NP must be >= 2")
    lo, hi = bounds
    u = halton_points(NP, dim, seed, scramble)
    return Population(lo + u * (hi - lo))


# ---------------------------------------------------------------------------
# DE mutations

def draw_distinct_indices(rng, NP: int, k: int) -> np.ndarray:
    """(NP, k) random row indices: per row i, k distinct values != i.

    Column j is one ``rng.integers(0, NP - 1 - j, size=NP)`` draw, mapped
    onto the indices not yet taken by its row (the row itself and its
    earlier columns) by stepping past each taken index in ascending
    order.  Every row is uniform over the ordered k-tuples of distinct
    partners."""
    if NP <= k:
        raise ValueError(f"population of {NP} too small to draw {k} distinct partners")
    idx = np.empty((NP, k), dtype=np.int64)
    taken = np.arange(NP)[:, None]          # per row, sorted ascending
    for j in range(k):
        v = rng.integers(0, NP - 1 - j, size=NP)
        for e in taken.T:
            v += v >= e
        idx[:, j] = v
        taken = np.sort(np.column_stack((taken, v)), axis=1)
    return idx


def de_mutation_kernel(variant: str, X: np.ndarray, best: np.ndarray,
                       idx: np.ndarray, f1: float, f2: float) -> np.ndarray:
    r = [X[idx[:, j]] for j in range(idx.shape[1])]
    if variant == "current_to_rand_1":
        return X + f1 * (r[0] - X) + f2 * (r[1] - r[2])
    if variant == "best_2":
        return best + f1 * (r[0] - r[1]) + f2 * (r[2] - r[3])
    if variant == "rand_2":
        return r[0] + f1 * (r[1] - r[2]) + f2 * (r[3] - r[4])
    if variant == "current_to_best_1":
        return X + f1 * (best - X) + f2 * (r[0] - r[1])
    raise ValueError(f"unknown DE variant {variant!r}")


def de_mutate(variant: str, pop: Population, params: OperatorParams, rng) -> np.ndarray:
    """Trial vectors X' from one of the four DE mutation formulas."""
    if variant not in DE_VARIANTS:
        raise ValueError(f"unknown DE variant {variant!r}")
    _check_unit(params.f1, "f1")
    _check_unit(params.f2, "f2")
    idx = draw_distinct_indices(rng, pop.size, _N_RANDOM_INDICES[variant])
    best = pop.X[pop.best_index]
    return de_mutation_kernel(variant, pop.X, best, idx, params.f1, params.f2)


def _check_unit(v, name):
    if v is None or not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")


# ---------------------------------------------------------------------------
# crossovers

def exponential_segments(rng, NP: int, dim: int, cr: float):
    """Start index k and segment length L per row.  L is 1 plus the run
    of leading uniforms below Cr in the row's dim - 1 draws (one
    ``rng.random((NP, dim - 1))`` block after the NP start indices), so
    P(L >= m) = Cr**(m-1): geometric, capped at dim."""
    ks = rng.integers(0, dim, size=NP)
    ls = 1 + np.cumprod(rng.random((NP, dim - 1)) < cr, axis=1).sum(axis=1)
    return ks, ls


def exponential_kernel(X, Xp, ks, ls):
    dim = X.shape[1]
    mask = (np.arange(dim) - ks[:, None]) % dim < ls[:, None]
    return np.where(mask, Xp, X)


def binomial_kernel(X, Xp, rand, jrand, cr):
    mask = rand < cr
    mask[np.arange(X.shape[0]), jrand] = True
    return np.where(mask, Xp, X)


def mpx_kernel(X, donor, partner_idx, rand, cr):
    return np.where(rand < cr, donor[partner_idx], X)


def sbx_kernel(X, donor, partner_idx, u, swap, eta_c):
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (1.0 + eta_c)) - 1.0,
                    (1.0 / (2.0 - 2.0 * u)) ** (1.0 / (1.0 + eta_c)))
    partner = donor[partner_idx]
    lo_side = 0.5 * ((1.0 - beta) * X + (1.0 + beta) * partner)
    hi_side = 0.5 * ((1.0 + beta) * X + (1.0 - beta) * partner)
    return np.where(swap, hi_side, lo_side)


def _rank_choice(rng, fitness: np.ndarray, size: int) -> np.ndarray:
    """size row indices drawn with replacement, rank-weighted toward
    better fitness: weight n - rank over n rows, best rank 0."""
    n = len(fitness)
    order = np.argsort(fitness, kind="stable")
    weights = np.empty(n)
    weights[order] = n - np.arange(n)
    return rng.choice(n, size=size, p=weights / weights.sum())


def draw_partners(rng, fitness: np.ndarray, NP: int, xr: str) -> np.ndarray:
    """Partner row per offspring row: uniform, or rank-weighted toward
    better fitness (``_rank_choice``)."""
    if xr == "uniform":
        return rng.integers(0, NP, size=NP)
    if xr == "rank":
        return _rank_choice(rng, fitness, NP)
    raise ValueError(f"unknown partner selector {xr!r}")


def crossover(variant: str, X: np.ndarray, X_donor: np.ndarray,
              params: OperatorParams, rng, fitness: np.ndarray | None = None) -> np.ndarray:
    """Recombine parents X with donor rows.

    For the DE variants (exponential, binomial) X_donor holds the mutated
    trial vectors; for the GA variants (mpx, sbx) the donor matrix is the
    population itself and a partner row is drawn per the params.xr
    selector (rank selection requires ``fitness``).
    """
    if variant not in CROSSOVER_VARIANTS:
        raise ValueError(f"unknown crossover variant {variant!r}")
    if X.shape != X_donor.shape:
        raise ValueError("parent/donor shape mismatch")
    NP, dim = X.shape
    if variant != "sbx":
        _check_unit(params.cr, "cr")
    if variant == "exponential":
        ks, ls = exponential_segments(rng, NP, dim, params.cr)
        return exponential_kernel(X, X_donor, ks, ls)
    if variant == "binomial":
        rand = rng.random((NP, dim))
        jrand = rng.integers(0, dim, size=NP)
        return binomial_kernel(X, X_donor, rand, jrand, params.cr)
    if variant == "mpx":
        partner = draw_partners(rng, fitness, NP, params.xr)
        rand = rng.random((NP, dim))
        return mpx_kernel(X, X_donor, partner, rand, params.cr)
    # sbx
    if params.eta_c not in (1, 2, 3):
        raise ValueError(f"eta_c must be one of 1, 2, 3, got {params.eta_c}")
    partner = draw_partners(rng, fitness, NP, params.xr)
    u = rng.random((NP, dim))
    swap = rng.random((NP, dim)) < 0.5
    return sbx_kernel(X, X_donor, partner, u, swap, params.eta_c)


# ---------------------------------------------------------------------------
# GA mutations

def gaussian_kernel(Xp, sigma, bounds, noise):
    lo, hi = bounds
    return Xp + sigma * (hi - lo) * noise


def polynomial_kernel(Xp, eta_m, bounds, u):
    lo, hi = bounds
    e = 1.0 / (1.0 + eta_m)
    down = ((2.0 * u) ** e - 1.0) * (Xp - lo)
    up = (1.0 - (2.0 - 2.0 * u) ** e) * (hi - Xp)
    return Xp + np.where(u <= 0.5, down, up)


def ga_mutate(variant: str, Xp: np.ndarray, params: OperatorParams,
              bounds, rng) -> np.ndarray:
    if variant == "gaussian":
        _check_unit(params.sigma, "sigma")
        noise = rng.standard_normal(Xp.shape)
        return gaussian_kernel(Xp, params.sigma, bounds, noise)
    if variant == "polynomial":
        if params.eta_m not in (1, 2, 3):
            raise ValueError(f"eta_m must be one of 1, 2, 3, got {params.eta_m}")
        u = rng.random(Xp.shape)
        return polynomial_kernel(Xp, params.eta_m, bounds, u)
    raise ValueError(f"unknown GA mutation {variant!r}")


# ---------------------------------------------------------------------------
# selection

def select(variant: str, parents: Population, offspring: Population, rng) -> Population:
    """Survivor selection; offspring must already be evaluated."""
    if variant not in SELECTIONS:
        raise ValueError(f"unknown selection {variant!r}")
    if variant == "greedy_pairwise":
        if parents.size != offspring.size:
            raise ValueError("greedy pairwise selection needs equal sizes")
        keep = offspring.fitness <= parents.fitness
        X = np.where(keep[:, None], offspring.X, parents.X)
        fit = np.where(keep, offspring.fitness, parents.fitness)
        return Population(X, fit)

    pool_X = np.concatenate([parents.X, offspring.X])
    pool_f = np.concatenate([parents.fitness, offspring.fitness])
    n_pool, NP = pool_X.shape[0], parents.size
    if variant == "roulette":
        chosen = _rank_choice(rng, pool_f, NP)
    else:  # tournament, size 2
        c1 = rng.integers(0, n_pool, size=NP)
        c2 = rng.integers(0, n_pool, size=NP)
        chosen = np.where(pool_f[c2] < pool_f[c1], c2, c1)
    return Population(pool_X[chosen].copy(), pool_f[chosen].copy())


# ---------------------------------------------------------------------------
# bound control

def bound_control(method: str, X: np.ndarray, parent_X: np.ndarray,
                  bounds, rng) -> np.ndarray:
    """Repair out-of-range coordinates by the named method (one of
    ``BOUND_METHODS``); in-range values pass through."""
    if method not in BOUND_METHODS:
        raise ValueError(f"unknown bound-control method {method!r}")
    lo, hi = bounds
    span = hi - lo
    violated = (X < lo) | (X > hi)
    if method == "clip":
        repaired = np.clip(X, lo, hi)
    elif method == "rand":
        repaired = rng.uniform(lo, hi, X.shape)
    elif method == "periodic":
        repaired = lo + np.mod(X - lo, span)
    elif method == "reflect":
        # fold onto a triangle wave of period 2*span
        y = np.mod(X - lo, 2.0 * span)
        repaired = lo + (span - np.abs(span - y))
    else:  # halving: midpoint between the violated bound and the parent
        repaired = np.where(X > hi, 0.5 * (hi + parent_X), 0.5 * (lo + parent_X))
    return np.where(violated, repaired, X)


# ---------------------------------------------------------------------------
# population size reduction and information sharing

def lpsr_target(t: int, T: int, np_init: int, np_final: int) -> int:
    return int(round(np_init + (np_final - np_init) * t / T))


def lpsr(pop: Population, t: int, T: int, np_init: int, np_final: int) -> Population:
    """Drop worst members down to the linear schedule's target size."""
    if np_final > np_init:
        raise ValueError("np_final must not exceed np_init")
    target = max(np_final, lpsr_target(t, T, np_init, np_final))
    if target >= pop.size:
        return pop
    order = np.argsort(pop.fitness, kind="stable")[:target]
    keep = np.sort(order)  # preserve original row order among survivors
    return Population(pop.X[keep].copy(), pop.fitness[keep].copy())


def share_information(pops: list[Population], cm) -> list[Population]:
    """Replace each population's worst member with the best member of its
    cm-target population (0-based; self-target is a no-op).  All donors
    are read before any replacement.  ``cm`` holds one target per
    population."""
    if len(cm) != len(pops):
        raise ValueError(f"{len(pops)} populations need {len(pops)} sharing "
                         f"targets, got {len(cm)}")
    for target in cm:
        if target not in range(len(pops)):
            raise ValueError(f"sharing target {target} out of range")
    donors = [(p.X[p.best_index].copy(), float(p.fitness[p.best_index]))
              for p in pops]
    out = []
    for i, (pop, target) in enumerate(zip(pops, cm)):
        if target == i:
            out.append(pop)
            continue
        new = Population(pop.X.copy(), pop.fitness.copy())
        worst = int(np.argmax(new.fitness))
        donor_x, donor_f = donors[target]
        new.X[worst] = donor_x
        new.fitness[worst] = donor_f
        out.append(new)
    return out
