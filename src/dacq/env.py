"""Per-generation control loop around the algorithm assemblies.

Exposes the nine-feature optimization state, the relative-improvement
reward, the bin-grid action decoding, an episode runner that threads
a policy callback through T generations of one algorithm on one problem,
and ``pmap``, an order-preserving map over one reused worker pool that
runs independent episodes (and, for ``training.train``, trajectory slices).
"""

from __future__ import annotations

import math
import multiprocessing.util
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from . import algorithms
from .algorithms import AlgorithmState, HyperParameterSpec
from .ssm import BLAS_BLOCK_ELEMENTS

#: default number of grid bins for continuous hyper-parameters
DEFAULT_BINS = 16

#: the largest ``--bins`` the CLI accepts, the top of ``ablate``'s bin
#: sweep (16, 32); the model needs no cap, its action token has
#: ``ModelConfig.token_width`` bits (6 at 32 bins)
MAX_BINS = 32

#: element budget of one (rows, cols) plane of pair distances in ``cal_state``
S1_BLOCK_ELEMENTS = 16384

#: relative error bound of each pair distance in ``cal_state``'s s1; the
#: Gram-plane guard threshold follows from it, the dimension and eps
S1_REL_ERROR = 1e-13


@dataclass
class StepRecord:
    """One transition: state seen, bins chosen, reward earned, best after."""

    state: np.ndarray          # (9,) float
    actions: np.ndarray        # (K,) int bins, 0-based
    reward: float
    best_so_far_f: float


@dataclass
class Trajectory:
    """A full controlled episode plus the metadata needed to replay it.

    A stored line holds each field in its annotated JSON type
    (``datasets.read_record``)."""

    alg_id: int
    K: int
    M: int
    function_id: int
    dim: int
    instance_seed: int | None
    episode_seed: int | list[int]
    T: int
    policy_id: str
    f_best_init: float
    f_star: float
    steps: list = field(default_factory=list)

    @property
    def perf(self) -> float:
        """Accumulated normalized improvement, in [0, 1]: the exactly
        rounded sum of the rewards (``math.fsum``), the same float on
        every Python version, where ``sum`` of floats is not."""
        return math.fsum(s.reward for s in self.steps)

    @property
    def final_best_f(self) -> float:
        return self.steps[-1].best_so_far_f if self.steps else self.f_best_init


def cal_state(alg_state: AlgorithmState, problem,
              f_best_init: float) -> np.ndarray:
    """Nine summary features of the current optimizer state.

    s1 mean pairwise distance, s2 mean distance to the generation best,
    s3 mean distance to the best-so-far point, s4 mean objective gap to
    the best-so-far value, s5 mean gap to the generation best, s6
    objective std, s7 and s8 the remaining and stagnant fractions of
    ``alg_state.horizon``, s9 improved-last-generation flag.  Features
    are computed over the union of all sub-populations.  s1-s3 are divided by the search-space
    diameter and s4-s6 by the span f_best_init - f_star (s4-s6 are 0 when
    the span is not positive).  A feature that is not finite raises
    ``ValueError`` naming it, before it reaches a model or a dataset.

    s1 is summed in blocks of the upper triangle from a centred Gram
    plane (see ``_mean_pairwise_distance``).  A guard recomputes the pairs
    the plane cannot resolve from exact differences, so each pair
    distance is within ``S1_REL_ERROR`` (1e-13) relative of the exact
    one; the last bits depend on the block size and the CPU's BLAS
    kernel.  Each block's dot products are one BLAS product small enough
    to run on one OpenBLAS thread, so s1 does not depend on the BLAS
    thread count.  Scratch memory is three planes of at most
    ``S1_BLOCK_ELEMENTS`` elements (two of floats, one of bools) and a
    boolean corner mask, plus the centred population.
    """
    X = np.vstack([p.X for p in alg_state.sub_pops])
    fit = np.concatenate([p.fitness for p in alg_state.sub_pops])
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty population")

    gi = int(np.argmin(fit))
    s1 = _mean_pairwise_distance(X)
    s2 = np.linalg.norm(X - X[gi], axis=1).mean()
    s3 = np.linalg.norm(X - alg_state.best_x, axis=1).mean()
    s4 = (fit - alg_state.best_f).mean()
    s5 = (fit - fit[gi]).mean()
    s6 = fit.std()
    s7 = (alg_state.horizon - alg_state.t) / alg_state.horizon
    s8 = alg_state.stagnation / alg_state.horizon
    s9 = 1.0 if alg_state.improved_last_step else 0.0

    out = np.array([s1, s2, s3, s4, s5, s6, s7, s8, s9], dtype=np.float64)
    out[0:3] /= np.sqrt(problem.dim) * (problem.upper - problem.lower)
    span = f_best_init - problem.f_opt
    if span > 0:
        out[3:6] /= span
    else:
        out[3:6] = 0.0
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"state feature s{bad[0] + 1} is not finite: "
                         f"{out[bad[0]]}")
    return out


def _mean_pairwise_distance(X: np.ndarray) -> float:
    """State feature s1: mean Euclidean distance over the pairs i < j.

    Squared distances come from a centred Gram plane: with
    ``c_i = x_i - mean(X)`` and ``s_i = |c_i|^2``, a pair's
    ``G_ij = s_i + s_j - 2 c_i.c_j``.  By the dot-product error bound, G
    is off by at most about ``(dim + 2) eps (s_i + s_j)``, so every pair
    with ``G_ij >= tau (s_i + s_j)``, ``tau = (dim + 3) eps / (2
    S1_REL_ERROR)``, has its distance correct to ``S1_REL_ERROR``
    (1e-13) relative.  The guard recomputes each other pair, duplicates
    and near-duplicates among them, from the exact differences of its
    rows, summed in coordinate order.  Centring keeps ``s_i`` of the
    order of the population's spread, so a clustered late-stage
    population is not guarded pair by pair.  Each block's dot products
    are one BLAS product of at most ``ssm.BLAS_BLOCK_ELEMENTS`` (2**18)
    multiply-adds, a size OpenBLAS runs on one thread, so the bits do
    not depend on the BLAS thread count (a whole-plane product's do).
    They do depend on the CPU's BLAS kernel, as the SSM's products do.

    The upper triangle is walked in blocks: rows i0..i0+m-1 against
    columns i0+1..n-1, with m as large as keeps the (m, n-1-i0) plane
    within S1_BLOCK_ELEMENTS floats and its product within
    BLAS_BLOCK_ELEMENTS // dim plane elements (at least one row).  The
    strictly lower corner of a block holds the pairs j <= i and is
    zeroed; the block is then summed whole and the block sums are added
    in row order.  Scratch memory is two float planes and one boolean
    plane (272 KiB at the default budget), the corner mask, at most
    ``isqrt(budget)`` squared bools (16 KiB), and the centred population,
    ``n * dim`` floats.
    """
    n, dim = X.shape
    if n < 2:
        return 0.0
    C = X - X.mean(axis=0)
    s = np.einsum("ij,ij->i", C, C)
    tau = (dim + 3) * np.finfo(np.float64).eps / (2 * S1_REL_ERROR)
    budget = min(S1_BLOCK_ELEMENTS, BLAS_BLOCK_ELEMENTS // dim)
    # a block's m * cols is at most the budget, or n - 1 when one row
    # alone exceeds it
    plane_buf, bound_buf = np.empty((2, max(n - 1, budget)))
    # the corner mask of every block: m <= cols and m * cols <= budget,
    # so m <= isqrt(budget)
    lower = np.tri(min(n - 1, max(1, math.isqrt(budget))), k=-1, dtype=bool)
    total = 0.0
    i0 = 0
    while i0 < n - 1:
        cols = n - 1 - i0
        m = min(cols, max(1, budget // cols))
        plane = plane_buf[:m * cols].reshape(m, cols)
        bound = bound_buf[:m * cols].reshape(m, cols)
        rows, right = slice(i0, i0 + m), slice(i0 + 1, n)
        np.add(s[rows, None], s[right], out=bound)
        np.matmul(-2.0 * C[rows], C[right].T, out=plane)
        plane += bound
        flat = plane.reshape(-1)
        # the pairs j = i, G ~ 0, are zeroed below: keep them unguarded
        flat[cols::cols + 1] = np.inf
        bound *= tau
        guarded = np.flatnonzero(plane < bound)
        if guarded.size:
            d = X[i0 + guarded // cols] - X[i0 + 1 + guarded % cols]
            d *= d
            exact = d[:, 0].copy()
            for k in range(1, dim):
                exact += d[:, k]
            flat[guarded] = exact
        np.sqrt(plane, out=plane)
        plane[:, :m][lower[:m, :m]] = 0.0
        total += plane.sum()
        i0 += m
    return total / (n * (n - 1) / 2)


def reward(f_best_prev: float, f_best_now: float,
           f_best_init: float, f_star: float) -> float:
    """Relative improvement of the best-so-far objective over one step,
    normalized so that a whole episode's rewards sum to at most 1."""
    denom = f_best_init - f_star
    if denom < 0:
        raise ValueError("f_best_init below f_star")
    if denom == 0:
        return 0.0
    return (f_best_prev - f_best_now) / denom


def mask_bins(spec: HyperParameterSpec, n_bins: int = DEFAULT_BINS) -> int:
    """Number of valid bins of one dimension: one per choice when it is
    discrete, ``n_bins`` grid points when it is continuous."""
    return len(spec.choices) or n_bins


def bin_masks(alg_id: int, n_bins: int) -> np.ndarray:
    """(K,) valid-bin counts of one algorithm's dimensions at ``n_bins``
    grid bins: bins 0..m_i-1 of dimension i are its actions."""
    return np.array([mask_bins(s, n_bins) for s in algorithms.alg_spec(alg_id)],
                    dtype=np.int64)


def nearest_bin(value: float, n_bins: int) -> int:
    """The grid bin of a continuous dimension nearest to ``value`` in
    [0, 1] (a tie rounds to the even bin); ``decode_action`` maps it
    back to the grid point."""
    return int(np.rint(value * (n_bins - 1)))


def decode_action(spec: HyperParameterSpec, bin_idx: int,
                  n_bins: int = DEFAULT_BINS):
    """Concrete value for one bin: a discrete dimension's choice, or for a
    continuous one the point ``b / (n_bins - 1)`` of the uniform grid on
    [0, 1].  A bin out of range [0, mask_bins) or not integral raises
    ValueError naming the hyper-parameter."""
    m = mask_bins(spec, n_bins)
    if not 0 <= bin_idx < m:
        raise ValueError(f"bin {bin_idx} out of range [0, {m}) for {spec.name}")
    if bin_idx != int(bin_idx):
        raise ValueError(f"non-integral bin {bin_idx} for {spec.name}")
    b = int(bin_idx)
    return spec.choices[b] if spec.choices else b / (n_bins - 1)


def decode_config(specs, bins, n_bins: int = DEFAULT_BINS) -> list:
    if len(bins) != len(specs):
        raise ValueError(f"expected {len(specs)} bins, got {len(bins)}")
    return [decode_action(s, b, n_bins) for s, b in zip(specs, bins)]


def run_episode(alg_id: int, problem, policy, T: int, seed,
                n_bins: int = DEFAULT_BINS, policy_id: str = "") -> Trajectory:
    """Run one controlled episode.

    policy(state_vector, t) must return K integral bin indices (a
    non-integral or out-of-range bin raises ValueError naming its
    hyper-parameter); they are decoded on the per-dimension grids and fed
    to the optimizer each generation.
    The seed (int or list of ints) splits into independent init and
    stepping streams.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    init_ss, step_ss = np.random.SeedSequence(seed).spawn(2)
    state = algorithms.init_state(alg_id, problem, init_ss, horizon=T)
    rng = np.random.default_rng(step_ss)
    specs = algorithms.alg_spec(alg_id)
    f_best_init = state.best_f

    steps = []
    for t in range(T):
        s = cal_state(state, problem, f_best_init)
        raw = np.asarray(policy(s, t))
        if raw.shape != (len(specs),):
            raise ValueError(f"policy returned shape {raw.shape}, "
                             f"expected ({len(specs)},)")
        config = decode_config(specs, raw, n_bins)
        bins = raw.astype(np.int64, copy=False)
        prev_best = state.best_f
        state = algorithms.step(state, config, problem, rng)
        r = reward(prev_best, state.best_f, f_best_init, problem.f_opt)
        steps.append(StepRecord(s, bins, float(r), float(state.best_f)))

    return Trajectory(
        alg_id=alg_id, K=len(specs), M=n_bins,
        function_id=problem.function_id, dim=problem.dim,
        instance_seed=problem.seed,
        episode_seed=seed,
        T=T, policy_id=policy_id,
        f_best_init=float(f_best_init), f_star=float(problem.f_opt),
        steps=steps)


# ---------------------------------------------------------------------------
# independent work in worker processes

#: this process's worker pool: (executor, workers, pid that forked it)
_POOL = None


def resolve_workers(workers=None) -> int:
    """Worker count of ``run_episodes`` and ``training.train``: None means
    the CPUs this process may run on; anything below 1 is a ValueError."""
    if workers is None:
        return len(os.sched_getaffinity(0))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


def close_pool() -> None:
    """Shut down this process's worker pool and wait for its workers to
    exit (a no-op without one); a forked child just drops its parent's."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None and pool[2] == os.getpid():
        pool[0].shutdown()


def pmap(fn, items: list, n: int) -> list:
    """The list of ``fn(item)`` in item order.

    With ``n`` <= 1 or at most one item the calls run here.  Otherwise
    they run on this process's worker pool, forked at the first such map
    and kept until exit, when ``concurrent.futures`` joins it; it is
    forked anew when ``n`` exceeds its workers, after it lost a worker,
    and in a forked child.  Workers do not see this process's later
    state: ``fn`` (module-level), each item and each result are pickled,
    and an item that does not pickle raises here.  A call's exception
    surfaces with its type and message, the first in item order when
    several fail; a dead worker raises ``BrokenProcessPool``.
    """
    global _POOL
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if _POOL is None or _POOL[1] < n or _POOL[2] != os.getpid():
        close_pool()
        fork = multiprocessing.get_context("fork")
        _POOL = (ProcessPoolExecutor(n, mp_context=fork), n, os.getpid())
        # a pool worker joins its children before that hook: close the pool
        # ahead of its queues, whose finalizers run at exit priority 10
        multiprocessing.util.Finalize(None, close_pool, exitpriority=20)
    try:
        return list(_POOL[0].map(fn, items))
    except BrokenProcessPool:
        close_pool()
        raise


def _run(job):
    return job()


def run_episodes(jobs, workers=None, stop=None) -> list:
    """Run zero-argument episode jobs and return their results in job order.

    The jobs run through ``pmap`` with ``min(workers, len(jobs))`` workers
    (none with one worker or at most one job), each pickled to its worker.
    Each episode carries its own seed, so the results do not depend on
    ``workers``.

    ``stop(batch)``, if given, is called with each round's results and
    ends the map when it returns True.  A round is ``workers`` jobs (a
    round of one job runs here), so the map runs at most ``workers - 1``
    jobs past the one a serial loop would stop at, and never more than
    ``len(jobs)``.
    """
    jobs = list(jobs)
    n = min(resolve_workers(workers), len(jobs))
    size = max(n, 1) if stop is not None else max(len(jobs), 1)
    results = []
    for lo in range(0, len(jobs), size):
        batch = pmap(_run, jobs[lo:lo + size], n)
        results += batch
        if stop is not None and stop(batch):
            break
    return results
