"""Three fixed evolutionary algorithm assemblies with controllable
per-generation hyper-parameters.

Each algorithm is declared once, as one entry of the ``ASSEMBLIES``
table: its ordered hyper-parameters, its init, its sub-populations with
their operators, its population-size reduction (LPSR) plan and its
information-sharing slots.  ``alg_spec``, ``init_state`` and ``step``
only read that table.  A hyper-parameter is a name plus, when discrete,
its tuple of choices; every other hyper-parameter is continuous on
[0, 1], which ``env`` covers with a uniform grid of bins whose ends are
0 and 1.

* alg 0 (K=3): DE/current-to-rand/1/exponential on one population of 100,
  uniform init, clip bound control, no size reduction.
* alg 1 (K=10): GA sub-population (MPX, Gaussian mutation, roulette,
  size 50 shrinking linearly to 10) plus DE/best/2/binomial sub-population
  (size 200), Halton init, per-sub-population bound control and
  information sharing.
* alg 2 (K=16): four sub-populations (MPX+polynomial+roulette,
  SBX+Gaussian+tournament, DE/rand/2/exponential, DE/current-to-best/1/
  binomial), Halton init sizes (200, 100, 100, 100), information sharing,
  no size reduction.

Every sub-population runs, in table order, DE mutation (DE only) →
crossover → GA mutation (GA only) → bound control → evaluation →
selection; sharing and then LPSR follow once all sub-populations have
stepped.  Each evaluation, the initial one too, also updates the
best-so-far point ``AlgorithmState`` keeps.  This order is the order of
the random draws, so reordering entries or stages changes every seeded
dataset.

The DE sub-populations of alg 2 use greedy pairwise selection, and
pipelines whose operators can leave the search range clip before
evaluation; both are inferences where the written procedure is silent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ea_ops
from .ea_ops import OperatorParams, Population


@dataclass(frozen=True)
class HyperParameterSpec:
    """One controllable dimension of an algorithm's configuration space.

    A dimension with ``choices`` is discrete and takes one of them; one
    without is continuous and takes a value in [0, 1].  Its position in
    ``alg_spec`` is its position in the action sequence.
    """

    name: str
    choices: tuple = ()


def _specs(names, **choices) -> tuple[HyperParameterSpec, ...]:
    """Specs in action order; names absent from ``choices`` are
    continuous."""
    return tuple(HyperParameterSpec(n, tuple(choices.get(n, ())))
                 for n in names)


@dataclass(frozen=True)
class SubPopulation:
    """One sub-population's pipeline.  ``params`` maps ``OperatorParams``
    fields to the hyper-parameters that feed them; ``bound`` names the
    hyper-parameter that picks the bound-control method (None: clip)."""

    size: int
    de: str | None            # DE mutation variant; None for GA
    crossover: str
    ga: str | None            # GA mutation variant; None for DE
    select: str
    params: dict
    bound: str | None = None


@dataclass(frozen=True)
class Assembly:
    """One algorithm.  ``lpsr`` holds (sub-population, final size) pairs
    (empty: no size reduction).  ``share`` names the per-sub-population
    sharing target hyper-parameters (empty: no sharing)."""

    specs: tuple[HyperParameterSpec, ...]
    init: str                 # "uniform" | "halton"
    sub_pops: tuple[SubPopulation, ...]
    lpsr: tuple = ()
    share: tuple = ()


_XR = ("uniform", "rank")
_BC = ea_ops.BOUND_METHODS
_CM4 = (0, 1, 2, 3)

ASSEMBLIES = {
    0: Assembly(
        _specs(("F1", "F2", "Cr")), "uniform",
        (SubPopulation(100, "current_to_rand_1", "exponential", None,
                       "greedy_pairwise", dict(f1="F1", f2="F2", cr="Cr")),)),
    1: Assembly(
        _specs(("Cr1", "Xr_mpx", "sigma", "bc1", "cm1",
                "F1", "F2", "Cr2", "bc2", "cm2"),
               Xr_mpx=_XR, bc1=_BC, bc2=_BC, cm1=(0, 1), cm2=(0, 1)),
        "halton",
        (SubPopulation(50, None, "mpx", "gaussian", "roulette",
                       dict(cr="Cr1", xr="Xr_mpx", sigma="sigma"), "bc1"),
         SubPopulation(200, "best_2", "binomial", None, "greedy_pairwise",
                       dict(f1="F1", f2="F2", cr="Cr2"), "bc2")),
        lpsr=((0, 10),), share=("cm1", "cm2")),
    2: Assembly(
        _specs(("Cr1", "Xr_mpx", "eta_m", "eta_c", "Xr_sbx", "sigma",
                "F1_3", "F2_3", "Cr3", "F1_4", "F2_4", "Cr4",
                "cm1", "cm2", "cm3", "cm4"),
               Xr_mpx=_XR, Xr_sbx=_XR, eta_m=(1, 2, 3), eta_c=(1, 2, 3),
               cm1=_CM4, cm2=_CM4, cm3=_CM4, cm4=_CM4),
        "halton",
        (SubPopulation(200, None, "mpx", "polynomial", "roulette",
                       dict(cr="Cr1", xr="Xr_mpx", eta_m="eta_m")),
         SubPopulation(100, None, "sbx", "gaussian", "tournament",
                       dict(eta_c="eta_c", xr="Xr_sbx", sigma="sigma")),
         SubPopulation(100, "rand_2", "exponential", None, "greedy_pairwise",
                       dict(f1="F1_3", f2="F2_3", cr="Cr3")),
         SubPopulation(100, "current_to_best_1", "binomial", None,
                       "greedy_pairwise", dict(f1="F1_4", f2="F2_4", cr="Cr4"))),
        share=("cm1", "cm2", "cm3", "cm4")),
}

ALGORITHM_IDS = tuple(ASSEMBLIES)


def _assembly(alg_id: int) -> Assembly:
    if alg_id not in ASSEMBLIES:
        raise ValueError(f"unknown alg_id {alg_id}")
    return ASSEMBLIES[alg_id]


def alg_spec(alg_id: int) -> tuple[HyperParameterSpec, ...]:
    """The ordered hyper-parameter descriptions for one algorithm."""
    return _assembly(alg_id).specs


def validate_config(specs: list[HyperParameterSpec], config) -> None:
    if len(config) != len(specs):
        raise ValueError(f"config length {len(config)} != K={len(specs)}")
    for spec, value in zip(specs, config):
        if not spec.choices:
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError(f"{spec.name}={value} outside [0, 1]")
        elif value not in spec.choices:
            raise ValueError(f"{spec.name}={value!r} not among {spec.choices}")


@dataclass
class AlgorithmState:
    """Mutable per-episode optimizer state (owned by one episode).

    ``best_x``/``best_f`` is the episode's best-so-far point over every
    sub-population: of the points with the least value, the one evaluated
    first, in stage order (the initial sub-populations, then each
    generation's offspring, in sub-population order)."""

    alg_id: int
    sub_pops: list[Population]
    t: int                    # completed generations
    horizon: int
    best_x: np.ndarray
    best_f: float
    stagnation: int = 0
    improved_last_step: bool = False
    evals_used: int = 0


def _kept_best(best_x, best_f, pop: Population):
    """The kept point after ``pop`` is evaluated: its best row when that is
    strictly better than ``best_f``, else (best_x, best_f)."""
    i = pop.best_index
    if pop.fitness[i] < best_f:
        return pop.X[i].copy(), float(pop.fitness[i])
    return best_x, best_f


def init_state(alg_id: int, problem, seed, horizon: int) -> AlgorithmState:
    """Sample and evaluate the initial (sub-)populations.

    alg 0 draws uniformly; algs 1 and 2 draw one scrambled Halton sequence
    and split it into the declared sub-population sizes.
    """
    asm = _assembly(alg_id)
    rng = np.random.default_rng(seed)
    sizes = [sub.size for sub in asm.sub_pops]
    bounds = (problem.lower, problem.upper)
    if asm.init == "uniform":
        whole = rng.uniform(*bounds, (sum(sizes), problem.dim))
    else:
        whole = ea_ops.halton_init(sum(sizes), problem.dim, bounds, seed=rng).X
    pops = [Population(X.copy())
            for X in np.split(whole, np.cumsum(sizes)[:-1])]
    best_x, best_f = None, np.inf
    evals = 0
    for p in pops:
        evals += ea_ops.evaluate_population(p, problem)
        best_x, best_f = _kept_best(best_x, best_f, p)
    return AlgorithmState(alg_id, pops, 0, horizon, best_x, best_f,
                          evals_used=evals)


def step(state: AlgorithmState, config, problem, rng) -> AlgorithmState:
    """Advance one generation under the given concrete configuration and
    return the new state."""
    asm = _assembly(state.alg_id)
    validate_config(asm.specs, config)
    cfg = {spec.name: value for spec, value in zip(asm.specs, config)}
    bounds = (problem.lower, problem.upper)
    best_x, best_f = state.best_x, state.best_f
    evals = 0

    pops = []
    for sub, pop in zip(asm.sub_pops, state.sub_pops):
        par = OperatorParams(**{field: cfg[name]
                                for field, name in sub.params.items()})
        X = pop.X
        if sub.de is not None:
            X = ea_ops.de_mutate(sub.de, pop, par, rng)
        X = ea_ops.crossover(sub.crossover, pop.X, X, par, rng,
                             fitness=pop.fitness)
        if sub.ga is not None:
            X = ea_ops.ga_mutate(sub.ga, X, par, bounds, rng)
        method = "clip" if sub.bound is None else cfg[sub.bound]
        X = ea_ops.bound_control(method, X, pop.X, bounds, rng)
        off = Population(X)
        evals += ea_ops.evaluate_population(off, problem)
        best_x, best_f = _kept_best(best_x, best_f, off)
        pops.append(ea_ops.select(sub.select, pop, off, rng))
    if asm.share:
        pops = ea_ops.share_information(pops, [cfg[n] for n in asm.share])

    t_next = state.t + 1
    for i, np_final in asm.lpsr:
        pops[i] = ea_ops.lpsr(pops[i], t_next, state.horizon,
                              asm.sub_pops[i].size, np_final)

    improved = best_f < state.best_f
    return replace(
        state,
        sub_pops=pops,
        t=t_next,
        best_x=best_x,
        best_f=best_f,
        stagnation=0 if improved else state.stagnation + 1,
        improved_last_step=improved,
        evals_used=state.evals_used + evals,
    )
