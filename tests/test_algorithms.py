"""Tests for the three controllable algorithm assemblies."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from dacq import algorithms as alg
from dacq import ea_ops
from dacq.problems import make_identity_instance, make_instance


def random_config(specs, rng):
    out = []
    for s in specs:
        if s.choices:
            out.append(s.choices[int(rng.integers(len(s.choices)))])
        else:
            out.append(float(rng.uniform(0.0, 1.0)))
    return out


@pytest.fixture(scope="module")
def sphere5():
    return make_identity_instance(1, 5)


# ---------------------------------------------------------------------------
# specs and config validation

def test_spec_sizes_and_kinds():
    s0, s1, s2 = alg.alg_spec(0), alg.alg_spec(1), alg.alg_spec(2)
    assert [len(s0), len(s1), len(s2)] == [3, 10, 16]
    assert all(s.choices == () for s in s0)    # continuous on [0, 1]
    assert [s.name for s in s2] == [
        "Cr1", "Xr_mpx", "eta_m", "eta_c", "Xr_sbx", "sigma", "F1_3", "F2_3",
        "Cr3", "F1_4", "F2_4", "Cr4", "cm1", "cm2", "cm3", "cm4"]
    assert [f.name for f in dataclasses.fields(alg.HyperParameterSpec)] \
        == ["name", "choices"]
    by_name = {s.name: s for s in s1}
    assert by_name["bc1"].choices == ea_ops.BOUND_METHODS
    assert by_name["cm2"].choices == (0, 1)
    assert by_name["Xr_mpx"].choices == ("uniform", "rank")
    by_name2 = {s.name: s for s in s2}
    assert by_name2["eta_c"].choices == (1, 2, 3)
    assert by_name2["cm4"].choices == (0, 1, 2, 3)
    # the discrete dims are exactly the ones with choices
    assert [s.name for s in s1 if s.choices] == ["Xr_mpx", "bc1", "cm1",
                                                 "bc2", "cm2"]


def test_unknown_alg_id():
    with pytest.raises(ValueError):
        alg.alg_spec(3)
    with pytest.raises(ValueError):
        alg.init_state(7, make_identity_instance(1, 5), 0, horizon=50)


def test_validate_config():
    specs = alg.alg_spec(1)
    good = [0.5, "rank", 0.1, "reflect", 1, 0.2, 0.3, 0.9, "clip", 0]
    alg.validate_config(specs, good)
    with pytest.raises(ValueError):
        alg.validate_config(specs, good[:-1])
    for edge in (0.0, 1.0):
        alg.validate_config(specs, [edge] + good[1:])
    for outside in (1.5, -0.1):
        with pytest.raises(ValueError, match="Cr1=.* outside \\[0, 1\\]"):
            alg.validate_config(specs, [outside] + good[1:])
    bad = list(good)
    bad[3] = "wrap"
    with pytest.raises(ValueError):
        alg.validate_config(specs, bad)


# ---------------------------------------------------------------------------
# initialization

@pytest.mark.parametrize("alg_id,sizes,total", [
    (0, [100], 100), (1, [50, 200], 250), (2, [200, 100, 100, 100], 500)])
def test_init_sizes_and_eval_count(sphere5, alg_id, sizes, total):
    st = alg.init_state(alg_id, sphere5, seed=3, horizon=50)
    assert [p.size for p in st.sub_pops] == sizes
    assert st.evals_used == total
    assert st.t == 0 and st.stagnation == 0 and not st.improved_last_step
    for p in st.sub_pops:
        assert p.fitness is not None and p.fitness.shape == (p.size,)
        assert np.all(p.X >= sphere5.lower) and np.all(p.X <= sphere5.upper)
    # the kept point is the first initial row with the least value
    fit = np.concatenate([p.fitness for p in st.sub_pops])
    assert st.best_f == fit.min()
    assert_array_equal(st.best_x,
                       np.vstack([p.X for p in st.sub_pops])[np.argmin(fit)])


def test_init_deterministic(sphere5):
    a = alg.init_state(2, sphere5, seed=11, horizon=50)
    b = alg.init_state(2, sphere5, seed=11, horizon=50)
    c = alg.init_state(2, sphere5, seed=12, horizon=50)
    for pa, pb in zip(a.sub_pops, b.sub_pops):
        assert_array_equal(pa.X, pb.X)
        assert_array_equal(pa.fitness, pb.fitness)
    assert not np.array_equal(a.sub_pops[0].X, c.sub_pops[0].X)


def test_init_halton_shared_draw(sphere5):
    # sub-populations are consecutive slices of one Halton draw
    st = alg.init_state(1, sphere5, seed=5, horizon=50)
    rng = np.random.default_rng(5)
    whole = ea_ops.halton_init(250, 5, (-5.0, 5.0), seed=rng)
    assert_array_equal(st.sub_pops[0].X, whole.X[:50])
    assert_array_equal(st.sub_pops[1].X, whole.X[50:])


# ---------------------------------------------------------------------------
# stepping

def test_alg0_zero_config_is_identity(sphere5):
    st = alg.init_state(0, sphere5, seed=1, horizon=50)
    X0 = st.sub_pops[0].X.copy()
    f0 = st.sub_pops[0].fitness.copy()
    st2 = alg.step(st, [0.0, 0.0, 0.0], sphere5, np.random.default_rng(9))
    ev = st2.evals_used - st.evals_used
    assert ev == 100
    assert_array_equal(st2.sub_pops[0].X, X0)
    assert_array_equal(st2.sub_pops[0].fitness, f0)
    assert st2.best_f == st.best_f
    assert not st2.improved_last_step and st2.stagnation == 1
    # a second identity step keeps counting stagnation
    st3 = alg.step(st2, [0.0, 0.0, 0.0], sphere5, np.random.default_rng(10))
    assert st3.stagnation == 2


@pytest.mark.parametrize("alg_id", [0, 1, 2])
def test_best_never_increases_and_bounds_hold(sphere5, alg_id):
    st = alg.init_state(alg_id, sphere5, seed=2, horizon=30)
    rng = np.random.default_rng(7)
    specs = alg.alg_spec(alg_id)
    best = st.best_f
    total = st.evals_used
    for _ in range(12):
        # one offspring per member of every sub-population is evaluated
        ev = sum(p.size for p in st.sub_pops)
        st = alg.step(st, random_config(specs, rng), sphere5, rng)
        assert st.best_f <= best + 0.0
        best = st.best_f
        total += ev
        assert st.evals_used == total
        for p in st.sub_pops:
            assert np.all(p.X >= sphere5.lower) and np.all(p.X <= sphere5.upper)
            assert st.best_f <= p.fitness.min()


def test_alg0_actually_optimizes(sphere5):
    st = alg.init_state(0, sphere5, seed=4, horizon=60)
    rng = np.random.default_rng(0)
    for _ in range(40):
        st = alg.step(st, [0.8, 0.5, 0.9], sphere5, rng)
    assert st.best_f < 0.5  # sphere in 5-D collapses fast under DE


def test_alg1_eval_counts_follow_shrinking_ga(sphere5):
    T = 50
    st = alg.init_state(1, sphere5, seed=6, horizon=T)
    rng = np.random.default_rng(3)
    specs = alg.alg_spec(1)
    for t in range(1, 6):
        ga_size_before = st.sub_pops[0].size
        evals_before = st.evals_used
        st = alg.step(st, random_config(specs, rng), sphere5, rng)
        ev = st.evals_used - evals_before
        assert ev == ga_size_before + 200
        assert st.sub_pops[0].size == ea_ops.lpsr_target(t, T, 50, 10)
        assert st.sub_pops[1].size == 200


def test_alg1_ga_reaches_floor(sphere5):
    T = 20
    st = alg.init_state(1, sphere5, seed=6, horizon=T)
    rng = np.random.default_rng(3)
    specs = alg.alg_spec(1)
    for _ in range(T):
        st = alg.step(st, random_config(specs, rng), sphere5, rng)
    assert st.sub_pops[0].size == 10
    assert st.sub_pops[1].size == 200


def test_alg0_keeps_its_population_size(sphere5):
    # alg 0 has no size-reduction plan: its one population stays at 100
    T = 10
    st = alg.init_state(0, sphere5, seed=8, horizon=T)
    assert alg.ASSEMBLIES[0].lpsr == ()
    rng = np.random.default_rng(1)
    for _ in range(T):
        evals_before = st.evals_used
        st = alg.step(st, [0.5, 0.5, 0.5], sphere5, rng)
        ev = st.evals_used - evals_before
        assert st.sub_pops[0].size == 100 and ev == 100


def test_alg2_sharing_spreads_best(sphere5):
    st = alg.init_state(2, sphere5, seed=13, horizon=50)
    rng = np.random.default_rng(21)
    specs = alg.alg_spec(2)
    cfg = random_config(specs, rng)
    cfg[12:16] = [2, 2, 2, 2]  # everyone receives sub-population 3's best
    st = alg.step(st, cfg, sphere5, rng)
    donor_best = st.sub_pops[2].fitness.min()
    assert st.best_f <= donor_best
    for i in (0, 1, 3):
        assert st.sub_pops[i].fitness.min() <= donor_best


def test_alg2_step_eval_count(sphere5):
    st = alg.init_state(2, sphere5, seed=1, horizon=50)
    rng = np.random.default_rng(2)
    evals_before = st.evals_used
    st = alg.step(st, random_config(alg.alg_spec(2), rng), sphere5, rng)
    ev = st.evals_used - evals_before
    assert ev == 500
    assert [p.size for p in st.sub_pops] == [200, 100, 100, 100]


def test_full_run_deterministic():
    prob = make_instance(15, 5, seed=0)

    def run(seed):
        st = alg.init_state(2, prob, seed=seed, horizon=50)
        rng = np.random.default_rng(seed + 999)
        specs = alg.alg_spec(2)
        trace = [st.best_f]
        for _ in range(8):
            st = alg.step(st, random_config(specs, rng), prob, rng)
            trace.append(st.best_f)
        return trace, st

    t1, s1 = run(42)
    t2, s2 = run(42)
    t3, _ = run(43)
    assert t1 == t2
    for p, q in zip(s1.sub_pops, s2.sub_pops):
        assert_array_equal(p.X, q.X)
    assert t1 != t3


def test_step_rejects_mismatched_state(sphere5):
    st = alg.init_state(0, sphere5, seed=1, horizon=50)
    with pytest.raises(ValueError):
        alg.step(st, [0.5, 0.5], sphere5, np.random.default_rng(0))


def test_improvement_flag_tracks_best(sphere5):
    st = alg.init_state(0, sphere5, seed=4, horizon=60)
    rng = np.random.default_rng(5)
    seen_improvement = False
    for _ in range(10):
        prev = st.best_f
        st = alg.step(st, [0.7, 0.4, 0.8], sphere5, rng)
        assert st.improved_last_step == (st.best_f < prev)
        seen_improvement = seen_improvement or st.improved_last_step
    assert seen_improvement


# ---------------------------------------------------------------------------
# operator order: one step per algorithm, spied at the ea_ops boundary

# continuous values are distinct, so each recorded value names its slot
_ORDER_CONFIGS = {
    0: [0.01, 0.02, 0.03],
    1: [0.01, "rank", 0.03, "reflect", 1, 0.06, 0.07, 0.08, "halving", 0],
    2: [0.01, "rank", 2, 3, "uniform", 0.06, 0.07, 0.08, 0.09, 0.10, 0.11,
        0.12, 3, 2, 1, 0],
}

_ORDER_EXPECTED = {
    0: [("de_mutate", ("current_to_rand_1", 0.01, 0.02)),
        ("crossover", ("exponential", 0.03, None, None)),
        ("bound_control", "clip"),
        ("evaluate_population", 100),
        ("select", "greedy_pairwise")],
    1: [("crossover", ("mpx", 0.01, None, "rank")),
        ("ga_mutate", ("gaussian", 0.03, None)),
        ("bound_control", "reflect"),
        ("evaluate_population", 50),
        ("select", "roulette"),
        ("de_mutate", ("best_2", 0.06, 0.07)),
        ("crossover", ("binomial", 0.08, None, None)),
        ("bound_control", "halving"),
        ("evaluate_population", 200),
        ("select", "greedy_pairwise"),
        ("share_information", (1, 0)),
        ("lpsr", (50, 10))],
    2: [("crossover", ("mpx", 0.01, None, "rank")),
        ("ga_mutate", ("polynomial", None, 2)),
        ("bound_control", "clip"),
        ("evaluate_population", 200),
        ("select", "roulette"),
        ("crossover", ("sbx", None, 3, "uniform")),
        ("ga_mutate", ("gaussian", 0.06, None)),
        ("bound_control", "clip"),
        ("evaluate_population", 100),
        ("select", "tournament"),
        ("de_mutate", ("rand_2", 0.07, 0.08)),
        ("crossover", ("exponential", 0.09, None, None)),
        ("bound_control", "clip"),
        ("evaluate_population", 100),
        ("select", "greedy_pairwise"),
        ("de_mutate", ("current_to_best_1", 0.10, 0.11)),
        ("crossover", ("binomial", 0.12, None, None)),
        ("bound_control", "clip"),
        ("evaluate_population", 100),
        ("select", "greedy_pairwise"),
        ("share_information", (3, 2, 1, 0))],
}


@pytest.mark.parametrize("alg_id", [0, 1, 2])
def test_step_operator_order_matches_docstring(sphere5, monkeypatch, alg_id):
    # The order of these calls is the order of the random draws, so a
    # reordered table entry or loop stage changes every seeded dataset.
    st = alg.init_state(alg_id, sphere5, seed=3, horizon=50)
    calls = []

    def spy(op, key):
        real = getattr(ea_ops, op)

        def wrapped(*args, **kwargs):
            calls.append((op, key(*args, **kwargs)))
            return real(*args, **kwargs)
        monkeypatch.setattr(ea_ops, op, wrapped)

    spy("de_mutate", lambda v, pop, par, rng: (v, par.f1, par.f2))
    spy("crossover", lambda v, X, donor, par, rng, fitness=None:
        (v, par.cr, par.eta_c, par.xr))
    spy("ga_mutate", lambda v, X, par, bounds, rng: (v, par.sigma, par.eta_m))
    spy("bound_control", lambda method, *a: method)
    spy("evaluate_population", lambda pop, problem: pop.size)
    spy("select", lambda v, *a: v)
    spy("share_information", lambda pops, cm: tuple(cm))
    spy("lpsr", lambda pop, t, T, np_init, np_final: (np_init, np_final))

    config = _ORDER_CONFIGS[alg_id]
    alg.step(st, config, sphere5, np.random.default_rng(0))
    assert calls == _ORDER_EXPECTED[alg_id]
    cm_slots = [v for s, v in zip(alg.alg_spec(alg_id), config)
                if s.name.startswith("cm")]
    shared = [key for op, key in calls if op == "share_information"]
    assert shared == ([tuple(cm_slots)] if cm_slots else [])
