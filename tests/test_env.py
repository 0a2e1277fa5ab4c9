"""Tests for the control-loop environment: state features, reward,
action decoding, and episode running."""

import functools
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import reference
from dacq import algorithms as alg
from dacq import env, problems, rollouts
from dacq.ea_ops import Population
from dacq.problems import make_identity_instance, make_instance
from dacq.rollouts import random_policy


def fake_state(X, fit, bsf_x, bsf_f, t=3, stag=2, improved=True, horizon=50):
    pop = Population(np.asarray(X, float), np.asarray(fit, float))
    return alg.AlgorithmState(0, [pop], t, horizon, np.asarray(bsf_x, float),
                              float(bsf_f), stag, improved, 0)


@pytest.fixture(scope="module")
def sphere5():
    return make_identity_instance(1, 5)


def unit_problem(f_best_init):
    """Stand-in problem whose search-space diameter sqrt(dim)*(upper-lower)
    and span f_best_init - f_opt are exactly 1, so cal_state's features
    are the raw ones."""
    return SimpleNamespace(dim=1, lower=0.0, upper=1.0,
                           f_opt=f_best_init - 1.0)


# ---------------------------------------------------------------------------
# cal_state

def test_cal_state_matches_scalar_oracle(sphere5):
    rng = np.random.default_rng(0)
    X = rng.uniform(-5, 5, (10, 5))
    fit = rng.uniform(0, 50, 10)
    bsf_x = rng.uniform(-5, 5, 5)
    bsf_f = fit.min() - 1.0
    st = fake_state(X, fit, bsf_x, bsf_f, t=7, stag=4, improved=False)
    got = env.cal_state(st, unit_problem(0.0), f_best_init=0.0)
    want = reference.cal_state_ref(X.tolist(), fit.tolist(), bsf_x.tolist(),
                                   bsf_f, 7, 50, 4, False)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_cal_state_normalization(sphere5):
    rng = np.random.default_rng(1)
    X = rng.uniform(-5, 5, (8, 5))
    fit = rng.uniform(10, 60, 8)
    bsf_x, bsf_f = X[0], fit.min()
    st = fake_state(X, fit, bsf_x, bsf_f)
    raw = env.cal_state(st, unit_problem(100.0), f_best_init=100.0)
    nrm = env.cal_state(st, sphere5, f_best_init=100.0)
    diameter = np.sqrt(5) * 10.0
    assert_allclose(nrm[:3], raw[:3] / diameter, rtol=1e-15)
    assert_allclose(nrm[3:6], raw[3:6] / 100.0, rtol=1e-15)
    assert_array_equal(nrm[6:], raw[6:])
    # degenerate normalizer zeroes the objective features
    degen = env.cal_state(st, sphere5, f_best_init=0.0)
    assert_array_equal(degen[3:6], [0.0, 0.0, 0.0])


def test_cal_state_fresh_episode_time_features(sphere5):
    st = alg.init_state(0, sphere5, seed=0, horizon=50)
    s = env.cal_state(st, sphere5, f_best_init=st.best_f)
    assert s[6] == 1.0 and s[7] == 0.0 and s[8] == 0.0


def test_cal_state_collapsed_population(sphere5):
    X = np.tile([[1.0, 2.0, 0.0, -1.0, 3.0]], (6, 1))
    fit = np.full(6, 15.0)
    st = fake_state(X, fit, X[0], 15.0)
    s = env.cal_state(st, sphere5, f_best_init=20.0)
    assert s[0] == 0.0 and s[1] == 0.0 and s[5] == 0.0


def test_cal_state_rejects_non_finite_feature(sphere5, monkeypatch):
    # a NaN s1 (the square root of a negative plane entry, say) raises
    # naming the feature, before it reaches a model or a dataset
    rng = np.random.default_rng(2)
    X = rng.uniform(-5, 5, (12, 5))
    fit = rng.uniform(5, 50, 12)
    st = fake_state(X, fit, X[3], fit.min() - 2.0)
    monkeypatch.setattr(env, "_mean_pairwise_distance", lambda X: np.nan)
    with pytest.raises(ValueError, match=r"state feature s1 is not finite"):
        env.cal_state(st, sphere5, f_best_init=60.0)
    # s2..s9 come later: an infinite objective value names s4, the first
    # feature it reaches
    monkeypatch.undo()
    fit[5] = np.inf
    with pytest.raises(ValueError, match=r"state feature s4 is not finite"), \
            np.errstate(invalid="ignore"):   # s6, the std, is inf - inf
        env.cal_state(st, sphere5, f_best_init=60.0)


def test_cal_state_gap_ordering(sphere5):
    rng = np.random.default_rng(2)
    X = rng.uniform(-5, 5, (12, 5))
    fit = rng.uniform(5, 50, 12)
    st = fake_state(X, fit, X[3], fit.min() - 2.0)
    s = env.cal_state(st, sphere5, f_best_init=60.0)
    assert s[3] >= s[4] >= 0.0


def test_cal_state_union_of_sub_pops(sphere5):
    rng = np.random.default_rng(3)
    Xa, Xb = rng.uniform(-5, 5, (4, 5)), rng.uniform(-5, 5, (6, 5))
    fa, fb = rng.uniform(0, 9, 4), rng.uniform(0, 9, 6)
    bsf_f = min(fa.min(), fb.min())
    bsf_x = Xa[0]
    pa = Population(Xa, fa)
    pb = Population(Xb, fb)
    st = alg.AlgorithmState(1, [pa, pb], 1, 50, bsf_x.copy(), bsf_f, 0,
                            False, 0)
    got = env.cal_state(st, unit_problem(1.0), f_best_init=1.0)
    X = np.vstack([Xa, Xb])
    fit = np.concatenate([fa, fb])
    want = reference.cal_state_ref(X.tolist(), fit.tolist(), bsf_x.tolist(),
                                   bsf_f, 1, 50, 0, False)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _one_block_max_n():
    """Largest population whose whole s1 upper triangle fits one plane:
    its first block, n - 1 columns wide, takes every one of the n - 1 rows."""
    n = 2
    while max(1, env.S1_BLOCK_ELEMENTS // n) >= n:
        n += 1
    return n


def _s1(X):
    rng = np.random.default_rng(X.shape)
    fit = rng.uniform(0, 50, X.shape[0])
    st = fake_state(X, fit, X[0], fit.min())
    got = env.cal_state(st, unit_problem(0.0), f_best_init=0.0)
    return got[0]


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("dim", [5, 20, 50])
def test_cal_state_s1_matches_row_loop(dim, clustered):
    # s1 sums each block of the upper triangle whole, so it matches the
    # exactly rounded oracle to a relative 1e-13, not bit for bit
    edge = _one_block_max_n()
    for n in (1, 2, edge - 1, edge, edge + 1, 500):
        rng = np.random.default_rng([dim, n])
        if clustered:  # late stage: every row within 1e-9 of one point
            X = rng.uniform(-5, 5, dim) + 1e-9 * rng.standard_normal((n, dim))
        else:
            X = rng.uniform(-5, 5, (n, dim))
        got, want = _s1(X), reference.mean_pairwise_distance_ref(X)
        assert abs(got - want) <= 1e-13 * want, (n, dim, got, want)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_cal_state_s1_small_blocks(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    for n in (2, 3, 4, 7, 20):
        # the first block (n - 1 columns) takes `rows` rows; later, narrower
        # blocks take more
        monkeypatch.setattr(env, "S1_BLOCK_ELEMENTS", rows * (n - 1))
        X = rng.uniform(-5, 5, (n, 5))
        got, want = _s1(X), reference.mean_pairwise_distance_ref(X)
        assert abs(got - want) <= 1e-13 * want, (n, rows, got, want)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_cal_state_s1_small_blas_blocks(monkeypatch, rows):
    # at dim 20 the BLAS budget, not S1_BLOCK_ELEMENTS, sets the block
    # height: the first block (n - 1 columns) takes `rows` rows
    rng = np.random.default_rng([rows, 20])
    for n in (2, 3, 4, 7, 20, 120):
        monkeypatch.setattr(env, "BLAS_BLOCK_ELEMENTS", rows * (n - 1) * 20)
        X = rng.uniform(-5, 5, (n, 20))
        got, want = _s1(X), reference.mean_pairwise_distance_ref(X)
        assert abs(got - want) <= 1e-13 * want, (n, rows, got, want)


class _MatmulSpy:
    """Stands in for numpy in ``env``, recording the operand shapes of
    each ``np.matmul``."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out):
        self.shapes.append((a.shape, b.shape))
        return np.matmul(a, b, out=out)


@pytest.mark.parametrize("dim", [5, 20, 50])
@pytest.mark.parametrize("n", [2, 500, 2000])
def test_cal_state_s1_products_fit_one_blas_thread(monkeypatch, n, dim):
    # every Gram plane product stays within BLAS_BLOCK_ELEMENTS
    # multiply-adds, and its plane within S1_BLOCK_ELEMENTS; the blocks
    # walk rows 0..n-2 in order, each as tall as both budgets allow
    spy = _MatmulSpy()
    monkeypatch.setattr(env, "np", spy)
    X = np.random.default_rng([n, dim]).uniform(-5, 5, (n, dim))
    env._mean_pairwise_distance(X)
    budget = min(env.S1_BLOCK_ELEMENTS, env.BLAS_BLOCK_ELEMENTS // dim)
    i0 = 0
    for (m, k), (k2, cols) in spy.shapes:
        assert (k, k2, cols) == (dim, dim, n - 1 - i0)
        assert m * cols * dim <= env.BLAS_BLOCK_ELEMENTS
        assert m * cols <= env.S1_BLOCK_ELEMENTS
        assert m == cols or (m + 1) * cols > budget
        i0 += m
    assert i0 == n - 1


@pytest.mark.parametrize("dim", [5, 20])
def test_cal_state_s1_duplicate_rows(dim):
    # a quarter of the rows repeat others exactly and a quarter sit 1e-12
    # from one: the Gram plane reads rounding noise for those pairs, so
    # only the guard's exact differences keep s1 within 1e-13
    for n in (60, 500):
        rng = np.random.default_rng([dim, n, 17])
        X = rng.uniform(-5, 5, (n, dim))
        q = n // 4
        X[:q] = X[q:2 * q]
        X[2 * q:3 * q] = X[3 * q:] + 1e-12 * rng.standard_normal((q, dim))
        X = X[rng.permutation(n)]
        got, want = _s1(X), reference.mean_pairwise_distance_ref(X)
        assert abs(got - want) <= 1e-13 * want, (n, dim, got, want)


def test_cal_state_scratch_memory_bounded():
    # an (n, n, dim) difference tensor at n=500 would take 38 MiB at
    # dim 20 and 95 MiB at dim 50
    for dim in (20, 50):
        rng = np.random.default_rng(5)
        X = rng.uniform(-5, 5, (500, dim))
        fit = rng.uniform(0, 50, 500)
        st = fake_state(X, fit, X[0], fit.min())
        problem = make_identity_instance(1, dim)
        tracemalloc.start()
        try:
            env.cal_state(st, problem, f_best_init=100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, (dim, peak)


def test_cal_state_empty_population_errors(sphere5):
    st = fake_state(np.empty((0, 5)), np.empty(0), np.zeros(5), 0.0)
    with pytest.raises(ValueError):
        env.cal_state(st, sphere5, f_best_init=1.0)


# ---------------------------------------------------------------------------
# reward

def test_reward_no_improvement_is_zero():
    assert env.reward(5.0, 5.0, 10.0, 0.0) == 0.0


def test_reward_telescoping_example():
    r1 = env.reward(10.0, 4.0, 10.0, 0.0)
    r2 = env.reward(4.0, 0.0, 10.0, 0.0)
    assert (r1, r2) == (0.6, 0.4)
    assert r1 + r2 == 1.0


def test_reward_degenerate_normalizer():
    assert env.reward(3.0, 3.0, 3.0, 3.0) == 0.0


def test_reward_invalid_normalizer():
    with pytest.raises(ValueError):
        env.reward(1.0, 1.0, 0.0, 1.0)


def test_reward_random_monotone_sum_telescopes():
    rng = np.random.default_rng(4)
    f_star = -2.0
    seq = np.sort(rng.uniform(0, 100, 40))[::-1]
    f0 = seq[0]
    total = sum(env.reward(seq[i - 1], seq[i], f0, f_star)
                for i in range(1, len(seq)))
    assert abs(total - (f0 - seq[-1]) / (f0 - f_star)) < 1e-12
    assert all(env.reward(seq[i - 1], seq[i], f0, f_star) >= 0
               for i in range(1, len(seq)))


# ---------------------------------------------------------------------------
# action decoding and masks

def test_decode_continuous_grid_endpoints():
    spec = alg.alg_spec(0)[0]
    assert env.decode_action(spec, 0) == 0.0
    assert env.decode_action(spec, 15) == 1.0
    grid = [env.decode_action(spec, b) for b in range(16)]
    assert_allclose(np.diff(grid), 1 / 15, rtol=1e-12)


def test_decode_continuous_other_bin_count():
    spec = alg.alg_spec(0)[0]
    assert env.decode_action(spec, 31, n_bins=32) == 1.0
    assert env.decode_action(spec, 0, n_bins=32) == 0.0


def test_decode_discrete_choices():
    by_name = {s.name: s for s in alg.alg_spec(1)}
    assert env.decode_action(by_name["bc1"], 3) == "reflect"
    assert env.decode_action(by_name["cm2"], 1) == 1
    assert env.decode_action(by_name["Xr_mpx"], 0) == "uniform"


def test_decode_out_of_range():
    specs = {s.name: s for s in alg.alg_spec(1)}
    with pytest.raises(ValueError):
        env.decode_action(specs["F1"], 16)
    with pytest.raises(ValueError):
        env.decode_action(specs["bc1"], 5)
    with pytest.raises(ValueError):
        env.decode_action(specs["F1"], -1)


def test_mask_bins():
    by_name = {s.name: s for s in alg.alg_spec(1)}
    assert env.mask_bins(by_name["F1"]) == 16
    assert env.mask_bins(by_name["F1"], n_bins=32) == 32
    assert env.mask_bins(by_name["bc1"]) == 5
    assert env.mask_bins(by_name["cm1"]) == 2


def test_bin_masks():
    assert_array_equal(env.bin_masks(0, 16), [16, 16, 16])
    assert_array_equal(env.bin_masks(1, 16),
                       [16, 2, 16, 5, 2, 16, 16, 16, 5, 2])
    assert env.bin_masks(0, 32).tolist() == [32, 32, 32]
    for alg_id in alg.ALGORITHM_IDS:
        assert env.bin_masks(alg_id, 16).tolist() == [
            env.mask_bins(s) for s in alg.alg_spec(alg_id)]


@pytest.mark.parametrize("n_bins", [16, 32])
def test_nearest_bin_inverts_the_grid(n_bins):
    spec = alg.alg_spec(0)[0]
    for b in range(n_bins):
        assert env.nearest_bin(env.decode_action(spec, b, n_bins),
                               n_bins) == b
        assert env.decode_action(spec, b, n_bins) == b / (n_bins - 1)
    assert env.nearest_bin(0.0, n_bins) == 0
    assert env.nearest_bin(1.0, n_bins) == n_bins - 1
    # a tie rounds to the even bin: 0.5 sits between bins 7 and 8 of 16
    assert env.nearest_bin(0.5, 16) == 8


@pytest.mark.parametrize("bin_idx", [3.7, 0.5, 14.999])
def test_decode_rejects_non_integral_bin(bin_idx):
    spec = alg.alg_spec(0)[0]
    with pytest.raises(ValueError, match=f"non-integral bin .* for {spec.name}$"):
        env.decode_action(spec, bin_idx)


def test_decode_config_rejects_instead_of_truncating():
    specs = alg.alg_spec(0)
    with pytest.raises(ValueError, match=f"non-integral bin 3.7 for "
                                         f"{specs[0].name}$"):
        env.decode_config(specs, [3.7, 2.9, 1.5])
    assert env.decode_config(specs, [3.0, 2.0, 1.0]) == \
        env.decode_config(specs, [3, 2, 1])


def test_decode_config_length_check():
    specs = alg.alg_spec(0)
    with pytest.raises(ValueError):
        env.decode_config(specs, [0, 1])
    vals = env.decode_config(specs, [0, 15, 8])
    assert vals[0] == 0.0 and vals[1] == 1.0
    assert abs(vals[2] - 8 / 15) < 1e-15


# ---------------------------------------------------------------------------
# run_episode

def test_episode_reproducible(sphere5):
    def run():
        return env.run_episode(0, sphere5, random_policy(0, 5), T=15,
                               seed=123)
    a, b = run(), run()
    assert a.perf == b.perf
    for sa, sb in zip(a.steps, b.steps):
        assert_array_equal(sa.state, sb.state)
        assert_array_equal(sa.actions, sb.actions)
        assert sa.reward == sb.reward and sa.best_so_far_f == sb.best_so_far_f
    c = env.run_episode(0, sphere5, random_policy(0, 5), T=15, seed=124)
    assert c.perf != a.perf


def test_episode_reward_invariants(sphere5):
    traj = env.run_episode(1, sphere5, random_policy(1, 9), T=20, seed=7)
    assert len(traj.steps) == 20
    rewards = [s.reward for s in traj.steps]
    assert all(r >= 0 for r in rewards)
    assert sum(rewards) <= 1 + 1e-9
    # rewards reproducible from the stored best-so-far sequence
    bsf = [traj.f_best_init] + [s.best_so_far_f for s in traj.steps]
    denom = traj.f_best_init - traj.f_star
    for t, r in enumerate(rewards):
        assert abs(r - (bsf[t] - bsf[t + 1]) / denom) < 1e-12
    assert abs(traj.perf - sum(rewards)) < 1e-15


def test_perf_is_exactly_rounded_sum():
    """Ten rewards of 0.1 add up to 1.0 exactly; a left-to-right sum
    (Python <= 3.11's ``sum``) gives 0.9999999999999999."""
    steps = [env.StepRecord(np.zeros(9), np.zeros(3, dtype=np.int64), 0.1,
                            1.0 - 0.1 * (t + 1)) for t in range(10)]
    traj = env.Trajectory(alg_id=0, K=3, M=16, function_id=1, dim=5,
                          instance_seed=0, episode_seed=0, T=10,
                          policy_id="random", f_best_init=1.0, f_star=0.0,
                          steps=steps)
    assert traj.perf == 1.0


def test_episode_metadata(sphere5):
    traj = env.run_episode(0, sphere5, random_policy(0, 2), T=5, seed=[3, 1],
                           policy_id="random")
    assert traj.alg_id == 0 and traj.K == 3 and traj.M == 16
    assert traj.function_id == 1 and traj.dim == 5
    assert traj.episode_seed == [3, 1] and traj.T == 5
    assert traj.policy_id == "random"
    assert traj.final_best_f == traj.steps[-1].best_so_far_f
    assert traj.f_star == sphere5.f_opt


def test_episode_states_have_expected_ranges(sphere5):
    traj = env.run_episode(2, sphere5, random_policy(2, 11), T=6, seed=42)
    for rec in traj.steps:
        s = rec.state
        assert np.all(np.isfinite(s))
        assert -1e-9 <= s[0] <= 1 + 1e-9  # normalized pairwise distance
        assert 0 <= s[6] <= 1 and 0 <= s[7] <= 1
        assert s[8] in (0.0, 1.0)
        assert rec.actions.shape == (16,)


def test_random_policy_improves_on_sphere(sphere5):
    improved = 0
    for seed in range(19):
        traj = env.run_episode(0, sphere5, random_policy(0, seed), T=50,
                               seed=seed)
        if traj.final_best_f < traj.f_best_init:
            improved += 1
    assert improved >= 15


def test_episode_bad_policy_outputs(sphere5):
    with pytest.raises(ValueError):
        env.run_episode(0, sphere5, lambda s, t: [0, 0], T=3, seed=0)
    with pytest.raises(ValueError):
        env.run_episode(0, sphere5, lambda s, t: [0, 0, 16], T=3, seed=0)
    with pytest.raises(ValueError):
        env.run_episode(0, sphere5, lambda s, t: [0, 0, 0], T=0, seed=0)


@pytest.mark.parametrize("bins, name", [([3.7, 2.9, 1.5], "F1"),
                                        ([3.0, 2.0, 1.5], "Cr")])
def test_episode_rejects_non_integral_bins(sphere5, bins, name):
    with pytest.raises(ValueError, match=f"non-integral bin .* for {name}$"):
        env.run_episode(0, sphere5, lambda s, t: bins, T=3, seed=0)


def test_episode_integral_float_bins_play_as_ints(sphere5):
    want = env.run_episode(0, sphere5, lambda s, t: [3, 2, 1], T=3, seed=0)
    got = env.run_episode(0, sphere5, lambda s, t: [3.0, 2.0, 1.0], T=3,
                          seed=0)
    assert [st.actions.tolist() for st in got.steps] == [[3, 2, 1]] * 3
    assert got.perf == want.perf


# f7 is a step function: on its plateaus distinct points tie exactly, and
# in its alg 2 episode a later point ties the kept one at the least value
@pytest.mark.parametrize("alg_id, fid, dim, tie", [
    (0, 7, 5, False), (1, 7, 5, False), (2, 7, 5, True), (1, 21, 5, False),
    (2, 15, 20, False)])
def test_state_keeps_first_evaluated_least_point(monkeypatch, alg_id, fid,
                                                 dim, tie):
    seen = {"f": np.inf, "x": None, "ties": 0}
    true_evaluate = problems.evaluate

    def evaluate(problem, X):
        fit = true_evaluate(problem, X)
        for x, f in zip(X, fit):
            if f < seen["f"]:
                seen.update(f=f, x=x.copy())
            elif f == seen["f"] and not np.array_equal(x, seen["x"]):
                seen["ties"] += 1
        return fit

    checked = []

    def checking(fn):
        def wrapped(*args, **kwargs):
            state = fn(*args, **kwargs)
            assert state.best_f == seen["f"]
            assert_array_equal(state.best_x, seen["x"])
            checked.append(state.t)
            return state
        return wrapped

    monkeypatch.setattr(problems, "evaluate", evaluate)
    monkeypatch.setattr(alg, "init_state", checking(alg.init_state))
    monkeypatch.setattr(alg, "step", checking(alg.step))
    T = 25
    env.run_episode(alg_id, make_instance(fid, dim, seed=0),
                    random_policy(alg_id, [1, fid, dim, 1]), T,
                    [1, fid, dim])
    assert checked == list(range(T + 1))
    assert seen["ties"] > 0 or not tie


# ---------------------------------------------------------------------------
# pmap

def _index_and_pid(i):
    return i, os.getpid()


def test_resolve_workers():
    assert env.resolve_workers(None) == len(os.sched_getaffinity(0))
    assert env.resolve_workers(3) == 3
    for bad in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            env.resolve_workers(bad)


def test_run_episodes_keeps_job_order(fresh_pool):
    serial = env.pmap(_index_and_pid, range(7), 1)
    # one worker runs every item here, in this process
    assert serial == [(i, os.getpid()) for i in range(7)]
    parallel = env.pmap(_index_and_pid, range(7), 2)
    assert [i for i, _ in parallel] == list(range(7))
    pids = {pid for _, pid in parallel}
    assert os.getpid() not in pids and len(pids) <= 2
    assert env.pmap(_index_and_pid, [], 2) == []


def test_pmap_resolves_workers_and_caps_them_at_the_items(fresh_pool):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        env.pmap(_index_and_pid, [], 0)
    # None means the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0))
    got = env.pmap(_index_and_pid, range(3), None)
    assert [i for i, _ in got] == [0, 1, 2]
    assert len(_worker_pids()) == (min(cpus, 3) if cpus > 1 else 0)
    env.close_pool()
    # one item runs here; two items fork two workers, not eight
    assert env.pmap(_index_and_pid, [7], 8) == [(7, os.getpid())]
    assert _worker_pids() == set()
    got = env.pmap(_index_and_pid, range(2), 8)
    assert [i for i, _ in got] == [0, 1]
    assert len(_worker_pids()) == 2


def test_run_episodes_job_that_does_not_pickle_fails_here():
    # workers outlive a map, so an item reaches them pickled: a lambda over
    # a local array fails in the caller, and the pool serves the next map
    data = np.arange(5.0)
    with pytest.raises((AttributeError, pickle.PicklingError),
                       match="pickle"):
        env.pmap(callable, [lambda k=k: data[k] for k in range(5)], 2)
    assert env.pmap(float, [k * k for k in range(5)], 2) \
        == [0.0, 1.0, 4.0, 9.0, 16.0]


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def test_run_episodes_reuses_the_pool(fresh_pool):
    env.pmap(_index_and_pid, range(6), 2)
    workers = _worker_pids()
    again = env.pmap(_index_and_pid, range(6), 2)
    assert [i for i, _ in again] == list(range(6))
    assert len(workers) == 2 and {pid for _, pid in again} <= workers
    assert _worker_pids() == workers


def _episode_jobs(problem, n):
    return [(0, problem, functools.partial(random_policy, 0, [5, e, 1]), 4,
             [5, e], env.DEFAULT_BINS, "") for e in range(n)]


def _episode_bytes(trajs):
    return [(t.perf, [s.state.tobytes() + s.actions.tobytes()
                      for s in t.steps]) for t in trajs]


def test_run_episodes_grows_the_pool_for_more_workers(fresh_pool, sphere5):
    jobs = _episode_jobs(sphere5, 5)
    two = env.pmap(rollouts.episode, jobs, 2)
    assert len(_worker_pids()) == 2
    three = env.pmap(rollouts.episode, jobs, 3)
    assert len(_worker_pids()) == 3
    assert _episode_bytes(three) == _episode_bytes(two) \
        == _episode_bytes(env.pmap(rollouts.episode, jobs, 1))


def _fail_from_2(k):
    # item 3 fails first in time, item 2 first in item order
    if k == 2:
        time.sleep(0.2)
    if k >= 2:
        raise FloatingPointError(f"overflow in episode {k}")
    return k


@pytest.mark.parametrize("workers", [1, 2])
def test_run_episodes_job_exception_surfaces(workers):
    with pytest.raises(FloatingPointError, match="^overflow in episode 2$"):
        env.pmap(_fail_from_2, range(4), workers)


def test_run_episodes_dead_worker_raises_instead_of_hanging():
    with pytest.raises(BrokenProcessPool):
        env.pmap(os._exit, [3, 3], 2)


def test_map_after_a_dead_worker_runs_on_fresh_workers(fresh_pool):
    env.pmap(_index_and_pid, range(4), 2)
    broken = _worker_pids()
    with pytest.raises(BrokenProcessPool):
        env.pmap(os._exit, [3, 3], 2)
    got = env.pmap(_index_and_pid, range(4), 2)
    assert [i for i, _ in got] == list(range(4))
    assert not {pid for _, pid in got} & broken
    assert not _worker_pids() & broken


def _non_integral_policy():
    return lambda state, t: [0, 0, 2.5]


def test_run_episodes_worker_episode_error_surfaces(sphere5):
    # a policy error raised inside a worker's episode keeps type and text
    jobs = [(0, sphere5, _non_integral_policy, 3, seed, env.DEFAULT_BINS, "")
            for seed in range(2)]
    with pytest.raises(ValueError, match="^non-integral bin 2.5 for Cr$"):
        env.pmap(rollouts.episode, jobs, 2)


def _child_env():
    """The environment of a fresh interpreter that imports this
    checkout's dacq."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(env.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _run_child(code):
    """Run code in a fresh interpreter that imports this checkout's dacq."""
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PRINT_WORKER_PIDS = """
import multiprocessing, os
from dacq import env
env.pmap(abs, [1, 2, 3, 4], 2)
print(os.getpid(), *[p.pid for p in multiprocessing.active_children()])
"""


def test_workers_exit_with_their_process():
    # the pool outlives every map, but not the process: concurrent.futures'
    # exit hook joins its workers
    child, *pids = [int(p) for p in _run_child(_PRINT_WORKER_PIDS).split()]
    assert len(pids) == 2 and child not in pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _alive(pid):
    """Whether process pid exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# the worker pids go to a file: a worker that outlived the child would
# hold a pipe on its stdout open
_DIE_WITHOUT_EXIT_HOOKS = """
import multiprocessing, os, sys
from dacq import env
env.pmap(abs, [1, 2, 3, 4], 2)
with open(sys.argv[1], "w") as fh:
    print(*[p.pid for p in multiprocessing.active_children()], file=fh)
os._exit(0)
"""


def test_workers_end_when_their_process_dies_without_exit_hooks(tmp_path):
    # no exit hook joins the pool of a process that dies by os._exit or
    # SIGKILL: the kernel ends its workers, which it reparented
    out, err = tmp_path / "pids", tmp_path / "stderr"
    with open(err, "w") as fh:
        proc = subprocess.run(
            [sys.executable, "-c", _DIE_WITHOUT_EXIT_HOOKS, str(out)],
            env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=fh, timeout=60)
    assert proc.returncode == 0, err.read_text()
    pids = [int(p) for p in out.read_text().split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 10
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids)), "a worker outlived its process"
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


_NESTED_MAP = """
import os
from dacq import env
def pid(_):
    return os.getpid()
def nested(_):
    return os.getpid(), env.pmap(pid, range(4), 2)
for worker, inner in env.pmap(nested, range(2), 2):
    assert not {worker, os.getpid()} & set(inner), (worker, inner)
print("ok")
"""


def test_a_worker_forks_a_pool_of_its_own():
    # a worker inherits its parent's pool, which it does not own: it forks
    # its own for a map of its own and joins it when it exits
    assert _run_child(_NESTED_MAP) == "ok\n"
