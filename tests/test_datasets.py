import builtins
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dacq import algorithms, datasets, env, problems, rollouts
from dacq.datasets import (DatasetManifest, collect, filter_threshold,
                           load_dataset, serialize_trajectory)
from dacq.rollouts import exploitation_policy, random_policy

S0 = np.zeros(9)


def tiny_split(train=(1, 12), test=(15,), dim=5):
    ids = tuple(train) + tuple(test)
    return problems.ProblemSplit(tuple(train), tuple(test),
                                 {fid: dim for fid in ids})


# ---------------------------------------------------------------------------
# random policy
# ---------------------------------------------------------------------------

def test_random_policy_respects_discrete_bounds():
    specs = algorithms.alg_spec(1)
    ms = [env.mask_bins(s) for s in specs]
    pol = random_policy(1, seed=5)
    draws = np.array([pol(S0, t) for t in range(2000)])
    for i, m in enumerate(ms):
        assert draws[:, i].min() >= 0
        assert draws[:, i].max() < m
    # Xr_mpx has two choices and must stay binary
    assert specs[1].name == "Xr_mpx"
    assert set(draws[:, 1]) <= {0, 1}


def test_random_policy_uniform_over_16_bins():
    pol = random_policy(0, seed=7)
    draws = np.array([pol(S0, 0)[0] for _ in range(100_000)])
    counts = np.bincount(draws, minlength=16)
    assert counts.min() >= 5500 and counts.max() <= 7000


def test_random_policy_seed_reproducible():
    a = random_policy(2, seed=11)
    b = random_policy(2, seed=11)
    stream_a = [a(S0, t) for t in range(50)]
    stream_b = [b(S0, t) for t in range(50)]
    assert np.array_equal(np.array(stream_a), np.array(stream_b))


# ---------------------------------------------------------------------------
# scripted schedule
# ---------------------------------------------------------------------------

def test_scripted_schedule_endpoints_alg0(monkeypatch):
    monkeypatch.setattr(rollouts, "SCHEDULE_JITTER", 0.0)
    T = 20
    pol = exploitation_policy(0, seed=0, T=T)
    # 0.9 on the 16-point grid of [0,1] is nearest to bin 14
    assert list(pol(S0, 0)) == [14, 14, 14]
    # F dims end at 0.3, exactly between bins 4 and 5 on the 16-point
    # grid; 0.9 - 0.6 lands a hair above 0.3 so the tie resolves up
    assert list(pol(S0, T - 1)) == [5, 5, 14]


def test_scripted_schedule_single_step_episode(monkeypatch):
    monkeypatch.setattr(rollouts, "SCHEDULE_JITTER", 0.0)
    pol = exploitation_policy(0, seed=0, T=1)
    assert list(pol(S0, 0)) == [14, 14, 14]


def test_scripted_discrete_preference_is_fixed(monkeypatch):
    monkeypatch.setattr(rollouts, "SCHEDULE_JITTER", 0.0)
    specs = algorithms.alg_spec(1)
    pol = exploitation_policy(1, seed=3, T=10)
    draws = np.array([pol(S0, t) for t in range(10)])
    for i, s in enumerate(specs):
        if s.choices:
            assert len(set(draws[:, i])) == 1
            assert 0 <= draws[0, i] < len(s.choices)


def test_scripted_jitter_stream_is_seeded():
    mk = lambda seed: exploitation_policy(1, seed=seed, T=30)
    a, b, c = mk(4), mk(4), mk(5)
    sa = np.array([a(S0, t) for t in range(30)])
    sb = np.array([b(S0, t) for t in range(30)])
    sc = np.array([c(S0, t) for t in range(30)])
    assert np.array_equal(sa, sb)
    assert not np.array_equal(sa, sc)


def test_scripted_bins_always_valid_under_jitter(monkeypatch):
    monkeypatch.setattr(rollouts, "SCHEDULE_JITTER", 0.3)   # exaggerated
    specs = algorithms.alg_spec(2)
    ms = [env.mask_bins(s) for s in specs]
    pol = exploitation_policy(2, seed=9, T=25)
    for t in range(25):
        bins = pol(S0, t)
        assert all(0 <= b < m for b, m in zip(bins, ms))


def constant_policy(alg_id, seed):
    """The scripted_constant behavior that collect plays: one seeded
    constant_setting held for the whole episode."""
    return rollouts.hold(rollouts.constant_setting(
        np.random.default_rng(seed), algorithms.alg_spec(alg_id)))


def test_scripted_constant_holds_one_setting_in_box():
    pol = constant_policy(0, seed=5)
    draws = np.array([pol(S0, t) for t in range(12)])
    assert (draws == draws[0]).all()
    f1, f2, cr = draws[0]
    # textbook box on the 16-bin grid: F in [0.3, 0.95], Cr in [0.7, 1.0]
    assert 4 <= f1 <= 14 and 4 <= f2 <= 14
    assert 10 <= cr <= 15


def test_scripted_constant_seeded_and_diverse():
    first = constant_policy(0, seed=5)(S0, 0)
    again = constant_policy(0, seed=5)(S0, 0)
    assert np.array_equal(first, again)
    settings = {tuple(constant_policy(0, seed=s)(S0, 0)) for s in range(20)}
    assert len(settings) > 5


def test_scripted_constant_discrete_dims_valid():
    specs = algorithms.alg_spec(1)
    pol = constant_policy(1, seed=3)
    draws = np.array([pol(S0, t) for t in range(6)])
    assert (draws == draws[0]).all()
    for i, s in enumerate(specs):
        m = env.mask_bins(s)
        assert 0 <= draws[0, i] < m


def test_exploitation_unknown_kind():
    # rejected before any episode runs, also when no episode would use it
    for mu in (0.0, 0.5):
        with pytest.raises(ValueError, match="unknown exploitation"):
            collect(0, tiny_split(), ("greedy_oracle", "random"), mu, 2, 2, 0)


def test_filter_threshold_median_keeps_half():
    rng = np.random.default_rng(0)
    perfs = rng.random(100)
    thr = filter_threshold(perfs, 0.5)
    assert int(np.sum(perfs > thr)) == 50


def test_scripted_beats_random_on_sphere():
    prob = problems.make_instance(1, 5, seed=0)
    T = 30

    def mean_perf(policy_for_seed):
        perfs = []
        for s in range(19):
            traj = env.run_episode(0, prob, policy_for_seed(s), T,
                                   seed=[777, s])
            perfs.append(traj.perf)
        return float(np.mean(perfs))

    scripted = mean_perf(lambda s: exploitation_policy(0, seed=s, T=T))
    random = mean_perf(lambda s: random_policy(0, seed=s))
    assert scripted > random


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------

def test_collect_mu_half_fifty_fifty():
    trajs, man = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                         mu=0.5, D=10, T=5, seed=21)
    assert man.n_exploitation == 5 and man.n_exploration == 5
    assert man.policy_counts == {"scripted_de_schedule": 5, "random": 5}
    ids = [t.policy_id for t in trajs]
    assert ids == ["scripted_de_schedule"] * 5 + ["random"] * 5
    man.validate()


def test_collect_mu_zero_all_random():
    trajs, man = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                         mu=0.0, D=8, T=4, seed=22)
    assert man.policy_counts == {"random": 8}
    assert all(t.policy_id == "random" for t in trajs)


def test_collect_cycles_training_instances():
    split = tiny_split(train=(1, 8, 12))
    trajs, _ = collect(0, split, ("scripted_de_schedule", "random"),
                       mu=0.5, D=7, T=3, seed=23)
    assert [t.function_id for t in trajs[:4]] == [1, 8, 12, 1]
    # exploration continues the cycle by global episode index
    assert [t.function_id for t in trajs[4:]] == [8, 12, 1]


def test_collect_rejects_bad_arguments():
    split = tiny_split()
    with pytest.raises(ValueError, match="mu"):
        collect(0, split, ("scripted_de_schedule", "random"), 1.5, 4, 3, 0)
    with pytest.raises(ValueError, match="D"):
        collect(0, split, ("scripted_de_schedule", "random"), 0.5, 0, 3, 0)
    with pytest.raises(ValueError, match="no training problems"):
        empty = problems.ProblemSplit((), (15,), {15: 3})
        collect(0, empty, ("scripted_de_schedule", "random"), 0.5, 4, 3, 0)
    with pytest.raises(ValueError, match="exploration"):
        collect(0, split, ("scripted_de_schedule", "scripted"), 0.5, 4, 3, 0)
    with pytest.raises(ValueError, match="unknown exploitation"):
        collect(0, split, ("nope", "random"), 0.5, 4, 3, 0)


def test_collect_deterministic_bytes(tmp_path):
    for d in ("a", "b"):
        collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                mu=0.5, D=6, T=4, seed=31, out_dir=tmp_path / d)
    for name in (datasets.TRAJECTORY_FILE, datasets.MANIFEST_FILE):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_collect_episodes_replayable_independently():
    split = tiny_split()
    trajs, _ = collect(0, split, ("scripted_de_schedule", "random"),
                       mu=0.5, D=6, T=4, seed=33)
    # exploration episode e=4 on the cycled instance, same derived seeds
    inst = problems.make_instance(split.train_ids[4 % 2], 5, seed=0)
    pol = random_policy(0, [33, 0, 4, 1])
    solo = env.run_episode(0, inst, pol, 4, seed=[33, 0, 4],
                           policy_id="random")
    assert serialize_trajectory(solo) == serialize_trajectory(trajs[4])


def test_collect_filtered_random_quota_and_threshold(monkeypatch):
    split = tiny_split()
    n_cal = 12
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", n_cal)
    trajs, man = collect(0, split, ("filtered_random", "random"),
                         mu=0.5, D=6, T=4, seed=35)
    assert man.policy_counts == {"filtered_random": 3, "random": 3}
    # rebuild the calibration threshold from the same derived seeds
    cal = []
    for i in range(n_cal):
        inst = problems.make_instance(split.train_ids[i % 2], 5, seed=0)
        pol = random_policy(0, [35, 1, i, 1])
        cal.append(env.run_episode(0, inst, pol, 4, seed=[35, 1, i]).perf)
    thr = filter_threshold(cal, 0.5)
    for t in trajs[:3]:
        assert t.perf > thr


def test_collect_scripted_constant_pool_episodes(monkeypatch):
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", 6)
    trajs, man = collect(0, tiny_split(), ("scripted_constant", "random"),
                         mu=0.5, D=8, T=3, seed=31)
    assert man.policy_counts == {"scripted_constant": 4, "random": 4}
    settings = set()
    for tr in trajs[:4]:
        acts = np.array([s.actions for s in tr.steps])
        # one fixed setting held for the whole episode
        assert (acts == acts[0]).all()
        settings.add(tuple(acts[0]))
    # settings cycle a kept pool no larger than the calibrated one
    assert 1 <= len(settings) <= 3
    man.validate()


def test_collect_scripted_constant_pool_is_above_quantile_settings(
        monkeypatch):
    split = tiny_split()
    n_cal, T = 8, 3
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", n_cal)
    trajs, man = collect(0, split, ("scripted_constant", "random"),
                         mu=1.0, D=7, T=T, seed=43)
    assert man.policy_counts == {"scripted_constant": 7}
    # rebuild the calibrated candidates and threshold from the same seeds
    cands, perfs = [], []
    for i in range(n_cal):
        inst = problems.make_instance(split.train_ids[i % 2], 5, seed=0)
        pol = constant_policy(0, seed=[43, 1, i, 1])
        cands.append(pol(S0, 0))
        perfs.append(env.run_episode(0, inst, pol, T, seed=[43, 1, i]).perf)
    thr = filter_threshold(perfs, 0.5)
    pool = [c for c, f in zip(cands, perfs) if f > thr]
    assert 1 <= len(pool) < len(trajs)
    for e, tr in enumerate(trajs):
        for s in tr.steps:
            np.testing.assert_array_equal(s.actions, pool[e % len(pool)])


def test_collect_scripted_constant_empty_pool_raises(monkeypatch):
    # no calibration return lies strictly above the maximum
    monkeypatch.setattr(datasets, "FILTER_QUANTILE", 1.0)
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", 5)
    with pytest.raises(RuntimeError,
                       match=r"pool is empty.*\b5 calibration.*quantile 1\.0"):
        collect(0, tiny_split(), ("scripted_constant", "random"),
                mu=0.5, D=4, T=3, seed=31)


def test_collect_scripted_constant_deterministic(monkeypatch):
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", 4)
    mk = lambda: collect(0, tiny_split(), ("scripted_constant", "random"),
                         mu=0.5, D=6, T=3, seed=77)[0]
    a, b = mk(), mk()
    assert [serialize_trajectory(t) for t in a] == \
        [serialize_trajectory(t) for t in b]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_lines(root, trajs, lines=None):
    """A dataset in root whose trajectory file holds lines (by default
    trajs' canonical lines), under a manifest that agrees with trajs, the
    episodes the lines were written from."""
    if lines is None:
        lines = [serialize_trajectory(t) for t in trajs]
    payload = "".join(line + "\n" for line in lines).encode("utf-8")
    n_exploit = sum(t.policy_id != "random" for t in trajs)
    datasets._write_files(root, payload, DatasetManifest(
        format_version=datasets.FORMAT_VERSION, alg_id=trajs[0].alg_id,
        K=trajs[0].K, M=trajs[0].M, T=trajs[0].T, D=len(trajs),
        mu=n_exploit / len(trajs), seed=0, n_exploitation=n_exploit,
        n_exploration=len(trajs) - n_exploit,
        policy_counts=datasets._policy_counts(trajs),
        checksum=datasets._checksum(payload),
        train_ids=sorted({t.function_id for t in trajs})))


def test_round_trip_bit_exact(tmp_path):
    trajs, _ = collect(1, tiny_split(), ("scripted_de_schedule", "random"),
                       mu=0.5, D=4, T=3, seed=41)
    write_lines(tmp_path, trajs)
    back, _ = load_dataset(tmp_path)
    assert len(back) == len(trajs)
    for a, b in zip(trajs, back):
        assert serialize_trajectory(a) == serialize_trajectory(b)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.state, sb.state)  # bit-exact floats
            assert np.array_equal(sa.actions, sb.actions)
            assert sa.reward == sb.reward
            assert sa.best_so_far_f == sb.best_so_far_f


def test_truncated_final_line_reports_index(tmp_path):
    trajs, _ = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                       mu=0.0, D=4, T=3, seed=42)
    lines = [serialize_trajectory(t) for t in trajs]
    lines[-1] = lines[-1][:-9]
    write_lines(tmp_path, trajs, lines)
    with pytest.raises(ValueError, match="line 4"):
        load_dataset(tmp_path)


def _hand_trajectory(rewards, bsfs, f0=1.0, fstar=0.0, M=16):
    steps = [env.StepRecord(np.zeros(9), np.zeros(3, dtype=np.int64),
                            float(r), float(b))
             for r, b in zip(rewards, bsfs)]
    return env.Trajectory(alg_id=0, K=3, M=M, function_id=1, dim=3,
                          instance_seed=0, episode_seed=0, T=len(steps),
                          policy_id="random", f_best_init=f0, f_star=fstar,
                          steps=steps)


def test_reader_rejects_cumulative_reward_above_one(tmp_path):
    # consistent per-step rewards, but the final best undershoots f_star
    bad = _hand_trajectory(rewards=[0.5, 1.0], bsfs=[0.5, -0.5])
    write_lines(tmp_path, [bad])
    with pytest.raises(ValueError, match=r"line 1.*cumulative reward"):
        load_dataset(tmp_path)


def test_reader_rejects_inconsistent_reward(tmp_path):
    bad = _hand_trajectory(rewards=[0.5 + 1e-6, 0.25], bsfs=[0.5, 0.25])
    write_lines(tmp_path, [bad])
    with pytest.raises(ValueError, match=r"line 1.*inconsistent"):
        load_dataset(tmp_path)


def test_reader_accepts_reward_noise_below_tolerance(tmp_path):
    ok = _hand_trajectory(rewards=[0.5 + 1e-10, 0.25], bsfs=[0.5, 0.25])
    write_lines(tmp_path, [ok])
    assert len(load_dataset(tmp_path)[0]) == 1


def test_reader_rejects_wrong_step_count(tmp_path):
    bad = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    bad.T = 3
    write_lines(tmp_path, [bad])
    with pytest.raises(ValueError, match=r"line 1.*expected T=3"):
        load_dataset(tmp_path)


def test_reader_rejects_out_of_range_bin(tmp_path):
    bad = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    bad.steps[0].actions = np.array([0, 16, 0], dtype=np.int64)
    write_lines(tmp_path, [bad])
    with pytest.raises(ValueError, match=r"line 1.*bin 16"):
        load_dataset(tmp_path)


def test_reader_rejects_non_integral_bin(tmp_path):
    good = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    obj = datasets.trajectory_to_obj(good)
    obj["steps"][0]["a"] = [3.7, 1, 2]
    write_lines(tmp_path, [good], [json.dumps(obj)])
    with pytest.raises(ValueError, match=re.escape(
            "line 1: step 0: field 'a' must be a list of integers, "
            "got [3.7, 1, 2]")):
        load_dataset(tmp_path)


def test_reader_rejects_integral_float_bin(tmp_path):
    # the writer stores bins as JSON integers, so a float bin is not one
    # even where it is integral
    good = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    obj = datasets.trajectory_to_obj(good)
    obj["steps"][0]["a"] = [1.0, 2.0, 3.0]
    write_lines(tmp_path, [good], [json.dumps(obj)])
    with pytest.raises(ValueError, match=re.escape(
            "line 1: step 0: field 'a' must be a list of integers, "
            "got [1.0, 2.0, 3.0]")):
        load_dataset(tmp_path)


@pytest.mark.parametrize("field, value", [("a", 2 ** 70), ("s", 10 ** 400)])
def test_reader_rejects_integer_beyond_machine_range(tmp_path, field, value):
    # a bin past int64 or a state past float range is an error that names
    # the line and the step, not an OverflowError
    good = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    obj = datasets.trajectory_to_obj(good)
    obj["steps"][0][field][0] = value
    write_lines(tmp_path, [good], [json.dumps(obj)])
    with pytest.raises(ValueError, match=r"^line 1: step 0: "):
        load_dataset(tmp_path)


def _nan_in(traj, field):
    if field == "s":
        traj.steps[0].state[4] = np.nan
    elif field == "r":
        traj.steps[0].reward = np.nan
    elif field == "bsf":
        traj.steps[0].best_so_far_f = np.nan
    else:
        setattr(traj, field, np.nan)


@pytest.mark.parametrize("field", ["s", "r", "bsf", "f_best_init", "f_star"])
def test_reader_rejects_non_finite_number(tmp_path, field):
    bad = _hand_trajectory(rewards=[0.5, 0.25], bsfs=[0.5, 0.25])
    _nan_in(bad, field)
    write_lines(tmp_path, [bad])
    with pytest.raises(ValueError,
                       match=rf"line 1: .*field '{field}' is not finite"):
        load_dataset(tmp_path)


def test_reader_missing_field(tmp_path):
    good = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    obj = datasets.trajectory_to_obj(good)
    del obj["f_star"]
    write_lines(tmp_path, [good], [json.dumps(obj)])
    with pytest.raises(ValueError, match=r"line 1.*f_star"):
        load_dataset(tmp_path)


def _drop(key):
    def edit(obj):
        del obj["steps"][0][key]
    return edit


def _set_step(value):
    def edit(obj):
        obj["steps"][0] = value
    return edit


#: malformed lines -> the message naming the line and the field
MALFORMED = {
    **{f"missing {k}": (_drop(k), rf"line 1: step 0: missing field '{k}'")
       for k in ("a", "s", "r", "bsf")},
    "steps not a list": (lambda obj: obj.update(steps=5),
                         r"line 1: bad trajectory: field 'steps' must be a "
                         r"list, got 5"),
    "step is a number": (_set_step(5),
                         r"line 1: step 0 is not a JSON object: 5"),
    "step is a list": (_set_step([1]),
                       r"line 1: step 0 is not a JSON object: \[1\]"),
    "reward is null": (lambda obj: obj["steps"][0].update(r=None),
                       r"line 1: step 0: field 'r' must be a number, "
                       r"got None"),
    # True would read as the reward 1.0 this best-so-far earns
    "reward is true": (lambda obj: obj["steps"][0].update(r=True, bsf=0.0),
                       r"line 1: step 0: field 'r' must be a number, "
                       r"got True"),
    "state holds a string": (
        lambda obj: obj["steps"][0].update(s=["1"] + [0.0] * 8),
        r"line 1: step 0: field 's' must be a list of numbers, "
        r"got \['1', 0\.0"),
    "dim is a list": (lambda obj: obj.update(dim=[3]),
                      r"line 1: bad trajectory: field 'dim' must be an "
                      r"integer, got \[3\]"),
    **{f"{k} is {v!r}": (
        lambda obj, k=k, v=v: obj.update({k: v}),
        rf"line 1: bad trajectory: field '{k}' must be an integer, "
        rf"got {v!r}") for k, v in (("T", 1.9), ("function_id", 1.5),
                                    ("dim", 5.2))},
    "instance_seed is 'x'": (
        lambda obj: obj.update(instance_seed="x"),
        r"line 1: bad trajectory: field 'instance_seed' must be an integer "
        r"or null, got 'x'"),
    "episode_seed is {}": (
        lambda obj: obj.update(episode_seed={}),
        r"line 1: bad trajectory: field 'episode_seed' must be an integer "
        r"or a list of integers, got \{\}"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_reader_names_line_and_field_of_malformed_trajectory(tmp_path, case):
    edit, message = MALFORMED[case]
    good = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    obj = datasets.trajectory_to_obj(good)
    edit(obj)
    write_lines(tmp_path, [good], [json.dumps(obj)])
    with pytest.raises(ValueError, match=message):
        load_dataset(tmp_path)


@pytest.mark.parametrize("line", ["5", "[1]", '"x"', "null"])
def test_reader_rejects_non_object_line(tmp_path, line):
    good = _hand_trajectory(rewards=[0.5], bsfs=[0.5])
    write_lines(tmp_path, [good, good], [serialize_trajectory(good), line])
    with pytest.raises(ValueError,
                       match=rf"line 2: bad trajectory: not a JSON object: "
                             rf"{re.escape(repr(json.loads(line)))}$"):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# collection on worker processes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alg_id", algorithms.ALGORITHM_IDS)
@pytest.mark.parametrize("kind", datasets.EXPLOITATION_KINDS + ("random",))
def test_collect_bytes_do_not_depend_on_workers(tmp_path, alg_id, kind,
                                                monkeypatch):
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", 4)
    mu = 0.0 if kind == "random" else 0.5
    policies = ("scripted_de_schedule" if kind == "random" else kind,
                "random")

    def files(workers):
        out = tmp_path / f"w{workers}"
        collect(alg_id, tiny_split(), policies, mu=mu, D=4, T=2, seed=3,
                out_dir=out, workers=workers)
        return [(out / name).read_bytes()
                for name in (datasets.TRAJECTORY_FILE,
                             datasets.MANIFEST_FILE)]

    assert files(1) == files(2)


def _count_episodes(monkeypatch, log):
    """Make every env.run_episode, in any process, log its seed namespace;
    its test takes ``fresh_pool``, so the workers are forked under the
    patch."""
    true_run = env.run_episode

    def counted(alg_id, problem, policy, T, seed, **kw):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{seed[1]}\n")
        return true_run(alg_id, problem, policy, T, seed, **kw)

    monkeypatch.setattr(env, "run_episode", counted)


def _filter_attempts(log):
    return log.read_text().split().count(str(datasets._NS_FILTER))


def test_filtered_random_on_workers_never_exceeds_max_attempts(
        tmp_path, monkeypatch, fresh_pool):
    # no return lies strictly above 1, so every attempt fails; 3 attempts
    # on 2 workers are a round of 2 and a round of 1
    log = tmp_path / "episodes"
    _count_episodes(monkeypatch, log)
    monkeypatch.setattr(datasets, "filter_threshold", lambda perfs, q: 1.0)
    monkeypatch.setattr(datasets, "MAX_ATTEMPT_FACTOR", 3)
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", 3)
    with pytest.raises(RuntimeError, match=r"0/1 episodes after 3 attempts"):
        collect(0, tiny_split(), ("filtered_random", "random"), mu=1.0, D=1,
                T=2, seed=0, workers=2)
    assert _filter_attempts(log) == 3


def test_filtered_random_on_workers_overshoots_by_less_than_a_round(
        tmp_path, monkeypatch, fresh_pool):
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", 6)
    runs = {}
    for workers in (1, 2):
        log = tmp_path / f"episodes{workers}"
        _count_episodes(monkeypatch, log)
        trajs, _ = collect(0, tiny_split(), ("filtered_random", "random"),
                           mu=0.5, D=6, T=3, seed=9, workers=workers)
        runs[workers] = (_filter_attempts(log),
                         [serialize_trajectory(t) for t in trajs])
    (serial, kept1), (parallel, kept2) = runs[1], runs[2]
    assert kept1 == kept2
    assert serial <= parallel <= serial + 1


# ---------------------------------------------------------------------------
# manifest + load_dataset
# ---------------------------------------------------------------------------

def test_load_dataset_round_trip(tmp_path):
    trajs, man = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                         mu=0.5, D=6, T=4, seed=51, out_dir=tmp_path)
    back, man2 = load_dataset(tmp_path)
    assert man2.checksum == man.checksum
    assert [serialize_trajectory(t) for t in back] == \
           [serialize_trajectory(t) for t in trajs]


def _spy_trajectory_opens(monkeypatch):
    """Record every open of a trajectory file, by open() or Path."""
    opened = []
    true_open = io.open

    def spy(file, *args, **kwargs):
        if str(file).endswith(datasets.TRAJECTORY_FILE):
            opened.append(file)
        return true_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    return opened


def test_load_dataset_reads_trajectory_file_once(tmp_path, monkeypatch):
    collect(0, tiny_split(), ("scripted_de_schedule", "random"),
            mu=0.5, D=4, T=3, seed=55, out_dir=tmp_path)
    opened = _spy_trajectory_opens(monkeypatch)
    back, _ = load_dataset(tmp_path)
    assert len(back) == 4
    assert len(opened) == 1


def test_load_dataset_parses_the_checksummed_bytes(tmp_path, monkeypatch):
    # the file is emptied right after its bytes are read: what load_dataset
    # returns must come from those bytes, not from a second read
    trajs, _ = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                       mu=0.5, D=4, T=3, seed=56, out_dir=tmp_path)
    true_read = Path.read_bytes

    def read_then_empty(self):
        data = true_read(self)
        if self.name == datasets.TRAJECTORY_FILE:
            self.write_bytes(b"")
        return data

    monkeypatch.setattr(Path, "read_bytes", read_then_empty)
    back, _ = load_dataset(tmp_path)
    assert [serialize_trajectory(t) for t in back] == \
           [serialize_trajectory(t) for t in trajs]


def test_load_dataset_line_numbers_from_checksummed_bytes(tmp_path):
    trajs, man = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                         mu=0.0, D=3, T=3, seed=57)
    obj = datasets.trajectory_to_obj(trajs[2])
    obj["steps"][1]["a"][0] = 99
    lines = [serialize_trajectory(t) for t in trajs[:2]] + [json.dumps(obj)]
    # CRLF line ends are read like LF ones, as by a file opened in text mode
    (tmp_path / datasets.TRAJECTORY_FILE).write_bytes(
        "\r\n".join(lines).encode("utf-8") + b"\r\n")
    man.checksum = datasets._checksum(
        (tmp_path / datasets.TRAJECTORY_FILE).read_bytes())
    (tmp_path / datasets.MANIFEST_FILE).write_text(man.to_json())
    with pytest.raises(ValueError, match=r"line 3: step 1: bin 99"):
        load_dataset(tmp_path)


def test_collect_writes_the_bytes_it_checksummed(tmp_path):
    trajs, man = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                         mu=0.5, D=4, T=3, seed=58, out_dir=tmp_path / "c")
    payload = (tmp_path / "c" / datasets.TRAJECTORY_FILE).read_bytes()
    assert datasets._checksum(payload) == man.checksum
    again = datasets.write_dataset(
        tmp_path / "w", trajs, DatasetManifest(**{**man.__dict__,
                                                  "checksum": ""}))
    assert again.checksum == man.checksum
    for name in (datasets.TRAJECTORY_FILE, datasets.MANIFEST_FILE):
        assert (tmp_path / "w" / name).read_bytes() == \
            (tmp_path / "c" / name).read_bytes()


def test_load_dataset_checksum_mismatch(tmp_path):
    collect(0, tiny_split(), ("scripted_de_schedule", "random"),
            mu=0.0, D=3, T=3, seed=52, out_dir=tmp_path)
    f = tmp_path / datasets.TRAJECTORY_FILE
    raw = bytearray(f.read_bytes())
    raw[5] ^= 0x01
    f.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_dataset(tmp_path)


def test_load_dataset_version_mismatch(tmp_path):
    collect(0, tiny_split(), ("scripted_de_schedule", "random"),
            mu=0.0, D=3, T=3, seed=53, out_dir=tmp_path)
    mf = tmp_path / datasets.MANIFEST_FILE
    obj = json.loads(mf.read_text())
    obj["format_version"] = 99
    mf.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="format version"):
        load_dataset(tmp_path)


def test_load_dataset_count_mismatch(tmp_path):
    trajs, man = collect(0, tiny_split(), ("scripted_de_schedule", "random"),
                         mu=0.0, D=3, T=3, seed=54, out_dir=tmp_path)
    f = tmp_path / datasets.TRAJECTORY_FILE
    data = f.read_bytes() + (serialize_trajectory(trajs[0]) + "\n").encode()
    f.write_bytes(data)
    mf = tmp_path / datasets.MANIFEST_FILE
    obj = json.loads(mf.read_text())
    obj["checksum"] = datasets._checksum(data)
    mf.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="manifest says 3"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("field, value, message", [
    ("T", 7, r"line 1: field 'T' is 3, manifest says 7"),
    ("alg_id", 1, r"line 1: field 'alg_id' is 0, manifest says 1"),
    ("M", 32, r"line 1: field 'M' is 16, manifest says 32"),
    ("K", 10, r"line 1: field 'K' is 3, manifest says 10"),
    ("train_ids", [99], r"line 1: field 'function_id' is \d+, not one of "
                        r"the manifest's train_ids \[99\]")])
def test_load_dataset_rejects_manifest_that_disagrees_with_lines(
        tmp_path, field, value, message):
    collect(0, tiny_split(), ("scripted_de_schedule", "random"),
            mu=0.0, D=2, T=3, seed=59, out_dir=tmp_path)
    mf = tmp_path / datasets.MANIFEST_FILE
    obj = json.loads(mf.read_text())
    obj[field] = value
    mf.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=message):
        load_dataset(tmp_path)


def test_manifest_validation_rules():
    man = DatasetManifest(format_version=datasets.FORMAT_VERSION, alg_id=0,
                          K=3, M=16, T=5, D=10, mu=0.5, seed=0,
                          n_exploitation=4, n_exploration=6,
                          policy_counts={"scripted_de_schedule": 4,
                                         "random": 6},
                          checksum="", train_ids=[1, 12])
    with pytest.raises(ValueError, match="round"):
        man.validate()
    man.n_exploitation, man.n_exploration = 5, 5
    man.policy_counts = {"scripted_de_schedule": 5, "random": 4}
    with pytest.raises(ValueError, match="sum to D"):
        man.validate()
    man.policy_counts = {"scripted_de_schedule": 5, "random": 5}
    man.validate()


@pytest.mark.parametrize("field, value", [
    ("mu", "0.5"), ("policy_counts", [1]), ("policy_counts", {"random": "2"}),
    ("seed", 1.5), ("alg_id", True), ("train_ids", ["1"]), ("checksum", 5),
    # a number outside [0, 1]; json writes NaN and Infinity as Python reads
    ("mu", float("nan")), ("mu", float("inf")), ("mu", -float("inf")),
    ("mu", 1.5), ("mu", -0.25)])
def test_load_dataset_names_manifest_field_of_wrong_type(tmp_path, field,
                                                         value):
    collect(0, tiny_split(), ("scripted_de_schedule", "random"),
            mu=0.0, D=2, T=2, seed=55, out_dir=tmp_path)
    mf = tmp_path / datasets.MANIFEST_FILE
    obj = json.loads(mf.read_text())
    obj[field] = value
    mf.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=f"bad manifest: field '{field}'"):
        load_dataset(tmp_path)


def test_manifest_must_be_a_json_object():
    with pytest.raises(ValueError, match="bad manifest: not a JSON object"):
        DatasetManifest.from_json("[1]")
