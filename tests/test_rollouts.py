"""Tests for the rollouts module: policies, the episode job, and the Perf
summary and paired statistics of its rows."""

import ast
import inspect
import math

import numpy as np
import pytest

from dacq import cli, env, problems, qmodel, rollouts

#: hand-built (function_id, run, perf, policy) rows: f1 run 0 a model win,
#: f1 run 1 a tie, f2 run 0 a loss, and f2 run 1 a model row without its
#: random pair
ROWS = [(1, 0, 0.5, "model"), (1, 0, 0.25, "random"),
        (1, 1, 0.25, "model"), (1, 1, 0.25, "random"),
        (2, 0, 0.125, "model"), (2, 0, 0.5, "random"),
        (2, 1, 1.0, "model")]


def test_rollouts_imports_neither_datasets_nor_cli():
    tree = ast.parse(inspect.getsource(rollouts))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not imported & {"datasets", "cli", "dacq.datasets", "dacq.cli"}


def test_cli_keeps_the_benchmark_facing_names():
    assert cli.evaluate_policies is rollouts.evaluate_policies
    assert cli.EvalReport is rollouts.EvalReport
    rows = [(15, 0, 0.25, "model"), (15, 0, 0.75, "random"),
            (15, 1, 0.5, "model"), (15, 1, 0.25, "random")]
    report = cli.EvalReport(rows=rows, runs=2, provenance={})
    report.validate()
    assert report.mean_perf("model") == 0.375
    assert report.mean_perf("random") == 0.5
    assert cli.EvalReport(rows=rows, runs=2).provenance == {}


def test_eval_report_rejects_bad_perf_and_run_counts():
    with pytest.raises(ValueError, match="out of"):
        rollouts.EvalReport(rows=[(1, 0, 1.5, "model")], runs=1).validate()
    with pytest.raises(ValueError, match="run counts"):
        rollouts.EvalReport(rows=ROWS, runs=2).validate()


def test_summarize_means_and_sample_std():
    summary = rollouts.summarize(ROWS)
    assert summary[("model", 1)] == (0.375, pytest.approx(0.125 * 2 ** 0.5,
                                                          rel=1e-12))
    assert summary[("model", "overall")][0] == pytest.approx(1.875 / 4)
    assert summary[("model", "overall")][1] == pytest.approx(
        np.std([0.5, 0.25, 0.125, 1.0], ddof=1), rel=1e-12)
    # one episode: its std is 0
    assert rollouts.summarize([(3, 0, 0.5, "random")]) == {
        ("random", 3): (0.5, 0.0), ("random", "overall"): (0.5, 0.0)}
    assert set(summary) == {(p, k) for p in ("model", "random")
                            for k in (1, 2, "overall")}


def test_paired_skips_unpaired_rows_and_a_tie_is_no_win():
    diff, wins, pairs = rollouts.paired(ROWS)
    assert pairs == 3
    assert wins == 1
    assert diff == pytest.approx((0.25 + 0.0 - 0.375) / 3, rel=1e-12)


def test_paired_without_pairs_is_nan():
    diff, wins, pairs = rollouts.paired([(1, 0, 0.5, "model")])
    assert math.isnan(diff) and (wins, pairs) == (0, 0)


def test_greedy_policy_checks_dims_and_bins():
    params = qmodel.init_qmodel(
        qmodel.ModelConfig(K=3, M=16, d_model=4, d_state=2), seed=0)
    with pytest.raises(ValueError, match="decodes K=3 dims but algorithm 1"):
        rollouts.greedy_policy(params, 1)
    # the policy decodes on the model's M; evaluate_policies checks the
    # bin count it rolls the episodes out on against it, before any runs
    with pytest.raises(ValueError, match="bin count 16 != requested 8"):
        rollouts.evaluate_policies(
            params, 0, [problems.make_instance(15, 5, seed=0)], runs=1, T=2,
            n_bins=8, seed=0, workers=1)


def test_greedy_policy_carries_its_state_across_steps():
    """The closure decodes each step from the hidden state and last bin
    the previous step left, as one decode loop over the episode does."""
    params = qmodel.init_qmodel(
        qmodel.ModelConfig(K=3, M=16, d_model=4, d_state=2), seed=1)
    states = np.random.default_rng(2).random((4, 9))
    pol = rollouts.greedy_policy(params, 0)
    got = [pol(s, t) for t, s in enumerate(states)]
    masks = env.bin_masks(0, 16).tolist()
    hiddens, prev = params.zero_hidden(), -1
    for s, bins in zip(states, got):
        want, hiddens, _ = qmodel.decode_episode_actions(
            params, s, masks, hiddens, prev)
        prev = int(want[-1])
        np.testing.assert_array_equal(bins, want)


def test_hold_plays_a_copy_of_one_setting():
    bins = np.array([1, 2, 3])
    pol = rollouts.hold(bins)
    first = pol(None, 0)
    first[0] = 9
    np.testing.assert_array_equal(pol(None, 1), [1, 2, 3])
