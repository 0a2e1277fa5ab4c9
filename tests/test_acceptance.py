"""Acceptance suite: the end-to-end guarantees this package makes.

Everything else in tests/ builds toward the contracts pinned here: the
decomposed per-dimension backup is exactly equivalent to the joint one,
the hand-derived gradients are correct, the parallel scan matches the
recurrence, episode rewards account for exactly the normalized
improvement, the loss reproduces its worked unit values, the ablation
harness emits complete report structures, the CLI pipeline is
byte-deterministic, and every evolutionary operator matches a scalar
reference loop.

The package's headline claim, that offline training at desk scale beats
the random policy on functions it never saw, has no test here (there is
no section 6): it is unchecked, and measured by hand it currently fails.
"""

import csv

import numpy as np
import pytest

from dacq import cli, ea_ops, env, problems, qmodel, rollouts, ssm, \
    training


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# 1. decomposed backup == full joint-action value iteration
# ---------------------------------------------------------------------------

def test_decomposed_backup_matches_joint_value_iteration():
    for i in range(100):
        size_rng = np.random.default_rng([20260823, 9, i])
        S = int(size_rng.integers(1, 5))
        K = int(size_rng.integers(1, 4))
        M = int(size_rng.integers(1, 4))
        mdp = training.random_tabular_mdp([20260823, 10, i], S, K, M,
                                          gamma=0.9)
        rep = training.verify_decomposition(mdp, tol=1e-8)
        assert rep["passed"], (i, S, K, M, rep)


# ---------------------------------------------------------------------------
# 2. analytic loss gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_loss_gradient_matches_central_differences():
    config = qmodel.ModelConfig(K=3, M=16, d_model=8, d_state=4)
    params = qmodel.init_qmodel(config, seed=[20260823, 1])
    inst = problems.make_instance(1, 5, seed=3)
    pol = rollouts.random_policy(0, seed=[20260823, 2])
    traj = env.run_episode(0, inst, pol, 4, [20260823, 3])
    rep = training.grad_check(params, traj, training.LossConfig(K=3, M=16))
    assert rep["checked"] > 100
    assert rep["max_rel_error"] <= 1e-4, rep


# ---------------------------------------------------------------------------
# 3. parallel prefix scan == sequential recurrence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L", [1, 7, 64, 2048])
def test_scan_matches_sequential_recurrence(L):
    for s in range(20):
        rng = np.random.default_rng([20260823, 4, L, s])
        ten = ssm.init_ssm_params(rng, 16, 8)
        xs = rng.normal(size=(L, 16))
        ys_seq, hT_seq, _ = ssm.ssm_forward_sequential(ten, None, xs)
        ys_par, hT_par = ssm.ssm_forward_scan(ten, None, xs)
        assert np.max(np.abs(ys_par - ys_seq)) <= 1e-6, (L, s)
        assert np.max(np.abs(hT_par - hT_seq)) <= 1e-6, (L, s)


# ---------------------------------------------------------------------------
# 4. reward accounting on random-policy episodes
# ---------------------------------------------------------------------------

def test_rewards_telescope_to_normalized_improvement():
    all_ids = problems.TRAIN_IDS + problems.TEST_IDS
    for e in range(200):
        fid = all_ids[e % len(all_ids)]
        dim = 5 if e % 2 else 10
        if e % 20 == 19:
            alg, T = 2, 5
        elif e % 10 == 9:
            alg, T = 1, 8
        else:
            alg, T = 0, 12
        inst = problems.make_instance(fid, dim, seed=e)
        pol = rollouts.random_policy(alg, seed=[20260823, 5, e])
        traj = env.run_episode(alg, inst, pol, T, [20260823, 6, e])

        rewards = [st.reward for st in traj.steps]
        assert all(r >= 0.0 for r in rewards), (fid, dim, alg)
        total = sum(rewards)
        assert total <= 1.0 + 1e-9, (fid, dim, alg, total)
        denom = traj.f_best_init - traj.f_star
        if denom <= 0.0:
            assert all(r == 0.0 for r in rewards)
            continue
        expect = (traj.f_best_init - traj.steps[-1].best_so_far_f) / denom
        assert abs(total - expect) <= 1e-12, (fid, dim, alg, total, expect)


# ---------------------------------------------------------------------------
# 5. loss unit values
# ---------------------------------------------------------------------------

def test_loss_unit_values_exact():
    cfg = training.LossConfig(K=1, M=2, beta=10.0, lam=1.0, gamma=0.99)
    Q = np.array([[[1.0, 0.2]]])
    actions = np.array([[0]])
    rewards = np.array([0.5])
    loss, comps, _ = training.q_loss_batch(Q, actions, rewards,
                                           np.array([2]), cfg)
    assert abs(loss - 1.27) <= 1e-12
    assert abs(comps["bellman_td"] - 1.25) <= 1e-12
    assert abs(comps["conservative"] - 0.02) <= 1e-12

    zero_loss, zero_comps, dQ = training.q_loss_batch(
        np.zeros((3, 2, 4)), np.zeros((3, 2), dtype=int),
        np.zeros(3), np.array([4, 4]), training.LossConfig(K=2, M=4))
    assert zero_loss == 0.0
    assert all(v == 0.0 for v in zero_comps.values())
    assert np.all(dQ == 0.0)


# ---------------------------------------------------------------------------
# 7. ablation harness report structure
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_ds") / "d"
    rc = run_cli(["collect", "--alg", "0", "--mu", "0.5", "--d", "10",
                  "--t", "5", "--seed", "1", "--functions", "1,12",
                  "--out", str(out)])
    assert rc == 0
    return out


def test_ablation_reports_complete_structure(small_dataset, tmp_path):
    out = tmp_path / "ab"
    rc = run_cli(["ablate", "--data", str(small_dataset), "--out", str(out),
                  "--epochs", "2", "--batch", "4", "--d-model", "12",
                  "--d-state", "4", "--runs", "2", "--t", "5",
                  "--test-functions", "15", "--seed", "4"])
    assert rc == 0

    grid = read_csv(out / "ablate_lambda_beta.csv")
    assert len(grid) == 1 + 6
    cells = {(float(r[0]), float(r[1])) for r in grid[1:]}
    assert cells == {(l, b) for l in (0.0, 1.0, 10.0) for b in (1.0, 10.0)}

    mu_rows = read_csv(out / "ablate_mu.csv")
    assert len(mu_rows) == 1 + 5
    assert [float(r[0]) for r in mu_rows[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    bin_rows = read_csv(out / "ablate_bins.csv")
    assert len(bin_rows) == 1 + 2
    assert [int(r[0]) for r in bin_rows[1:]] == [16, 32]
    for row in grid[1:] + mu_rows[1:] + bin_rows[1:]:
        assert np.isfinite(float(row[-2]))


# ---------------------------------------------------------------------------
# 8. byte determinism of collect / train / eval
# ---------------------------------------------------------------------------

def test_pipeline_commands_byte_deterministic(tmp_path):
    def pipeline(root):
        ds, tr, ev = root / "ds", root / "tr", root / "ev"
        assert run_cli(["collect", "--alg", "0", "--mu", "0.5", "--d", "10",
                        "--t", "5", "--seed", "1", "--functions", "1,12",
                        "--out", str(ds)]) == 0
        assert run_cli(["train", "--data", str(ds), "--out", str(tr),
                        "--epochs", "3", "--batch", "4", "--d-model", "12",
                        "--d-state", "4", "--seed", "2"]) == 0
        assert run_cli(["eval", "--ckpt", str(tr / "model.ckpt"),
                        "--out", str(ev), "--t", "5", "--runs", "3",
                        "--test-functions", "15", "--seed", "3"]) == 0
        return {
            "trajectories.jsonl": (ds / "trajectories.jsonl").read_bytes(),
            "manifest.json": (ds / "manifest.json").read_bytes(),
            "model.ckpt": (tr / "model.ckpt").read_bytes(),
            "loss.csv": (tr / "loss.csv").read_bytes(),
            "eval.csv": (ev / "eval.csv").read_bytes(),
        }

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    for name in first:
        assert first[name] == second[name], name


# ---------------------------------------------------------------------------
# 9. operator fidelity against scalar reference loops
# ---------------------------------------------------------------------------

def _rand_pop(seed, NP=8, dim=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(-5.0, 5.0, (NP, dim)), rng


def test_de_mutations_match_scalar_loops():
    X, rng = _rand_pop(101)
    NP, dim = X.shape
    best = X[3].copy()
    f1, f2 = 0.7, 0.4
    idx = ea_ops.draw_distinct_indices(rng, NP, 5)

    for variant, formula in [
        ("current_to_rand_1",
         lambda i, j, r: X[i, j] + f1 * (X[r[0], j] - X[i, j])
         + f2 * (X[r[1], j] - X[r[2], j])),
        ("best_2",
         lambda i, j, r: best[j] + f1 * (X[r[0], j] - X[r[1], j])
         + f2 * (X[r[2], j] - X[r[3], j])),
        ("rand_2",
         lambda i, j, r: X[r[0], j] + f1 * (X[r[1], j] - X[r[2], j])
         + f2 * (X[r[3], j] - X[r[4], j])),
        ("current_to_best_1",
         lambda i, j, r: X[i, j] + f1 * (best[j] - X[i, j])
         + f2 * (X[r[0], j] - X[r[1], j])),
    ]:
        got = ea_ops.de_mutation_kernel(variant, X, best, idx, f1, f2)
        want = np.array([[formula(i, j, idx[i]) for j in range(dim)]
                         for i in range(NP)])
        assert np.max(np.abs(got - want)) <= 1e-12, variant


def test_crossovers_match_scalar_loops():
    X, rng = _rand_pop(102)
    NP, dim = X.shape
    donor = rng.uniform(-5.0, 5.0, (NP, dim))
    cr = 0.6

    rand = rng.random((NP, dim))
    jrand = rng.integers(0, dim, size=NP)
    got = ea_ops.binomial_kernel(X, donor, rand, jrand, cr)
    want = np.array([[donor[i, j] if (rand[i, j] < cr or j == jrand[i])
                      else X[i, j] for j in range(dim)] for i in range(NP)])
    assert np.max(np.abs(got - want)) <= 1e-12

    ks, ls = ea_ops.exponential_segments(rng, NP, dim, cr)
    got = ea_ops.exponential_kernel(X, donor, ks, ls)
    want = X.copy()
    for i in range(NP):
        for m in range(ls[i]):
            want[i, (ks[i] + m) % dim] = donor[i, (ks[i] + m) % dim]
    assert np.max(np.abs(got - want)) <= 1e-12

    partner = rng.integers(0, NP, size=NP)
    rand = rng.random((NP, dim))
    got = ea_ops.mpx_kernel(X, donor, partner, rand, cr)
    want = np.array([[donor[partner[i], j] if rand[i, j] < cr else X[i, j]
                      for j in range(dim)] for i in range(NP)])
    assert np.max(np.abs(got - want)) <= 1e-12

    u = rng.random((NP, dim))
    swap = rng.random((NP, dim)) < 0.5
    eta_c = 2
    got = ea_ops.sbx_kernel(X, donor, partner, u, swap, eta_c)
    want = np.empty_like(X)
    for i in range(NP):
        for j in range(dim):
            if u[i, j] <= 0.5:
                beta = (2.0 * u[i, j]) ** (1.0 / (1.0 + eta_c)) - 1.0
            else:
                beta = (1.0 / (2.0 - 2.0 * u[i, j])) ** (1.0 / (1.0 + eta_c))
            p = donor[partner[i], j]
            lo = 0.5 * ((1.0 - beta) * X[i, j] + (1.0 + beta) * p)
            hi = 0.5 * ((1.0 + beta) * X[i, j] + (1.0 - beta) * p)
            want[i, j] = hi if swap[i, j] else lo
    assert np.max(np.abs(got - want)) <= 1e-12


def test_ga_mutations_match_scalar_loops():
    X, rng = _rand_pop(103)
    NP, dim = X.shape
    bounds = (-5.0, 5.0)

    noise = rng.standard_normal(X.shape)
    got = ea_ops.gaussian_kernel(X, 0.3, bounds, noise)
    want = np.array([[X[i, j] + 0.3 * 10.0 * noise[i, j]
                      for j in range(dim)] for i in range(NP)])
    assert np.max(np.abs(got - want)) <= 1e-12

    u = rng.random(X.shape)
    eta_m = 3
    got = ea_ops.polynomial_kernel(X, eta_m, bounds, u)
    want = np.empty_like(X)
    e = 1.0 / (1.0 + eta_m)
    for i in range(NP):
        for j in range(dim):
            if u[i, j] <= 0.5:
                want[i, j] = X[i, j] + ((2.0 * u[i, j]) ** e - 1.0) \
                    * (X[i, j] - bounds[0])
            else:
                want[i, j] = X[i, j] + (1.0 - (2.0 - 2.0 * u[i, j]) ** e) \
                    * (bounds[1] - X[i, j])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_operator_degenerate_identities_exact():
    X, rng = _rand_pop(104)
    NP, dim = X.shape
    best = X[2].copy()
    idx = ea_ops.draw_distinct_indices(rng, NP, 5)
    donor = rng.uniform(-5.0, 5.0, (NP, dim))

    # F1 = F2 = 0 collapses each mutation to its base vector
    assert np.array_equal(
        ea_ops.de_mutation_kernel("current_to_rand_1", X, best, idx, 0.0, 0.0), X)
    assert np.array_equal(
        ea_ops.de_mutation_kernel("current_to_best_1", X, best, idx, 0.0, 0.0), X)
    assert np.array_equal(
        ea_ops.de_mutation_kernel("best_2", X, best, idx, 0.0, 0.0),
        np.tile(best, (NP, 1)))
    assert np.array_equal(
        ea_ops.de_mutation_kernel("rand_2", X, best, idx, 0.0, 0.0),
        X[idx[:, 0]])

    # Cr = 1 takes every donor component; Cr = 0 only the forced one
    rand = rng.random((NP, dim))
    jrand = rng.integers(0, dim, size=NP)
    assert np.array_equal(ea_ops.binomial_kernel(X, donor, rand, jrand, 1.0),
                          donor)
    only_j = ea_ops.binomial_kernel(X, donor, rand, jrand, 0.0)
    for i in range(NP):
        for j in range(dim):
            expect = donor[i, j] if j == jrand[i] else X[i, j]
            assert only_j[i, j] == expect

    # exponential bursts: Cr = 0 copies exactly one component per row,
    # Cr = 1 copies the whole row
    ks, ls = ea_ops.exponential_segments(rng, NP, dim, 0.0)
    assert np.all(ls == 1)
    one = ea_ops.exponential_kernel(X, donor, ks, ls)
    assert np.all((one != X).sum(axis=1) <= 1)
    ks, ls = ea_ops.exponential_segments(rng, NP, dim, 1.0)
    assert np.all(ls == dim)
    assert np.array_equal(ea_ops.exponential_kernel(X, donor, ks, ls), donor)

    # mpx: Cr = 0 keeps the parent, Cr = 1 copies the partner row
    partner = rng.integers(0, NP, size=NP)
    rand = rng.random((NP, dim))
    assert np.array_equal(ea_ops.mpx_kernel(X, donor, partner, rand, 0.0), X)
    assert np.array_equal(ea_ops.mpx_kernel(X, donor, partner, rand, 1.0),
                          donor[partner])

    # sigma = 0 Gaussian mutation is the identity
    noise = rng.standard_normal(X.shape)
    assert np.array_equal(ea_ops.gaussian_kernel(X, 0.0, (-5.0, 5.0), noise),
                          X)
