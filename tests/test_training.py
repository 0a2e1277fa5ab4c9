"""Tests for the loss, optimizer, training loop, tabular decomposition
check, and gradient checker."""

import multiprocessing
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import reference
from dacq import env, qmodel, training
from dacq.problems import make_identity_instance
from dacq.qmodel import ModelConfig
from dacq.rollouts import random_policy
from dacq.training import LossConfig


@pytest.fixture(scope="module")
def sphere5():
    return make_identity_instance(1, 5)


def short_trajectory(sphere5, T=4, seed=0):
    return env.run_episode(0, sphere5, random_policy(0, seed), T=T,
                           seed=seed, policy_id="random")


# ---------------------------------------------------------------------------
# loss

def test_loss_all_zero():
    cfg = LossConfig(K=2, M=4)
    Q = np.zeros((3, 2, 4))
    actions = np.zeros((3, 2), dtype=int)
    rewards = np.zeros(3)
    loss, comps, dQ = training.q_loss_batch(Q, actions, rewards,
                                            np.array([4, 4]), cfg)
    assert loss == 0.0
    assert all(v == 0.0 for v in comps.values())
    assert_array_equal(dQ, np.zeros_like(Q))


def test_loss_unit_example():
    # T=1, K=1, M=2: chosen q=1 vs target r=0.5, other bin 0.2
    cfg = LossConfig(K=1, M=2, beta=10.0, lam=1.0, gamma=0.99)
    Q = np.array([[[1.0, 0.2]]])
    actions = np.array([[0]])
    rewards = np.array([0.5])
    loss, comps, _ = training.q_loss_batch(Q, actions, rewards,
                                           np.array([2]), cfg)
    assert abs(loss - 1.27) <= 1e-12
    assert abs(comps["bellman_td"] - 1.25) <= 1e-12
    assert abs(comps["conservative"] - 0.02) <= 1e-12
    assert comps["bellman_intra"] == 0.0


def test_loss_matches_loop_oracle():
    rng = np.random.default_rng(0)
    T, K, M = 3, 4, 16
    masks = np.array([16, 2, 5, 16])
    Q = rng.normal(size=(T, K, M))
    actions = np.stack([rng.integers(0, masks[i], size=T)
                        for i in range(K)], axis=-1)
    rewards = rng.uniform(0, 0.2, T)
    cfg = LossConfig(K=K, M=M, beta=10.0, lam=1.0, gamma=0.99)
    loss, comps, _ = training.q_loss_batch(Q, actions, rewards, masks, cfg)
    want = reference.q_loss_ref(Q.tolist(), actions.tolist(), rewards.tolist(),
                                masks.tolist(), 10.0, 1.0, 0.99)
    assert abs(loss - want) <= 1e-12 * max(1.0, abs(want))
    assert abs(sum(comps.values()) - loss) <= 1e-12


def test_loss_target_ignores_masked_bins():
    # a huge Q value sitting in a masked bin must not leak into targets
    cfg = LossConfig(K=2, M=4, gamma=0.5)
    Q = np.zeros((2, 2, 4))
    Q[0, 1, 3] = 100.0     # dim 2 masked to 2 bins: bin 3 invisible
    Q[0, 1, 1] = 2.0
    masks = np.array([4, 2])
    targets = training.compute_targets(Q, np.zeros(2), masks, cfg)
    assert targets[0, 0] == 2.0


def test_loss_nonnegative_and_positive_when_off_fixed_point():
    rng = np.random.default_rng(1)
    cfg = LossConfig(K=3, M=8)
    Q = rng.normal(size=(4, 3, 8))
    actions = rng.integers(0, 8, size=(4, 3))
    rewards = rng.uniform(0, 1, 4)
    loss, _, _ = training.q_loss_batch(Q, actions, rewards,
                                       np.array([8, 8, 8]), cfg)
    assert loss > 0


def test_loss_gradient_matches_fd_with_frozen_targets():
    rng = np.random.default_rng(2)
    cfg = LossConfig(K=2, M=4)
    Q = rng.normal(size=(3, 2, 4))
    actions = rng.integers(0, 4, size=(3, 2))
    rewards = rng.uniform(0, 1, 3)
    masks = np.array([4, 4])
    targets = training.compute_targets(Q, rewards, masks, cfg)
    _, _, dQ = training.q_loss_batch(Q, actions, rewards, masks, cfg,
                                     targets=targets)
    h = 1e-6
    for idx in [(0, 0, 1), (2, 1, 3), (1, 1, 0), (0, 0, 2)]:
        orig = Q[idx]
        Q[idx] = orig + h
        up, _, _ = training.q_loss_batch(Q, actions, rewards, masks, cfg,
                                         targets=targets)
        Q[idx] = orig - h
        dn, _, _ = training.q_loss_batch(Q, actions, rewards, masks, cfg,
                                         targets=targets)
        Q[idx] = orig
        assert abs(dQ[idx] - (up - dn) / (2 * h)) < 1e-8


def test_trajectory_arrays_stack_steps(sphere5):
    traj = short_trajectory(sphere5)
    states, actions, rewards = training.trajectory_arrays([traj, traj])
    assert states.shape == (2, 4, 9) and states.dtype == np.float64
    assert actions.shape == (2, 4, 3) and actions.dtype == np.int64
    assert rewards.shape == (2, 4) and rewards.dtype == np.float64
    for t, st in enumerate(traj.steps):
        assert_array_equal(states[1, t], st.state)
        assert_array_equal(actions[1, t], st.actions)
        assert rewards[1, t] == st.reward


def test_trajectory_arrays_reject_mixed_shapes(sphere5):
    traj = short_trajectory(sphere5)
    other = short_trajectory(sphere5)
    other.M = 32
    with pytest.raises(ValueError, match="mixed trajectory shapes"):
        training.trajectory_arrays([traj, other])
    other = short_trajectory(sphere5)
    other.steps = other.steps[:-1]
    with pytest.raises(ValueError, match="step count does not match T"):
        training.trajectory_arrays([traj, other])


def test_stacked_trajectory_loss_uses_algorithm_masks(sphere5):
    # alg 1 has discrete dims: bins past a dim's choices must not enter
    # the backup targets, whatever their Q
    traj = env.run_episode(1, sphere5, random_policy(1, 3), T=3, seed=3)
    cfg = LossConfig(K=10, M=16)
    _, actions, rewards = (a[0] for a in training.trajectory_arrays([traj]))
    masks = env.bin_masks(traj.alg_id, cfg.M)
    Q = np.random.default_rng(3).normal(size=(3, 10, 16))
    high = Q.copy()
    for i, m in enumerate(masks):
        high[..., i, m:] = 1e6
    assert masks.min() < 16
    assert_array_equal(training.compute_targets(high, rewards, masks, cfg),
                       training.compute_targets(Q, rewards, masks, cfg))
    _, comps, _ = training.q_loss_batch(Q, actions, rewards, masks, cfg)
    assert set(comps) == {"bellman_intra", "bellman_td", "conservative"}


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(K=3, beta=-1)
    with pytest.raises(ValueError):
        LossConfig(K=3, gamma=0.0)
    with pytest.raises(ValueError):
        LossConfig(K=3, gamma=1.5)


# ---------------------------------------------------------------------------
# optimizer

class OneTensor:
    def __init__(self, value):
        self.p = np.array(value, dtype=np.float64)
        self.version = 0

    def tensors(self):
        return {"p": self.p}

    def bump(self):
        self.version += 1


def test_adamw_single_step_hand_computed():
    params = OneTensor([1.0])
    opt = training.AdamWState.for_params(params)
    training.adamw_step(params, {"p": np.array([0.5])}, opt, lr=0.1,
                        weight_decay=0.01)
    m_hat = 0.5                       # (0.1*0.5)/(1-0.9)
    v_hat = 0.25                      # (0.001*0.25)/(1-0.999)
    want = 1.0 * (1 - 0.1 * 0.01) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert_allclose(params.p, [want], rtol=1e-12)
    assert params.version == 1


def test_adamw_zero_lr_keeps_params():
    params = OneTensor([2.0, -3.0])
    opt = training.AdamWState.for_params(params)
    before = params.p.copy()
    for _ in range(3):
        training.adamw_step(params, {"p": np.array([1.0, -2.0])}, opt, lr=0.0)
    assert_array_equal(params.p, before)


# ---------------------------------------------------------------------------
# training loop

def small_model(seed=0):
    return qmodel.init_qmodel(ModelConfig(K=3, M=16, d_model=8, d_state=4),
                              seed)


def small_cfg(**kw):
    base = dict(K=3, M=16, batch_size=4, epochs=5, learning_rate=5e-3)
    base.update(kw)
    return LossConfig(**base)


def test_train_rejects_bad_inputs(sphere5):
    model = small_model()
    with pytest.raises(ValueError):
        training.train([], model, small_cfg())
    traj = short_trajectory(sphere5)
    bad = qmodel.init_qmodel(ModelConfig(K=4, M=16, d_model=8, d_state=4), 0)
    with pytest.raises(ValueError):
        training.train([traj], bad, LossConfig(K=4, M=16))


def test_train_zero_lr_keeps_params(sphere5):
    model = small_model(1)
    before = {k: v.copy() for k, v in model.tensors().items()}
    traj = short_trajectory(sphere5)
    training.train([traj], model, small_cfg(epochs=1, learning_rate=0.0))
    for k, v in model.tensors().items():
        assert_array_equal(v, before[k])


def test_train_descends_on_singleton(sphere5):
    model = small_model(2)
    traj = short_trajectory(sphere5, T=5, seed=3)
    _, history = training.train([traj], model, small_cfg(epochs=30), seed=0)
    assert all(np.isfinite(h["loss"]) for h in history)
    assert history[-1]["loss"] < history[0]["loss"]


def test_train_deterministic(sphere5):
    trajs = [short_trajectory(sphere5, T=4, seed=s) for s in range(6)]

    def run():
        model = small_model(3)
        _, history = training.train(trajs, model, small_cfg(epochs=3), seed=7)
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    assert h1 == h2
    for k in m1.tensors():
        assert_array_equal(m1.tensors()[k], m2.tensors()[k])


def test_train_history_shape(sphere5):
    model = small_model(4)
    trajs = [short_trajectory(sphere5, T=4, seed=s) for s in range(3)]
    _, history = training.train(trajs, model, small_cfg(epochs=2), seed=1)
    assert len(history) == 2
    for h in history:
        assert set(h) == {"loss", "bellman_intra", "bellman_td",
                          "conservative"}
        assert abs(h["loss"] - (h["bellman_intra"] + h["bellman_td"]
                                + h["conservative"])) < 1e-9


def synthetic_trajectories(D, T, seed=0):
    """Alg-0 shaped trajectories with random states, bins and rewards."""
    rng = np.random.default_rng(seed)
    return [env.Trajectory(
        alg_id=0, K=3, M=16, function_id=1, dim=5, instance_seed=0,
        episode_seed=[seed, e], T=T, policy_id="random", f_best_init=1.0,
        f_star=0.0, steps=[env.StepRecord(rng.random(9),
                                          rng.integers(0, 16, 3),
                                          float(rng.random() / T), 0.0)
                           for _ in range(T)])
        for e in range(D)]


def train_run(trajs, cfg, workers):
    model = small_model(5)
    opt = training.AdamWState.for_params(model)
    _, history = training.train(trajs, model, cfg, seed=7, opt=opt,
                                workers=workers)
    return model, opt, history


def test_train_does_not_depend_on_workers():
    # D = 7 at batch 5: slices of 2, 2 and 1 at three workers, and a short
    # last minibatch of two trajectories
    trajs = synthetic_trajectories(7, 6, seed=1)
    cfg = small_cfg(batch_size=5, epochs=3)
    runs = [train_run(trajs, cfg, w) for w in (1, 2, 3)]
    model1, opt1, history1 = runs[0]
    for model, opt, history in runs[1:]:
        assert history == history1
        assert opt.step == opt1.step == 6
        for k, v in model1.tensors().items():
            assert_array_equal(model.tensors()[k], v, err_msg=k)
            assert_array_equal(opt.m[k], opt1.m[k], err_msg=k)
            assert_array_equal(opt.v[k], opt1.v[k], err_msg=k)


def test_train_step_is_the_minibatch_mean_gradient(monkeypatch):
    # the gradients train hands to adamw_step for a minibatch of three
    # trajectories are those of the minibatch's mean loss, its backup
    # targets frozen: checked against central differences with the
    # rounding floor and tolerance of grad_check.  A step's loss comes
    # from the parameters before it, so the history of one epoch of one
    # minibatch is the mean of the loss oracle over its trajectories
    trajs = synthetic_trajectories(3, 4, seed=2)
    cfg = small_cfg(batch_size=3, epochs=1)
    config = ModelConfig(K=3, M=16, d_model=4, d_state=2)
    seen = []
    true_step = training.adamw_step

    def spy(params, grads, *args, **kwargs):
        seen.append({k: v.copy() for k, v in grads.items()})
        true_step(params, grads, *args, **kwargs)

    monkeypatch.setattr(training, "adamw_step", spy)
    _, history = training.train(trajs, qmodel.init_qmodel(config, 5), cfg,
                                seed=7, workers=1)
    assert len(seen) == 1
    grads = seen[0]

    params = qmodel.init_qmodel(config, 5)
    masks = env.bin_masks(0, 16)
    data = list(zip(*training.trajectory_arrays(trajs)))
    Qs = [qmodel.q_values_batch(params, s, a)[0] for s, a, _ in data]
    targets = [training.compute_targets(Q, r, masks, cfg)
               for Q, (_, _, r) in zip(Qs, data)]
    want = np.mean([reference.q_loss_ref(Q.tolist(), a.tolist(), r.tolist(),
                                         masks.tolist(), cfg.beta, cfg.lam,
                                         cfg.gamma)
                    for Q, (_, a, r) in zip(Qs, data)])
    assert_allclose(history[0]["loss"], want, rtol=1e-12, atol=0)

    def mean_loss():
        return np.mean([training._frozen_loss(params, s, a, r, masks, cfg, t)
                        for (s, a, r), t in zip(data, targets)])

    h = 1e-4
    floor = np.finfo(np.float64).eps * abs(mean_loss()) / h
    worst, checked = 0.0, 0
    for name, arr in params.tensors().items():
        flat = arr.ravel()
        for i, g in enumerate(grads[name].ravel()):
            orig = flat[i]
            flat[i] = orig + h
            up = mean_loss()
            flat[i] = orig - h
            dn = mean_loss()
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            if abs(g) > 1e-6:
                rel = max(abs(g - fd) - floor, 0.0) / max(abs(g), abs(fd))
                worst = max(worst, rel)
                checked += 1
    assert checked > 200
    assert worst <= 1e-4, worst


def test_non_finite_gradient_stops_train_before_its_step(monkeypatch):
    # the step that would apply a NaN gradient is not taken: the error
    # names the tensor, the epoch and the step, and the parameters keep
    # their values
    trajs = synthetic_trajectories(4, 3, seed=5)
    true_backward = qmodel.model_backward
    calls = []

    def nan_on_fifth(cache, grad_Q):
        # D = 4 at batch 3: the fifth trajectory opens epoch 2
        grads = true_backward(cache, grad_Q)
        calls.append(1)
        if len(calls) == 5:
            grads["blocks.0.W_B"].ravel()[1] = np.nan
        return grads

    monkeypatch.setattr(qmodel, "model_backward", nan_on_fifth)
    model = small_model(6)
    opt = training.AdamWState.for_params(model)
    before = None
    true_step = training.adamw_step

    def spy(params, grads, *args, **kwargs):
        nonlocal before
        true_step(params, grads, *args, **kwargs)
        before = {k: v.copy() for k, v in params.tensors().items()}

    monkeypatch.setattr(training, "adamw_step", spy)
    with pytest.raises(FloatingPointError,
                       match="blocks.0.W_B is not finite at epoch 2, step 1"):
        training.train(trajs, model, small_cfg(batch_size=3, epochs=3),
                       seed=1, opt=opt, workers=1)
    assert opt.step == 2
    for k, v in model.tensors().items():
        assert_array_equal(v, before[k], err_msg=k)


def test_train_step_memory_does_not_grow_with_batch():
    T = 100
    trajs = synthetic_trajectories(8, T, seed=3)
    model = qmodel.init_qmodel(ModelConfig(K=3, M=16, d_model=16, d_state=8),
                               0)

    def step_peak(batch):
        cfg = small_cfg(batch_size=batch, epochs=1)
        tracemalloc.start()
        try:
            training.train(trajs[:batch], model, cfg, workers=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = step_peak(2), step_peak(8)
    assert large <= 1.5 * small, (small, large)


def test_no_worker_outlives_train():
    # train's workers belong to the process's one pool, which close_pool
    # ends; closing without a pool is a no-op
    trajs = synthetic_trajectories(4, 5, seed=4)
    train_run(trajs, small_cfg(epochs=2), 2)
    env.close_pool()
    assert multiprocessing.active_children() == []
    env.close_pool()

    for tr in trajs:   # a reward that overflows the TD loss
        tr.steps[0].reward = 1e300
    with pytest.raises(FloatingPointError, match="diverged"), \
            np.errstate(over="ignore", invalid="ignore"):
        train_run(trajs, small_cfg(epochs=2), 2)
    env.close_pool()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# tabular decomposition

def test_tabular_trivial_one_state():
    M = 3
    R = np.arange(M, dtype=float)[None, :]
    P = np.ones((1, M, 1))
    mdp = training.TabularMdp(1, 1, M, R, P, gamma=0.0)
    report = training.verify_decomposition(mdp, tol=1e-12)
    assert report["passed"]
    Q_full = training.full_value_iteration(mdp)
    assert_array_equal(Q_full, R)
    tables = training.decomposed_fixed_point(mdp)
    assert_array_equal(tables[0], R)


def test_tabular_random_small():
    mdp = training.random_tabular_mdp(5, n_states=3, K=2, M=2, gamma=0.9)
    report = training.verify_decomposition(mdp, tol=1e-8)
    assert report["passed"]
    assert report["max_value_gap"] <= 1e-8


def test_tabular_gamma_zero_last_dim_is_reward():
    mdp = training.random_tabular_mdp(6, n_states=4, K=2, M=3, gamma=1e-12)
    mdp = training.TabularMdp(mdp.n_states, mdp.K, mdp.M, mdp.R, mdp.P, 0.0)
    # workaround: construct gamma=0 directly
    tables = training.decomposed_fixed_point(mdp)
    assert_allclose(tables[-1].reshape(4, 9), mdp.R, rtol=0, atol=0)


def test_tabular_many_random_seeds():
    for seed in range(10):
        mdp = training.random_tabular_mdp(seed, n_states=4, K=3, M=2,
                                          gamma=0.9)
        report = training.verify_decomposition(mdp, tol=1e-8)
        assert report["passed"], f"seed {seed}: {report}"


def test_tabular_rejects_bad_transitions():
    mdp = training.random_tabular_mdp(7, n_states=2, K=1, M=2, gamma=0.9)
    mdp.P[0, 0, 0] += 0.5
    with pytest.raises(ValueError):
        training.verify_decomposition(mdp, tol=1e-8)


# ---------------------------------------------------------------------------
# gradient check

def test_grad_check_zero_configuration(sphere5):
    model = small_model(5)
    for arr in model.tensors().values():
        arr[:] = 0.0
    traj = short_trajectory(sphere5, T=3, seed=5)
    for s in traj.steps:   # zero rewards give an exactly-zero loss
        s.reward = 0.0
    cfg = small_cfg()
    states = np.stack([s.state for s in traj.steps])
    actions = np.stack([s.actions for s in traj.steps])
    rewards = np.zeros(3)
    Q, cache = qmodel.q_values_batch(model, states, actions)
    loss, _, dQ = training.q_loss_batch(Q, actions, rewards,
                                        env.bin_masks(0, 16), cfg)
    assert loss == 0.0
    grads = qmodel.model_backward(cache, dQ)
    for g in grads.values():
        assert_array_equal(g, np.zeros_like(g))
    report = training.grad_check(model, traj, cfg)
    assert report["max_rel_error"] == 0.0
    assert report["checked"] == 0


def test_grad_check_random_model(sphere5):
    model = small_model(6)
    traj = short_trajectory(sphere5, T=3, seed=6)
    report = training.grad_check(model, traj, small_cfg())
    assert report["checked"] > 200
    assert report["max_rel_error"] <= 1e-4, report


def test_grad_check_detects_small_injected_error(sphere5, monkeypatch):
    # a 1e-3 relative error on one coordinate clears the rounding floor
    true_backward = qmodel.model_backward

    def scaled(cache, grad_Q):
        grads = true_backward(cache, grad_Q)
        grads["blocks.0.A_log"].ravel()[0] *= 1.0 + 1e-3
        return grads

    monkeypatch.setattr(qmodel, "model_backward", scaled)
    model = small_model(6)
    traj = short_trajectory(sphere5, T=3, seed=6)
    report = training.grad_check(model, traj, small_cfg())
    assert report["checked"] > 200
    assert report["max_rel_error"] > 1e-4, report
    assert report["worst_coord"] == ("blocks.0.A_log", 0)


def test_grad_check_rates_a_zeroed_gradient(sphere5, monkeypatch):
    # a gradient wrong because it is zero is rated against its finite
    # difference, not skipped as a small one
    true_backward = qmodel.model_backward

    def zeroed(cache, grad_Q):
        grads = true_backward(cache, grad_Q)
        grads["b_head"][:] = 0.0
        return grads

    monkeypatch.setattr(qmodel, "model_backward", zeroed)
    model = small_model(6)
    traj = short_trajectory(sphere5, T=3, seed=6)
    report = training.grad_check(model, traj, small_cfg())
    assert report["max_rel_error"] > 1e-4, report
    assert report["worst_coord"][0] == "b_head"


def test_grad_check_fd_truncation_is_second_order(sphere5):
    # doubling h should roughly quadruple the truncation error
    model = small_model(7)
    traj = short_trajectory(sphere5, T=2, seed=7)
    cfg = small_cfg()
    states = np.stack([s.state for s in traj.steps])
    actions = np.stack([s.actions for s in traj.steps])
    rewards = np.array([s.reward for s in traj.steps])
    masks = env.bin_masks(0, 16)
    Q0, cache = qmodel.q_values_batch(model, states, actions)
    targets = training.compute_targets(Q0, rewards, masks, cfg)
    _, _, dQ = training.q_loss_batch(Q0, actions, rewards, masks, cfg,
                                     targets=targets)
    grads = qmodel.model_backward(cache, dQ)

    def fd(name, i, h):
        arr = model.tensors()[name].ravel()
        orig = arr[i]
        arr[i] = orig + h
        up = training._frozen_loss(model, states, actions, rewards, masks,
                                   cfg, targets)
        arr[i] = orig - h
        dn = training._frozen_loss(model, states, actions, rewards, masks,
                                   cfg, targets)
        arr[i] = orig
        return (up - dn) / (2 * h)

    # keep only coordinates whose error at h clears the FD rounding floor
    # eps*|loss|/h by 10x; below it the ratio measures rounding, not O(h^2)
    h = 1e-3
    loss = training._frozen_loss(model, states, actions, rewards, masks, cfg,
                                 targets)
    floor = 10 * np.finfo(float).eps * abs(loss) / h
    ratios = []
    for name in ("W_embed", "W_proj", "blocks.0.W_B"):
        g = grads[name].ravel()
        for i in range(0, g.size, 5):
            e1 = abs(fd(name, i, h) - g[i])
            e2 = abs(fd(name, i, 2 * h) - g[i])
            if e1 > floor:
                ratios.append(e2 / e1)
    assert ratios, "no truncation-dominated coordinates found"
    med = float(np.median(ratios))
    assert 2.5 <= med <= 6.0, (med, len(ratios), floor)
