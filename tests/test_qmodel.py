"""Tests for the autoregressive Q-network: input rows, stepping, greedy
decoding, teacher forcing, and whole-model gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dacq import algorithms as alg
from dacq import env, qmodel, ssm, training
from dacq.qmodel import ModelConfig


def tiny_model(K=3, seed=0, d_model=8, d_state=4, M=16, depth=1):
    cfg = ModelConfig(K=K, M=M, d_model=d_model, d_state=d_state, depth=depth)
    return qmodel.init_qmodel(cfg, seed)


def zero_model(K=3, M=16, b_head=None):
    p = tiny_model(K=K, M=M)
    for arr in p.tensors().values():
        arr[:] = 0.0
    if b_head is not None:
        p.b_head[:] = b_head
    return p


# ---------------------------------------------------------------------------
# input rows: [state, token(previous bin)], bin -1 being the start

def token_rows(prev, width=5):
    """The token part of the encoder's rows for a list of previous bins."""
    prev = np.asarray(prev, dtype=np.int64)
    return qmodel._input_rows(np.zeros(9), prev, width)[..., 9:]


def test_tokenize_examples():
    rows = qmodel._input_rows(np.arange(9.0), np.array([0, 15, -1, 5]), 5)
    assert rows.shape == (4, 14)
    assert_array_equal(rows[:, :9], np.tile(np.arange(9.0), (4, 1)))
    assert_array_equal(rows[:, 9:], [[0, 0, 0, 0, 0], [0, 1, 1, 1, 1],
                                     [1, 1, 1, 1, 1], [0, 0, 1, 0, 1]])
    assert rows.dtype == np.float64
    # wider tokens hold more bins
    assert_array_equal(token_rows([31], width=6), [[0, 1, 1, 1, 1, 1]])


def test_tokenize_range_errors():
    # q_step takes bins in [-1, 2**(width-1)); -1 is the start
    p = tiny_model()
    h = p.zero_hidden()
    for b in (16, -2, 1 << 40):
        with pytest.raises(ValueError, match="outside"):
            qmodel.q_step(p, np.zeros(9), b, h)
    # assemble_inputs takes recorded bins in [0, 2**(width-1)): the start
    # bin -1 is no recorded action
    for bad in ([[3, 16], [0, 0]], [[3, 4], [0, 16]], [[3, -1], [0, 0]],
                [[-1, 4], [0, 0]]):
        with pytest.raises(ValueError, match="token range"):
            qmodel.assemble_inputs(np.zeros((2, 9)), np.array(bad), 5)


@pytest.mark.parametrize("width", [5, 6])
def test_token_rows_distinct(width):
    # every bin of the width, and the start, gets its own token
    prev = np.arange(-1, 1 << (width - 1))
    toks = token_rows(prev, width)
    assert len({tuple(t) for t in toks}) == len(prev)
    assert set(np.unique(toks)) <= {0.0, 1.0}
    assert_array_equal(toks[0], np.ones(width))
    # the leading bit is 1 for the start only
    assert_array_equal(toks[:, 0], prev < 0)


def test_token_width_scales_with_bins():
    assert ModelConfig(K=3, M=16).token_width == 5
    assert ModelConfig(K=3, M=32).token_width == 6
    assert ModelConfig(K=3, M=8).token_width == 4
    assert ModelConfig(K=3, M=16).input_dim == 14


# ---------------------------------------------------------------------------
# q_step

def test_zero_weights_give_b_head():
    b_head = np.abs(np.random.default_rng(0).normal(size=16)) + 0.1
    p = zero_model(b_head=b_head)
    q, _ = qmodel.q_step(p, np.zeros(9), -1, p.zero_hidden())
    assert_allclose(q, b_head, rtol=1e-15)


def test_negative_b_head_is_leaky_scaled():
    p = zero_model(b_head=np.full(16, -2.0))
    q, _ = qmodel.q_step(p, np.zeros(9), -1, p.zero_hidden())
    assert_allclose(q, np.full(16, -0.02), rtol=1e-15)


def test_q_step_is_pure():
    p = tiny_model(seed=3)
    rng = np.random.default_rng(1)
    s = rng.normal(size=9)
    h = [rng.normal(size=(8, 4)) for _ in p.blocks]
    q1, h1 = qmodel.q_step(p, s, 7, h)
    q2, h2 = qmodel.q_step(p, s, 7, h)
    assert_array_equal(q1, q2)
    for a, b in zip(h1, h2):
        assert_array_equal(a, b)


def test_q_step_hiddens_survive_the_next_call():
    # the SSM's scratch buffers belong to one call: the hidden states one
    # q_step returns keep their bytes through a later call on other inputs
    p = tiny_model(seed=3, depth=2)
    rng = np.random.default_rng(2)
    q1, h1 = qmodel.q_step(p, rng.normal(size=9), 7, p.zero_hidden())
    kept = [q1.tobytes()] + [h.tobytes() for h in h1]
    q2, h2 = qmodel.q_step(p, rng.normal(size=9), 3, h1)
    assert [q1.tobytes()] + [h.tobytes() for h in h1] == kept
    assert not np.array_equal(h2[0], h1[0])


def test_q_step_input_validation():
    p = tiny_model()
    h = p.zero_hidden()
    with pytest.raises(ValueError):
        qmodel.q_step(p, np.full(9, np.nan), 0, h)
    with pytest.raises(ValueError):
        qmodel.q_step(p, np.zeros(8), 0, h)
    with pytest.raises(ValueError):
        qmodel.q_step(p, np.zeros(9), 16, h)


# ---------------------------------------------------------------------------
# greedy decoding

def test_tie_breaks_to_lowest_bin():
    p = zero_model(b_head=np.zeros(16))
    bins, _, _ = qmodel.decode_episode_actions(p, np.zeros(9),
                                               env.bin_masks(0, 16),
                                               p.zero_hidden())
    assert_array_equal(bins, [0, 0, 0])


def test_discrete_mask_restricts_argmax():
    b_head = np.zeros(16)
    b_head[3] = 10.0   # globally best bin is 3
    b_head[1] = 1.0
    p = zero_model(K=10, b_head=b_head)
    masks = env.bin_masks(1, 16)
    bins, _, qs = qmodel.decode_episode_actions(p, np.zeros(9), masks,
                                                p.zero_hidden())
    by_name = {s.name: i for i, s in enumerate(alg.alg_spec(1))}
    assert bins[by_name["F1"]] == 3          # continuous: all 16 bins
    assert bins[by_name["cm1"]] == 1         # only first 2 bins visible
    assert bins[by_name["bc1"]] == 3         # 5 visible, 3 still in range
    assert np.all((0 <= bins) & (bins < masks))
    assert qs.shape == (10, 16)


def test_greedy_decode_invariant_under_monotone_transform():
    p = tiny_model(seed=5)
    rng = np.random.default_rng(6)
    s = rng.normal(size=9)
    masks = env.bin_masks(0, 16)
    bins_a, _, _ = qmodel.decode_episode_actions(p, s, masks, p.zero_hidden())
    # scaling the head output positively preserves every argmax
    p.W_head *= 3.0
    p.b_head[:] = p.b_head * 3.0 + 0.5
    bins_b, _, _ = qmodel.decode_episode_actions(p, s, masks, p.zero_hidden())
    assert_array_equal(bins_a, bins_b)


@pytest.mark.parametrize("alg_id", alg.ALGORITHM_IDS)
def test_decode_feeds_chosen_tokens_forward(alg_id):
    # teacher forcing on the greedy actions reproduces the greedy QSlices,
    # also where discrete masks cut the argmax below M
    masks = env.bin_masks(alg_id, 16)
    p = tiny_model(K=len(masks), seed=7)
    rng = np.random.default_rng(8)
    s1, s2 = rng.normal(size=(2, 9))
    h = p.zero_hidden()
    bins1, h, qs1 = qmodel.decode_episode_actions(p, s1, masks, h)
    bins2, h, qs2 = qmodel.decode_episode_actions(p, s2, masks, h,
                                                  int(bins1[-1]))
    assert np.all(bins1 < masks) and np.all(bins2 < masks)
    Q, _ = qmodel.q_values_batch(p, np.stack([s1, s2]),
                                 np.stack([bins1, bins2]))
    assert_allclose(Q[0], qs1, atol=1e-12, rtol=0)
    assert_allclose(Q[1], qs2, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# teacher forcing

def test_assemble_inputs_token_stream():
    states = np.arange(18, dtype=float).reshape(2, 9)
    actions = np.array([[3, 5], [7, 1]])
    X = qmodel.assemble_inputs(states, actions, width=5)
    assert X.shape == (4, 14)
    assert_array_equal(X[:, 9:], [[1, 1, 1, 1, 1],    # start
                                  [0, 0, 0, 1, 1],    # 3
                                  [0, 0, 1, 0, 1],    # 5
                                  [0, 0, 1, 1, 1]])   # 7
    assert_array_equal(X[0, :9], states[0])
    assert_array_equal(X[3, :9], states[1])
    with pytest.raises(ValueError):
        qmodel.assemble_inputs(states, np.array([[3, 16], [0, 0]]), 5)


def test_single_step_single_dim_trajectory():
    p = tiny_model(K=1)
    rng = np.random.default_rng(9)
    s = rng.normal(size=9)
    traj = env.Trajectory(alg_id=0, K=1, M=16, function_id=1, dim=5,
                          instance_seed=0, episode_seed=0, T=1, policy_id="",
                          f_best_init=1.0, f_star=0.0,
                          steps=[env.StepRecord(s, np.array([4]), 0.0, 1.0)])
    states, actions, _ = training.trajectory_arrays([traj])
    Q, _ = qmodel.q_values_batch(p, states[0], actions[0])
    assert Q.shape == (1, 1, 16)
    q_direct, _ = qmodel.q_step(p, s, -1, p.zero_hidden())
    assert_allclose(Q[0, 0], q_direct, atol=1e-12, rtol=0)


def assert_step_replay_matches(p, states, actions, Q):
    """Q (T, K, M) equals q_step replayed over the decision steps."""
    h = p.zero_hidden()
    prev = -1
    for t, (state, bins) in enumerate(zip(states, actions)):
        for i, b in enumerate(bins):
            q, h = qmodel.q_step(p, state, prev, h)
            assert_allclose(Q[t, i], q, atol=1e-12, rtol=0)
            prev = int(b)


def test_teacher_forcing_matches_step_replay():
    p = tiny_model(seed=11)
    rng = np.random.default_rng(12)
    T, K = 4, 3
    states = rng.normal(size=(T, 9))
    actions = rng.integers(0, 16, size=(T, K))
    Q, _ = qmodel.q_values_batch(p, states, actions)
    assert_step_replay_matches(p, states, actions, Q)


def test_teacher_forcing_across_scan_chunks(monkeypatch):
    # a chunk budget of 5 steps splits the T*K = 12 decision steps into
    # chunks of 5, 5 and 2: the states kept at the chunk starts carry the
    # recurrence across chunk edges, forward and in the backward's re-run
    p = tiny_model(seed=11, depth=2)
    rng = np.random.default_rng(12)
    T, K = 4, 3
    states = rng.normal(size=(T, 9))
    actions = rng.integers(0, 16, size=(T, K))
    grad_Q = rng.normal(size=(T, K, 16))
    Q_one, cache_one = qmodel.q_values_batch(p, states, actions)
    assert [len(c.chunks) for c in cache_one.block_caches] == [1, 1]
    want = qmodel.model_backward(cache_one, grad_Q)
    monkeypatch.setattr(ssm, "SCAN_CHUNK_ELEMENTS",
                        5 * p.config.d_model * p.config.d_state)
    Q, cache = qmodel.q_values_batch(p, states, actions)
    assert [len(c.chunks) for c in cache.block_caches] == [3, 3]
    assert_array_equal(Q, Q_one)
    got = qmodel.model_backward(cache, grad_Q)
    for k in want:
        if k.endswith("A_log"):
            # summed over l one chunk at a time
            err = np.max(np.abs(got[k] - want[k]))
            assert err <= 1e-13 * np.max(np.abs(want[k])), (k, err)
        else:
            assert_array_equal(got[k], want[k], err_msg=k)
    assert_step_replay_matches(p, states, actions, Q)


def test_k_mismatch_rejected():
    p = tiny_model(K=3)
    with pytest.raises(ValueError):
        qmodel.q_values_batch(p, np.zeros((2, 9)),
                              np.zeros((2, 4), dtype=int))


# ---------------------------------------------------------------------------
# gradients

def scalar_loss(p, states, actions, R):
    Q, cache = qmodel.q_values_batch(p, states, actions)
    return float((Q * R).sum()), Q, cache


def test_model_backward_matches_finite_differences():
    p = tiny_model(seed=15, K=2, depth=1)
    rng = np.random.default_rng(16)
    T, K = 3, 2
    states = rng.normal(size=(T, 9))
    actions = rng.integers(0, 16, size=(T, K))
    R = rng.normal(size=(T, K, 16))
    _, _, cache = scalar_loss(p, states, actions, R)
    grads = qmodel.model_backward(cache, R)

    h = 1e-4
    worst = 0.0
    checked = 0
    for name, arr in p.tensors().items():
        g = grads[name]
        flat = arr.ravel()
        stride = 1 if flat.size <= 64 else 3
        for i in range(0, flat.size, stride):
            orig = flat[i]
            flat[i] = orig + h
            up, _, _ = scalar_loss(p, states, actions, R)
            flat[i] = orig - h
            dn, _, _ = scalar_loss(p, states, actions, R)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            an = g.ravel()[i]
            if abs(an) > 1e-6:
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd)))
                checked += 1
            else:
                assert abs(fd) < 1e-5, f"{name}[{i}]"
    assert checked > 100
    assert worst <= 1e-4


def test_model_backward_depth_two():
    p = tiny_model(seed=17, K=2, depth=2)
    rng = np.random.default_rng(18)
    states = rng.normal(size=(2, 9))
    actions = rng.integers(0, 16, size=(2, 2))
    R = rng.normal(size=(2, 2, 16))
    _, _, cache = scalar_loss(p, states, actions, R)
    grads = qmodel.model_backward(cache, R)
    # spot-check one tensor per block plus the embedding
    assert_grads_match_fd(p, states, actions, R, grads,
                          ("blocks.0.W_B", "blocks.1.A_log", "W_embed"), 7)


def test_model_backward_matches_finite_differences_across_blas_blocks(
        monkeypatch):
    # a budget of 3 * M * M elements runs the L = 7 decision steps through
    # weight_grad as row blocks of 3 + 3 + 1 for W_head (16, 16) and of
    # 6 + 1 for W_proj (8, 16) and W_embed (14, 8)
    monkeypatch.setattr(ssm, "BLAS_BLOCK_ELEMENTS", 3 * 16 * 16)
    p = tiny_model(seed=19, K=7)
    rng = np.random.default_rng(20)
    states = rng.normal(size=(1, 9))
    actions = rng.integers(0, 16, size=(1, 7))
    R = rng.normal(size=(1, 7, 16))
    _, _, cache = scalar_loss(p, states, actions, R)
    grads = qmodel.model_backward(cache, R)
    assert_grads_match_fd(p, states, actions, R, grads,
                          ("W_head", "W_proj", "W_embed"), 1)


def assert_grads_match_fd(p, states, actions, R, grads, names, stride):
    """Every stride-th element of each named gradient against central
    differences of sum(Q * R), within rel 1e-4."""
    h = 1e-4
    for name in names:
        arr = p.tensors()[name]
        g = grads[name]
        flat = arr.ravel()
        for i in range(0, flat.size, stride):
            orig = flat[i]
            flat[i] = orig + h
            up, _, _ = scalar_loss(p, states, actions, R)
            flat[i] = orig - h
            dn, _, _ = scalar_loss(p, states, actions, R)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            an = g.ravel()[i]
            if abs(an) > 1e-6:
                assert abs(an - fd) / max(abs(an), abs(fd)) <= 1e-4, \
                    (name, i)
            else:
                assert abs(fd) < 1e-5, (name, i)


def test_stale_model_cache_rejected():
    p = tiny_model(seed=19)
    rng = np.random.default_rng(20)
    states = rng.normal(size=(2, 9))
    actions = rng.integers(0, 16, size=(2, 3))
    _, cache = qmodel.q_values_batch(p, states, actions)
    p.bump()
    with pytest.raises(ValueError):
        qmodel.model_backward(cache, np.zeros((2, 3, 16)))


def test_model_backward_rejects_misshaped_grad_Q():
    # a transposed (K, T, M) gradient has the right size but not the shape
    # q_values_batch returned
    p = tiny_model(seed=19)
    rng = np.random.default_rng(20)
    states = rng.normal(size=(2, 9))
    actions = rng.integers(0, 16, size=(2, 3))
    _, cache = qmodel.q_values_batch(p, states, actions)
    qmodel.model_backward(cache, np.zeros((2, 3, 16)))
    for shape in [(3, 2, 16), (6, 16), (2, 3, 8)]:
        with pytest.raises(ValueError, match="grad_Q shape"):
            qmodel.model_backward(cache, np.zeros(shape))


def test_tensor_names_are_stable():
    p = tiny_model(depth=2)
    names = list(p.tensors())
    assert names[0] == "W_embed"
    assert "blocks.0.A_log" in names and "blocks.1.W_out" in names
    assert names[-1] == "b_head"
    # every tensor is float64 and owned (no overlap)
    for arr in p.tensors().values():
        assert arr.dtype == np.float64
