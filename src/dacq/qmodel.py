"""Autoregressive decomposed Q-network.

Each decision step consumes the 9-feature optimization state concatenated
with the binary token of the previously chosen action bin, runs it through
residual selective-SSM blocks with a carried hidden state, and emits an
M-bin Q-value slice:

    E   = [s, token(prev)] @ W_embed + b_embed
    x   = E; x = x + block_k(x)  for each block
    O   = x @ W_proj + b_proj                (decision information, dim M)
    Q   = leaky_relu(O @ W_head + b_head)    (W_head: M x M)

The model takes bins, not tokens: ``q_step`` the previous bin of one
decision, ``assemble_inputs`` the recorded bins of one whole trajectory,
and both build their input rows with one encoder, ``_input_rows``.
token(b) is the big-endian two's-complement binary of b with one more
bit than the bins need.  Bin -1 stands for the start of an episode,
before any bin was chosen; its token is all ones, a pattern no bin in
[0, M) has (M=16: bins 00000-01111, start 11111).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ssm

LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class ModelConfig:
    K: int
    M: int = 16
    d_model: int = 64
    d_state: int = 16
    depth: int = 1

    @property
    def token_width(self) -> int:
        # one spare leading bit keeps the all-ones start token distinct
        return (self.M - 1).bit_length() + 1

    @property
    def input_dim(self) -> int:
        return 9 + self.token_width


def _input_rows(states, prev, width: int) -> np.ndarray:
    """Model input rows [state, token(prev)], shape prev.shape + (9 + width,).

    states: (..., 9) broadcast against prev; prev: int64 bins, -1 for the
    start.  An arithmetic right shift keeps a negative number's sign bits,
    so every bit of token(-1) is 1.
    """
    X = np.empty(prev.shape + (9 + width,))
    X[..., :9] = states
    X[..., 9:] = (prev[..., None] >> (width - 1 - np.arange(width))) & 1
    return X


def leaky_relu(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


@dataclass
class QModelParams:
    """All learnable tensors plus the structural configuration."""

    config: ModelConfig
    W_embed: np.ndarray   # (9 + token_width, d_model)
    b_embed: np.ndarray   # (d_model,)
    blocks: list          # list[SsmParams]
    W_proj: np.ndarray    # (d_model, M)
    b_proj: np.ndarray    # (M,)
    W_head: np.ndarray    # (M, M)
    b_head: np.ndarray    # (M,)
    version: int = 0

    def tensors(self) -> dict:
        out = {"W_embed": self.W_embed, "b_embed": self.b_embed}
        for i, blk in enumerate(self.blocks):
            for name, arr in blk.tensors().items():
                out[f"blocks.{i}.{name}"] = arr
        out.update({"W_proj": self.W_proj, "b_proj": self.b_proj,
                    "W_head": self.W_head, "b_head": self.b_head})
        return out

    def bump(self) -> None:
        self.version += 1
        for blk in self.blocks:
            blk.bump()

    def zero_hidden(self) -> list:
        """One (d_model, d_state) zero state per block, as q_step takes."""
        c = self.config
        return [np.zeros((c.d_model, c.d_state)) for _ in self.blocks]


def init_qmodel(config: ModelConfig, seed) -> QModelParams:
    rng = np.random.default_rng(seed)
    di, dm, M = config.input_dim, config.d_model, config.M
    return QModelParams(
        config=config,
        W_embed=rng.normal(0.0, 1.0 / np.sqrt(di), (di, dm)),
        b_embed=np.zeros(dm),
        blocks=[ssm.init_ssm_params(rng, dm, config.d_state)
                for _ in range(config.depth)],
        W_proj=rng.normal(0.0, 1.0 / np.sqrt(dm), (dm, M)),
        b_proj=np.zeros(M),
        W_head=rng.normal(0.0, 1.0 / np.sqrt(M), (M, M)),
        b_head=np.zeros(M),
    )


@dataclass
class QModelCache:
    """Intermediates of one teacher-forced forward pass."""

    params: QModelParams
    version: int
    X_in: np.ndarray          # (T*K, input_dim)
    block_caches: list
    Y: np.ndarray             # (T*K, d_model) after residual stack
    O: np.ndarray             # (T*K, M)
    Hpre: np.ndarray          # (T*K, M) pre-activation Q


def _stack_forward(params: QModelParams, X_in, h0s):
    """Embed, run residual blocks, apply the two heads.

    X_in: (L, input_dim); h0s: one (d_model, d_state) state per block.
    Returns (Q, new_hiddens, partial cache fields).
    """
    x = X_in @ params.W_embed + params.b_embed
    block_caches, h_outs = [], []
    for blk, h0 in zip(params.blocks, h0s):
        ys, h_fin, cache = ssm.ssm_forward_sequential(blk, h0, x)
        x = x + ys
        block_caches.append(cache)
        h_outs.append(h_fin)
    Q, O, Hpre = _heads(params, x)
    return Q, h_outs, block_caches, x, O, Hpre


def _heads(params: QModelParams, Y):
    """The two heads on the residual stack's output Y: (Q, O, Hpre)."""
    O = Y @ params.W_proj + params.b_proj
    Hpre = O @ params.W_head + params.b_head
    return leaky_relu(Hpre), O, Hpre


def q_step(params: QModelParams, state, prev_bin: int, hiddens):
    """One decision step after bin ``prev_bin`` (-1: the episode's first
    decision): returns (q_values (M,), new hidden states)."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (9,) or not np.all(np.isfinite(state)):
        raise ValueError("state must be a finite 9-vector")
    width = params.config.token_width
    if not -1 <= prev_bin < 1 << (width - 1):
        raise ValueError(f"previous bin {prev_bin} outside "
                         f"[-1, {1 << (width - 1)}) of {width}-bit tokens")
    X_in = _input_rows(state, np.array([prev_bin], dtype=np.int64), width)
    Q, h_outs, *_ = _stack_forward(params, X_in, hiddens)
    return Q[0], h_outs


def decode_episode_actions(params: QModelParams, state, masks, hiddens,
                           prev_bin: int = -1):
    """Greedy autoregressive decoding of all K bins for one time step.

    masks: (K,) valid-bin counts (``env.bin_masks``); dimension i picks
    the best of its bins 0..masks[i]-1.  prev_bin is the final bin of the
    previous time step, -1 at the first step of the episode.
    Returns (bins (K,), carried hidden states, qslices (K, M)).
    """
    bins = np.empty(len(masks), dtype=np.int64)
    qslices = np.empty((len(masks), params.config.M))
    for i, m in enumerate(masks):
        q, hiddens = q_step(params, state, prev_bin, hiddens)
        prev_bin = int(np.argmax(q[:m]))   # ties break to the lowest index
        bins[i] = prev_bin
        qslices[i] = q
    return bins, hiddens, qslices


def assemble_inputs(states, actions, width: int) -> np.ndarray:
    """Teacher-forcing input sequence for one whole trajectory.

    states: (T, 9); actions: (T, K) recorded bins in [0, 2**(width-1)).
    Decision step (t, i) sees a_{i-1}^t, with step (0, 0) seeing the start
    bin -1 and step (t, 0) seeing a_K^{t-1}.  Returns (T*K, 9 + width).
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    K = actions.shape[1]
    if actions.size and not (0 <= actions.min()
                             and actions.max() < (1 << (width - 1))):
        raise ValueError("action bin outside token range")
    prev = np.empty(actions.size, dtype=np.int64)
    prev[0] = -1
    prev[1:] = actions.ravel()[:-1]
    return _input_rows(np.repeat(states, K, axis=0), prev, width)


def q_values_batch(params: QModelParams, states, actions):
    """Teacher-forced Q-values of one trajectory.

    states: (T, 9); actions: (T, K).  Hidden state threads across all T*K
    decision steps, starting from zeros.  Returns (Q (T, K, M), cache).
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions)
    if actions.ndim != 2 or states.ndim != 2:
        raise ValueError("states must be (T, 9) and actions (T, K)")
    T, K = actions.shape
    if K != params.config.K:
        raise ValueError(f"trajectory K={K} != model K={params.config.K}")
    X_in = assemble_inputs(states, actions, params.config.token_width)
    Q, _, block_caches, Y, O, Hpre = _stack_forward(params, X_in,
                                                    params.zero_hidden())
    cache = QModelCache(params, params.version, X_in, block_caches, Y, O,
                        Hpre)
    return Q.reshape(T, K, params.config.M), cache


def model_backward(cache: QModelCache, grad_Q):
    """Gradients of a scalar loss through the whole model.

    grad_Q: (T, K, M) upstream gradient, the shape of ``q_values_batch``'s
    Q (any other raises ValueError).  Returns a dict matching
    params.tensors() keys.
    """
    p = cache.params
    if cache.version != p.version:
        raise ValueError("stale cache: parameters were updated after the "
                         "forward pass")
    gQ = np.asarray(grad_Q, dtype=np.float64)
    want = (cache.Hpre.shape[0] // p.config.K, p.config.K, p.config.M)
    if gQ.shape != want:
        raise ValueError(f"grad_Q shape {gQ.shape} does not match Q {want}")

    gHpre = (gQ.reshape(cache.Hpre.shape)
             * np.where(cache.Hpre > 0, 1.0, LEAKY_SLOPE))
    gW_head = ssm.weight_grad(cache.O, gHpre)
    gb_head = gHpre.sum(0)
    gO = gHpre @ p.W_head.T
    gW_proj = ssm.weight_grad(cache.Y, gO)
    gb_proj = gO.sum(0)
    gx = gO @ p.W_proj.T

    grads = {}
    for i in range(len(p.blocks) - 1, -1, -1):
        block_grads, _, gxs = ssm.ssm_backward(cache.block_caches[i], gx)
        for name, arr in block_grads.items():
            grads[f"blocks.{i}.{name}"] = arr
        gx = gx + gxs   # residual: gradient flows around and through

    gW_embed = ssm.weight_grad(cache.X_in, gx)
    gb_embed = gx.sum(0)
    grads.update({"W_embed": gW_embed, "b_embed": gb_embed,
                  "W_proj": gW_proj, "b_proj": gb_proj,
                  "W_head": gW_head, "b_head": gb_head})
    return grads
