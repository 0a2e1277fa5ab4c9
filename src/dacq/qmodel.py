"""Autoregressive decomposed Q-network.

Each decision step consumes the 9-feature optimization state concatenated
with the binary token of the previously chosen action bin, runs it through
residual selective-SSM blocks with a carried hidden state, and emits an
M-bin Q-value slice:

    E   = [s, token] @ W_embed + b_embed
    x   = E; x = x + block_k(x)  for each block
    O   = x @ W_proj + b_proj                (decision information, dim M)
    Q   = leaky_relu(O @ W_head + b_head)    (W_head: M x M)

Action bins are tokenized in big-endian binary using one more bit than
the bins need, so the all-ones pattern is free to act as the start token
(M=16: bins 00000-01111, start 11111).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ssm

#: sentinel accepted by tokenize for the sequence-start token
START = "START"

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

    def as_dict(self) -> dict:
        return {"K": self.K, "M": self.M, "d_model": self.d_model,
                "d_state": self.d_state, "depth": self.depth}


def tokenize(bin_idx, width: int = 5) -> np.ndarray:
    """Big-endian binary token of one action bin, or all-ones for START."""
    if bin_idx is START:
        return np.ones(width)
    b = int(bin_idx)
    if not 0 <= b < (1 << (width - 1)):
        raise ValueError(f"bin {b} not representable in {width}-bit tokens "
                         f"(valid: 0..{(1 << (width - 1)) - 1})")
    return np.array([(b >> (width - 1 - j)) & 1 for j in range(width)],
                    dtype=np.float64)


def detokenize(bits) -> object:
    """Inverse of tokenize; the all-ones pattern maps back to START."""
    bits = np.asarray(bits)
    if np.all(bits == 1):
        return START
    return int(sum(int(b) << (len(bits) - 1 - j) for j, b in enumerate(bits)))


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
    X_in: np.ndarray          # (B, L, input_dim)
    block_caches: list
    Y: np.ndarray             # (B, L, d_model) after residual stack
    O: np.ndarray             # (B, L, M)
    Hpre: np.ndarray          # (B, L, M) pre-activation Q
    shape: tuple              # (B, T, K)


def _stack_forward(params: QModelParams, X_in, h0s):
    """Embed, run residual blocks, apply the two heads.

    X_in: (B, L, input_dim); h0s: per-block hidden states or None.
    Returns (Q, new_hiddens, partial cache fields).
    """
    x = X_in @ params.W_embed + params.b_embed
    block_caches, h_outs = [], []
    if h0s is None:
        h0s = [None] * len(params.blocks)
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


def q_step(params: QModelParams, state, prev_token, hiddens):
    """One decision step: returns (q_values (M,), new hidden states)."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (9,) or not np.all(np.isfinite(state)):
        raise ValueError("state must be a finite 9-vector")
    tok = np.asarray(prev_token, dtype=np.float64)
    if tok.shape != (params.config.token_width,):
        raise ValueError(f"token width {tok.shape} != "
                         f"{params.config.token_width}")
    X_in = np.concatenate([state, tok])[None, None, :]
    h0s = [h[None] for h in hiddens]
    Q, h_outs, *_ = _stack_forward(params, X_in, h0s)
    return Q[0, 0], [h[0] for h in h_outs]


def decode_episode_actions(params: QModelParams, state, specs, hiddens,
                           prev_token=None):
    """Greedy autoregressive decoding of all K bins for one time step.

    prev_token is the token of the final bin of the previous time step;
    None means this is the first step of the episode (START token).
    Returns (bins (K,), carried hidden states, qslices (K, M)).
    """
    width = params.config.token_width
    tok = tokenize(START, width) if prev_token is None else prev_token
    bins = np.empty(len(specs), dtype=np.int64)
    qslices = np.empty((len(specs), params.config.M))
    for i, spec in enumerate(specs):
        q, hiddens = q_step(params, state, tok, hiddens)
        m = params.config.M if spec.kind == "continuous" else spec.n_choices
        bins[i] = int(np.argmax(q[:m]))   # ties break to the lowest index
        qslices[i] = q
        tok = tokenize(int(bins[i]), width)
    return bins, hiddens, qslices


def assemble_inputs(states, actions, width: int) -> np.ndarray:
    """Teacher-forcing input sequence for whole trajectories.

    states: (B, T, 9); actions: (B, T, K) recorded bins.  Decision step
    (t, i) sees token(a_{i-1}^t), with step (0, 0) seeing START and step
    (t, 0) seeing token(a_K^{t-1}).  Returns (B, T*K, 9 + width).
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    B, T, K = actions.shape
    if actions.size and not (0 <= actions.min()
                             and actions.max() < (1 << (width - 1))):
        raise ValueError("action bin outside token range")
    prev = np.empty((B, T * K), dtype=np.int64)
    prev[:, 0] = -1                     # sentinel: START
    prev[:, 1:] = actions.reshape(B, T * K)[:, :-1]
    shifts = width - 1 - np.arange(width)
    bits = (prev[..., None] >> shifts) & 1
    tokens = np.where(prev[..., None] < 0, 1.0, bits.astype(np.float64))
    X = np.empty((B, T * K, 9 + width))
    X[:, :, :9] = np.repeat(states, K, axis=1)
    X[:, :, 9:] = tokens
    return X


def q_values_batch(params: QModelParams, states, actions):
    """Teacher-forced Q-values for a batch of trajectories.

    states: (B, T, 9); actions: (B, T, K).  Hidden state threads across
    all T*K decision steps, starting from zeros per trajectory.  Returns
    (Q (B, T, K, M), cache).
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions)
    if actions.ndim != 3 or states.ndim != 3:
        raise ValueError("states must be (B, T, 9) and actions (B, T, K)")
    B, T, K = actions.shape
    if K != params.config.K:
        raise ValueError(f"trajectory K={K} != model K={params.config.K}")
    X_in = assemble_inputs(states, actions, params.config.token_width)
    Q, _, block_caches, Y, O, Hpre = _stack_forward(params, X_in, None)
    cache = QModelCache(params, params.version, X_in, block_caches, Y, O,
                        Hpre, (B, T, K))
    return Q.reshape(B, T, K, params.config.M), cache


def model_backward(cache: QModelCache, grad_Q):
    """Gradients of a scalar loss through the whole model.

    grad_Q: (B, T, K, M) upstream gradient.  Returns a dict matching
    params.tensors() keys.
    """
    p = cache.params
    if cache.version != p.version:
        raise ValueError("stale cache: parameters were updated after the "
                         "forward pass")
    B, T, K = cache.shape
    M = p.config.M
    gQ = np.asarray(grad_Q, dtype=np.float64).reshape(B, T * K, M)

    gHpre = gQ * np.where(cache.Hpre > 0, 1.0, LEAKY_SLOPE)
    gW_head = np.einsum("blm,blk->mk", cache.O, gHpre)
    gb_head = gHpre.sum((0, 1))
    gO = gHpre @ p.W_head.T
    gW_proj = np.einsum("bld,blm->dm", cache.Y, gO)
    gb_proj = gO.sum((0, 1))
    gx = gO @ p.W_proj.T

    grads = {}
    for i in range(len(p.blocks) - 1, -1, -1):
        block_grads, _, gxs = ssm.ssm_backward(cache.block_caches[i], gx)
        for name, arr in block_grads.items():
            grads[f"blocks.{i}.{name}"] = arr
        gx = gx + gxs   # residual: gradient flows around and through

    gW_embed = np.einsum("bli,bld->id", cache.X_in, gx)
    gb_embed = gx.sum((0, 1))
    grads.update({"W_embed": gW_embed, "b_embed": gb_embed,
                  "W_proj": gW_proj, "b_proj": gb_proj,
                  "W_head": gW_head, "b_head": gb_head})
    return grads
