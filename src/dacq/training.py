"""Offline training of the decomposed Q-network.

The loss couples three branches per decision step (t, i):

* intra-step backup (i < K, chosen bin):   1/2 (Q_{i,a} - max Q_{i+1})^2
* final-dim TD backup (i = K, chosen bin): beta/2 (Q_{K,a} - (r + gamma max Q_1^{t+1}))^2
* conservative pull (every other bin):     lambda/2 Q_{i,j}^2

All backup targets are gradient-detached; maxes respect per-dimension bin
masks; the bootstrap beyond the final step is zero.  The loss of a
trajectory is the sum over (t, i, j); ``train`` averages the losses of a
minibatch's trajectories.

Also provides a hand-rolled AdamW, a tabular check that the decomposed
per-dimension Bellman operator reaches the same values as full-action
value iteration, and a finite-difference gradient checker that freezes
the detached targets (so the comparison is against the semi-gradient the
code actually implements).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import env, qmodel


@dataclass
class LossConfig:
    K: int
    M: int = 16
    beta: float = 10.0
    lam: float = 1.0
    gamma: float = 0.99
    batch_size: int = 64
    epochs: int = 300
    learning_rate: float = 5e-3
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.beta < 0 or self.lam < 0:
            raise ValueError("beta and lambda must be nonnegative")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")


def _masked_max(Q, masks):
    """Max over valid bins only; Q: (..., K, M), masks: (K,) counts."""
    neg = np.full_like(Q, -np.inf)
    valid = np.arange(Q.shape[-1]) < masks[:, None]
    return np.where(valid, Q, neg).max(axis=-1)


def compute_targets(Q, rewards, masks, cfg: LossConfig):
    """Detached backup targets of one trajectory, (T, K).

    The T*K decisions form one sequence in (t, i) order.  Each decision's
    target is the masked max Q of the next decision, 0 after the last;
    a step's last decision then adds the step's reward and discounts:
    r^t + gamma * max_j Q_{1,j}^{t+1}.
    """
    T, K, M = Q.shape
    maxQ = _masked_max(Q, masks)               # (T, K)
    targets = np.append(maxQ.ravel()[1:], 0.0).reshape(T, K)
    targets[:, -1] = rewards + cfg.gamma * targets[:, -1]
    return targets


def q_loss_batch(Q, actions, rewards, masks, cfg: LossConfig, targets=None):
    """Loss, per-branch components, and dL/dQ of one trajectory.

    Q: (T, K, M); actions: (T, K); rewards: (T,); masks: (K,).  targets
    overrides the detached backup targets (used by grad_check to freeze
    them).  The components are sums over the trajectory and add up to the
    loss.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 3:
        raise ValueError(f"Q must be (T, K, M), got {Q.shape}")
    T, K, M = Q.shape
    actions = np.asarray(actions)
    rewards = np.asarray(rewards, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.int64)
    if actions.shape != (T, K) or rewards.shape != (T,):
        raise ValueError("actions/rewards shapes do not match Q")
    if masks.shape != (K,):
        raise ValueError("masks must have one entry per action dimension")
    if targets is None:
        targets = compute_targets(Q, rewards, masks, cfg)

    Qa = np.take_along_axis(Q, actions[..., None], -1)[..., 0]  # (T, K)
    resid = Qa - targets
    coef = np.full(K, 1.0)
    coef[K - 1] = cfg.beta
    bellman_terms = 0.5 * coef * resid * resid                  # (T, K)
    intra = bellman_terms[:, :K - 1].sum()
    td = bellman_terms[:, K - 1].sum()

    chosen = np.zeros(Q.shape, dtype=bool)
    np.put_along_axis(chosen, actions[..., None], True, -1)
    cons_terms = 0.5 * cfg.lam * np.where(chosen, 0.0, Q * Q)
    cons = cons_terms.sum()

    loss = float(intra + td + cons)
    components = {"bellman_intra": float(intra), "bellman_td": float(td),
                  "conservative": float(cons)}

    dQ = np.where(chosen, 0.0, cfg.lam * Q)
    dchosen = coef * resid                                      # (T, K)
    np.put_along_axis(dQ, actions[..., None],
                      np.take_along_axis(dQ, actions[..., None], -1)
                      + dchosen[..., None], -1)
    return loss, components, dQ


# ---------------------------------------------------------------------------
# optimizer

#: AdamW's moment decay rates and denominator guard
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8


@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamWState":
        return cls(m={k: np.zeros_like(v) for k, v in params.tensors().items()},
                   v={k: np.zeros_like(v) for k, v in params.tensors().items()})


def adamw_step(params, grads, opt: AdamWState, lr: float,
               weight_decay: float = 0.01) -> None:
    """In-place decoupled-weight-decay Adam update; bumps param version."""
    b1, b2 = ADAMW_BETAS
    opt.step += 1
    bc1 = 1.0 - b1 ** opt.step
    bc2 = 1.0 - b2 ** opt.step
    for name, p in params.tensors().items():
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p *= 1.0 - lr * weight_decay
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAMW_EPS)
    params.bump()


# ---------------------------------------------------------------------------
# training loop

def trajectory_arrays(trajs):
    """Stack trajectories of one shape into (states (D, T, 9), actions
    (D, T, K), rewards (D, T)); they must share T, K, alg_id and M."""
    first = trajs[0]
    for tr in trajs:
        if (tr.T, tr.K, tr.alg_id, tr.M) != (first.T, first.K, first.alg_id,
                                             first.M):
            raise ValueError("mixed trajectory shapes in dataset")
        if len(tr.steps) != first.T:
            raise ValueError("trajectory step count does not match T")
    states = np.stack([[s.state for s in tr.steps] for tr in trajs])
    actions = np.stack([[s.actions for s in tr.steps] for tr in trajs])
    rewards = np.array([[s.reward for s in tr.steps] for tr in trajs],
                       dtype=np.float64)
    return states, actions, rewards


def _trajectory_grads(job):
    """Gradients and loss components of each trajectory of a slice, in
    slice order.  ``job`` is (params, states, actions, rewards, masks,
    cfg, batch) of the slice: each trajectory runs forward, loss and
    backward alone, with dL/dQ divided by its minibatch's size ``batch``,
    so its arithmetic does not depend on its batch-mates."""
    params, states, actions, rewards, masks, cfg, batch = job
    out = []
    for s, a, r in zip(states, actions, rewards):
        Q, cache = qmodel.q_values_batch(params, s, a)
        _, comps, dQ = q_loss_batch(Q, a, r, masks, cfg)
        dQ /= batch
        out.append((qmodel.model_backward(cache, dQ), comps))
    return out


def train(dataset, params: qmodel.QModelParams, cfg: LossConfig, seed=0,
          opt: AdamWState | None = None, workers=None):
    """Epochs of shuffled whole-trajectory minibatches under AdamW.

    Returns (params, history) where history is a list of per-epoch dicts
    with the mean loss and branch means.  Deterministic given inputs.
    Pass an existing AdamWState (mutated in place) to continue a run with
    its accumulated moments; by default a fresh state is used.

    A trajectory is the unit of work: each one runs forward, loss and
    backward alone (see ``_trajectory_grads``), the minibatch's gradients
    are added in batch order and its loss components averaged over it.
    A gradient that is not finite stops the run before the step that
    would apply it.  A minibatch is cut into contiguous slices over
    ``min(workers, batch_size, D)`` workers (``workers`` None: the CPUs
    this process may use) of ``env.pmap``'s pool; each step sends each
    worker the parameters and its slice's trajectories, so no worker
    holds the dataset.  Parameters, moments and history are the same
    bits for every ``workers``.
    """
    if not dataset:
        raise ValueError("empty dataset")
    states, actions, rewards = trajectory_arrays(dataset)
    alg_id, M = dataset[0].alg_id, dataset[0].M
    if params.config.K != actions.shape[2]:
        raise ValueError("model K does not match dataset")
    if params.config.M != M:
        raise ValueError("model M does not match dataset")
    if cfg.K != params.config.K or cfg.M != params.config.M:
        raise ValueError("loss config K/M do not match the model")
    masks = env.bin_masks(alg_id, M)
    D = len(dataset)
    if opt is None:
        opt = AdamWState.for_params(params)
    rng = np.random.default_rng(seed)
    n = min(env.resolve_workers(workers), cfg.batch_size, D)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(D)
        tallies = {}   # "loss", then q_loss_batch's components
        for step, start in enumerate(range(0, D, cfg.batch_size), 1):
            idx = order[start:start + cfg.batch_size]
            jobs = [(params, states[part], actions[part], rewards[part],
                     masks, cfg, len(idx))
                    for part in np.array_split(idx, min(n, len(idx)))]
            per_traj = [r for rs in env.pmap(_trajectory_grads, jobs, n)
                        for r in rs]
            grads = per_traj[0][0]
            for g, _ in per_traj[1:]:
                for k, v in g.items():
                    grads[k] += v
            for k in params.tensors():
                if not np.isfinite(grads[k]).all():
                    raise FloatingPointError(
                        f"training diverged: the gradient of {k} is not "
                        f"finite at epoch {epoch}, step {step}")
            adamw_step(params, grads, opt, cfg.learning_rate,
                       weight_decay=cfg.weight_decay)
            comps = {k: np.array([c[k] for _, c in per_traj])
                     for k in per_traj[0][1]}
            means = {"loss": sum(comps.values()).mean(),
                     **{k: v.mean() for k, v in comps.items()}}
            for k, v in means.items():
                tallies[k] = tallies.get(k, 0.0) + float(v) * len(idx)
        history.append({k: v / D for k, v in tallies.items()})
        if not np.isfinite(history[-1]["loss"]):
            raise FloatingPointError("training loss diverged")
    return params, history


# ---------------------------------------------------------------------------
# tabular decomposition check

@dataclass
class TabularMdp:
    """Finite MDP with factored action dims: joint actions are flat
    indices over M^K (dimension 1 varying slowest)."""

    n_states: int
    K: int
    M: int
    R: np.ndarray        # (S, M^K)
    P: np.ndarray        # (S, M^K, S)
    gamma: float

    @property
    def n_actions(self) -> int:
        return self.M ** self.K

    def validate(self) -> None:
        S, A = self.n_states, self.n_actions
        if self.R.shape != (S, A) or self.P.shape != (S, A, S):
            raise ValueError("table shapes inconsistent with S, K, M")
        if np.any(self.P < 0) or not np.allclose(self.P.sum(-1), 1.0,
                                                 atol=1e-12):
            raise ValueError("transition rows must be distributions")


def random_tabular_mdp(seed, n_states: int, K: int, M: int,
                       gamma: float) -> TabularMdp:
    rng = np.random.default_rng(seed)
    A = M ** K
    R = rng.uniform(0.0, 1.0, (n_states, A))
    P = rng.uniform(0.0, 1.0, (n_states, A, n_states))
    P /= P.sum(-1, keepdims=True)
    return TabularMdp(n_states, K, M, R, P, gamma)


#: the tabular iterations stop when no entry moves by _VI_TOL, or after
#: _VI_MAX_ITER sweeps
_VI_TOL, _VI_MAX_ITER = 1e-14, 100_000


def full_value_iteration(mdp: TabularMdp) -> np.ndarray:
    """Exact Q over joint actions: Q = R + gamma P max_a' Q."""
    Q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(_VI_MAX_ITER):
        V = Q.max(1)
        Qn = mdp.R + mdp.gamma * mdp.P @ V
        if np.max(np.abs(Qn - Q)) < _VI_TOL:
            return Qn
        Q = Qn
    return Q


def decomposed_fixed_point(mdp: TabularMdp):
    """Jacobi iteration of the per-dimension operator.

    Maintains K tables Q_i(s, a_{1:i}); each sweep rebuilds
    Q_i <- max_{a_{i+1}} Q_{i+1} for i < K and
    Q_K <- R + gamma P max_{a_1} Q_1.
    Returns the list of converged tables.
    """
    S, K, M = mdp.n_states, mdp.K, mdp.M
    tables = [np.zeros((S,) + (M,) * (i + 1)) for i in range(K)]
    R = mdp.R.reshape((S,) + (M,) * K)
    for _ in range(_VI_MAX_ITER):
        V1 = tables[0].max(-1)                       # max_{a_1} Q_1
        new = [None] * K
        boot = (mdp.P @ V1).reshape((S,) + (M,) * K)
        new[K - 1] = R + mdp.gamma * boot
        for i in range(K - 2, -1, -1):
            new[i] = tables[i + 1].max(-1)
        delta = max(np.max(np.abs(n - t)) for n, t in zip(new, tables))
        tables = new
        if delta < _VI_TOL:
            break
    return tables


def greedy_joint_from_tables(tables, s: int) -> tuple:
    """Sequential greedy action through the decomposed tables."""
    prefix = ()
    for tab in tables:
        sel = tab[(s,) + prefix]
        prefix = prefix + (int(np.argmax(sel)),)
    return prefix


def verify_decomposition(mdp: TabularMdp, tol: float) -> dict:
    """Compare full-action value iteration with the decomposed operator's
    fixed point; report value gaps and greedy-action agreement."""
    mdp.validate()
    Q_full = full_value_iteration(mdp)
    tables = decomposed_fixed_point(mdp)
    V_full = Q_full.max(1)
    V_dec = tables[0].max(tuple(range(1, tables[0].ndim)))
    max_gap = float(np.max(np.abs(V_full - V_dec)))

    agree = 0
    unique = 0
    for s in range(mdp.n_states):
        row = Q_full[s]
        best = row.max()
        if (row >= best - 1e-10).sum() == 1:
            unique += 1
            joint = np.unravel_index(int(row.argmax()),
                                     (mdp.M,) * mdp.K)
            if greedy_joint_from_tables(tables, s) == tuple(joint):
                agree += 1
    return {"max_value_gap": max_gap,
            "greedy_agreement": agree,
            "unique_count": unique,
            "passed": bool(max_gap <= tol and agree == unique)}


# ---------------------------------------------------------------------------
# gradient checking

def _frozen_loss(params, states, actions, rewards, masks, cfg, targets):
    Q, _ = qmodel.q_values_batch(params, states, actions)
    loss, _, _ = q_loss_batch(Q, actions, rewards, masks, cfg,
                              targets=targets)
    return loss


def grad_check(params: qmodel.QModelParams, traj, cfg: LossConfig) -> dict:
    """Central finite differences vs the analytic semi-gradient.

    The detached backup targets are computed once at the unperturbed
    parameters and frozen for every FD evaluation, matching the
    semi-gradient the analytic path implements.  Checks every parameter
    coordinate at the step h = 1e-4; reports the max relative error over
    coordinates with max(|g|, |fd|) > 1e-6, an infinite one where g or the
    FD is not finite.  Where |g| <= 1e-6 < |fd|, fd is 2 fd(h/2) - fd(h):
    that rates a g wrong because it is zero, and cancels the first-order
    FD error at a kink of the loss's curvature (an all-zero model sits on
    its leaky ReLUs' kink).  Each error |g - fd| is first reduced by the
    FD rounding floor eps*|loss|/h (5x that for 2 fd(h/2) - fd(h)), the
    error a central difference of a loss rounded to eps*|loss| can show
    on an exact gradient.
    """
    states, actions, rewards = (a[0] for a in trajectory_arrays([traj]))
    masks = env.bin_masks(traj.alg_id, params.config.M)

    Q0, cache = qmodel.q_values_batch(params, states, actions)
    targets = compute_targets(Q0, rewards, masks, cfg)
    loss, _, dQ = q_loss_batch(Q0, actions, rewards, masks, cfg,
                               targets=targets)
    grads = qmodel.model_backward(cache, dQ)
    h = 1e-4
    floor = np.finfo(np.float64).eps * abs(loss) / h

    def frozen_loss():
        return _frozen_loss(params, states, actions, rewards, masks, cfg,
                            targets)

    def central(flat, i, step):
        orig = flat[i]
        flat[i] = orig + step
        up = frozen_loss()
        flat[i] = orig - step
        dn = frozen_loss()
        flat[i] = orig
        return (up - dn) / (2 * step)

    worst = 0.0
    worst_coord = None
    checked = 0
    for name, arr in params.tensors().items():
        g = grads[name].ravel()
        flat = arr.ravel()
        for i in range(flat.size):
            fd, tol = central(flat, i, h), floor
            if abs(g[i]) <= 1e-6 < abs(fd):
                fd = 2 * central(flat, i, h / 2) - fd
                tol = 5 * floor
            if not (np.isfinite(g[i]) and np.isfinite(fd)):
                rel = np.inf
            elif max(abs(g[i]), abs(fd)) > 1e-6:
                rel = (max(abs(g[i] - fd) - tol, 0.0)
                       / max(abs(g[i]), abs(fd)))
            else:
                continue
            checked += 1
            if rel > worst:
                worst, worst_coord = rel, (name, i)
    return {"max_rel_error": worst, "worst_coord": worst_coord,
            "checked": checked}
