"""Policies, the episode job that plays one, and the Perf rows it yields.

A policy is a ``policy(state, t) -> (K,) bins`` callback for
``env.run_episode``: uniform random, the scripted DE schedule, a held
setting, or a trained model's greedy decode.  ``episode`` builds one and
plays it; ``summarize`` and ``paired`` reduce the
``(function_id, episode, perf, policy)`` rows of such episodes.  This
module imports ``algorithms``, ``env`` and ``qmodel``, never
``datasets`` or ``cli``: both of those import it.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algorithms, env, qmodel
from .env import DEFAULT_BINS

#: std of the Gaussian jitter on each continuous setting of the scripted
#: DE schedule; no dataset records it, so it is fixed here
SCHEDULE_JITTER = 0.02


def random_policy(alg_id: int, seed, n_bins: int = DEFAULT_BINS):
    """Uniform behavior: each decision draws a bin from [0, m_i)."""
    ms = env.bin_masks(alg_id, n_bins).tolist()
    rng = np.random.default_rng(seed)

    def _policy(state, t):
        return np.array([rng.integers(m) for m in ms], dtype=np.int64)

    return _policy


def constant_setting(rng, specs, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """Draw one fixed parameter setting from classic fixed-parameter EA
    practice: F-like dims uniform in [0.3, 0.95], Cr-like in [0.7, 1.0],
    other continuous dims in [0.2, 0.8]; discrete dims a uniform choice.
    Returns the (K,) bin vector."""
    bins = np.empty(len(specs), dtype=np.int64)
    for i, spec in enumerate(specs):
        if spec.choices:
            bins[i] = int(rng.integers(len(spec.choices)))
            continue
        if spec.name.startswith("Cr"):
            lo, hi = 0.7, 1.0
        elif spec.name.startswith("F"):
            lo, hi = 0.3, 0.95
        else:
            lo, hi = 0.2, 0.8
        bins[i] = env.nearest_bin(rng.uniform(lo, hi), n_bins)
    return bins


def hold(bins: np.ndarray):
    """Policy that plays the same (K,) bin vector at every step."""
    return lambda state, t: bins.copy()


def exploitation_policy(alg_id: int, seed, T: int,
                        n_bins: int = DEFAULT_BINS):
    """The ``scripted_de_schedule`` behavior: a known-good DE heuristic on
    the bin grid.  F-like dims (and sigma) anneal from 0.9 toward 0.3
    across the episode, Cr-like dims hold at 0.9, and every continuous
    setting takes seeded Gaussian jitter of std ``SCHEDULE_JITTER``;
    discrete dims keep a fixed seeded preference.
    """
    specs = algorithms.alg_spec(alg_id)
    rng = np.random.default_rng(seed)
    # fixed per-episode preference for every discrete dim
    pref = {i: int(rng.integers(len(s.choices)))
            for i, s in enumerate(specs) if s.choices}

    def _policy(state, t):
        frac = min(t / (T - 1), 1.0) if T > 1 else 0.0
        bins = np.empty(len(specs), dtype=np.int64)
        for i, spec in enumerate(specs):
            if spec.choices:
                bins[i] = pref[i]
                continue
            if spec.name.startswith("Cr"):
                v = 0.9
            else:  # F-like dims and sigma anneal toward 0.3
                v = 0.9 - 0.6 * frac
            v += rng.normal(0.0, SCHEDULE_JITTER)
            bins[i] = env.nearest_bin(min(max(v, 0.0), 1.0), n_bins)
        return bins

    return _policy


def greedy_policy(params: qmodel.QModelParams, alg_id: int):
    """Greedy autoregressive decode per generation on the model's bins,
    hidden state and last action bin carried across the whole episode."""
    masks = env.bin_masks(alg_id, params.config.M).tolist()
    if params.config.K != len(masks):
        raise ValueError(
            f"checkpoint decodes K={params.config.K} dims but "
            f"algorithm {alg_id} has {len(masks)}")
    hiddens, prev = params.zero_hidden(), -1

    def _policy(state, t):
        nonlocal hiddens, prev
        bins, hiddens, _ = qmodel.decode_episode_actions(
            params, state, masks, hiddens, prev)
        prev = int(bins[-1])
        return bins

    return _policy


def episode(job):
    """The trajectory of one ``(alg_id, problem, make_policy, T, seed,
    n_bins, policy_id)`` job, ``make_policy()`` played on problem: the
    job builds its policy when it runs, so under ``env.pmap`` a worker
    process holds the policy's state."""
    alg_id, problem, make_policy, T, seed, n_bins, policy_id = job
    return env.run_episode(alg_id, problem, make_policy(), T, seed,
                           n_bins=n_bins, policy_id=policy_id)


def evaluate_policies(params, alg_id, test_instances, runs, T, n_bins,
                      seed, include_random=True, workers=None):
    """Paired rollouts on each test problem: trained greedy policy and
    (optionally) the random baseline, on the same episode seeds and the
    model's ``n_bins``.  Returns rows (function_id, run, perf, policy).
    The rollouts run on ``workers`` processes (None: every CPU this
    process may use); the rows do not depend on it."""
    if params.config.M != n_bins:
        raise ValueError(f"checkpoint bin count {params.config.M} != "
                         f"requested {n_bins}")
    keys, jobs = [], []
    for inst in test_instances:
        for run in range(runs):
            policies = {"model": functools.partial(
                greedy_policy, params, alg_id)}
            if include_random:
                policies["random"] = functools.partial(
                    random_policy, alg_id, [seed, inst.function_id, run, 1],
                    n_bins)
            for label, make_policy in policies.items():
                keys.append((inst.function_id, run, label))
                jobs.append((alg_id, inst, make_policy, T,
                             [seed, inst.function_id, run], n_bins, label))
    trajs = env.pmap(episode, jobs, workers)
    return [(fid, run, traj.perf, label)
            for (fid, run, label), traj in zip(keys, trajs)]


def summarize(rows) -> dict:
    """(policy, function_id or 'overall') -> (mean, sample std) of the
    Perf of (function_id, episode, perf, policy) rows; one episode's std
    is 0."""
    groups = {}
    for fid, _, perf, policy in rows:
        groups.setdefault((policy, fid), []).append(perf)
        groups.setdefault((policy, "overall"), []).append(perf)
    return {key: (float(np.mean(v)),
                  float(np.std(v, ddof=1)) if len(v) > 1 else 0.0)
            for key, v in groups.items()}


def paired(rows):
    """(mean model - random Perf, model wins, pairs) over the (function,
    run) pairs of rows that hold both policies; a tie is not a win."""
    perf = {(fid, run, policy): p for fid, run, p, policy in rows}
    diffs = [p - perf[fid, run, "random"] for (fid, run, policy), p
             in perf.items()
             if policy == "model" and (fid, run, "random") in perf]
    mean = math.fsum(diffs) / len(diffs) if diffs else math.nan
    return mean, sum(d > 0 for d in diffs), len(diffs)


@dataclass
class EvalReport:
    rows: list            # (function_id, run, perf, policy)
    runs: int
    provenance: dict = field(default_factory=dict)

    def validate(self):
        for fid, run, perf, policy in self.rows:
            if not 0.0 <= perf <= 1.0 + 1e-9:
                raise ValueError(f"Perf {perf} out of [0, 1] on function "
                                 f"{fid} run {run} ({policy})")
        counts = collections.Counter((fid, policy)
                                     for fid, _, _, policy in self.rows)
        bad = {k: v for k, v in counts.items() if v != self.runs}
        if bad:
            raise ValueError(f"run counts {bad} != configured {self.runs}")

    def mean_perf(self, policy):
        return summarize(self.rows)[(policy, "overall")][0]
