"""Command-line front end: collect | train | eval | ablate | verify.

Every command is deterministic under fixed seeds and writes
machine-parseable CSV (plus a human summary on stdout).  Exit codes:
0 success, 1 runtime failure, 2 usage error.  ``--profile desk`` (the
default) picks sizes that run a full pipeline in minutes on a laptop;
``--profile paper`` selects the full-scale settings.  Flags override an
optional ``--config`` file (JSON object or ``key = value`` lines), which
overrides the profile.  Set ``DACQ_THREADS`` before the process starts
to cap BLAS thread pools (applied when the package is imported, and
exported again by ``main`` so child processes inherit it; an
``OPENBLAS_NUM_THREADS``-style variable already set keeps its value).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import algorithms, checkpoint, datasets, env, export_threads, \
    problems, qmodel, ssm, training


class UsageError(ValueError):
    """Bad flag/config values; mapped to exit code 2."""


#: profile-scoped defaults; everything else comes from BASE_DEFAULTS
PROFILES = {
    "desk": dict(t=50, d=500, epochs=100, batch=32, d_model=32, d_state=8,
                 depth=1, runs=19, dim=5, bins=16),
    "paper": dict(t=500, d=10_000, epochs=300, batch=64, d_model=64,
                  d_state=16, depth=1, runs=19, dim=None, bins=16),
}

BASE_DEFAULTS = dict(
    seed=0, out=None, data=None, ckpt=None, resume=None, alg=0, mu=0.5,
    functions=None, test_functions=None, policy="scripted_de_schedule",
    quantile=0.5, calibration=100, jitter=0.02, lr=5e-3, wd=0.01, beta=10.0,
    lam=1.0, gamma=0.99, mdps=100, tol_decomp=1e-8, scan_seeds=20,
    instance_seed=0,
)


@dataclass
class RunConfig:
    """Merged, validated configuration for one command invocation."""

    command: str
    profile: str
    seed: int
    out: str | None
    data: str | None
    ckpt: str | None
    resume: str | None
    alg: int
    mu: float
    d: int
    t: int
    bins: int
    dim: int | None
    functions: tuple | None
    test_functions: tuple | None
    policy: str
    quantile: float
    calibration: int
    jitter: float
    epochs: int
    batch: int
    lr: float
    wd: float
    beta: float
    lam: float
    gamma: float
    d_model: int
    d_state: int
    depth: int
    runs: int
    mdps: int
    tol_decomp: float
    scan_seeds: int
    instance_seed: int
    explicit: frozenset = frozenset()  # flag names given on the command line

    def validate(self):
        def need(cond, msg):
            if not cond:
                raise UsageError(msg)
        need(self.alg in (0, 1, 2), f"--alg must be 0, 1, or 2, got {self.alg}")
        need(0.0 <= self.mu <= 1.0, f"--mu must be in [0, 1], got {self.mu}")
        need(self.d >= 1, "--d must be >= 1")
        need(self.t >= 1, "--t must be >= 1")
        need(2 <= self.bins <= env.MAX_BINS,
             f"--bins must be in [2, {env.MAX_BINS}]")
        need(self.dim is None or self.dim in problems.SUPPORTED_DIMS,
             f"--dim must be one of {problems.SUPPORTED_DIMS}")
        for name in ("functions", "test_functions"):
            ids = getattr(self, name)
            if ids is not None:
                need(len(ids) > 0 and all(f in range(1, 25) for f in ids),
                     f"--{name.replace('_', '-')} must list ids in 1..24")
        need(self.policy in datasets.EXPLOITATION_KINDS,
             f"--policy must be one of {datasets.EXPLOITATION_KINDS}")
        need(0.0 <= self.quantile <= 1.0, "--quantile must be in [0, 1]")
        need(self.calibration >= 1, "--calibration must be >= 1")
        need(self.jitter >= 0.0, "--jitter must be >= 0")
        need(self.epochs >= 1, "--epochs must be >= 1")
        need(self.batch >= 1, "--batch must be >= 1")
        need(self.lr >= 0.0 and self.wd >= 0.0, "--lr/--wd must be >= 0")
        need(self.beta >= 0.0 and self.lam >= 0.0, "--beta/--lam must be >= 0")
        need(0.0 < self.gamma <= 1.0, "--gamma must be in (0, 1]")
        need(min(self.d_model, self.d_state, self.depth) >= 1,
             "model dims must be >= 1")
        need(self.runs >= 1, "--runs must be >= 1")
        need(self.mdps >= 1 and self.scan_seeds >= 1,
             "--mdps/--scan-seeds must be >= 1")
        need(self.tol_decomp > 0.0, "--tol-decomp must be > 0")
        return self


def _parse_id_list(value):
    if value is None or isinstance(value, (tuple, list)):
        return None if value is None else tuple(int(v) for v in value)
    try:
        return tuple(int(p) for p in str(value).split(",") if p.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated ids, got {value!r}") \
            from None


def load_config_file(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON config {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise UsageError(f"config {path} must hold an object")
        return {str(k).replace("-", "_"): v for k, v in obj.items()}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = load_config_file(args.config) if args.config else {}
    profile = args.profile or file_cfg.get("profile") or "desk"
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r} "
                         f"(choose from {tuple(PROFILES)})")
    merged = dict(BASE_DEFAULTS)
    merged.update(PROFILES[profile])
    known = {f.name for f in fields(RunConfig)} - {"command", "profile"}
    for key, value in file_cfg.items():
        if key == "profile":
            continue
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        merged[key] = value
    explicit = set()
    for key, value in vars(args).items():
        if key in ("command", "config", "profile") or value is None:
            continue
        merged[key] = value
        explicit.add(key)
    merged["functions"] = _parse_id_list(merged.get("functions"))
    merged["test_functions"] = _parse_id_list(merged.get("test_functions"))
    return RunConfig(command=args.command, profile=profile,
                     explicit=frozenset(explicit), **merged).validate()


def build_split(cfg: RunConfig) -> problems.ProblemSplit:
    base = problems.default_split()
    train = cfg.functions if cfg.functions is not None else base.train_ids
    test = (cfg.test_functions if cfg.test_functions is not None
            else base.test_ids)
    if cfg.dim is not None:
        dims = {fid: cfg.dim for fid in set(train) | set(test)}
    else:
        dims = dict(base.dims)
        missing = [f for f in set(train) | set(test) if f not in dims]
        if missing:
            raise UsageError(f"no default dim for functions {missing}; "
                             f"pass --dim")
    return problems.ProblemSplit(tuple(train), tuple(test), dims)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, float):
        return repr(value)  # shortest decimal that round-trips
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


def _outdir(cfg) -> Path:
    if cfg.out is None:
        raise UsageError(f"{cfg.command} requires --out")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# greedy rollout of a trained model
# ---------------------------------------------------------------------------

class GreedyModelPolicy:
    """Episode policy: greedy autoregressive decode per generation, hidden
    state and last action token carried across the whole episode."""

    def __init__(self, params: qmodel.QModelParams, alg_id: int,
                 n_bins: int):
        self.specs = algorithms.alg_spec(alg_id)
        if params.config.K != len(self.specs):
            raise ValueError(
                f"checkpoint decodes K={params.config.K} dims but "
                f"algorithm {alg_id} has {len(self.specs)}")
        if params.config.M != n_bins:
            raise ValueError(f"checkpoint bin count {params.config.M} != "
                             f"requested {n_bins}")
        self.params = params
        self.hiddens = params.zero_hidden()
        self.prev = None

    def __call__(self, state, t):
        bins, self.hiddens, _ = qmodel.decode_episode_actions(
            self.params, state, self.specs, self.hiddens,
            prev_token=self.prev)
        self.prev = qmodel.tokenize(int(bins[-1]),
                                    self.params.config.token_width)
        return bins


def evaluate_policies(params, alg_id, test_instances, runs, T, n_bins,
                      seed, include_random=True):
    """Paired rollouts on each test problem: trained greedy policy and
    (optionally) the random baseline on the same episode seeds.
    Returns rows (function_id, run, perf, policy_label)."""
    rows = []
    for inst in test_instances:
        for run in range(runs):
            ep_seed = [seed, inst.function_id, run]
            if params is not None:
                pol = GreedyModelPolicy(params, alg_id, n_bins)
                traj = env.run_episode(alg_id, inst, pol, T, ep_seed,
                                       n_bins=n_bins, policy_id="model")
                rows.append((inst.function_id, run, traj.perf, "model"))
            if include_random:
                rnd = datasets.random_policy(
                    alg_id, [seed, inst.function_id, run, 1], n_bins)
                traj = env.run_episode(alg_id, inst, rnd, T, ep_seed,
                                       n_bins=n_bins, policy_id="random")
                rows.append((inst.function_id, run, traj.perf, "random"))
    return rows


@dataclass
class EvalReport:
    rows: list            # (function_id, run, perf, policy)
    runs: int
    provenance: dict
    elapsed: float = 0.0

    def validate(self):
        for fid, run, perf, policy in self.rows:
            if not 0.0 <= perf <= 1.0 + 1e-9:
                raise ValueError(f"Perf {perf} out of [0, 1] on function "
                                 f"{fid} run {run} ({policy})")
        counts = {}
        for fid, _, _, policy in self.rows:
            counts[(fid, policy)] = counts.get((fid, policy), 0) + 1
        bad = {k: v for k, v in counts.items() if v != self.runs}
        if bad:
            raise ValueError(f"run counts {bad} != configured {self.runs}")

    def summary(self):
        """(policy, problem-or-'overall') -> (mean, std); sample std."""
        groups = {}
        for fid, _, perf, policy in self.rows:
            groups.setdefault((policy, fid), []).append(perf)
            groups.setdefault((policy, "overall"), []).append(perf)
        return {key: (float(np.mean(v)),
                      float(np.std(v, ddof=1)) if len(v) > 1 else 0.0)
                for key, v in groups.items()}

    def mean_perf(self, policy):
        vals = [p for _, _, p, pol in self.rows if pol == policy]
        return float(np.mean(vals))


def _print_summary(report: EvalReport):
    summary = report.summary()
    fids = sorted({fid for _, fid in summary if fid != "overall"})
    policies = sorted({pol for pol, _ in summary})
    print(f"{'problem':>8}  {'policy':>8}  {'mean_perf':>12}  {'std':>12}")
    for fid in fids + ["overall"]:
        for pol in policies:
            if (pol, fid) in summary:
                mean, std = summary[(pol, fid)]
                print(f"{fid!s:>8}  {pol:>8}  {mean:>12.6f}  {std:>12.6f}")
    print(f"elapsed: {report.elapsed:.1f}s")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def exploitation_note(policy_counts) -> str | None:
    """One-line provenance flag for datasets whose exploitation half comes
    from the built-in substitute policies."""
    kinds = sorted(k for k in policy_counts
                   if k in datasets.EXPLOITATION_KINDS)
    if not kinds:
        return None
    return ("note: exploitation episodes use substitute behavior policies "
            f"({', '.join(kinds)}), not rollouts of pretrained "
            "meta-optimizers")


def cmd_collect(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    split = build_split(cfg)
    _, manifest = datasets.collect(
        cfg.alg, split, (cfg.policy, "random"), cfg.mu, cfg.d, cfg.t,
        cfg.seed, out_dir=out, n_bins=cfg.bins,
        instance_seed=cfg.instance_seed, jitter=cfg.jitter,
        quantile=cfg.quantile, calibration_episodes=cfg.calibration)
    print(f"dataset: {out}")
    print(f"trajectories: {manifest.D} ({manifest.n_exploitation} "
          f"exploitation / {manifest.n_exploration} exploration)")
    print("policies: " + " ".join(
        f"{k}={v}" for k, v in sorted(manifest.policy_counts.items())))
    note = exploitation_note(manifest.policy_counts)
    if note:
        print(note)
    print(f"alg {manifest.alg_id}  K {manifest.K}  M {manifest.M}  "
          f"T {manifest.T}")
    print(f"checksum: {manifest.checksum}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    if cfg.data is None:
        raise UsageError("train requires --data")
    out = _outdir(cfg)
    trajs, manifest = datasets.load_dataset(cfg.data)
    note = exploitation_note(manifest.policy_counts)
    if note:
        print(note)

    start_epoch, opt = 0, None
    if cfg.resume:
        params, opt, extra = checkpoint.load_checkpoint(cfg.resume)
        start_epoch = int(extra.get("epoch", 0))
        print(f"resuming from {cfg.resume} at epoch {start_epoch} "
              f"(model config from checkpoint)")
    else:
        config = qmodel.ModelConfig(K=manifest.K, M=manifest.M,
                                    d_model=cfg.d_model,
                                    d_state=cfg.d_state, depth=cfg.depth)
        params = qmodel.init_qmodel(config, seed=[cfg.seed, 0])
        opt = training.AdamWState.for_params(params)

    loss_cfg = training.LossConfig(
        K=params.config.K, M=params.config.M, beta=cfg.beta, lam=cfg.lam,
        gamma=cfg.gamma, batch_size=cfg.batch, epochs=cfg.epochs,
        learning_rate=cfg.lr, weight_decay=cfg.wd)
    t0 = time.perf_counter()
    params, history = training.train(trajs, params, loss_cfg,
                                     seed=[cfg.seed, 1, start_epoch],
                                     opt=opt)
    elapsed = time.perf_counter() - t0

    end_epoch = start_epoch + cfg.epochs
    ckpt_path = out / "model.ckpt"
    checkpoint.save_checkpoint(
        ckpt_path, params, opt=opt,
        extra={"epoch": end_epoch, "alg_id": manifest.alg_id,
               "dataset_checksum": manifest.checksum, "seed": cfg.seed})
    loss_rows = [(start_epoch + 1 + i, h["loss"], h["bellman_intra"],
                  h["bellman_td"], h["conservative"])
                 for i, h in enumerate(history)]
    write_csv(out / "loss.csv",
              ("epoch", "loss", "bellman_intra", "bellman_td",
               "conservative"), loss_rows)
    print(f"trained epochs {start_epoch + 1}..{end_epoch} on "
          f"{manifest.D} trajectories in {elapsed:.1f}s")
    print(f"final loss: {history[-1]['loss']:.6g}")
    print(f"checkpoint: {ckpt_path}")
    print(f"loss curve: {out / 'loss.csv'}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    if cfg.ckpt is None:
        raise UsageError("eval requires --ckpt")
    out = _outdir(cfg)
    params, _, extra = checkpoint.load_checkpoint(cfg.ckpt)
    # checkpoint metadata names the algorithm it was trained on; an
    # explicit --alg flag overrides it (mismatches surface in decoding)
    if "alg" in cfg.explicit:
        alg_id = cfg.alg
    else:
        alg_id = int(extra.get("alg_id", cfg.alg))
    split = build_split(cfg)
    instances = [problems.make_instance(fid, split.dims[fid],
                                        seed=cfg.instance_seed)
                 for fid in split.test_ids]
    if not instances:
        raise UsageError("no test functions to evaluate on")

    t0 = time.perf_counter()
    rows = evaluate_policies(params, alg_id, instances, cfg.runs, cfg.t,
                             params.config.M, cfg.seed)
    report = EvalReport(rows=rows, runs=cfg.runs,
                        provenance={"checkpoint": str(cfg.ckpt),
                                    "dataset_checksum":
                                        extra.get("dataset_checksum")},
                        elapsed=time.perf_counter() - t0)
    report.validate()
    write_csv(out / "eval.csv", ("problem", "run", "perf", "policy"),
              report.rows)
    _print_summary(report)
    print(f"report: {out / 'eval.csv'}")
    return 0


def _train_eval_once(trajs, manifest, cfg, split, lam, beta, seed_tag):
    """Fresh model, train on trajs, return (mean, std) of greedy Perf
    over the split's test problems x cfg.runs."""
    config = qmodel.ModelConfig(K=manifest.K, M=manifest.M,
                                d_model=cfg.d_model, d_state=cfg.d_state,
                                depth=cfg.depth)
    params = qmodel.init_qmodel(config, seed=[cfg.seed, 2])
    loss_cfg = training.LossConfig(
        K=manifest.K, M=manifest.M, beta=beta, lam=lam, gamma=cfg.gamma,
        batch_size=cfg.batch, epochs=cfg.epochs, learning_rate=cfg.lr,
        weight_decay=cfg.wd)
    params, _ = training.train(trajs, params, loss_cfg,
                               seed=[cfg.seed, 3, seed_tag])
    instances = [problems.make_instance(fid, split.dims[fid],
                                        seed=cfg.instance_seed)
                 for fid in split.test_ids]
    rows = evaluate_policies(params, manifest.alg_id, instances, cfg.runs,
                             cfg.t, manifest.M, [cfg.seed, 4],
                             include_random=False)
    perfs = [r[2] for r in rows]
    return (float(np.mean(perfs)),
            float(np.std(perfs, ddof=1)) if len(perfs) > 1 else 0.0)


def _remix(trajs, mu):
    """Deterministic re-mix of a labeled dataset to exploitation share mu,
    using as many stored trajectories as the labels allow."""
    exploit = [t for t in trajs if t.policy_id != "random"]
    explore = [t for t in trajs if t.policy_id == "random"]
    if mu == 0.0:
        subset, n_ex = explore, 0
    elif mu == 1.0:
        subset, n_ex = exploit, len(exploit)
    else:
        if not exploit or not explore:
            raise ValueError("dataset lacks the policy mix needed for the "
                             "mu sweep (need both labels)")
        usable = min(int(len(exploit) / mu), int(len(explore) / (1.0 - mu)))
        n_ex = int(round(mu * usable))
        subset = exploit[:n_ex] + explore[:usable - n_ex]
    if not subset:
        raise ValueError(f"no trajectories available at mu={mu}")
    return subset, n_ex


def cmd_ablate(cfg: RunConfig) -> int:
    if cfg.data is None:
        raise UsageError("ablate requires --data")
    out = _outdir(cfg)
    trajs, manifest = datasets.load_dataset(cfg.data)
    note = exploitation_note(manifest.policy_counts)
    if note:
        print(note)
    split = build_split(cfg)
    t0 = time.perf_counter()

    # conservative-weight / backup-weight grid
    grid_rows = []
    for i, lam in enumerate((0.0, 1.0, 10.0)):
        for j, beta in enumerate((1.0, 10.0)):
            mean, std = _train_eval_once(trajs, manifest, cfg, split,
                                         lam, beta, seed_tag=10 + 2 * i + j)
            grid_rows.append((lam, beta, mean, std))
            print(f"lambda={lam:g} beta={beta:g}: "
                  f"perf {mean:.6f} +/- {std:.6f}")
    write_csv(out / "ablate_lambda_beta.csv",
              ("lam", "beta", "mean_perf", "std_perf"), grid_rows)

    # exploitation-share sweep, re-mixed from the stored labels
    mu_rows = []
    for r, mu in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        subset, n_ex = _remix(trajs, mu)
        man_r = datasets.DatasetManifest(
            **{**manifest.__dict__, "D": len(subset), "mu": mu,
               "n_exploitation": n_ex,
               "n_exploration": len(subset) - n_ex})
        mean, std = _train_eval_once(subset, man_r, cfg, split,
                                     cfg.lam, cfg.beta, seed_tag=20 + r)
        mu_rows.append((mu, len(subset), mean, std))
        print(f"mu={mu:g} (D={len(subset)}): perf {mean:.6f} +/- {std:.6f}")
    write_csv(out / "ablate_mu.csv",
              ("mu", "d_used", "mean_perf", "std_perf"), mu_rows)

    # action-bin resolution sweep: recollect at each M so the grids match
    bin_rows = []
    dim = trajs[0].dim
    csplit = problems.ProblemSplit(tuple(manifest.train_ids), split.test_ids,
                                   {fid: dim for fid in
                                    set(manifest.train_ids)
                                    | set(split.test_ids)})
    for b, M in enumerate((16, 32)):
        sub_trajs, sub_man = datasets.collect(
            manifest.alg_id, csplit, (cfg.policy, "random"), manifest.mu,
            manifest.D, manifest.T, cfg.seed + 1000 + M, n_bins=M,
            instance_seed=cfg.instance_seed, jitter=cfg.jitter,
            quantile=cfg.quantile, calibration_episodes=cfg.calibration)
        mean, std = _train_eval_once(sub_trajs, sub_man, cfg, csplit,
                                     cfg.lam, cfg.beta, seed_tag=30 + b)
        bin_rows.append((M, mean, std))
        print(f"bins M={M}: perf {mean:.6f} +/- {std:.6f}")
    write_csv(out / "ablate_bins.csv", ("bins", "mean_perf", "std_perf"),
              bin_rows)

    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    print(f"reports: {out / 'ablate_lambda_beta.csv'}, "
          f"{out / 'ablate_mu.csv'}, {out / 'ablate_bins.csv'}")
    return 0


def run_verification(cfg: RunConfig):
    """Execute the verification suite; returns a list of
    (check, passed, metric_string)."""
    checks = []

    worst_gap, agree = 0.0, True
    for i in range(cfg.mdps):
        rng = np.random.default_rng([cfg.seed, 5, i])
        mdp = training.random_tabular_mdp(
            rng, n_states=int(rng.integers(2, 5)),
            K=int(rng.integers(1, 4)), M=int(rng.integers(2, 4)), gamma=0.9)
        rep = training.verify_decomposition(mdp, tol=cfg.tol_decomp)
        worst_gap = max(worst_gap, rep["max_value_gap"])
        agree = agree and rep["passed"]
    checks.append(("decomposition", agree and worst_gap <= cfg.tol_decomp,
                   f"max value gap {worst_gap:.3e} over {cfg.mdps} MDPs"))

    prob = problems.make_instance(1, 5, seed=0)
    traj = env.run_episode(0, prob, datasets.random_policy(0, [cfg.seed, 7]),
                           T=4, seed=[cfg.seed, 7])
    params = qmodel.init_qmodel(
        qmodel.ModelConfig(K=3, M=16, d_model=8, d_state=4),
        seed=[cfg.seed, 8])
    rep = training.grad_check(params, traj,
                              training.LossConfig(K=3, M=16))
    checks.append(("grad_check", rep["max_rel_error"] <= 1e-4,
                   f"max rel err {rep['max_rel_error']:.3e} on "
                   f"{rep['checked']} coords"))

    worst = 0.0
    for s in range(cfg.scan_seeds):
        rng = np.random.default_rng([cfg.seed, 6, s])
        ten = ssm.init_ssm_params(rng, d_model=8, d_state=4)
        for L in (1, 7, 64, 2048):
            xs = rng.standard_normal((L, 8))
            ys_seq, _, _ = ssm.ssm_forward_sequential(ten, None, xs)
            ys_par, _ = ssm.ssm_forward_scan(ten, None, xs)
            worst = max(worst, float(np.max(np.abs(ys_seq - ys_par))))
    checks.append(("scan_equivalence", worst <= 1e-6,
                   f"max |scan - sequential| {worst:.3e}"))

    split = problems.default_split()
    ok, worst_tel = True, 0.0
    for i in range(20):
        fid = split.train_ids[i % len(split.train_ids)]
        inst = problems.make_instance(fid, 5, seed=0)
        tr = env.run_episode(0, inst,
                             datasets.random_policy(0, [cfg.seed, 9, i]),
                             T=10, seed=[cfg.seed, 9, i])
        rs = [s.reward for s in tr.steps]
        total = sum(rs)
        denom = tr.f_best_init - tr.f_star
        expect = ((tr.f_best_init - tr.final_best_f) / denom
                  if denom > 0 else 0.0)
        worst_tel = max(worst_tel, abs(total - expect))
        ok = ok and min(rs) >= 0.0 and total <= 1.0 + 1e-9 \
            and abs(total - expect) <= 1e-12
    checks.append(("reward_telescoping", ok,
                   f"max |sum r - relative improvement| {worst_tel:.3e} "
                   f"over 20 episodes"))

    if cfg.data is not None:
        try:
            trajs, manifest = datasets.load_dataset(cfg.data)
            checks.append(("dataset_revalidation", True,
                           f"{len(trajs)} trajectories, checksum ok"))
        except (ValueError, OSError) as exc:
            checks.append(("dataset_revalidation", False, str(exc)))
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    checks = run_verification(cfg)
    for name, passed, metric in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {metric}")
    if cfg.out is not None:
        out = _outdir(cfg)
        write_csv(out / "verify.csv", ("check", "status", "metric"),
                  [(n, "PASS" if p else "FAIL", m) for n, p, m in checks])
        print(f"report: {out / 'verify.csv'}")
    n_fail = sum(1 for _, passed, _ in checks if not passed)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return 0 if n_fail == 0 else 1


COMMANDS = {"collect": cmd_collect, "train": cmd_train, "eval": cmd_eval,
            "ablate": cmd_ablate, "verify": cmd_verify}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--profile", choices=tuple(PROFILES), default=None)
    sp.add_argument("--config", type=str, default=None,
                    help="JSON or key=value config file; flags override it")


_QUANTILE_HELP = ("return quantile of the calibration episodes that "
                  "filtered_random and scripted_constant must beat")
_CALIBRATION_HELP = ("number of calibration episodes for filtered_random "
                     "and scripted_constant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacq",
        description="Offline Q-learning control of evolutionary optimizers: "
                    "dataset collection, training, evaluation, ablations, "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("collect", help="collect a mu-mixed dataset")
    _add_common(sp)
    sp.add_argument("--alg", type=int, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--bins", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--functions", type=str, default=None,
                    help="comma-separated training function ids")
    sp.add_argument("--policy", type=str, default=None,
                    help="exploitation policy kind")
    sp.add_argument("--quantile", type=float, default=None,
                    help=_QUANTILE_HELP)
    sp.add_argument("--calibration", type=int, default=None,
                    help=_CALIBRATION_HELP)
    sp.add_argument("--jitter", type=float, default=None)
    sp.add_argument("--instance-seed", dest="instance_seed", type=int,
                    default=None)

    sp = sub.add_parser("train", help="train the decomposed Q-model")
    _add_common(sp)
    sp.add_argument("--data", type=str, default=None)
    sp.add_argument("--resume", type=str, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--batch", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--wd", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--d-model", dest="d_model", type=int, default=None)
    sp.add_argument("--d-state", dest="d_state", type=int, default=None)
    sp.add_argument("--depth", type=int, default=None)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on the test "
                                     "functions against the random baseline")
    _add_common(sp)
    sp.add_argument("--ckpt", type=str, default=None)
    sp.add_argument("--alg", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--runs", type=int, default=None)
    sp.add_argument("--test-functions", dest="test_functions", type=str,
                    default=None)
    sp.add_argument("--instance-seed", dest="instance_seed", type=int,
                    default=None)

    sp = sub.add_parser("ablate", help="lambda/beta grid, mu sweep, and "
                                       "bin-count sweep")
    _add_common(sp)
    sp.add_argument("--data", type=str, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--batch", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--d-model", dest="d_model", type=int, default=None)
    sp.add_argument("--d-state", dest="d_state", type=int, default=None)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--runs", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--test-functions", dest="test_functions", type=str,
                    default=None)
    sp.add_argument("--policy", type=str, default=None)
    sp.add_argument("--quantile", type=float, default=None,
                    help=_QUANTILE_HELP)
    sp.add_argument("--calibration", type=int, default=None,
                    help=_CALIBRATION_HELP)
    sp.add_argument("--jitter", type=float, default=None)
    sp.add_argument("--instance-seed", dest="instance_seed", type=int,
                    default=None)

    sp = sub.add_parser("verify", help="run the numerical verification "
                                       "suite (exit 1 on any failure)")
    _add_common(sp)
    sp.add_argument("--data", type=str, default=None,
                    help="optionally revalidate a dataset directory")
    sp.add_argument("--mdps", type=int, default=None)
    sp.add_argument("--tol-decomp", dest="tol_decomp", type=float,
                    default=None)
    sp.add_argument("--scan-seeds", dest="scan_seeds", type=int,
                    default=None)
    return parser


def main(argv=None) -> int:
    export_threads()
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
