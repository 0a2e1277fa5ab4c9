"""Command-line front end: collect | train | eval | ablate | verify.

Every command is deterministic under fixed seeds and writes
machine-parseable CSV (plus a human summary on stdout).  Exit codes:
0 success, 1 runtime failure, 2 usage error.  ``--profile desk`` (the
default) picks sizes that run a full pipeline in minutes on a laptop;
``--profile paper`` selects the full-scale settings.  Flags override an
optional ``--config`` file (JSON object or ``key = value`` lines), which
overrides the profile.  Each setting is one row of ``FLAGS`` holding
its argparse keywords, its default (by profile where desk and paper
differ) and its rule; each command lists its flags in ``COMMANDS``.  A
config-file key must be one of its command's flags, and its value goes
through the flag's type as the flag's text would; another key, or a
value that does not convert or breaks its row's rule, is a usage error.
Set ``DACQ_THREADS`` before the process starts to cap BLAS thread pools
(applied when the package is imported, and exported again by ``main``
so child processes inherit it; an ``OPENBLAS_NUM_THREADS``-style
variable already set keeps its value).
``--workers N`` runs the independent episodes of collect, eval and
ablate, and the trajectories of each training minibatch of train and
ablate, on N worker processes (default: the CPUs this process may use),
forked once per command and kept until it exits; no output file
depends on it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
import time
from pathlib import Path

import numpy as np

from . import algorithms, checkpoint, datasets, env, export_threads, \
    problems, qmodel, rollouts, ssm, training
from .rollouts import EvalReport, evaluate_policies


class UsageError(ValueError):
    """Bad flag/config values; mapped to exit code 2."""


def _ids(text) -> tuple:
    """argparse type of a function-id list: distinct ids in 1..24."""
    try:
        ids = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        ids = ()
    if not ids or len(set(ids)) < len(ids) \
            or not all(f in range(1, 25) for f in ids):
        raise argparse.ArgumentTypeError(
            f"expected distinct comma-separated ids in 1..24, got {text!r}")
    return ids


PROFILES = ("desk", "paper")

#: the ``decomposition`` check's bound on the value gap between joint and
#: decomposed value iteration
DECOMPOSITION_TOL = 1e-8

#: objective features s4-s6 are divided by ``f_best_init - f_star`` but
#: not bounded; a function whose s4-s6 exceed this on any step is named
#: in a ``collect`` warning, as such scales have blown up training losses
OBJECTIVE_FEATURE_LIMIT = 100.0

#: one row per setting: ``--name`` (``_`` spelled ``-``) sets ``cfg.name``.
#: ``type``, ``help`` and ``choices`` go to argparse.  ``default`` is a
#: value or a dict by profile (None: unset).  The rule: ``choices``, the
#: inclusive bounds ``lo``/``hi`` and ``value > gt``.  ``config`` names
#: the file that ``resolve_config`` merges beneath the flags.
FLAGS = {
    "seed": dict(type=int, default=0, lo=0),
    "out": dict(type=str),
    "profile": dict(type=str, choices=PROFILES, default="desk"),
    "config": dict(type=str,
                   help="JSON or key=value config file; flags override it"),
    "data": dict(type=str, help="dataset directory (verify: optional, "
                                "revalidated when given)"),
    "ckpt": dict(type=str),
    "resume": dict(type=str),
    "alg": dict(type=int, choices=algorithms.ALGORITHM_IDS, default=0),
    "mu": dict(type=float, default=0.5, lo=0, hi=1),
    "d": dict(type=int, default=dict(desk=500, paper=10_000), lo=1),
    "t": dict(type=int, default=dict(desk=50, paper=500), lo=1),
    "bins": dict(type=int, default=16, lo=2, hi=env.MAX_BINS),
    "dim": dict(type=int, choices=problems.SUPPORTED_DIMS,
                default=dict(desk=5, paper=None)),
    "functions": dict(type=_ids, help="comma-separated training function ids"),
    "test_functions": dict(type=_ids),
    "policy": dict(type=str, choices=datasets.EXPLOITATION_KINDS,
                   default="scripted_de_schedule",
                   help="exploitation policy kind"),
    "epochs": dict(type=int, default=dict(desk=100, paper=300), lo=1),
    "batch": dict(type=int, default=dict(desk=32, paper=64), lo=1),
    "lr": dict(type=float, default=5e-3, lo=0),
    "wd": dict(type=float, default=0.01, lo=0),
    "beta": dict(type=float, default=10.0, lo=0),
    "lam": dict(type=float, default=1.0, lo=0),
    "gamma": dict(type=float, default=0.99, gt=0, hi=1),
    "d_model": dict(type=int, default=dict(desk=32, paper=64), lo=1),
    "d_state": dict(type=int, default=dict(desk=8, paper=16), lo=1),
    "depth": dict(type=int, default=1, lo=1),
    "runs": dict(type=int, default=19, lo=1),
    "mdps": dict(type=int, default=100, lo=1),
    "scan_seeds": dict(type=int, default=20, lo=1),
    "instance_seed": dict(type=int, default=0, lo=0),
    "workers": dict(type=int, lo=1,
                    help="worker processes for episodes and training "
                         "minibatches (default: the CPUs this process may "
                         "use); outputs do not depend on it"),
}

#: the row keys that ``build_parser`` hands to ``add_argument``
_ARGPARSE_KEYS = ("type", "help", "choices")

#: a row's rule keys: (key, test of a value against its bound, wording)
_RULES = (("choices", lambda value, choices: value in choices, "one of"),
          ("lo", operator.ge, ">="), ("gt", operator.gt, ">"),
          ("hi", operator.le, "<="))


def defaults(profile) -> dict:
    """Every setting's default under ``profile``."""
    out = {}
    for name, row in FLAGS.items():
        value = row.get("default")
        out[name] = value[profile] if isinstance(value, dict) else value
    return out


def check_value(name, value):
    """Raise UsageError unless ``value`` meets the rule of row ``name``;
    None (unset) meets every rule."""
    for key, ok, wording in _RULES:
        bound = FLAGS[name].get(key)
        if value is not None and bound is not None and not ok(value, bound):
            raise UsageError(f"--{name.replace('_', '-')} must be "
                             f"{wording} {bound}, got {value!r}")


def _file_value(key, value):
    """A config-file value converted by its flag's type, as argparse
    converts the flag's text (a JSON list joined with commas)."""
    if value is None:
        raise UsageError(f"config key {key!r}: null is not a value")
    text = (",".join(map(str, value)) if isinstance(value, list)
            else str(value))
    convert = FLAGS[key].get("type", str)
    try:
        return convert(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None
    except ValueError:
        raise UsageError(f"config key {key!r}: invalid {convert.__name__} "
                         f"value: {text!r}") from None


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


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The profile's defaults, then the config file, then the flags given
    on the command line, each value checked against its row."""
    given = {k: v for k, v in vars(args).items()
             if k != "command" and v is not None}
    merged = {}
    if given.get("config"):
        known = set(_SHARED + COMMANDS[args.command][2]) - {"config"}
        for key, value in load_config_file(given["config"]).items():
            if key not in known:
                raise UsageError(f"unknown config key {key!r} for "
                                 f"{args.command}")
            merged[key] = _file_value(key, value)
    merged.update(given)
    profile = merged.setdefault("profile", FLAGS["profile"]["default"])
    check_value("profile", profile)
    merged = {**defaults(profile), **merged}
    for name, value in merged.items():
        check_value(name, value)
    return argparse.Namespace(command=args.command, **merged)


def build_split(cfg) -> problems.ProblemSplit:
    """The command's train/test ids; every id 1..24 has a dim, ``--dim``
    or else its default."""
    base = problems.default_split()
    train = cfg.functions if cfg.functions is not None else base.train_ids
    test = (cfg.test_functions if cfg.test_functions is not None
            else base.test_ids)
    dims = base.dims if cfg.dim is None else dict.fromkeys(base.dims, cfg.dim)
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


def _print_summary(summary):
    """Print a ``rollouts.summarize`` as a table, one row per key."""
    fids = sorted({fid for _, fid in summary if fid != "overall"})
    policies = sorted({pol for pol, _ in summary})
    print(f"{'problem':>8}  {'policy':>8}  {'mean_perf':>12}  {'std':>12}")
    for fid in fids + ["overall"]:
        for pol in policies:
            if (pol, fid) in summary:
                mean, std = summary[(pol, fid)]
                print(f"{fid!s:>8}  {pol:>8}  {mean:>12.6f}  {std:>12.6f}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _print_exploitation_note(policy_counts):
    """One-line provenance flag for datasets whose exploitation half comes
    from the built-in substitute policies."""
    kinds = sorted(set(policy_counts) & set(datasets.EXPLOITATION_KINDS))
    if kinds:
        print("note: exploitation episodes use substitute behavior policies "
              f"({', '.join(kinds)}), not rollouts of pretrained "
              "meta-optimizers")


def _log_rollouts(command, rows, elapsed, workers, per_function=False):
    """Throughput, workers used and mean Perf per policy (and per function)
    of (function_id, episode, perf, policy) rows, on stderr: no artifact
    holds them, so the artifacts stay byte-stable.  Returns the rows'
    ``rollouts.summarize``."""
    summary = rollouts.summarize(rows)
    policies = sorted({pol for pol, _ in summary})

    def log(label, fid):
        print(f"{label}: " + "  ".join(
            f"{pol} {summary[(pol, fid)][0]:.6f}" for pol in policies
            if (pol, fid) in summary), file=sys.stderr)

    print(f"{command}: {len(rows)} episodes in {elapsed:.2f}s "
          f"({len(rows) / max(elapsed, 1e-9):.1f} episodes/s), "
          f"workers {env.resolve_workers(workers)}", file=sys.stderr)
    log("mean perf", "overall")
    if per_function:
        for fid in sorted({r[0] for r in rows}):
            log(f"mean perf f{fid}", fid)
    return summary


def _log_state_ranges(trajs):
    """Each state feature's maximum over the dataset, and a warning naming
    every function whose s4-s6 exceed ``OBJECTIVE_FEATURE_LIMIT``, on
    stderr: the dataset's bytes stay as they are."""
    states = np.array([s.state for t in trajs for s in t.steps])
    fids = np.array([t.function_id for t in trajs for _ in t.steps])
    print("state max: " + "  ".join(
        f"s{i + 1} {v:.6g}" for i, v in enumerate(states.max(axis=0))),
        file=sys.stderr)
    tops = {fid: states[fids == fid, 3:6].max() for fid in np.unique(fids)}
    over = [f"f{fid} ({v:.6g})" for fid, v in tops.items()
            if v > OBJECTIVE_FEATURE_LIMIT]
    if over:
        print(f"warning: state features s4-s6 exceed "
              f"{OBJECTIVE_FEATURE_LIMIT:g} on {', '.join(over)}; they are "
              f"not bounded, and training on such scales can diverge",
              file=sys.stderr)


def cmd_collect(cfg) -> int:
    out = _outdir(cfg)
    split = build_split(cfg)
    t0 = time.perf_counter()
    trajs, manifest = datasets.collect(
        cfg.alg, split, (cfg.policy, "random"), cfg.mu, cfg.d, cfg.t,
        cfg.seed, out_dir=out, n_bins=cfg.bins,
        instance_seed=cfg.instance_seed, workers=cfg.workers)
    rows = [(t.function_id, e, t.perf, t.policy_id)
            for e, t in enumerate(trajs)]
    summary = _log_rollouts("collect", rows, time.perf_counter() - t0,
                            cfg.workers, per_function=True)
    _log_state_ranges(trajs)
    ex, ra = (summary.get((pol, "overall"), (math.nan,))[0]
              for pol in (cfg.policy, "random"))
    if ex <= ra:   # False when either policy has no episode (NaN)
        print(f"warning: exploitation episodes ({cfg.policy}) do not beat "
              f"random ones on mean Perf ({ex:.6f} <= {ra:.6f})",
              file=sys.stderr)
    print(f"dataset: {out}")
    print(f"trajectories: {manifest.D} ({manifest.n_exploitation} "
          f"exploitation / {manifest.n_exploration} exploration)")
    print("policies: " + " ".join(
        f"{k}={v}" for k, v in sorted(manifest.policy_counts.items())))
    _print_exploitation_note(manifest.policy_counts)
    print(f"alg {manifest.alg_id}  K {manifest.K}  M {manifest.M}  "
          f"T {manifest.T}")
    print(f"checksum: {manifest.checksum}")
    return 0


def _model_config(cfg, manifest) -> qmodel.ModelConfig:
    """A fresh model's shape: K and M from the dataset, widths from cfg."""
    return qmodel.ModelConfig(K=manifest.K, M=manifest.M,
                              d_model=cfg.d_model, d_state=cfg.d_state,
                              depth=cfg.depth)


def _loss_config(cfg, config: qmodel.ModelConfig, lam,
                 beta) -> training.LossConfig:
    return training.LossConfig(
        K=config.K, M=config.M, beta=beta, lam=lam, gamma=cfg.gamma,
        batch_size=cfg.batch, epochs=cfg.epochs, learning_rate=cfg.lr,
        weight_decay=cfg.wd)


def _test_instances(cfg, split: problems.ProblemSplit) -> list:
    return [problems.make_instance(fid, split.dims[fid],
                                   seed=cfg.instance_seed)
            for fid in split.test_ids]


def cmd_train(cfg) -> int:
    if cfg.data is None:
        raise UsageError("train requires --data")
    out = _outdir(cfg)
    trajs, manifest = datasets.load_dataset(cfg.data)
    _print_exploitation_note(manifest.policy_counts)

    start_epoch = 0
    if cfg.resume:
        params, opt, extra = checkpoint.load_checkpoint(cfg.resume)
        start_epoch = int(extra.get("epoch", 0))
        print(f"resuming from {cfg.resume} at epoch {start_epoch} "
              f"(model config from checkpoint)")
    else:
        params = qmodel.init_qmodel(_model_config(cfg, manifest),
                                    seed=[cfg.seed, 0])
        opt = training.AdamWState.for_params(params)

    loss_cfg = _loss_config(cfg, params.config, cfg.lam, cfg.beta)
    t0 = time.perf_counter()
    params, history = training.train(trajs, params, loss_cfg,
                                     seed=[cfg.seed, 1, start_epoch],
                                     opt=opt, workers=cfg.workers)
    elapsed = time.perf_counter() - t0

    end_epoch = start_epoch + cfg.epochs
    ckpt_path = out / "model.ckpt"
    checkpoint.save_checkpoint(
        ckpt_path, params, opt=opt,
        extra={"epoch": end_epoch, "alg_id": manifest.alg_id,
               "dataset_checksum": manifest.checksum, "seed": cfg.seed})
    write_csv(out / "loss.csv", ("epoch", *history[0]),
              [(start_epoch + 1 + i, *h.values())
               for i, h in enumerate(history)])
    print(f"trained epochs {start_epoch + 1}..{end_epoch} on "
          f"{manifest.D} trajectories in {elapsed:.1f}s")
    print(f"final loss: {history[-1]['loss']:.6g}")
    print(f"checkpoint: {ckpt_path}")
    print(f"loss curve: {out / 'loss.csv'}")
    return 0


def cmd_eval(cfg) -> int:
    if cfg.ckpt is None:
        raise UsageError("eval requires --ckpt")
    out = _outdir(cfg)
    params, _, extra = checkpoint.load_checkpoint(cfg.ckpt)
    # every train checkpoint records the algorithm its model decodes
    if "alg_id" not in extra:
        raise ValueError(f"checkpoint {cfg.ckpt} records no alg_id")
    alg_id = int(extra["alg_id"])
    instances = _test_instances(cfg, build_split(cfg))

    t0 = time.perf_counter()
    rows = evaluate_policies(params, alg_id, instances, cfg.runs, cfg.t,
                             params.config.M, cfg.seed, workers=cfg.workers)
    elapsed = time.perf_counter() - t0
    summary = _log_rollouts("eval", rows, elapsed, cfg.workers)
    EvalReport(rows=rows, runs=cfg.runs).validate()
    write_csv(out / "eval.csv", ("problem", "run", "perf", "policy"), rows)
    _print_summary(summary)
    diff, wins, pairs = rollouts.paired(rows)
    print(f"model - random: mean {diff:+.6f}, model wins {wins}/{pairs}")
    print(f"elapsed: {elapsed:.1f}s")
    print(f"report: {out / 'eval.csv'}")
    return 0


def _train_eval_once(trajs, manifest, cfg, split, lam, beta, seed_tag,
                     label):
    """Fresh model, train on trajs, print under label and return (mean,
    std) of greedy Perf over the split's test problems x cfg.runs."""
    config = _model_config(cfg, manifest)
    params = qmodel.init_qmodel(config, seed=[cfg.seed, 2])
    params, _ = training.train(trajs, params,
                               _loss_config(cfg, config, lam, beta),
                               seed=[cfg.seed, 3, seed_tag],
                               workers=cfg.workers)
    rows = evaluate_policies(params, manifest.alg_id,
                             _test_instances(cfg, split), cfg.runs,
                             cfg.t, manifest.M, [cfg.seed, 4],
                             include_random=False, workers=cfg.workers)
    mean, std = rollouts.summarize(rows)[("model", "overall")]
    print(f"{label}: perf {mean:.6f} +/- {std:.6f}")
    return mean, std


def _remix(trajs, mu):
    """Deterministic re-mix of a labeled dataset to exploitation share mu,
    using as many stored trajectories as the labels allow."""
    exploit = [t for t in trajs if t.policy_id != "random"]
    explore = [t for t in trajs if t.policy_id == "random"]
    if mu == 0.0:
        subset = explore
    elif mu == 1.0:
        subset = exploit
    else:
        if not exploit or not explore:
            raise ValueError("dataset lacks the policy mix needed for the "
                             "mu sweep (need both labels)")
        usable = min(int(len(exploit) / mu), int(len(explore) / (1.0 - mu)))
        n_ex = int(round(mu * usable))
        subset = exploit[:n_ex] + explore[:usable - n_ex]
    if not subset:
        raise ValueError(f"no trajectories available at mu={mu}")
    return subset


def cmd_ablate(cfg) -> int:
    if cfg.data is None:
        raise UsageError("ablate requires --data")
    out = _outdir(cfg)
    trajs, manifest = datasets.load_dataset(cfg.data)
    _print_exploitation_note(manifest.policy_counts)
    # the bin sweep's kind and instance seed; a mu = 0 dataset has no kind,
    # and its recollect plays no exploitation, so any gives the same bytes
    kinds = set(manifest.policy_counts) - {"random"}
    seeds = {t.instance_seed for t in trajs}
    if len(kinds) > 1 or len(seeds) != 1:
        raise ValueError(f"dataset mixes exploitation kinds {kinds} or "
                         f"instance seeds {seeds}")
    kind = (kinds or {datasets.EXPLOITATION_KINDS[0]}).pop()
    instance_seed = seeds.pop()
    split = build_split(cfg)
    t0 = time.perf_counter()

    # conservative-weight / backup-weight grid
    grid_rows = []
    for i, lam in enumerate((0.0, 1.0, 10.0)):
        for j, beta in enumerate((1.0, 10.0)):
            grid_rows.append((lam, beta, *_train_eval_once(
                trajs, manifest, cfg, split, lam, beta, 10 + 2 * i + j,
                f"lambda={lam:g} beta={beta:g}")))
    write_csv(out / "ablate_lambda_beta.csv",
              ("lam", "beta", "mean_perf", "std_perf"), grid_rows)

    # exploitation-share sweep, re-mixed from the stored labels
    mu_rows = []
    for r, mu in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        subset = _remix(trajs, mu)
        mu_rows.append((mu, len(subset), *_train_eval_once(
            subset, manifest, cfg, split, cfg.lam, cfg.beta, 20 + r,
            f"mu={mu:g} (D={len(subset)})")))
    write_csv(out / "ablate_mu.csv",
              ("mu", "d_used", "mean_perf", "std_perf"), mu_rows)

    # action-bin sweep: recollect at each M as the dataset was, from its
    # recorded settings and the fixed rollouts.SCHEDULE_JITTER,
    # datasets.FILTER_QUANTILE and datasets.CALIBRATION_EPISODES, each
    # training function at its dim in it (else the split's), and evaluate
    bin_rows = []
    csplit = problems.ProblemSplit(
        tuple(manifest.train_ids), split.test_ids,
        {**split.dims, **{t.function_id: t.dim for t in trajs}})
    for b, M in enumerate((16, 32)):
        sub_trajs, sub_man = datasets.collect(
            manifest.alg_id, csplit, (kind, "random"), manifest.mu,
            manifest.D, manifest.T, cfg.seed + 1000 + M, n_bins=M,
            instance_seed=instance_seed, workers=cfg.workers)
        bin_rows.append((M, *_train_eval_once(
            sub_trajs, sub_man, cfg, split, cfg.lam, cfg.beta, 30 + b,
            f"bins M={M}")))
    write_csv(out / "ablate_bins.csv", ("bins", "mean_perf", "std_perf"),
              bin_rows)

    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    print(f"reports: {out / 'ablate_lambda_beta.csv'}, "
          f"{out / 'ablate_mu.csv'}, {out / 'ablate_bins.csv'}")
    return 0


def run_verification(cfg):
    """Execute the verification suite; returns a list of
    (check, passed, metric_string).  A check that raises fails, with the
    exception's message as its metric, and the checks after it still run."""
    checks = [("decomposition", _verify_decomposition),
              ("grad_check", _verify_grad_check),
              ("scan_equivalence", _verify_scan_equivalence),
              ("reward_telescoping", _verify_reward_telescoping),
              ("s1_exact", _verify_s1_exact)]
    if cfg.data is not None:
        checks.append(("dataset_revalidation", _verify_dataset))
    results = []
    for name, check in checks:
        try:
            passed, metric = check(cfg)
        except Exception as exc:
            passed, metric = False, str(exc)
        results.append((name, passed, metric))
    return results


def _verify_decomposition(cfg):
    worst_gap, agree = 0.0, True
    for i in range(cfg.mdps):
        rng = np.random.default_rng([cfg.seed, 5, i])
        mdp = training.random_tabular_mdp(
            rng, n_states=int(rng.integers(2, 5)),
            K=int(rng.integers(1, 4)), M=int(rng.integers(2, 4)), gamma=0.9)
        rep = training.verify_decomposition(mdp, tol=DECOMPOSITION_TOL)
        worst_gap = max(worst_gap, rep["max_value_gap"])
        agree = agree and rep["passed"]
    return agree, f"max value gap {worst_gap:.3e} over {cfg.mdps} MDPs"


def _verify_grad_check(cfg):
    # 43 generations of alg 0 are 129 decision steps: at d_model 8 and
    # d_state 16 the SSM forward and backward cross a time-chunk boundary
    prob = problems.make_instance(1, 5, seed=0)
    traj = env.run_episode(0, prob, rollouts.random_policy(0, [cfg.seed, 7]),
                           T=43, seed=[cfg.seed, 7])
    params = qmodel.init_qmodel(
        qmodel.ModelConfig(K=3, M=16, d_model=8, d_state=16),
        seed=[cfg.seed, 8])
    rep = training.grad_check(params, traj,
                              training.LossConfig(K=3, M=16))
    # a check of no coordinate shows nothing, so it fails
    return (rep["checked"] > 0 and rep["max_rel_error"] <= 1e-4,
            f"max rel err {rep['max_rel_error']:.3e} on "
            f"{rep['checked']} coords")


def _verify_scan_equivalence(cfg):
    # L = 2048 spans several time chunks of the sequential forward
    worst = 0.0
    for s in range(cfg.scan_seeds):
        rng = np.random.default_rng([cfg.seed, 6, s])
        ten = ssm.init_ssm_params(rng, d_model=8, d_state=4)
        for L in (1, 7, 64, 2048):
            xs = rng.standard_normal((L, 8))
            ys_seq, _, _ = ssm.ssm_forward_sequential(ten, None, xs)
            ys_par, _ = ssm.ssm_forward_scan(ten, None, xs)
            worst = float(np.max(np.abs(ys_seq - ys_par), initial=worst))
    return worst <= 1e-6, f"max |scan - sequential| {worst:.3e}"


def _verify_reward_telescoping(cfg):
    split = problems.default_split()
    ok, worst_tel = True, 0.0
    for i in range(20):
        fid = split.train_ids[i % len(split.train_ids)]
        inst = problems.make_instance(fid, 5, seed=0)
        tr = env.run_episode(0, inst,
                             rollouts.random_policy(0, [cfg.seed, 9, i]),
                             T=10, seed=[cfg.seed, 9, i])
        total = tr.perf
        denom = tr.f_best_init - tr.f_star
        expect = ((tr.f_best_init - tr.final_best_f) / denom
                  if denom > 0 else 0.0)
        worst_tel = max(worst_tel, abs(total - expect))
        ok = (ok and min(s.reward for s in tr.steps) >= 0.0
              and total <= 1.0 + 1e-9 and abs(total - expect) <= 1e-12)
    return ok, (f"max |sum r - relative improvement| {worst_tel:.3e} "
                f"over 20 episodes")


def _verify_s1_exact(cfg):
    # s1's Gram plane runs the CPU's BLAS GEMM kernel, whose SIMD and FMA
    # use varies by CPU: check it and its guard against exact pair
    # distances here.  n = 60 fits one block; 200 rows at dim 50 walk 5
    # blocks, the first four capped by the BLAS budget
    populations = [(60, dim, kind) for dim in (5, 20)
                   for kind in ("uniform", "clustered", "duplicates")]
    populations.append((200, 50, "duplicates"))
    errors = []
    for n, dim, kind in populations:
        X = _s1_population(np.random.default_rng([cfg.seed, 10, dim]),
                           kind, n, dim)
        rows = X.tolist()
        want = math.fsum(math.dist(rows[i], rows[j])
                         for i in range(n) for j in range(i + 1, n))
        want /= n * (n - 1) / 2
        got = env._mean_pairwise_distance(X)
        errors.append(abs(got - want) / want)
    worst_s1 = float(np.max(errors))  # NaN, if any, propagates
    return (worst_s1 <= env.S1_REL_ERROR,
            f"max rel err {worst_s1:.3e} over {len(errors)} populations")


def _verify_dataset(cfg):
    trajs, _ = datasets.load_dataset(cfg.data)
    return True, f"{len(trajs)} trajectories, checksum ok"


def _s1_population(rng, kind, n, dim) -> np.ndarray:
    """A seeded (n, dim) population for the ``s1_exact`` check: uniform,
    clustered within 1e-9 of one point, or uniform with a quarter of its
    rows repeating others exactly and a quarter 1e-12 from one."""
    if kind == "clustered":
        return rng.uniform(-5, 5, dim) + 1e-9 * rng.standard_normal((n, dim))
    X = rng.uniform(-5, 5, (n, dim))
    if kind == "duplicates":
        q = n // 4
        X[:q] = X[q:2 * q]
        X[2 * q:3 * q] = X[3 * q:] + 1e-12 * rng.standard_normal((q, dim))
    return X


def cmd_verify(cfg) -> int:
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


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_SHARED = ("seed", "out", "profile", "config")

#: the flags that train and ablate share
_TRAINING = ("epochs", "batch", "lr", "wd", "beta", "lam", "gamma",
             "d_model", "d_state", "depth")

#: command -> (run function, help, its flags after the shared ones)
COMMANDS = {
    "collect": (cmd_collect, "collect a mu-mixed dataset",
                ("alg", "mu", "d", "t", "bins", "dim", "functions", "policy",
                 "instance_seed", "workers")),
    "train": (cmd_train, "train the decomposed Q-model",
              ("data", "resume", *_TRAINING, "workers")),
    "eval": (cmd_eval, "evaluate a checkpoint on the test functions against "
                       "the random baseline",
             ("ckpt", "t", "dim", "runs", "test_functions", "instance_seed",
              "workers")),
    "ablate": (cmd_ablate, "lambda/beta grid, mu sweep, and bin-count sweep",
               ("data", *_TRAINING, "runs", "t", "dim", "test_functions",
                "instance_seed", "workers")),
    "verify": (cmd_verify, "run the numerical verification suite (exit 1 on "
                           "any failure)",
               ("data", "mdps", "scan_seeds")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacq",
        description="Offline Q-learning control of evolutionary optimizers: "
                    "dataset collection, training, evaluation, ablations, "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, names) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_)
        for name in _SHARED + names:
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            **{k: v for k, v in FLAGS[name].items()
                               if k in _ARGPARSE_KEYS})
    return parser


def main(argv=None) -> int:
    export_threads()
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.command][0](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
