"""Command-line front end: collect | train | eval | ablate | verify.

Every command is deterministic under fixed seeds and writes
machine-parseable CSV (plus a human summary on stdout).  Exit codes:
0 success, 1 runtime failure, 2 usage error.  ``--profile desk`` (the
default) picks sizes that run a full pipeline in minutes on a laptop;
``--profile paper`` selects the full-scale settings; flags override the
profile.  An argument ``@FILE`` stands for FILE's non-blank lines, one
argument per line (argparse's ``fromfile_prefix_chars``), so a file's
flags parse, and fail, as the same flags on the command line, and a
later value of a flag wins.  Each setting is one row of ``FLAGS``: its
argparse keywords, bounds and default (by profile where desk and paper
differ); ``COMMANDS`` lists each command's flags and the ones it
requires.  argparse alone checks them: a value out of its row's bounds
or a missing required flag is argparse's usage error.
``--workers N`` runs the independent episodes of collect, eval and
ablate, and the trajectories of each training minibatch of train and
ablate, on N worker processes (default: the CPUs this process may use),
forked once per command and kept until it exits; no output file
depends on it.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import sys
import time
from pathlib import Path

import numpy as np

from . import algorithms, checkpoint, datasets, env, problems, qmodel, \
    rollouts, ssm, training
from .rollouts import EvalReport, evaluate_policies


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
#: ``help`` and ``choices`` go to argparse, and ``type`` with the bounds
#: (inclusive ``lo``/``hi``, and ``value > gt``) makes its argparse type.
#: ``default`` is a value or a dict by profile (None: unset).
FLAGS = {
    "seed": dict(type=int, default=0, lo=0),
    "out": dict(type=str),
    "profile": dict(type=str, choices=PROFILES, default="desk"),
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

#: a row's bound keys: (key, test of a value against its bound, wording)
_BOUNDS = (("lo", operator.ge, ">="), ("gt", operator.gt, ">"),
           ("hi", operator.le, "<="))


def defaults(profile) -> dict:
    """Every setting's default under ``profile``."""
    out = {}
    for name, row in FLAGS.items():
        value = row.get("default")
        out[name] = value[profile] if isinstance(value, dict) else value
    return out


def _flag_type(row):
    """argparse type of a ``FLAGS`` row: its ``type``, then its bounds,
    under the converter's name (argparse's "invalid int value")."""
    convert = row["type"]

    def parse(text):
        value = convert(text)
        for key, ok, wording in _BOUNDS:
            if key in row and not ok(value, row[key]):
                raise argparse.ArgumentTypeError(
                    f"must be {wording} {row[key]}, got {value!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The profile's defaults, then the flags given (argparse has checked
    each)."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    return argparse.Namespace(**{**defaults(
        given.get("profile", FLAGS["profile"]["default"])), **given})


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
    split = build_split(cfg)
    t0 = time.perf_counter()
    # datasets.collect makes --out only when it writes the dataset
    trajs, manifest = datasets.collect(
        cfg.alg, split, (cfg.policy, "random"), cfg.mu, cfg.d, cfg.t,
        cfg.seed, out_dir=cfg.out, n_bins=cfg.bins,
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
    print(f"dataset: {Path(cfg.out)}")
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


def _checkpoint_field(path, extra: dict, key: str, json_type: str):
    """extra[key] of the checkpoint at path if it is of json_type (see
    ``datasets.read_field``); else a ValueError that names the file and
    the field."""
    try:
        return datasets.read_field(extra, key, json_type)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_train(cfg) -> int:
    trajs, manifest = datasets.load_dataset(cfg.data)
    _print_exploitation_note(manifest.policy_counts)

    start_epoch = 0
    if cfg.resume:
        params, opt, extra = checkpoint.load_checkpoint(cfg.resume)
        # a checkpoint saved without an epoch starts at 0, and one without
        # a dataset checksum resumes on any dataset
        start_epoch = _checkpoint_field(cfg.resume, {"epoch": 0, **extra},
                                        "epoch", "int")
        trained_on = _checkpoint_field(
            cfg.resume, {"dataset_checksum": manifest.checksum, **extra},
            "dataset_checksum", "str")
        if trained_on != manifest.checksum:
            raise ValueError(f"{cfg.resume}: trained on dataset {trained_on}, "
                             f"--data holds {manifest.checksum}")
        print(f"resuming from {cfg.resume} at epoch {start_epoch} "
              f"(model config from checkpoint)")
    else:
        params = qmodel.init_qmodel(_model_config(cfg, manifest),
                                    seed=[cfg.seed, 0])
        opt = training.AdamWState.for_params(params)

    out = _outdir(cfg)
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
    params, _, extra = checkpoint.load_checkpoint(cfg.ckpt)
    # every train checkpoint records the algorithm its model decodes
    alg_id = _checkpoint_field(cfg.ckpt, extra, "alg_id", "int")
    instances = _test_instances(cfg, build_split(cfg))
    out = _outdir(cfg)

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
    if not exploit or not explore:
        raise ValueError("dataset lacks the policy mix needed for the "
                         "mu sweep (need both labels)")
    if mu == 0.0:
        return explore
    if mu == 1.0:
        return exploit
    usable = min(int(len(exploit) / mu), int(len(explore) / (1.0 - mu)))
    n_ex = int(round(mu * usable))
    return exploit[:n_ex] + explore[:usable - n_ex]


def cmd_ablate(cfg) -> int:
    trajs, manifest = datasets.load_dataset(cfg.data)
    _print_exploitation_note(manifest.policy_counts)
    # the bin sweep's kind and instance seed
    kinds = set(manifest.policy_counts) - {"random"}
    seeds = {t.instance_seed for t in trajs}
    if len(kinds) > 1 or len(seeds) != 1:
        raise ValueError(f"dataset mixes exploitation kinds {kinds} or "
                         f"instance seeds {seeds}")
    # the mu sweep's subsets, re-mixed from the stored labels before any
    # training: a dataset without both labels fails here
    mus = (0.0, 0.25, 0.5, 0.75, 1.0)
    subsets = [_remix(trajs, mu) for mu in mus]
    kind, instance_seed = kinds.pop(), seeds.pop()
    split = build_split(cfg)
    out = _outdir(cfg)
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

    # exploitation-share sweep
    mu_rows = []
    for r, (mu, subset) in enumerate(zip(mus, subsets)):
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

_SHARED = ("seed", "out", "profile")

#: the flags that train and ablate share
_TRAINING = ("epochs", "batch", "lr", "wd", "beta", "lam", "gamma",
             "d_model", "d_state", "depth")

#: command -> (run function, help, its flags after the shared ones, the
#: flags it requires)
COMMANDS = {
    "collect": (cmd_collect, "collect a mu-mixed dataset",
                ("alg", "mu", "d", "t", "bins", "dim", "functions", "policy",
                 "instance_seed", "workers"), ("out",)),
    "train": (cmd_train, "train the decomposed Q-model",
              ("data", "resume", *_TRAINING, "workers"), ("out", "data")),
    "eval": (cmd_eval, "evaluate a checkpoint on the test functions against "
                       "the random baseline",
             ("ckpt", "t", "dim", "runs", "test_functions", "instance_seed",
              "workers"), ("out", "ckpt")),
    "ablate": (cmd_ablate, "lambda/beta grid, mu sweep, and bin-count sweep",
               ("data", *_TRAINING, "runs", "t", "dim", "test_functions",
                "instance_seed", "workers"), ("out", "data")),
    "verify": (cmd_verify, "run the numerical verification suite (exit 1 on "
                           "any failure)",
               ("data", "mdps", "scan_seeds"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacq", fromfile_prefix_chars="@",
        description="Offline Q-learning control of evolutionary optimizers: "
                    "dataset collection, training, evaluation, ablations, "
                    "verification.  An argument @FILE stands for FILE's "
                    "non-blank lines, one argument per line (--mu=0.2); a "
                    "later value of a flag wins.")
    parser.convert_arg_line_to_args = \
        lambda line: [line] if line.strip() else []
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, names, required) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_)
        for name in _SHARED + names:
            row = FLAGS[name]
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=_flag_type(row), help=row.get("help"),
                            choices=row.get("choices"),
                            required=name in required)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.command][0](cfg)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
