"""The three benchmark workloads, built only from dacq's public functions.

Each workload has a set-up, which makes its inputs from the seed, and a
pass, which runs the measured stages once on those inputs and checks
their outputs.  A run repeats the pass on the same inputs; seeded dacq
runs are deterministic, so every pass must reproduce the first one.

* ``desk-pipeline`` is the README quick start scaled down: collect on
  alg 0, write and reload the dataset, train at desk shape, save and
  reload a checkpoint, then paired model-vs-random rollouts on held-out
  functions.  It is what users run, the only workload that measures
  policy quality, and the only one that reaches every module.
* ``engine-alg2`` is the episode engine at its heaviest: alg 2 at
  dim 20 (500 individuals, 16 controlled hyper-parameters) under random
  control on cheap and expensive objectives, plus greedy K=16 decode of
  an untrained paper-width model.  It does no training.
* ``train-paper`` is ``training.train`` alone at paper shape (T=500,
  K=3, so L=1500; d_model 64, d_state 16) on synthetic trajectories.
  The SSM's cost does not depend on their values.  It does no episode
  work.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
import traceback

import numpy as np

from dacq import checkpoint, cli, datasets, env, problems, qmodel, training

#: run sizes; ``tiny`` keeps every stage but makes it take milliseconds
SIZES = {
    "desk-pipeline": {
        "full": dict(dim=5, D=8, T=50, epochs=3, batch=4, d_model=32,
                     d_state=8, runs=1),
        "tiny": dict(dim=5, D=2, T=4, epochs=1, batch=2, d_model=8,
                     d_state=4, runs=1),
    },
    "engine-alg2": {
        "full": dict(dim=20, D=4, T=10, runs=1, T_eval=5, d_model=64,
                     d_state=16),
        "tiny": dict(dim=5, D=4, T=2, runs=1, T_eval=2, d_model=8,
                     d_state=4),
    },
    "train-paper": {
        "full": dict(D=4, T=500, batch=4, d_model=64, d_state=16),
        "tiny": dict(D=2, T=5, batch=2, d_model=8, d_state=4),
    },
}

DESK_TRAIN_IDS, DESK_TEST_IDS = (15, 16, 23, 24), (17, 18)
ENGINE_IDS = (1, 15, 21, 23)
N_BINS = 16


class PassFailed(Exception):
    """An operation of a pass raised; the rest of the pass is skipped."""


class Checks:
    """Counts operations and output checks.  A failed check is counted and
    the pass goes on; an operation that raises ends the pass, since its
    result is missing."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def require(self, what, ok, why="check failed"):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {why}")

    def op(self, what, fn, *args, **kwargs):
        """Call fn, counting it; returns (result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted into failed, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.errors.append(f"{what}: {exc!r}")
            raise PassFailed(what) from exc
        return out, time.perf_counter() - t0


def _tensor_bytes(tensors) -> list:
    return [(k, v.shape, v.tobytes()) for k, v in tensors.items()]


# ---------------------------------------------------------------------------
# desk-pipeline

def setup_desk(seed, size, checks):
    split = problems.ProblemSplit(
        DESK_TRAIN_IDS, DESK_TEST_IDS,
        {f: size["dim"] for f in DESK_TRAIN_IDS + DESK_TEST_IDS})
    test = [problems.make_instance(f, size["dim"], seed=seed)
            for f in DESK_TEST_IDS]
    config = qmodel.ModelConfig(K=3, M=N_BINS, d_model=size["d_model"],
                                d_state=size["d_state"])
    loss_cfg = training.LossConfig(K=3, M=N_BINS, batch_size=size["batch"],
                                   epochs=size["epochs"])
    return dict(seed=seed, size=size, split=split, test=test, config=config,
                loss_cfg=loss_cfg)


def pass_desk(inp, workdir, checks):
    seed, size = inp["seed"], inp["size"]
    D, T = size["D"], size["T"]
    ds_dir = workdir / "dataset"
    ckpt_path = workdir / "model.ckpt"

    (trajs, manifest), t_collect = checks.op(
        "collect", datasets.collect, 0, inp["split"],
        ("scripted_de_schedule", "random"), mu=0.5, D=D, T=T, seed=seed)
    checks.op("write_dataset", datasets.write_dataset, ds_dir, trajs,
              manifest)
    (loaded, loaded_manifest), _ = checks.op(
        "load_dataset(validate=True)", datasets.load_dataset, ds_dir,
        validate=True)
    checks.require("reloaded dataset matches", len(loaded) == D
                   and loaded_manifest.checksum == manifest.checksum)

    params = qmodel.init_qmodel(inp["config"], seed=[seed, 0])
    opt = training.AdamWState.for_params(params)
    (params, history), t_train = checks.op(
        "train", training.train, loaded, params, inp["loss_cfg"],
        seed=[seed, 1], opt=opt)
    final_loss = history[-1]["loss"]
    checks.require("training loss finite", bool(np.isfinite(final_loss)),
                   f"final loss {final_loss!r}")

    extra = {"alg_id": 0, "dataset_checksum": manifest.checksum}
    checks.op("save_checkpoint", checkpoint.save_checkpoint, ckpt_path,
              params, opt=opt, extra=extra)
    (params2, opt2, extra2), _ = checks.op(
        "load_checkpoint", checkpoint.load_checkpoint, ckpt_path)
    checks.require(
        "checkpoint round trip bit-exact",
        _tensor_bytes(params2.tensors()) == _tensor_bytes(params.tensors())
        and _tensor_bytes(opt2.m) == _tensor_bytes(opt.m)
        and _tensor_bytes(opt2.v) == _tensor_bytes(opt.v)
        and opt2.step == opt.step and extra2 == extra)

    runs = size["runs"]
    rows, t_eval = checks.op(
        "evaluate_policies", cli.evaluate_policies, params2, 0, inp["test"],
        runs=runs, T=T, n_bins=N_BINS, seed=seed)
    report = cli.EvalReport(rows=rows, runs=runs, provenance={})
    checks.op("EvalReport.validate", report.validate)

    fingerprint = (manifest.checksum, repr(final_loss),
                   hashlib.sha256(ckpt_path.read_bytes()).hexdigest(),
                   tuple(rows))
    shutil.rmtree(ds_dir)
    ckpt_path.unlink()
    return {
        "collect_gen_per_s": D * T / t_collect,
        "train_step_per_s": size["epochs"] * D * T * 3 / t_train,
        "eval_gen_per_s": 2 * runs * len(inp["test"]) * T / t_eval,
        "model_perf": report.mean_perf("model"),
        "random_perf": report.mean_perf("random"),
    }, final_loss, fingerprint


# ---------------------------------------------------------------------------
# engine-alg2

def setup_engine(seed, size, checks):
    dim = size["dim"]
    split = problems.ProblemSplit(ENGINE_IDS, (), {f: dim for f in ENGINE_IDS})
    # held-out instances of the same functions for the paired rollouts
    test = [problems.make_instance(f, dim, seed=seed + 1) for f in ENGINE_IDS]
    params = qmodel.init_qmodel(
        qmodel.ModelConfig(K=16, M=N_BINS, d_model=size["d_model"],
                           d_state=size["d_state"]), seed=[seed, 0])
    return dict(seed=seed, size=size, split=split, test=test, params=params)


def pass_engine(inp, workdir, checks):
    seed, size = inp["seed"], inp["size"]
    D, T = size["D"], size["T"]
    (trajs, manifest), t_collect = checks.op(
        "collect", datasets.collect, 2, inp["split"],
        ("scripted_de_schedule", "random"), mu=0.0, D=D, T=T, seed=seed,
        instance_seed=seed)
    for i, traj in enumerate(trajs):
        checks.op(f"validate_trajectory {i}", datasets.validate_trajectory,
                  traj)

    runs, T_eval = size["runs"], size["T_eval"]
    rows, t_eval = checks.op(
        "evaluate_policies", cli.evaluate_policies, inp["params"], 2,
        inp["test"], runs=runs, T=T_eval, n_bins=N_BINS, seed=seed)
    report = cli.EvalReport(rows=rows, runs=runs, provenance={})
    checks.op("EvalReport.validate", report.validate)
    return {
        "collect_gen_per_s": D * T / t_collect,
        "eval_gen_per_s": 2 * runs * len(inp["test"]) * T_eval / t_eval,
        "random_perf": report.mean_perf("random"),
    }, 0.0, (manifest.checksum, tuple(rows))


# ---------------------------------------------------------------------------
# train-paper

def synthetic_trajectories(seed, D, T):
    """Alg-0 shaped episodes with random states and bins and a
    best-so-far sequence that falls from 1 to a random floor."""
    rng = np.random.default_rng([seed, 0x7A1])
    trajs = []
    for e in range(D):
        states = rng.random((T, 9))
        actions = rng.integers(0, N_BINS, (T, 3))
        bsf = np.sort(rng.random(T))[::-1] * rng.random()
        prev = np.concatenate([[1.0], bsf[:-1]])
        steps = [env.StepRecord(states[t], actions[t], float(prev[t] - bsf[t]),
                                float(bsf[t])) for t in range(T)]
        trajs.append(env.Trajectory(
            alg_id=0, K=3, M=N_BINS, function_id=1, dim=5, instance_seed=0,
            episode_seed=[seed, e], T=T, policy_id="synthetic",
            f_best_init=1.0, f_star=0.0, steps=steps))
    return trajs


def setup_train(seed, size, checks):
    trajs = synthetic_trajectories(seed, size["D"], size["T"])
    for i, traj in enumerate(trajs):
        checks.op(f"validate_trajectory {i}", datasets.validate_trajectory,
                  traj)
    config = qmodel.ModelConfig(K=3, M=N_BINS, d_model=size["d_model"],
                                d_state=size["d_state"])
    loss_cfg = training.LossConfig(K=3, M=N_BINS, batch_size=size["batch"],
                                   epochs=1)
    return dict(seed=seed, size=size, trajs=trajs, config=config,
                loss_cfg=loss_cfg)


def pass_train(inp, workdir, checks):
    seed, size = inp["seed"], inp["size"]
    params = qmodel.init_qmodel(inp["config"], seed=[seed, 0])
    (params, history), t_train = checks.op(
        "train", training.train, inp["trajs"], params, inp["loss_cfg"],
        seed=[seed, 1])
    final_loss = history[-1]["loss"]
    checks.require("training loss finite", bool(np.isfinite(final_loss)),
                   f"final loss {final_loss!r}")
    return {
        "train_step_per_s": size["D"] * size["T"] * 3 / t_train,
    }, final_loss, (repr(final_loss),)


WORKLOADS = {
    "desk-pipeline": (setup_desk, pass_desk),
    "engine-alg2": (setup_engine, pass_engine),
    "train-paper": (setup_train, pass_train),
}

#: unit of each per-workload stage metric
STAGE_UNITS = {"collect_gen_per_s": "gen/s", "train_step_per_s": "step/s",
               "eval_gen_per_s": "gen/s", "model_perf": "perf",
               "random_perf": "perf"}
