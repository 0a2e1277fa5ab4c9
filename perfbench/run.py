"""Benchmark of the dacq pipeline: collect -> train -> eval.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-pipeline --seed 1 \
        --seconds 35 --trace 0

The workload's inputs are made from ``--seed`` (set-up, repeated and
timed), then its pass runs on them again and again for ``--seconds``.
Every pass checks its outputs and must reproduce the first one exactly.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; the lines before
it give the machine and a report with the per-workload stage metrics.
With ``--trace 1`` untraced and traced passes alternate, the metrics are
the per-layer ones plus the tracing overhead, and the spans are written
to ``.perfbench_out/trace-<workload>-s<seed>.json``.

BLAS and OpenMP pools are pinned to one thread before numpy loads.
``--size tiny`` runs every stage at toy size (used by the tests).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("desk-pipeline", "engine-alg2", "train-paper")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: thread-pool size; one thread keeps runs deterministic and steady
POOL_THREADS = 1
SETUP_REPEATS = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_thread_pools() -> int:
    """Must run before numpy is imported."""
    n = max(1, min(POOL_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_dacq():
    """Import the package from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "dacq" / "__init__.py").is_file():
        raise SystemExit(f"error: no dacq sources under {src}")
    sys.path.insert(0, str(src))
    import dacq
    if Path(dacq.__file__).resolve().parent != (src / "dacq").resolve():
        raise SystemExit(f"error: imported dacq from {dacq.__file__}, "
                         f"not from {src}")
    return dacq


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_thread_pools()
    import_dacq()
    import numpy as np
    import speed
    import tracing as tr
    import workloads as wl

    machine = machine_info(np)
    print("machine " + json.dumps(machine), flush=True)
    checks = wl.Checks()
    if machine["blas_threads"] is not None:
        checks.require("BLAS pool pinned", machine["blas_threads"] == pinned,
                       f"{machine['blas_threads']} threads, pinned {pinned}")

    setup, run_pass = wl.WORKLOADS[args.workload]
    size = wl.SIZES[args.workload][args.size]
    probe = speed.SpeedProbe()
    setup_s = []
    ref_before = probe.measure()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            inp = setup(args.seed, size, checks)
        except wl.PassFailed:
            print("error: set-up failed: " + "; ".join(checks.errors),
                  file=sys.stderr)
            return 1
        setup_s.append(time.perf_counter() - t0)

    # set-ups are too short to bracket one by one without cooling the
    # caches they run in, so the reference brackets all of them
    ref_after = probe.measure()
    setup_ref = (ref_before + ref_after) / 2
    ref_before = ref_after

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload, dir=OUT_DIR))
    tracer = tr.Tracer(sys.modules["dacq"]) if args.trace else None
    # (wall seconds, reference seconds around the pass) per completed pass
    plain, traced, traced_ranges, stages, losses = [], [], [], [], []
    first = None

    def one_pass(traced_pass, warm_up=False):
        nonlocal first, ref_before
        start_span = len(tracer.spans) if traced_pass else 0
        t0 = time.perf_counter()
        try:
            if traced_pass:
                with tracer:
                    result = run_pass(inp, workdir, checks)
            else:
                result = run_pass(inp, workdir, checks)
        except wl.PassFailed:
            result = None
        dt = time.perf_counter() - t0
        ref_after = probe.measure()
        ref, ref_before = (ref_before + ref_after) / 2, ref_after
        if result is None:
            return dt
        values, loss, fingerprint = result
        if first is None:
            first = fingerprint
        else:
            checks.require("pass reproduces the first pass",
                           fingerprint == first)
        losses.append(loss)
        if traced_pass:
            traced.append((dt, ref))
            traced_ranges.append((start_span, len(tracer.spans), dt))
        elif not warm_up:
            plain.append((dt, ref))
            stages.append(values)
        return dt

    try:
        t_start = time.perf_counter()
        # the first pass fills caches and finishes lazy set-up; untimed
        one_pass(False, warm_up=True)
        while True:
            step = one_pass(False)
            if tracer is not None:
                step += one_pass(True)
            elapsed = time.perf_counter() - t_start
            if elapsed + step > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_scaled = [speed.scaled(dt, ref) for dt, ref in plain]
    setup_scaled = [speed.scaled(dt, setup_ref) for dt in setup_s]
    report = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "timed_passes": len(plain) + len(traced),
              "wall_setup_s": setup_s, "wall_run_s": [dt for dt, _ in plain],
              "reference_s": [ref for _, ref in plain], "run_s": run_scaled,
              "failed_ratio": checks.failed / max(checks.attempted, 1),
              "errors": checks.errors[:5]}
    if stages:
        report["stage_metrics"] = {
            name: metric(statistics.median(s[name] for s in stages),
                         wl.STAGE_UNITS[name])
            for name in stages[0]}
    print("report " + json.dumps(report), flush=True)

    if not plain or (tracer is not None and not traced):
        print("error: no pass completed: " + "; ".join(checks.errors),
              file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "run_s": metric(statistics.median(run_scaled), "s"),
            "peak_rss_mib": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
        }
    else:
        metrics = tr.layer_metrics(tracer.spans, len(traced), losses[-1])
        run_traced = statistics.median(speed.scaled(*p) for p in traced)
        run_plain = statistics.median(run_scaled)
        metrics["trace.run_s"] = metric(run_traced, "s")
        metrics["trace.untraced_run_s"] = metric(run_plain, "s")
        metrics["trace.overhead_s"] = metric(run_traced - run_plain, "s")
        path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        tracer.dump(path, workload=args.workload, seed=args.seed,
                    passes=traced_ranges)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
