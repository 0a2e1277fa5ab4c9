"""Span tracing of the dacq modules, installed from outside the package.

``Tracer.install()`` replaces every public function of each dacq module
with a wrapper that records a span: name, start, end and the index of
the enclosing span.  Every cross-module call inside ``src/dacq`` goes
through a module attribute (``env.cal_state``, ``ea_ops.de_mutate`` ...)
and calls inside a module look the name up in the module's globals, so
patching the attribute reaches both.  Aliases imported by name (such as
``checkpoint.init_qmodel``) are patched too.  ``uninstall()`` puts the
originals back.

Spans stay in memory; ``layer_metrics`` derives inclusive time, self
time (duration minus the child spans) and call counts from them, and
``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
import types

import numpy as np

#: dacq modules whose public functions are traced, in layer order
MODULES = ("problems", "ea_ops", "algorithms", "env", "datasets", "ssm",
           "qmodel", "training", "checkpoint", "cli")

#: function ids whose evaluation cost is broken out; the union of the
#: functions the workloads evaluate, so every workload emits the same keys
FAMILY_IDS = (1, 15, 16, 17, 18, 21, 23, 24)

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_ATTRS = range(5)


def _cache_bytes(cache) -> int:
    """Bytes held by the arrays of one ``ssm.SsmCache`` (computed)."""
    return sum(getattr(cache, f.name).nbytes
               for f in dataclasses.fields(cache)
               if isinstance(getattr(cache, f.name), np.ndarray))


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


# Work counts recorded on the spans of a few layers:
# (args, kwargs, result) -> attrs.
ANNOTATORS = {
    "problems.evaluate": lambda a, kw, out: {
        "fid": a[0].function_id, "rows": len(out)},
    "ssm.ssm_forward_sequential": lambda a, kw, out: {
        "cache_bytes": _cache_bytes(out[2])},
    "datasets.write_dataset": lambda a, kw, out: {
        "bytes": _dir_bytes(a[0])},
    "checkpoint.save_checkpoint": lambda a, kw, out: {
        "bytes": os.path.getsize(a[0])},
}


class Tracer:
    """Records nested spans around the public functions of dacq."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[SPAN_END] = clock()
                stack.pop()
            if annotate is not None:
                rec[SPAN_ATTRS] = annotate(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [getattr(self.package, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def uninstall(self):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path, **meta):
        """Write spans as JSON: [name, start_s, end_s, parent, attrs]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent",
                                          "attrs"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Per-span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[SPAN_PARENT] >= 0:
            child[rec[SPAN_PARENT]] += rec[SPAN_END] - rec[SPAN_START]
    return [rec[SPAN_END] - rec[SPAN_START] - c
            for rec, c in zip(spans, child)]


def _totals(spans):
    """name -> [inclusive s, self s, calls] and the attrs per name."""
    totals, attrs = {}, {}
    for rec, own in zip(spans, self_times(spans)):
        t = totals.setdefault(rec[SPAN_NAME], [0.0, 0.0, 0])
        t[0] += rec[SPAN_END] - rec[SPAN_START]
        t[1] += own
        t[2] += 1
        if rec[SPAN_ATTRS] is not None:
            attrs.setdefault(rec[SPAN_NAME], []).append(
                (rec[SPAN_END] - rec[SPAN_START], rec[SPAN_ATTRS]))
    return totals, attrs


def layer_metrics(spans, passes: int, final_loss: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per traced pass.

    Times and counts are totals over the traced passes divided by
    ``passes``; ``ssm.cache_bytes`` is the largest single cache.  A layer
    a workload does not reach reads 0.
    """
    totals, attrs = _totals(spans)

    def tot(name, i):
        return totals.get(name, (0.0, 0.0, 0))[i] / passes

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def put_s(name):
        put(f"{name}.s", tot(name, 0), "s")

    def put_self(name):
        put(f"{name}.self_s", tot(name, 1), "s")

    def put_calls(name):
        put(f"{name}.calls", tot(name, 2), "count")

    ev = attrs.get("problems.evaluate", [])
    rows = sum(a["rows"] for _, a in ev)
    put_s("problems.evaluate")
    put_calls("problems.evaluate")
    put("problems.evaluate.rows", rows / passes, "count")
    put("problems.evaluate.us_per_row",
        1e6 * sum(d for d, _ in ev) / rows if rows else 0.0, "us")
    for fid in FAMILY_IDS:
        fam = [(d, a["rows"]) for d, a in ev if a["fid"] == fid]
        n = sum(r for _, r in fam)
        put(f"problems.evaluate.f{fid}.us_per_row",
            1e6 * sum(d for d, _ in fam) / n if n else 0.0, "us")

    put_s("ea_ops.draw_distinct_indices")
    put_self("ea_ops.de_mutate")
    for name in ("crossover", "ga_mutate", "select", "bound_control",
                 "halton_init", "lpsr", "share_information"):
        put_s(f"ea_ops.{name}")

    put_s("algorithms.init_state")
    put_self("algorithms.step")
    put_calls("algorithms.step")

    put_s("env.cal_state")
    put_calls("env.cal_state")
    put_self("env.run_episode")

    put_self("datasets.collect")
    put_s("datasets.write_dataset")
    put("datasets.write_dataset.bytes",
        sum(a["bytes"] for _, a in attrs.get("datasets.write_dataset", []))
        / passes, "bytes")
    put_s("datasets.load_dataset")

    for name in ("ssm_forward_sequential", "ssm_backward", "phi1",
                 "phi1_deriv"):
        put_s(f"ssm.{name}")
    put("ssm.cache_bytes",
        max((a["cache_bytes"] for _, a
             in attrs.get("ssm.ssm_forward_sequential", [])), default=0),
        "bytes-computed")

    put_self("qmodel.q_values_batch")
    put_self("qmodel.model_backward")
    put_s("qmodel.assemble_inputs")
    put_s("qmodel.decode_episode_actions")
    put_calls("qmodel.decode_episode_actions")

    put_s("training.q_loss_batch")
    put_s("training.adamw_step")
    put_self("training.train")
    put("training.final_loss", final_loss, "loss")

    put_s("checkpoint.save_checkpoint")
    put("checkpoint.save_checkpoint.bytes",
        sum(a["bytes"] for _, a in attrs.get("checkpoint.save_checkpoint", []))
        / passes, "bytes")
    put_s("checkpoint.load_checkpoint")

    put_self("cli.evaluate_policies")
    return out
