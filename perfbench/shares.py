"""Summarize a trace file written by ``run.py --trace 1``.

    python3 perfbench/shares.py .perfbench_out/trace-engine-alg2-s1.json

Prints the layers with the largest self time as a share of the traced
passes, and the share of chosen layers inside chosen stages (the ROADMAP
baseline rows): ``cal_state`` and ``draw_distinct_indices`` inside
``datasets.collect``, ``phi1`` + ``phi1_deriv`` inside ``training.train``.
"""

from __future__ import annotations

import json
import sys

from tracing import (SPAN_END, SPAN_NAME, SPAN_PARENT, SPAN_START,
                     self_times)

#: (stage, layers whose time inside that stage is reported)
INSIDE = (("datasets.collect", ("env.cal_state",
                                "ea_ops.draw_distinct_indices")),
          ("training.train", ("ssm.phi1", "ssm.phi1_deriv")),
          ("cli.evaluate_policies", ("env.cal_state",
                                     "qmodel.decode_episode_actions")))


def _dur(rec):
    return rec[SPAN_END] - rec[SPAN_START]


def stage_shares(spans, stage, layers) -> dict:
    """Share of ``stage``'s time spent in each of ``layers`` below it."""
    under = [False] * len(spans)
    stage_s = 0.0
    inside = dict.fromkeys(layers, 0.0)
    for i, rec in enumerate(spans):
        p = rec[SPAN_PARENT]
        under[i] = rec[SPAN_NAME] == stage or (p >= 0 and under[p])
        if rec[SPAN_NAME] == stage:
            stage_s += _dur(rec)
        elif under[i] and rec[SPAN_NAME] in inside:
            inside[rec[SPAN_NAME]] += _dur(rec)
    return {k: v / stage_s for k, v in inside.items()} if stage_s else {}


def main(path, top=12):
    trace = json.load(open(path, encoding="utf-8"))
    spans = trace["spans"]
    total = sum(p[2] for p in trace["passes"])
    own = {}
    for rec, s in zip(spans, self_times(spans)):
        own[rec[SPAN_NAME]] = own.get(rec[SPAN_NAME], 0.0) + s
    print(f"{trace['workload']} seed {trace['seed']}: "
          f"{len(trace['passes'])} traced passes, {total:.3f} s")
    print("largest self times (share of traced passes):")
    for name, s in sorted(own.items(), key=lambda kv: -kv[1])[:top]:
        print(f"  {name:36s} {s / total:6.1%}")
    for stage, layers in INSIDE:
        shares = stage_shares(spans, stage, layers)
        if shares:
            print(f"inside {stage}: " + ", ".join(
                f"{k} {v:.1%}" for k, v in shares.items())
                + f" (together {sum(shares.values()):.1%})")


if __name__ == "__main__":
    main(sys.argv[1])
