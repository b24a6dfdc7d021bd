"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition, so no in-process memo
or cache can carry results from one repetition to the next::

    PYTHONPATH=src python3 perfbench/rep.py --workload W --seed N \\
        --trace 0|1 --t-spawn T --workdir DIR --out FILE [--tiny] [--corrupt]

It writes one JSON object to ``--out``: the workload's :class:`Rep`
fields, plus the per-layer metrics when traced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics, load_dumps  # noqa: E402
from workloads import ONE_CPU, WORKLOADS, RepContext  # noqa: E402


#: server ``stats`` counters over the timed stream, reported per layer
SERVE_LAYERS = ("hit_ratio", "executed", "coalesced", "retries", "shed",
                "deadline_exceeded")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    if args.workload in ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trace_dir = args.workdir / "trace"
    try:
        tracer = None
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer = Tracer("bench").install()
        ctx = RepContext(seed=args.seed, root=HERE.parent,
                         workdir=args.workdir, t_spawn=args.t_spawn,
                         tiny=args.tiny, corrupt=args.corrupt,
                         tracer=tracer)
        rep = WORKLOADS[args.workload](ctx)
        out = dataclasses.asdict(rep)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_dir / f"spans-bench-{os.getpid()}.json")
            out["layers"] = {
                **layer_metrics(load_dumps(trace_dir), rep.wall_s),
                **{f"serve.{k}": rep.serve_stats.get(k, 0)
                   for k in SERVE_LAYERS}}
    except Exception:
        out = {"crash": traceback.format_exc()}
    args.out.write_text(json.dumps(out))
    return 1 if "crash" in out else 0


if __name__ == "__main__":
    sys.exit(main())
