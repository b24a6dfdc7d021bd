#!/usr/bin/env python3
"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {adcirc_lb,ult_pingpong,serve_zipf}
        --seed N --seconds S --trace {0,1}

Runs repetitions of the workload for about ``S`` seconds, each in a
fresh process (``rep.py``) with the default ULT backend and GC on, and
prints every metric with its unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Times are medians over the
repetitions.

``--trace 1`` alternates traced and untraced repetitions: per-layer
metrics come from the traced ones, and ``trace.overhead_ratio`` is the
median traced ``wall_s`` over the median untraced one.

Every repetition's simulated outputs are checked (see ``workloads.py``)
and must be identical across the repetitions of one seed, traced or
not.  A wrong output, a crashed repetition or a process left behind
counts as a failed operation and makes the exit status 1.  Without
``src/repro`` and the committed figure tables next to this directory,
the benchmark exits with status 2 and prints no result.

``--tiny`` and ``--corrupt-reference`` are for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adcirc_lb", "ult_pingpong", "serve_zipf")
REQUIRED = ("src/repro/__init__.py", "benchmarks/results/fig6_context_switch.txt",
            "benchmarks/results/fig9_adcirc_scaling.txt", "BENCHMARK.json")
MIN_UNTRACED, MIN_TRACED = 3, 2
#: no repetition may start if it would end past this (the 180 s limit)
BUDGET_S = 150.0
#: counts that must repeat exactly across traced repetitions of a seed
EXACT_LAYERS = ("threads.switches", "ampi.p2p_calls", "apps.kernel_calls",
                "perf.counter_incr_calls", "perf.clock_advance_calls",
                "program.global_accesses", "charm.migrations",
                "serve.executed")
#: environment a caller could use to change what is measured
SCRUBBED_ENV = ("REPRO_ULT_BACKEND", "REPRO_PROVENANCE", "PYTHONPATH")


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(samples)
    k = max(1, math.ceil(q * len(xs)))
    return xs[k - 1], len(xs) - k


def tagged_pids(tag: str) -> list[int]:
    """Live processes started under this run's environment tag."""
    needle = f"PERFBENCH_RUN={tag}".encode()
    found = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            env = Path(f"/proc/{d}/environ").read_bytes()
        except OSError:
            continue
        if needle in env.split(b"\0"):
            found.append(int(d))
    return found


def kill_and_wait(pids: list[int], timeout_s: float = 10.0) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + timeout_s
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if Path(f"/proc/{p}").exists()
                and "Z" not in _state(p)]
        time.sleep(0.05)


def _state(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1][:3]
    except OSError:
        return "Z"


class Runner:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.tag = uuid.uuid4().hex
        self.base = ROOT / ".perfbench" / f"{args.workload}-trace{args.trace}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in SCRUBBED_ENV}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PERFBENCH_RUN"] = self.tag
        self.reps: list[tuple[bool, dict, float]] = []
        self.problems: list[str] = []
        self.kept: Path | None = None

    def one(self, traced: bool, index: int,
            budget_s: float) -> tuple[bool, float]:
        """One repetition in a fresh process: (completed, seconds)."""
        workdir = self.base / f"rep{index}"
        workdir.mkdir(parents=True)
        out = workdir / "rep.json"
        cmd = [sys.executable, str(HERE / "rep.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--trace", str(int(traced)),
               "--workdir", str(workdir), "--out", str(out)]
        if self.args.tiny:
            cmd.append("--tiny")
        if self.args.corrupt_reference:
            cmd.append("--corrupt")
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t-spawn", repr(t0)], cwd=workdir,
                                env=self.env, stdout=subprocess.DEVNULL)
        try:
            proc.wait(timeout=max(1.0, budget_s))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        took = time.monotonic() - t0
        leftovers = tagged_pids(self.tag)
        if leftovers:
            kill_and_wait(leftovers)
            self.problems.append(
                f"rep {index}: {len(leftovers)} process(es) left running")
        try:
            rep = json.loads(out.read_text())
        except (OSError, ValueError):
            rep = {"crash": f"no result (exit status {proc.returncode}, "
                            f"{took:.1f}s)"}
        if "crash" in rep:
            self.problems.append(f"rep {index}: {rep['crash']}")
        else:
            self.reps.append((traced, rep, took))
        if not traced:
            shutil.rmtree(workdir, ignore_errors=True)
        elif self.kept is not None:     # keep the last traced spans only
            shutil.rmtree(self.kept, ignore_errors=True)
        if traced:
            self.kept = workdir
        return "crash" not in rep, took

    def run(self) -> None:
        seconds = self.args.seconds
        t_run = time.monotonic()
        est = {False: 0.0, True: 0.0}
        crashes = 0
        for index in itertools.count():
            traced = bool(self.args.trace) and index % 2 == 0
            n_u = sum(1 for t, _, _ in self.reps if not t)
            n_t = sum(1 for t, _, _ in self.reps if t)
            enough = (n_u >= MIN_UNTRACED if not self.args.trace
                      else n_t >= MIN_TRACED and n_u >= 1)
            elapsed = time.monotonic() - t_run
            if enough and elapsed + est[traced] > seconds:
                return
            if crashes >= 2 or elapsed + est[traced] > BUDGET_S:
                if not enough:
                    self.problems.append(
                        f"only {n_u} untraced / {n_t} traced repetitions "
                        f"completed")
                return
            ok, took = self.one(traced, index, BUDGET_S + 20.0 - elapsed)
            est[traced] = max(est[traced], took)
            crashes += not ok


def check_outputs(runner: Runner) -> list[str]:
    """Simulated outputs must repeat across repetitions; exact layer
    counts must repeat across traced repetitions."""
    problems = []
    outputs = {json.dumps(rep["outputs"], sort_keys=True)
               for _, rep, _ in runner.reps}
    if len(outputs) > 1:
        problems.append("simulated outputs differ between repetitions "
                        "of one seed (traced vs untraced, or run to run)")
    layers = [rep["layers"] for t, rep, _ in runner.reps if t]
    for key in EXACT_LAYERS:
        values = {lay[key] for lay in layers}
        if len(values) > 1:
            problems.append(f"exact count {key} differs across traced "
                            f"repetitions: {sorted(values)}")
    return problems


def end_to_end(reps: list[dict]) -> tuple[dict, list[str]]:
    setup = [r["setup_s"] for r in reps]
    wall = [r["wall_s"] for r in reps]
    rss = [r["peak_rss_kb"] / 1024.0 for r in reps]
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(wall),
               "peak_rss_mb": statistics.median(rss)}
    lines = [f"  repetitions       {len(reps)}",
             f"  setup_s           {metrics['setup_s']:.4f} s   "
             f"(median; all: {', '.join(f'{x:.3f}' for x in setup)})",
             f"  wall_s            {metrics['wall_s']:.4f} s   "
             f"(median; all: {', '.join(f'{x:.3f}' for x in wall)})",
             f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB"]
    hits = [x for r in reps for x in r["latency_ms"].get("hit", [])]
    misses = [x for r in reps for x in r["latency_ms"].get("miss", [])]
    for name, samples, q in (("hit_p50_ms", hits, 0.50),
                             ("hit_p99_ms", hits, 0.99),
                             ("miss_p50_ms", misses, 0.50),
                             ("miss_p90_ms", misses, 0.90)):
        if samples:
            value, beyond = percentile(samples, q)
            lines.append(f"  {name:<17} {value:.4f} ms  (n={len(samples)}, "
                         f"{beyond} beyond)")
    return metrics, lines


def per_layer(traced: list[dict], untraced: list[dict]
              ) -> tuple[dict, list[str]]:
    """Medians over traced repetitions (exact counts are equal across
    them), plus the tracing overhead."""
    layers = [rep["layers"] for rep in traced]
    metrics: dict[str, float] = {}
    for key, value in layers[0].items():
        if isinstance(value, (int, float)):
            values = [lay[key] for lay in layers]
            metrics[key] = (values[0] if len(set(values)) == 1
                            else statistics.median(values))
    metrics["trace.overhead_ratio"] = (
        statistics.median(rep["wall_s"] for rep in traced)
        / statistics.median(rep["wall_s"] for rep in untraced))
    lines = [f"  traced/untraced   {len(traced)}/{len(untraced)} "
             f"repetitions"]
    by_fn = layers[-1]["apps.kernel_self_by_function_s"]
    if by_fn:
        lines.append("  kernel self time by app function: " + ", ".join(
            f"{k}={v:.3f}s" for k, v in by_fn.items()))
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a repro checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end" if not args.trace
                               else "per_layer"]}

    runner = Runner(args)
    # Byte-compile up front, untimed, so the first repetition's set-up
    # does not include it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(HERE)], env=runner.env,
                   stdout=subprocess.DEVNULL, check=False)
    try:
        runner.run()
    finally:
        kill_and_wait(tagged_pids(runner.tag))
    # A crashed repetition, a leftover process or a cross-repetition
    # mismatch each count as one failed operation.
    run_problems = runner.problems + (check_outputs(runner) if runner.reps
                                      else ["no repetition completed"])
    attempted = len(run_problems) + sum(rep["attempted"]
                                        for _, rep, _ in runner.reps)
    failed = len(run_problems) + sum(rep["failed"]
                                     for _, rep, _ in runner.reps)
    problems = run_problems + [e for _, rep, _ in runner.reps
                               for e in rep["errors"]]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    metrics: dict[str, float] = {}
    lines: list[str] = []
    traced = [rep for t, rep, _ in runner.reps if t]
    untraced = [rep for t, rep, _ in runner.reps if not t]
    if args.trace and traced and untraced:
        metrics, lines = per_layer(traced, untraced)
    elif not args.trace and untraced:
        metrics, lines = end_to_end(untraced)
    for line in lines:
        print(line)
    print(f"  failed_frac       {failed / attempted:.4f} ratio  "
          f"({failed}/{attempted} ops)")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:.6g} {units.get(name, '')}")
    for p in problems[:20]:
        print(f"  FAIL: {p}")
    drift = next((rep["info"].get("fig9_table_drift")
                  for _, rep, _ in runner.reps
                  if rep["info"].get("fig9_table_drift")), None)
    if drift:
        print("  note: committed Figure 9 table differs from these rows "
              "(cores, VPs/core, exec_ns, table_ns): " + json.dumps(drift))

    correct = failed == 0
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "problems": problems,
              "reps": [{"traced": t, "took_s": took, **rep}
                       for t, rep, took in runner.reps]}
    runner.base.mkdir(parents=True, exist_ok=True)
    (runner.base / "report.json").write_text(json.dumps(report, indent=1))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()
                          if name in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
