"""The benchmark's three workloads.

Each workload runs its fixed amount of work once, in the current
process (``rep.py`` starts a fresh process per repetition), checks the
simulated outputs, and returns a :class:`Rep`.

* ``adcirc_lb`` -- Figure 9 strong-scaling points of ADCIRC on bridges2
  with PIEglobals; GreedyRefine LB when VPs/core > 1.  The seed draws
  the storm; grid and steps are fixed, so host work does not depend on
  the seed.  Seed 0 is the paper configuration.
* ``ult_pingpong`` -- Figure 6 over the five figure methods plus a
  256-VP yield ring on one PE.  The seed permutes the method order.
* ``serve_zipf`` -- a ``repro serve`` subprocess with two process
  workers on a fresh store, driven as a closed loop by two client
  connections with a seeded Zipf stream of small specs.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

perf = time.perf_counter


@dataclass
class RepContext:
    seed: int
    root: Path                  #: checkout root (holds src/ and benchmarks/)
    workdir: Path               #: private scratch dir of this repetition
    t_spawn: float              #: time.monotonic() just before the spawn
    tiny: bool = False          #: self-test size
    corrupt: bool = False       #: corrupt the reference (self-test)
    tracer: Any = None          #: perfbench.tracer.Tracer when traced


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    #: outputs that must be identical across repetitions of one seed
    outputs: Any = None
    #: client round-trip samples in ms, by reply kind (serve only)
    latency_ms: dict[str, list[float]] = field(default_factory=dict)
    #: server counters over the timed stream (serve only)
    serve_stats: dict[str, float] = field(default_factory=dict)
    #: peak RSS in kB of this process plus any server tree it ran
    peak_rss_kb: int = 0
    info: dict[str, Any] = field(default_factory=dict)


def _self_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _setup_done(ctx: RepContext) -> tuple[float, float]:
    """Mark the first timed operation: (set-up seconds since the spawn,
    perf_counter start of the timed window)."""
    return time.monotonic() - ctx.t_spawn, perf()


# ---------------------------------------------------------------------------
# adcirc_lb
# ---------------------------------------------------------------------------

ADCIRC_CORES = (2, 4)
ADCIRC_RATIOS = (1, 4)
TINY_ADCIRC_CORES = (2,)
TINY_ADCIRC_RATIOS = (1, 2)


def adcirc_config(seed: int, tiny: bool):
    """Seed 0: the paper configuration; otherwise a seeded storm."""
    from repro.apps.adcirc import AdcircConfig

    cfg = (AdcircConfig(width=16, height=48, steps=12) if tiny
           else AdcircConfig())
    if seed == 0:
        return cfg
    rng = random.Random(seed)
    return replace(cfg,
                   storm_amplitude=round(rng.uniform(3.0, 7.0), 4),
                   storm_sigma=round(rng.uniform(6.0, 14.0), 4),
                   diffusion=round(rng.uniform(0.12, 0.24), 4),
                   decay=round(rng.uniform(0.01, 0.03), 4))


def fig9_committed_rows(root: Path) -> dict[tuple[int, int], int]:
    """(cores, VPs/core) -> exec time in ns, parsed from the committed
    Figure 9 table (printed in ms with two decimals)."""
    text = (root / "benchmarks/results/fig9_adcirc_scaling.txt").read_text()
    rows = {}
    for m in re.finditer(r"\|\s*(\d+)x[^|]*\|\s*(\d+)\s*\|\s*([\d.]+)\s*\|",
                         text):
        rows[(int(m.group(2)), int(m.group(1)))] = round(
            float(m.group(3)) * 1e6)
    return rows


def run_adcirc_lb(ctx: RepContext) -> Rep:
    from repro.harness.experiments import adcirc_scaling_experiment
    from repro.harness.jobspec import result_hook_scope
    from repro.machine import BRIDGES2

    cfg = adcirc_config(ctx.seed, ctx.tiny)
    cores, ratios = ((TINY_ADCIRC_CORES, TINY_ADCIRC_RATIOS) if ctx.tiny
                     else (ADCIRC_CORES, ADCIRC_RATIOS))
    results: list = []
    with result_hook_scope(lambda spec, job, result: results.append(result)):
        setup_s, t0 = _setup_done(ctx)
        rows, _ = adcirc_scaling_experiment(
            cores_list=cores, ratios=ratios, cfg=cfg, machine=BRIDGES2,
            method="pieglobals", lb_strategy="greedyrefine")
        wall = perf() - t0
    out_rows = [[r.cores, r.virtualization, r.exec_ns] for r in rows]

    errors = []
    bad_points = set()
    for i, result in enumerate(results):
        if len({repr(v) for v in result.exit_values.values()}) != 1:
            bad_points.add(i)
            errors.append(f"point {out_rows[i][:2]}: ranks disagree on "
                          f"the final wet-cell count")
    info: dict[str, Any] = {"rows": out_rows, "config": cfg.__dict__}
    if ctx.seed == 0:
        ref = json.loads((REFERENCE_DIR / "fig9_seed0.json").read_text())
        want = ref["tiny" if ctx.tiny else "full"]
        if ctx.corrupt:
            want = [[c, v, ns + 1] for c, v, ns in want]
        for i, (got, exp) in enumerate(zip(out_rows, want)):
            if got != exp:
                bad_points.add(i)
                errors.append(f"point {got[:2]}: exec_ns {got[2]} != "
                              f"reference {exp[2]}")
        if len(out_rows) != len(want):
            bad_points.add(-1)
            errors.append(f"{len(out_rows)} points, reference has "
                          f"{len(want)}")
        if not ctx.tiny:
            table = fig9_committed_rows(ctx.root)
            info["fig9_table_drift"] = [
                [c, v, ns, table.get((c, v))] for c, v, ns in out_rows
                if table.get((c, v)) != round(ns / 1e4) * 1e4]
    return Rep(setup_s=setup_s, wall_s=wall,
               attempted=len(out_rows), failed=len(bad_points),
               errors=errors, outputs=out_rows,
               peak_rss_kb=_self_rss_kb(), info=info)


# ---------------------------------------------------------------------------
# ult_pingpong
# ---------------------------------------------------------------------------

PINGPONG_YIELDS = 2000
RING_VPS, RING_YIELDS = 256, 40
TINY_PINGPONG_YIELDS = 50
TINY_RING_VPS, TINY_RING_YIELDS = 16, 5


def fig6_committed_ns(root: Path) -> dict[str, float]:
    """method -> simulated ns/switch, from the committed Figure 6 table."""
    text = (root / "benchmarks/results/fig6_context_switch.txt").read_text()
    return {m.group(1): float(m.group(2)) for m in re.finditer(
        r"\|\s*([a-z]+)\s*\|\s*\d+\s*\|\s*([\d.]+)\s*\|", text)}


def run_ult_pingpong(ctx: RepContext) -> Rep:
    from repro.harness.experiments import (
        FIGURE_METHODS,
        context_switch_experiment,
    )
    from repro.harness.jobspec import JobSpec, run_spec_job
    from repro.machine import BRIDGES2
    from repro.perf.counters import EV_CTX_SWITCH

    yields = TINY_PINGPONG_YIELDS if ctx.tiny else PINGPONG_YIELDS
    ring_vps, ring_yields = ((TINY_RING_VPS, TINY_RING_YIELDS) if ctx.tiny
                             else (RING_VPS, RING_YIELDS))
    methods = list(FIGURE_METHODS)
    random.Random(ctx.seed).shuffle(methods)
    ring = JobSpec(app="pingpong", nvp=ring_vps,
                   app_config={"yields_per_rank": ring_yields,
                               "name": "bench_ctxswitch"},
                   method="none", machine="generic-linux",
                   layout=(1, 1, 1), slot_size=1 << 26)

    setup_s, t0 = _setup_done(ctx)
    rows = context_switch_experiment(methods, yields_per_rank=yields,
                                     machine=BRIDGES2)
    _, ring_result = run_spec_job(ring)
    wall = perf() - t0

    want = fig6_committed_ns(ctx.root)
    if ctx.corrupt:
        want = {m: ns + 1.0 for m, ns in want.items()}
    errors = []
    failed = 0
    for r in rows:
        bad = []
        if r.ns_per_switch != want.get(r.method):
            bad.append(f"ns/switch {r.ns_per_switch} != committed "
                       f"Figure 6 {want.get(r.method)}")
        if r.switches != 2 * (yields + 1):
            bad.append(f"switches {r.switches} != {2 * (yields + 1)}")
        if bad:
            failed += 1
            errors.append(f"{r.method}: " + "; ".join(bad))
    ring_switches = ring_result.counters[EV_CTX_SWITCH]
    want_ring = ring_vps * (ring_yields + (2 if ctx.corrupt else 1))
    ring_ok = (ring_switches == want_ring and ring_result.exit_values
               == {vp: vp for vp in range(ring_vps)})
    if not ring_ok:
        failed += 1
        errors.append(f"ring: {ring_switches} switches (want {want_ring}) "
                      f"or wrong rank exit values")
    outputs = {"rows": [[r.method, r.switches, r.ns_per_switch]
                        for r in rows],
               "ring_switches": ring_switches}
    return Rep(setup_s=setup_s, wall_s=wall,
               attempted=len(rows) + 1, failed=failed, errors=errors,
               outputs=outputs, peak_rss_kb=_self_rss_kb(),
               info={"methods": methods})


# ---------------------------------------------------------------------------
# serve_zipf
# ---------------------------------------------------------------------------

KINDS = ("pingpong", "jacobi3d", "jacobi3d-tls", "adcirc",
         "jacobi3d-reliable", "jacobi3d-ckpt")
PER_KIND, TINY_PER_KIND = 10, 2
#: hits drawn between consecutive first sightings
HITS_PER_GAP = 17
#: first sightings immediately followed by a duplicate (-> coalesced)
DUPLICATES, TINY_DUPLICATES = 10, 2
ZIPF_S = 1.1
CLIENTS = 2
TWINS = 4
WARMUP_SPECS = 2


def _spec(kind: str, i: int, seed: int, rng: random.Random):
    """One population member.  Only cost-neutral fields are seeded
    (names, simulated per-cell costs, storm amplitude), so the host work
    of the population does not depend on the seed."""
    from repro.harness.experiments import FIGURE_METHODS
    from repro.harness.jobspec import JobSpec

    jacobi = {"iters": 8, "n": 12, "reduce_every": 2,
              "compute_ns_per_cell": round(rng.uniform(1.0, 4.0), 4)}
    if kind == "pingpong":
        return JobSpec(app="pingpong", nvp=4,
                       app_config={"yields_per_rank": 200,
                                   "name": f"zipf-{seed}-{i}"},
                       method=FIGURE_METHODS[i % len(FIGURE_METHODS)],
                       layout=(1, 1, 1))
    if kind == "jacobi3d":
        return JobSpec(app="jacobi3d", nvp=8, app_config=jacobi,
                       method="pieglobals", layout=(1, 1, 4))
    if kind == "jacobi3d-tls":
        return JobSpec(app="jacobi3d", nvp=8,
                       app_config={**jacobi, "tag_tls": True},
                       method="tlsglobals", layout=(2, 1, 2),
                       placement="roundrobin")
    if kind == "adcirc":
        return JobSpec(app="adcirc", nvp=8,
                       app_config={"height": 32, "lb_period": 5,
                                   "steps": 10, "width": 16,
                                   "storm_amplitude":
                                       round(rng.uniform(3.0, 7.0), 4)},
                       method="pieglobals", layout=(1, 1, 4))
    if kind == "jacobi3d-reliable":
        return JobSpec(app="jacobi3d", nvp=8, app_config=jacobi,
                       method="pieglobals", layout=(1, 1, 4),
                       transport="reliable",
                       fault_plan={"message_faults": {
                           "corrupt": 0.0, "drop": 0.05, "duplicate": 0.0,
                           "retry_timeout_ns": 50000},
                           "node_crashes": [], "seed": 11})
    if kind == "jacobi3d-ckpt":
        return JobSpec(app="jacobi3d", nvp=8,
                       app_config={**jacobi, "ckpt_period": 2},
                       method="pieglobals", layout=(4, 1, 2),
                       ft_interval_ns=0, transport="reliable",
                       recovery="local")
    raise ValueError(kind)


def serve_stream(seed: int, tiny: bool) -> tuple[list, list]:
    """(population, request stream) for one seed.

    Every population member is requested at least once (its first
    sighting is a miss), so the executed work is the same for every
    seed; ``DUPLICATES`` first sightings are requested twice back to
    back (the second coalesces onto the in-flight run); between first
    sightings come ``HITS_PER_GAP`` repeats drawn Zipf(``ZIPF_S``) over
    the specs seen so far, most popular first seen.
    """
    rng = random.Random(seed)
    per = TINY_PER_KIND if tiny else PER_KIND
    population = [_spec(kind, i, seed, rng)
                  for kind in KINDS for i in range(per)]
    order = population[:]
    rng.shuffle(order)
    dups = set(rng.sample(range(len(order)),
                          TINY_DUPLICATES if tiny else DUPLICATES))
    cum, acc = [], 0.0
    for rank in range(len(order)):
        acc += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(acc)
    stream = []
    for n, spec in enumerate(order):
        if n:
            stream.extend(rng.choices(order[:n], cum_weights=cum[:n],
                                      k=HITS_PER_GAP))
        stream.append(spec)
        if n in dups:
            stream.append(spec)
    return population, stream


def _server_tree_rss_kb(workdir: Path) -> int:
    """Sum of the peak RSS each server-tree process wrote at exit."""
    return sum(json.loads(p.read_text())["maxrss_kb"]
               for p in workdir.glob("rss-*.json"))


def _canon(record: dict) -> str:
    """Canonical bytes of a record's simulated content: everything but
    ``created_at``, the host clock at recording time."""
    return json.dumps({k: v for k, v in record.items() if k != "created_at"},
                      sort_keys=True)


def run_serve_zipf(ctx: RepContext) -> Rep:
    from repro.harness.jobspec import JobSpec, run_spec_job
    from repro.provenance.record import RunRecord
    from repro.serve import ServeClient, ServeConnectionError

    population, stream = serve_stream(ctx.seed, ctx.tiny)
    rng = random.Random(ctx.seed + 1)
    errors: list[str] = []
    env = {**os.environ, "PERFBENCH_OUT": str(ctx.workdir)}
    if ctx.tracer is not None:
        env["PERFBENCH_TRACE_DIR"] = str(ctx.workdir / "trace")
    sock = "serve.sock"   # relative to workdir: short enough for AF_UNIX
    log = open(ctx.workdir / "server.log", "wb")
    server = subprocess.Popen(
        [sys.executable, str(HERE / "serve_host.py"), "serve",
         "--socket", sock, "--store", "store", "--workers", "2"],
        cwd=ctx.workdir, env=env, stdout=log, stderr=subprocess.STDOUT)
    client = ServeClient(socket_path=ctx.workdir / sock, retries=0)
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                client.ping()
                break
            except ServeConnectionError:
                if time.monotonic() > deadline or server.poll() is not None:
                    raise RuntimeError("repro serve did not come up") \
                        from None
                time.sleep(0.02)
        # Pool warm-up: one distinct spec per worker, concurrently.
        warm = [JobSpec(app="pingpong", nvp=2,
                        app_config={"yields_per_rank": 10,
                                    "name": f"warmup-{ctx.seed}-{i}"},
                        method="none")
                for i in range(WARMUP_SPECS)]
        ths = [threading.Thread(target=client.submit, args=(s,))
               for s in warm]
        for t in ths:
            t.start()
        for t in ths:
            t.join()
        for _ in range(50):
            client.ping()
        before = client.stats()

        replies: list = [None] * len(stream)
        lat: list = [0.0] * len(stream)
        cursor = iter(range(len(stream)))
        lock = threading.Lock()
        crashed: list[BaseException] = []

        def loop() -> None:
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    t = perf()
                    replies[i] = client.submit(stream[i])
                    lat[i] = (perf() - t) * 1e3
            except BaseException as e:  # reported as failed ops below
                crashed.append(e)

        loaders = [threading.Thread(target=loop) for _ in range(CLIENTS)]
        setup_s, t0 = _setup_done(ctx)
        for t in loaders:
            t.start()
        for t in loaders:
            t.join()
        wall = perf() - t0
        after = client.stats()
        if ctx.tracer is not None:
            ctx.tracer.uninstall()    # the twins below are not traffic
        for e in crashed:
            errors.append(f"client thread died: {type(e).__name__}: {e}")

        # -- output checks ------------------------------------------------
        failed = 0
        first: dict[str, str] = {}
        hits, misses = [], []
        for i, r in enumerate(replies):
            if r is None or not r.ok:
                failed += 1
                if r is not None and len(errors) < 10:
                    errors.append(f"request {i}: {r.error} ({r.reason})")
                continue
            canon = _canon(r.record)
            if first.setdefault(r.run_id, canon) != canon:
                failed += 1
                errors.append(f"request {i}: record of {r.run_id[:12]} "
                              f"differs from its first reply")
            (hits if r.cache == "hit" else misses).append(lat[i])
        distinct = len(population) + (1 if ctx.corrupt else 0)
        delta = {k: after[k] - before[k]
                 for k in ("submissions", "hits", "executed", "coalesced",
                           "shed", "deadline_exceeded", "errors")}
        delta["retries"] = (after["pool"]["retries"]
                            - before["pool"]["retries"])
        if delta["executed"] != distinct:
            failed += 1
            errors.append(f"executed {delta['executed']} != "
                          f"{distinct} distinct specs")
        ok_ids = sorted(first)
        twins = rng.sample(ok_ids, min(TWINS, len(ok_ids)))
        for run_id in twins:
            spec = JobSpec.from_dict(json.loads(first[run_id])["spec"])
            job, result = run_spec_job(spec, strict=False)
            local = RunRecord.from_run(spec, job, result).to_dict()
            if ctx.corrupt:
                local["makespan_ns"] += 1
            if _canon(local) != first[run_id]:
                failed += 1
                errors.append(f"served record of {run_id[:12]} differs "
                              f"from its local run_spec twin")
        client.shutdown()
        try:
            code = server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            failed += 1
            errors.append(f"server exit status {code}")
    finally:
        client.close()
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        log.close()
    n = len(stream)
    return Rep(
        setup_s=setup_s, wall_s=wall,
        attempted=n + len(twins) + 1, failed=failed, errors=errors,
        outputs={"executed": delta["executed"],
                 "run_ids": ok_ids},
        latency_ms={"hit": hits, "miss": misses},
        serve_stats={**delta,
                     "hit_ratio": delta["hits"] / n if n else 0.0},
        peak_rss_kb=_self_rss_kb() + _server_tree_rss_kb(ctx.workdir),
        info={"requests": n, "distinct": len(population),
              "twins": len(twins)})


#: Workloads whose processes (for serve_zipf: client, server and pool
#: workers) run on one CPU.  The simulator hands one baton between its
#: threads, so exactly one of them runs at a time and a second CPU adds
#: no parallelism -- only cross-CPU wake-ups whose latency depends on
#: what else the host runs.  On a shared 2-CPU host this made unpinned
#: ult_pingpong wall times swing by more than 2x within an hour, and
#: serve_zipf with one CPU per worker spread 42% over ten seeds (10%
#: on one CPU, and faster).
ONE_CPU = ("adcirc_lb", "ult_pingpong", "serve_zipf")

WORKLOADS = {
    "adcirc_lb": run_adcirc_lb,
    "ult_pingpong": run_ult_pingpong,
    "serve_zipf": run_serve_zipf,
}
