"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-methods``
    The privatization methods and their declared capabilities.
``list-machines``
    Machine presets and their toolchains.
``probe <method> [--json]``
    Run the executed capability probes for one method.
``tables``
    Regenerate the paper's Tables 1 and 3 from probes.
``run <experiment> [--json]``
    Run one experiment driver: fig5, fig6, fig7, fig8, icache, adcirc.
``trace <experiment> [--out F]``
    Run an experiment with Projections-style tracing on; writes a Chrome
    trace-event JSON (open in Perfetto / about:tracing) and a plain-text
    per-PE timeline.
``faults <app> [--kmax K] [--json]``
    Fault-tolerance overhead sweep: failure-free vs. k node crashes on
    a checkpointing Jacobi-3D, with deterministic fault injection.
``bench [--quick] [--serve] [--json] [--out F]``
    Wall-clock (host-time) performance smoke of the event loop itself:
    ULT lifecycle churn, a paper-scale Jacobi run (with a rep-to-rep
    byte-identical-timeline determinism check), and a figure-6-style
    context-switch sweep.  ``--serve`` appends a
    load-generator pass against a private job service (cold/warm
    throughput, hit rate, single-flight coalescing, concurrent gc).
    Writes ``BENCH_scale.json``.
``hello [--method M] [--vp N]``
    The Figure 2/3 hello world under a chosen method.
``runs [--store DIR]``
    List the provenance store's run records.
``replay <id> [--store DIR]``
    Re-execute a stored run under the current sources and verify the
    timeline is byte-identical (plus counters/makespan/rollbacks).
``diff <id> <id> [--store DIR]``
    Timeline forensics between two stored runs: spec diff, first
    divergent event (index, PE, kind), counter and metric deltas.
``stats <id> [--compare ID] [--store DIR]``
    Projections-style per-PE utilization and traffic report from a
    stored record; ``--compare`` renders a delta table of two runs.
``pin {run,update,list,add,rm} [...]``
    The pinned-scenario regression corpus (committed manifest of spec ->
    expected timeline SHA-256 + counter totals); ``pin run`` is the CI
    drift gate.
``gc [--keep-pinned] [--max-age-days D] [--max-bytes B]``
    Collect old/oversized store records; pinned specs always survive.
``serve [--socket P | --port N] [--workers W] [--gc-every S]``
    Multi-tenant job service on the provenance cache: accepts
    concurrent JobSpec submissions over a local socket, executes
    misses on a worker pool, serves repeats straight from the store,
    and coalesces identical in-flight submissions onto one execution.

``run``, ``faults``, ``bench`` and ``hello`` accept ``--provenance
[DIR]`` (or the ``REPRO_PROVENANCE`` environment variable) to record
every run they execute into the store (default ``.repro/store``).

Every command exits nonzero when the simulated job fails (e.g. an
unrecoverable fault or an unsupported method/toolchain combination), so
scripts and CI can detect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.harness.tables import format_table


def cmd_list_methods(_args) -> int:
    from repro.privatization import get_method, method_names

    rows = []
    for name in method_names():
        m = get_method(name)
        c = m.capabilities
        rows.append([name, c.automation, c.smp_support, c.migration,
                     "yes" if m.uses_funcptr_shim else "no"])
    print(format_table(
        ["method", "automation", "SMP", "migration", "funcptr shim"],
        rows, title="Registered privatization methods"))
    return 0


def cmd_list_machines(_args) -> int:
    from repro.machine import PRESETS

    rows = []
    for name, m in sorted(PRESETS.items()):
        t = m.toolchain
        rows.append([
            name, m.arch.value, m.os.value,
            f"{t.compiler} {'.'.join(map(str, t.compiler_version))}",
            f"ld {'.'.join(map(str, t.linker_version))}",
            t.libc.value, m.cores_per_node,
        ])
    print(format_table(
        ["preset", "arch", "os", "compiler", "linker", "libc",
         "cores/node"],
        rows, title="Machine presets"))
    return 0


def cmd_probe(args) -> int:
    from repro.harness.capabilities import probe_method

    row = probe_method(args.method)
    if getattr(args, "json", False):
        print(json.dumps(dataclasses.asdict(row), sort_keys=True, indent=2))
        return 0
    print(f"method      : {row.display_name}")
    print(f"automation  : {row.automation}")
    print(f"portability : {row.portability}")
    print(f"SMP support : {row.smp_support}")
    print(f"migration   : {row.migration}")
    print("privatizes  : "
          + ", ".join(k for k, v in row.privatizes.items() if v))
    print(f"runs on     : {', '.join(row.works_on) or '(nowhere probed)'}")
    return 0


def cmd_tables(_args) -> int:
    from repro.harness.capabilities import (
        TABLE1_METHODS,
        TABLE3_METHODS,
        capability_table,
    )

    print(capability_table(TABLE1_METHODS,
                           title="Table 1: existing methods"))
    print()
    print(capability_table(TABLE3_METHODS,
                           title="Table 3: incl. the 3 new methods"))
    return 0


#: experiments the ``trace`` subcommand can run with a recorder attached
TRACEABLE_EXPERIMENTS = ("fig5", "fig6", "fig7", "fig8")


def _run_experiment(name: str, args, trace=None, sanitize=None):
    """Run one experiment driver; returns (rows, formatted table)."""
    from repro.harness import experiments as ex

    if name == "fig5":
        rows = ex.startup_experiment(trace=trace, sanitize=sanitize)
        table = format_table(
            ["method", "startup (ms)", "overhead %"],
            [[r.method, r.startup_ns / 1e6, r.overhead_pct] for r in rows],
            title="Figure 5: startup overhead (8x virtualization)")
    elif name == "fig6":
        rows = ex.context_switch_experiment(
            yields_per_rank=getattr(args, "quick_n", None) or 20_000,
            trace=trace, sanitize=sanitize)
        table = format_table(
            ["method", "ns/switch", "delta vs baseline"],
            [[r.method, r.ns_per_switch, r.delta_vs_baseline_ns]
             for r in rows],
            title="Figure 6: ULT context-switch time")
    elif name == "fig7":
        rows = ex.jacobi_access_experiment(trace=trace, sanitize=sanitize)
        table = format_table(
            ["method", "exec (ms)", "relative"],
            [[r.method, r.exec_ns / 1e6, r.rel_to_baseline] for r in rows],
            title="Figure 7: privatized-access overhead (-O2)")
    elif name == "fig8":
        rows = ex.migration_experiment(trace=trace, sanitize=sanitize)
        table = format_table(
            ["method", "heap MB", "migrate (ms)", "moved MB"],
            [[r.method, r.heap_mb, r.migrate_ns / 1e6,
              r.bytes_moved / 2**20] for r in rows],
            title="Figure 8: migration time vs heap")
    elif name == "icache":
        rows = ex.icache_experiment()
        table = format_table(
            ["machine", "method", "fetches", "misses", "miss rate"],
            [[r.machine, r.method, r.accesses, r.misses,
              f"{100 * r.miss_rate:.1f}%"] for r in rows],
            title="Section 4.5: L1 icache misses")
    elif name == "adcirc":
        cores = tuple(int(c) for c in
                      (getattr(args, "cores", None) or "1,2,4,8").split(","))
        _, rows = ex.adcirc_scaling_experiment(cores_list=cores)
        table = format_table(
            ["cores", "best ratio", "baseline (ms)", "best (ms)",
             "speedup %"],
            [[s.cores, s.best_ratio, s.baseline_ns / 1e6, s.best_ns / 1e6,
              s.speedup_pct] for s in rows],
            title="Table 2: ADCIRC speedup over baseline")
    else:
        raise ValueError(f"unknown experiment {name!r}")
    return rows, table


def cmd_run(args) -> int:
    detector = None
    if getattr(args, "sanitize", False):
        if args.experiment not in TRACEABLE_EXPERIMENTS:
            print(f"--sanitize supports: {', '.join(TRACEABLE_EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
        from repro.sanitize import RaceDetector

        detector = RaceDetector()
    try:
        rows, table = _run_experiment(args.experiment, args,
                                      sanitize=detector)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    findings = detector.sorted_findings() if detector is not None else []
    if getattr(args, "json", False):
        payload = {"experiment": args.experiment,
                   "rows": [dataclasses.asdict(r) for r in rows]}
        if detector is not None:
            payload["sanitize"] = {
                "findings": [f.to_dict() for f in findings],
                "counters": dict(sorted(
                    detector.counters.snapshot().items())),
                "dropped": detector.dropped,
            }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(table)
        if detector is not None:
            print()
            if findings:
                for f in findings:
                    print(f.format())
                print(f"\nsanitizer: {len(findings)} finding(s)")
            else:
                print("sanitizer: no findings")
    from repro.sanitize.findings import has_errors

    return 1 if has_errors(findings) else 0


def cmd_trace(args) -> int:
    from repro.trace import (
        TraceRecorder,
        render_timeline,
        write_chrome_trace,
    )

    try:
        recorder = TraceRecorder(capacity=args.capacity)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    try:
        _, table = _run_experiment(args.experiment, args, trace=recorder)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    print(table)

    out = args.out or f"{args.experiment}-trace.json"
    timeline = render_timeline(recorder)
    timeline_out = args.timeline_out or f"{out}.timeline.txt"
    try:
        nbytes = write_chrome_trace(recorder, out)
        with open(timeline_out, "w") as f:
            f.write(timeline + "\n")
    except OSError as e:
        print(f"cannot write trace: {e}", file=sys.stderr)
        return 2
    print()
    print(timeline)
    print()
    print(f"wrote {out} ({nbytes} bytes, {len(recorder)} events, "
          f"{recorder.dropped} dropped) — open in https://ui.perfetto.dev")
    print(f"wrote {timeline_out}")
    return 0


def cmd_faults(args) -> int:
    from repro.ft import MessageFaults
    from repro.harness.experiments import fault_overhead_experiment

    mf = None
    if args.drop or args.duplicate or args.corrupt:
        mf = MessageFaults(drop=args.drop, duplicate=args.duplicate,
                           corrupt=args.corrupt)
    rows = fault_overhead_experiment(
        kmax=args.kmax, seed=args.seed, nvp=args.nvp, nodes=args.nodes,
        method=args.method, ckpt_interval_ns=args.interval_ns,
        transport=args.transport, recovery=args.recovery,
        message_faults=mf,
    )
    if args.json:
        from repro.harness.jobspec import code_version

        # Each row embeds its seed, transport, recovery, full fault plan
        # and the code version, so any row can be re-run from the JSON
        # alone — and a mismatch attributed to changed sources.
        print(json.dumps(
            {"experiment": "faults", "app": args.app,
             "code_version": code_version(),
             "rows": [dataclasses.asdict(r) for r in rows]},
            sort_keys=True, indent=2))
    else:
        print(format_table(
            ["k", "status", "makespan (ms)", "overhead %", "recovery (ms)",
             "ckpts", "retrans", "replayed", "migrations"],
            [[r.k, r.status, r.makespan_ns / 1e6, r.overhead_pct,
              r.recovery_ns / 1e6, r.checkpoints, r.retransmissions,
              r.replayed, r.migrations]
             for r in rows],
            title=f"Fault-tolerance overhead ({args.app}, "
                  f"seed={args.seed}, transport={args.transport}, "
                  f"recovery={args.recovery})",
        ))
    return 0 if all(r.status == "ok" for r in rows) else 1


def cmd_bench(args) -> int:
    from repro.harness.bench import run_bench

    payload = run_bench(quick=args.quick, nvp=args.nvp, reps=args.reps,
                        serve=args.serve)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        except OSError as e:
            print(f"cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    if args.json:
        print(text)
    else:
        for stage in payload["stages"]:
            name = stage["name"]
            if "sample" in stage:
                s = stage["sample"]
                extra = ""
                if "workers_created" in stage:
                    extra = f" — {stage['workers_created']} workers created"
                if "trace_identical" in stage:
                    extra = (" — timelines identical"
                             if stage["trace_identical"]
                             else " — TIMELINES DIVERGED")
                print(format_table(
                    ["best wall (s)", f"{stage['unit']}/s"],
                    [[s["min_s"], s["ops_per_s"]]], title=f"{name}{extra}"))
            elif name == "serve":
                c, w = stage["cold"], stage["warm"]
                b = stage.get("batch")
                rows = [
                    ["cold", c["jobs"], c["total_s"], c["jobs_per_s"],
                     "-", c["p50_ms"], c["p99_ms"]],
                    ["warm", w["jobs"], w["total_s"], w["jobs_per_s"],
                     w["hit_rate"], w["p50_ms"], w["p99_ms"]],
                ]
                if b is not None:
                    rows.append(["batch", b["jobs"], b["total_s"],
                                 b["jobs_per_s"], b["hit_rate"],
                                 b["p50_ms"], b["p99_ms"]])
                ident = ("identical" if stage["records_identical"]
                         else "DIVERGED")
                verdict = "ok" if stage["ok"] else "FAILED"
                print(format_table(
                    ["pass", "jobs", "wall (s)", "jobs/s", "hit rate",
                     "p50 ms", "p99 ms"],
                    rows,
                    title=f"serve — warm {stage['speedup_warm_vs_cold']}x "
                          f"over cold, records {ident}, gc cycles "
                          f"{stage['gc']['cycles']} ({verdict})"))
                res = stage.get("resilience")
                if res is not None:
                    print(format_table(
                        ["queue depth", "shed", "retries", "quarantined",
                         "deadline", "lease waits"],
                        [[res["queue_depth"], res["shed"], res["retries"],
                          res["quarantined"], res["deadline_exceeded"],
                          res["lease_waits"]]],
                        title="serve resilience counters"))
            else:
                print(format_table(
                    ["nvp", "wall (s)", "switches/s"],
                    [[r["nvp"], r["wall_s"], r["switches_per_s"]]
                     for r in stage["rows"]],
                    title=name))
            print()
        if args.out:
            print(f"wrote {args.out}")
    # The determinism contract is part of the bench's contract: fail
    # loudly if two reps ever produce different simulated timelines
    # (or the serve stage breaks its caching/coalescing invariants).
    ok = all(s.get("trace_identical", True) and s.get("ok", True)
             for s in payload["stages"])
    return 0 if ok else 1


def cmd_check(args) -> int:
    from repro.sanitize.check import check_examples, run_check

    try:
        if args.target == "examples":
            reports = check_examples(args.method, nvp=args.nvp,
                                     static_only=args.static_only)
        else:
            reports = [run_check(args.target, args.method, nvp=args.nvp,
                                 static_only=args.static_only,
                                 slot_size=args.slot_size)]
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         sort_keys=True, indent=2))
    else:
        for r in reports:
            verdict = "clean" if r.ok else "FAILED"
            ran = " (executed)" if r.executed else ""
            print(f"== check {r.target} method={r.method} "
                  f"nvp={r.nvp}{ran}: {verdict}")
            for f in r.findings:
                print(f.format())
            if r.findings:
                print(f"{len(r.findings)} finding(s)")
    return 0 if all(r.ok for r in reports) else 1


def cmd_analyze(args) -> int:
    from repro.analyze import analyze_source
    from repro.analyze.selflint import lint_tree
    from repro.analyze.targets import resolve_targets

    if args.target == "self":
        findings = lint_tree()
        if args.json:
            print(json.dumps([f.to_dict() for f in findings],
                             sort_keys=True, indent=2))
        else:
            verdict = "clean" if not findings else "FAILED"
            print(f"== analyze self (determinism lint of src/repro): "
                  f"{verdict}")
            for f in findings:
                print(f.format())
            if findings:
                print(f"{len(findings)} finding(s)")
        return 0 if not findings else 1

    try:
        triples = resolve_targets(args.target)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    reports = []
    for label, source, kw in triples:
        if args.method is not None:
            kw = {**kw, "method": args.method}
        if args.suggest:
            kw = {**kw, "suggest": True}
        reports.append(analyze_source(source, target=label, **kw))
    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         sort_keys=True, indent=2))
    else:
        for r in reports:
            verdict = "clean" if r.ok else "FAILED"
            method = f" method={r.method}" if r.method else ""
            print(f"== analyze {r.target}{method}: {verdict} "
                  f"(predicted min method: {r.predicted_method}, "
                  f"{len(r.functions)} function(s), {r.elapsed_ms:.1f} ms)")
            for f in r.findings:
                print(f.format())
            if r.findings:
                print(f"{len(r.findings)} finding(s)")
    return 0 if all(r.ok for r in reports) else 1


def cmd_hello(args) -> int:
    from repro.harness.jobspec import JobSpec, run_spec

    spec = JobSpec(app="hello", nvp=args.vp, method=args.method,
                   machine="generic-linux", layout=(1, 1, 1),
                   slot_size=1 << 24)
    result = run_spec(spec)
    print(f"$ ./hello_world +vp {args.vp}    (method={args.method})")
    for vp in range(args.vp):
        print(result.exit_values[vp])
    return 0


# ---------------------------------------------------------------------------
# Provenance commands
# ---------------------------------------------------------------------------

def _open_store(args):
    from repro.provenance import ProvenanceStore

    return ProvenanceStore(getattr(args, "store", None) or None)


def cmd_runs(args) -> int:
    store = _open_store(args)
    records = sorted(store.records(), key=lambda r: r.created_at)
    if args.json:
        print(json.dumps(
            [{"run_id": r.run_id, "app": r.spec.app, "nvp": r.spec.nvp,
              "method": r.spec.method, "transport": r.spec.transport,
              "recovery": r.spec.recovery, "events": r.events,
              "makespan_ns": r.makespan_ns,
              "timeline_sha256": r.timeline_sha256,
              "created_at": r.created_at}
             for r in records],
            sort_keys=True, indent=2))
        return 0
    if not records:
        print(f"no records in {store.root}")
        return 0
    rows = [[r.run_id[:12], r.spec.app, r.spec.nvp, r.spec.method,
             r.spec.transport, r.spec.recovery, r.events,
             round(r.makespan_ns / 1e6, 3), r.timeline_sha256[:12]]
            for r in records]
    print(format_table(
        ["id", "app", "nvp", "method", "transport", "recovery", "events",
         "makespan (ms)", "timeline sha"],
        rows, title=f"Provenance store {store.root} ({len(rows)} records)"))
    return 0


def cmd_replay(args) -> int:
    from repro.provenance import replay_record

    store = _open_store(args)
    record = store.get(args.id)
    report = replay_record(record, store=store)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        return 0 if report.ok else 1
    s = record.spec
    verdict = "byte-identical" if report.ok else "DIVERGED"
    print(f"replay {record.run_id[:12]} ({s.app}, nvp={s.nvp}, {s.method}, "
          f"{s.transport}/{s.recovery}): {verdict}")
    print(f"  recorded sha256 : {report.expected_sha}")
    print(f"  replayed sha256 : {report.actual_sha}")
    print(f"  events          : {report.expected_events} -> "
          f"{report.actual_events}")
    print(f"  makespan match  : {report.makespan_match}")
    print(f"  counters match  : {report.counters_match}")
    print(f"  rollbacks match : {report.rollbacks_match}")
    for name, (rec, rep) in sorted(report.counter_drift.items()):
        print(f"    {name}: {rec} -> {rep}")
    if report.code_version_changed:
        print("  note: sources changed since this record was written")
    return 0 if report.ok else 1


def cmd_diff(args) -> int:
    from repro.provenance import diff_records

    store = _open_store(args)
    a, b = store.get(args.a), store.get(args.b)
    report = diff_records(a, b, store.load_timeline(a),
                          store.load_timeline(b))
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.format())
    return 0 if report.identical else 1


def cmd_stats(args) -> int:
    from repro.provenance import RunMetrics, compare_metrics

    store = _open_store(args)
    m = RunMetrics.from_record(store.get(args.id))
    if args.compare:
        m2 = RunMetrics.from_record(store.get(args.compare))
        if args.json:
            print(json.dumps({"a": m.to_dict(), "b": m2.to_dict()},
                             sort_keys=True, indent=2))
        else:
            print(compare_metrics(m, m2))
    elif args.json:
        print(json.dumps(m.to_dict(), sort_keys=True, indent=2))
    else:
        print(m.format())
    return 0


def cmd_pin(args) -> int:
    from repro.provenance import (
        PinEntry,
        load_manifest,
        repin,
        save_manifest,
        verify_manifest,
    )

    manifest = args.manifest
    entries = load_manifest(manifest)

    if args.action == "list":
        if not entries:
            print(f"no pinned scenarios in {manifest}")
            return 0
        rows = [[name, e.spec.app, e.spec.nvp, e.spec.method,
                 e.spec.transport, e.spec.recovery,
                 e.timeline_sha256[:12], e.events]
                for name, e in sorted(entries.items())]
        print(format_table(
            ["scenario", "app", "nvp", "method", "transport", "recovery",
             "timeline sha", "events"],
            rows, title=f"Pinned scenarios ({manifest})"))
        return 0

    if args.action == "rm":
        if not args.names:
            print("pin rm: need at least one scenario name", file=sys.stderr)
            return 2
        missing = [n for n in args.names if n not in entries]
        if missing:
            print(f"pin rm: not pinned: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        for n in args.names:
            del entries[n]
        save_manifest(manifest, entries)
        print(f"removed {len(args.names)} scenario(s); "
              f"{len(entries)} remain in {manifest}")
        return 0

    if args.action == "add":
        if len(args.names) != 2:
            print("pin add: usage: pin add <name> <record-id>",
                  file=sys.stderr)
            return 2
        name, rec_id = args.names
        record = _open_store(args).get(rec_id)
        entries[name] = PinEntry.from_record(name, record)
        save_manifest(manifest, entries)
        print(f"pinned {name}: {record.spec.app} nvp={record.spec.nvp} "
              f"timeline {record.timeline_sha256[:12]}")
        return 0

    # run / update: re-execute and compare.
    results = verify_manifest(entries, args.names or None)
    if not results:
        print(f"no pinned scenarios in {manifest}", file=sys.stderr)
        return 2
    drifted = [r for r in results if not r.ok]
    if args.json:
        print(json.dumps({"manifest": manifest, "ok": not drifted,
                          "results": [r.to_dict() for r in results]},
                         sort_keys=True, indent=2))
    else:
        for r in results:
            print(r.format())
    if args.action == "update":
        save_manifest(manifest, repin(entries, results))
        if not args.json:
            print(f"re-pinned {len(results)} scenario(s) in {manifest}")
        return 0
    if drifted and not args.json:
        print(f"\n{len(drifted)}/{len(results)} pinned scenario(s) "
              f"drifted — investigate with `repro diff`, or re-pin "
              f"intentional changes with `repro pin update`")
    return 1 if drifted else 0


def cmd_gc(args) -> int:
    store = _open_store(args)
    keep: frozenset[str] = frozenset()
    if args.keep_pinned:
        from repro.provenance import load_manifest, pinned_spec_digests

        keep = pinned_spec_digests(load_manifest(args.manifest))
    report = store.gc(
        keep=keep,
        max_age_s=(args.max_age_days * 86400.0
                   if args.max_age_days is not None else None),
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        verb = "would delete" if report.dry_run else "deleted"
        print(f"gc {store.root}: scanned {report.scanned}, {verb} "
              f"{report.deleted} ({report.freed_bytes} bytes), protected "
              f"{report.protected} pinned, skipped {report.skipped} "
              f"concurrently-changed, swept {report.swept_tmp} stale tmp, "
              f"{report.remaining} remain")
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import DEFAULT_SOCKET, JobService

    keep: frozenset[str] = frozenset()
    if args.keep_pinned:
        from repro.provenance import load_manifest, pinned_spec_digests

        keep = pinned_spec_digests(load_manifest(args.manifest))
    use_tcp = args.port is not None
    service = JobService(
        _open_store(args),
        workers=args.workers,
        socket_path=None if use_tcp else (args.socket or DEFAULT_SOCKET),
        host=args.host if use_tcp else None,
        port=args.port or 0,
        worker_mode=args.worker_mode,
        max_queue=args.max_queue if args.max_queue > 0 else None,
        retries=args.retries,
        lease_ttl_s=args.lease_ttl if args.lease_ttl > 0 else None,
        enable_chaos=args.chaos_hooks,
        gc_every_s=args.gc_every,
        gc_max_age_s=(args.max_age_days * 86400.0
                      if args.max_age_days is not None else None),
        gc_max_bytes=args.max_bytes,
        gc_keep=keep,
    )

    async def amain() -> None:
        await service.start()
        print(f"repro serve: listening on {service.endpoint} "
              f"({service.workers} {service.worker_mode} worker(s), "
              f"store {service.store.root})", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, service.request_shutdown)
            except NotImplementedError:  # pragma: no cover
                pass
        await service.run()

    asyncio.run(amain())
    s = service.stats
    print(f"repro serve: exiting — {s.submissions} submissions, "
          f"{s.hits} hits, {s.executed} executed, {s.coalesced} coalesced, "
          f"{s.errors} errors, {s.shed} shed, {s.quarantined} quarantined, "
          f"{s.gc_cycles} gc cycles", flush=True)
    return 0


# ---------------------------------------------------------------------------
# Chaos commands
# ---------------------------------------------------------------------------

def cmd_chaos_run(args) -> int:
    from repro.chaos import run_campaign

    store = None if args.no_store else _open_store(args)
    progress = None if (args.json or args.quiet) else print
    report = run_campaign(
        args.seed, args.count, store=store,
        replay=not args.no_replay, shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget, progress=progress,
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        if progress is not None:
            print()
        print(report.summary())
    return 0 if report.ok else 1


def cmd_chaos_shrink(args) -> int:
    from repro.chaos import generate_scenario, run_drill, run_scenario

    store = _open_store(args)
    if args.drill:
        # CI gate: plant a known bug and prove the shrinker converges on
        # a tiny plan whose stored repro replays byte-identically.
        report = run_drill(args.seed, store, budget=args.budget,
                           max_faults=args.max_faults)
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        else:
            verdict = "converged" if report.ok else "FAILED"
            print(f"shrinker drill (seed={args.seed}): {verdict}")
            print(f"  faults in minimal plan : {report.n_faults} "
                  f"(target <= {args.max_faults})")
            print(f"  predicate evaluations  : {report.evaluations}")
            print(f"  repro replay           : "
                  f"{'byte-identical' if report.replay_ok else 'DIVERGED'}")
            for step in report.steps:
                print(f"    {step}")
            if report.run_id:
                print(f"  repro: repro chaos replay {report.run_id[:12]}")
        return 0 if report.ok else 1

    # Re-run one campaign scenario and minimize it if it violates.
    sc = generate_scenario(args.seed, args.index)
    outcome = run_scenario(sc, store=store, shrink=True,
                           shrink_budget=args.budget)
    if args.json:
        print(json.dumps(outcome.to_dict(), sort_keys=True, indent=2))
        return 1 if outcome.violations else 0
    print(outcome.scenario.label(), "->", outcome.status)
    for v in outcome.violations:
        print(f"  - {v}")
    if outcome.shrunk is not None:
        sh = outcome.shrunk
        print(f"  shrunk to {sh['n_faults']} fault(s) in "
              f"{sh['evaluations']} evaluations:")
        print(f"    {sh['plan']}")
    if outcome.run_id and outcome.violations:
        print(f"  repro: repro chaos replay {outcome.run_id[:12]}")
    elif not outcome.violations:
        print("  no invariant violation: nothing to shrink")
    return 1 if outcome.violations else 0


def cmd_chaos_serve(args) -> int:
    from repro.chaos import run_serve_campaign

    progress = None if (args.json or args.quiet) else print
    report = run_serve_campaign(
        args.seed, args.count,
        root=args.root,
        workers=args.workers,
        lease_ttl_s=args.lease_ttl,
        max_queue=args.max_queue,
        verify_twins=not args.no_twins,
        progress=progress,
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        if progress is not None:
            print()
        print(report.summary())
    return 0 if report.ok else 1


def cmd_chaos_replay(args) -> int:
    from repro.provenance import replay_record

    store = _open_store(args)
    record = store.get(args.id)
    report = replay_record(record, store=store)
    ok = report.ok and report.reason_match
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        return 0 if ok else 1
    s = record.spec
    verdict = "byte-identical" if ok else "DIVERGED"
    print(f"chaos replay {record.run_id[:12]} ({s.app}, nvp={s.nvp}, "
          f"{s.method}, {s.transport}/{s.recovery}): {verdict}")
    print(f"  recorded sha256 : {report.expected_sha}")
    print(f"  replayed sha256 : {report.actual_sha}")
    print(f"  outcome match   : {report.reason_match} "
          f"(recorded reason: {record.unrecoverable_reason})")
    print(f"  counters match  : {report.counters_match}")
    for name, (rec, rep) in sorted(report.counter_drift.items()):
        print(f"    {name}: {rec} -> {rep}")
    if report.code_version_changed:
        print("  note: sources changed since this record was written")
    return 0 if ok else 1


def _add_provenance_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--provenance", nargs="?", const="", default=None, metavar="DIR",
        help="record every run into the provenance store at DIR "
             "(default .repro/store, or $REPRO_PROVENANCE)")


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="provenance store directory (default .repro/store, or "
             "$REPRO_PROVENANCE)")


def build_parser() -> argparse.ArgumentParser:
    from repro.provenance import DEFAULT_MANIFEST

    ap = argparse.ArgumentParser(
        prog="repro",
        description="Process-virtualization reproduction toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list-methods").set_defaults(fn=cmd_list_methods)
    sub.add_parser("list-machines").set_defaults(fn=cmd_list_machines)

    probe = sub.add_parser("probe")
    probe.add_argument("method")
    probe.add_argument("--json", action="store_true",
                       help="emit the capability row as JSON")
    probe.set_defaults(fn=cmd_probe)

    sub.add_parser("tables").set_defaults(fn=cmd_tables)

    run = sub.add_parser("run")
    run.add_argument("experiment",
                     choices=["fig5", "fig6", "fig7", "fig8", "icache",
                              "adcirc"])
    run.add_argument("--cores", help="adcirc: comma-separated core counts")
    run.add_argument("--quick-n", type=int, default=None,
                     help="fig6: yields per rank")
    run.add_argument("--json", action="store_true",
                     help="emit result rows as JSON instead of a table")
    run.add_argument("--sanitize", action="store_true",
                     help="run with the shared-state race detector on; "
                          "exits nonzero on error findings "
                          "(fig5/fig6/fig7/fig8 only)")
    _add_provenance_flag(run)
    run.set_defaults(fn=cmd_run)

    check = sub.add_parser(
        "check",
        help="static binary lint + privatization-compatibility matrix, "
             "then (unless --static-only) a sanitized execution")
    check.add_argument("target",
                       help="hello, jacobi, probe, examples, or "
                            "fixture:<name> (seeded violations)")
    check.add_argument("--method", default="pieglobals")
    check.add_argument("--nvp", type=int, default=8)
    check.add_argument("--slot-size", type=int, default=1 << 26)
    check.add_argument("--static-only", action="store_true",
                       help="skip the sanitized execution phase")
    check.add_argument("--json", action="store_true",
                       help="emit the report(s) as JSON")
    check.set_defaults(fn=cmd_check)

    analyze = sub.add_parser(
        "analyze",
        help="interprocedural static analysis of program sources: "
             "privatization surface, migration/checkpoint safety, "
             "communication shape, and determinism lint (plus the "
             "'self' lint over src/repro)")
    analyze.add_argument("target",
                         help="app name, apps, example:<name>, examples, "
                              "fixture:<name>, fixtures, or self")
    analyze.add_argument("--method", default=None,
                         help="also check that this privatization method "
                              "covers the inferred surface")
    analyze.add_argument("--suggest", action="store_true",
                         help="report privatization-shrink opportunities "
                              "as info findings")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report(s) as JSON")
    analyze.set_defaults(fn=cmd_analyze)

    trace = sub.add_parser(
        "trace",
        help="run an experiment with tracing on; write a Chrome "
             "trace-event JSON and a per-PE text timeline")
    trace.add_argument("experiment", choices=list(TRACEABLE_EXPERIMENTS))
    trace.add_argument("--out", default=None,
                       help="Chrome trace-event JSON path "
                            "(default: <experiment>-trace.json)")
    trace.add_argument("--timeline-out", default=None,
                       help="text timeline path (default: <out>.timeline.txt)")
    trace.add_argument("--quick-n", type=int, default=2000,
                       help="fig6: yields per rank (small default keeps the "
                            "trace within the ring buffer)")
    trace.add_argument("--capacity", type=int, default=1 << 20,
                       help="trace ring-buffer capacity in events")
    trace.set_defaults(fn=cmd_trace)

    faults = sub.add_parser(
        "faults",
        help="failure-free vs. k-crash overhead sweep with deterministic "
             "fault injection and buddy checkpointing")
    faults.add_argument("app", choices=["jacobi"])
    faults.add_argument("--kmax", type=int, default=2,
                        help="sweep k = 0..kmax node crashes")
    faults.add_argument("--seed", type=int, default=20220822,
                        help="fault-plan seed (sweeps are reproducible)")
    faults.add_argument("--nvp", type=int, default=8)
    faults.add_argument("--nodes", type=int, default=4)
    faults.add_argument("--method", default="pieglobals")
    faults.add_argument("--interval-ns", type=int, default=0,
                        help="minimum ns between accepted checkpoints "
                             "(0 = accept every request)")
    faults.add_argument("--transport", choices=["priced", "reliable"],
                        default="priced",
                        help="point-to-point transport: flat-penalty "
                             "pricing or the real ack/retransmit protocol")
    faults.add_argument("--recovery", choices=["global", "local"],
                        default="global",
                        help="rollback scheme after a crash (local needs "
                             "--transport reliable)")
    faults.add_argument("--drop", type=float, default=0.0,
                        help="per-message drop probability")
    faults.add_argument("--duplicate", type=float, default=0.0,
                        help="per-message duplication probability")
    faults.add_argument("--corrupt", type=float, default=0.0,
                        help="per-message corruption probability")
    faults.add_argument("--json", action="store_true",
                        help="emit result rows as JSON instead of a table")
    _add_provenance_flag(faults)
    faults.set_defaults(fn=cmd_faults)

    bench = sub.add_parser(
        "bench",
        help="host wall-clock smoke of the event loop (ULT churn, "
             "Jacobi scale run, ctx-switch sweep); writes "
             "BENCH_scale.json")
    bench.add_argument("--quick", action="store_true",
                       help="shrunken stages for CI (seconds, not minutes)")
    bench.add_argument("--nvp", type=int, default=None,
                       help="Jacobi stage VP count (default 1024; "
                            "64 with --quick)")
    bench.add_argument("--reps", type=int, default=None,
                       help="timed repetitions per measurement (best-of)")
    bench.add_argument("--serve", action="store_true",
                       help="append the job-service load-gen stage "
                            "(cold/warm throughput, hit rate, "
                            "single-flight coalescing, concurrent gc)")
    bench.add_argument("--json", action="store_true",
                       help="print the payload to stdout as JSON")
    bench.add_argument("--out", default="BENCH_scale.json",
                       help="output path (default BENCH_scale.json; "
                            "'' to skip writing)")
    _add_provenance_flag(bench)
    bench.set_defaults(fn=cmd_bench)

    hello = sub.add_parser("hello")
    hello.add_argument("--method", default="none")
    hello.add_argument("--vp", type=int, default=2)
    _add_provenance_flag(hello)
    hello.set_defaults(fn=cmd_hello)

    runs = sub.add_parser(
        "runs", help="list the provenance store's run records")
    _add_store_flag(runs)
    runs.add_argument("--json", action="store_true")
    runs.set_defaults(fn=cmd_runs)

    replay = sub.add_parser(
        "replay",
        help="re-execute a stored run and verify the timeline is "
             "byte-identical under the current sources")
    replay.add_argument("id", help="record id (or unique prefix)")
    _add_store_flag(replay)
    replay.add_argument("--json", action="store_true")
    replay.set_defaults(fn=cmd_replay)

    diff = sub.add_parser(
        "diff",
        help="timeline forensics between two stored runs: spec diff, "
             "first divergent event, counter/metric deltas")
    diff.add_argument("a", help="record id (or unique prefix)")
    diff.add_argument("b", help="record id (or unique prefix)")
    _add_store_flag(diff)
    diff.add_argument("--json", action="store_true")
    diff.set_defaults(fn=cmd_diff)

    stats = sub.add_parser(
        "stats",
        help="Projections-style per-PE utilization / traffic report "
             "from a stored record")
    stats.add_argument("id", help="record id (or unique prefix)")
    stats.add_argument("--compare", metavar="ID", default=None,
                       help="second record: render a delta table instead")
    _add_store_flag(stats)
    stats.add_argument("--json", action="store_true")
    stats.set_defaults(fn=cmd_stats)

    pin = sub.add_parser(
        "pin",
        help="pinned-scenario regression gate: verify committed "
             "timeline/counter expectations against the current sources")
    pin.add_argument("action",
                     choices=["run", "update", "list", "add", "rm"])
    pin.add_argument("names", nargs="*",
                     help="scenario names (run/update/rm), or "
                          "<name> <record-id> for add")
    pin.add_argument("--manifest", default=DEFAULT_MANIFEST,
                     help=f"manifest path (default {DEFAULT_MANIFEST})")
    _add_store_flag(pin)
    pin.add_argument("--json", action="store_true")
    pin.set_defaults(fn=cmd_pin)

    gc = sub.add_parser(
        "gc", help="collect old/oversized provenance records "
                   "(pinned specs always survive)")
    _add_store_flag(gc)
    gc.add_argument("--keep-pinned", action="store_true",
                    help="never collect records whose spec is pinned "
                         "in the manifest")
    gc.add_argument("--manifest", default=DEFAULT_MANIFEST,
                    help="pin manifest for --keep-pinned")
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="collect records older than this many days")
    gc.add_argument("--max-bytes", type=int, default=None,
                    help="evict oldest records until the store fits")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be deleted without deleting")
    gc.add_argument("--json", action="store_true")
    gc.set_defaults(fn=cmd_gc)

    serve = sub.add_parser(
        "serve",
        help="multi-tenant job service: concurrent JobSpec submissions "
             "over a local socket, misses executed on a worker pool, "
             "repeats served from the provenance store, identical "
             "in-flight submissions coalesced onto one execution")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket path (default .repro/serve.sock)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (with --port; "
                            "default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="listen on TCP instead of the Unix socket "
                            "(0 = ephemeral port, printed at startup)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker pool size (default 2)")
    serve.add_argument("--worker-mode", choices=["process", "thread"],
                       default="process",
                       help="process workers execute jobs in parallel; "
                            "thread workers serialize (tests/debug)")
    serve.add_argument("--max-queue", type=int, default=256, metavar="N",
                       help="admission watermark: shed new executions "
                            "past N in flight (default 256; <=0 "
                            "disables shedding)")
    serve.add_argument("--retries", type=int, default=2, metavar="N",
                       help="retry a job whose worker died up to N "
                            "times before quarantining it (default 2)")
    serve.add_argument("--lease-ttl", type=float, default=30.0,
                       metavar="S",
                       help="cross-server execution-lease heartbeat TTL "
                            "(default 30; 0 disables leases)")
    serve.add_argument("--chaos-hooks", action="store_true",
                       help="accept protocol-level fault-injection "
                            "envelopes (service chaos campaigns only; "
                            "never on a real deployment)")
    serve.add_argument("--gc-every", type=float, default=None, metavar="S",
                       help="run the store janitor every S seconds")
    serve.add_argument("--max-age-days", type=float, default=None,
                       help="janitor: collect records older than this")
    serve.add_argument("--max-bytes", type=int, default=None,
                       help="janitor: evict oldest records until the "
                            "store fits")
    serve.add_argument("--keep-pinned", action="store_true",
                       help="janitor never collects pinned specs")
    serve.add_argument("--manifest", default=DEFAULT_MANIFEST,
                       help="pin manifest for --keep-pinned")
    _add_store_flag(serve)
    serve.set_defaults(fn=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic multi-fault campaigns: seeded scenarios over "
             "the full job matrix, invariant-checked, with automatic "
             "plan shrinking of violations")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    crun = chaos_sub.add_parser(
        "run", help="run a seeded campaign; exits nonzero on any "
                    "invariant violation")
    crun.add_argument("--seed", type=int, default=0,
                      help="campaign seed (the scenario sequence is a "
                           "pure function of seed and count)")
    crun.add_argument("--count", type=int, default=50,
                      help="number of scenarios to run")
    crun.add_argument("--no-replay", action="store_true",
                      help="skip the record-and-replay determinism audit "
                           "per scenario")
    crun.add_argument("--no-shrink", action="store_true",
                      help="report violations without minimizing them")
    crun.add_argument("--no-store", action="store_true",
                      help="do not persist scenario records (violating "
                           "repros then have no replay id)")
    crun.add_argument("--shrink-budget", type=int, default=24,
                      help="max predicate evaluations per shrink")
    crun.add_argument("--quiet", action="store_true",
                      help="suppress per-scenario progress lines")
    _add_store_flag(crun)
    crun.add_argument("--json", action="store_true")
    crun.set_defaults(fn=cmd_chaos_run)

    cshrink = chaos_sub.add_parser(
        "shrink", help="minimize one campaign scenario's fault plan "
                       "(or, with --drill, prove the shrinker converges "
                       "on a planted bug)")
    cshrink.add_argument("--seed", type=int, default=0)
    cshrink.add_argument("--index", type=int, default=0,
                         help="scenario index within the campaign")
    cshrink.add_argument("--drill", action="store_true",
                         help="run the seeded known-bug drill instead "
                              "(the CI gate for the shrinker itself)")
    cshrink.add_argument("--budget", type=int, default=32,
                         help="max predicate evaluations")
    cshrink.add_argument("--max-faults", type=int, default=2,
                         help="drill: required size of the minimal plan")
    _add_store_flag(cshrink)
    cshrink.add_argument("--json", action="store_true")
    cshrink.set_defaults(fn=cmd_chaos_shrink)

    cserve = chaos_sub.add_parser(
        "serve", help="service-layer fault campaign against a live "
                      "repro serve subprocess: worker kills, poison "
                      "jobs, deadlines, dropped connections, truncated "
                      "frames, server SIGKILL+restart; verifies no "
                      "accepted submission is lost and every completed "
                      "record matches a fault-free twin")
    cserve.add_argument("--seed", type=int, default=0,
                        help="campaign seed (scenarios are a pure "
                             "function of seed and count)")
    cserve.add_argument("--count", type=int, default=50,
                        help="number of scenarios to run")
    cserve.add_argument("--workers", type=int, default=2,
                        help="server worker pool size")
    cserve.add_argument("--lease-ttl", type=float, default=5.0,
                        help="server lease TTL (short = fast crash "
                             "takeover in the campaign)")
    cserve.add_argument("--max-queue", type=int, default=64,
                        help="server admission watermark")
    cserve.add_argument("--root", default=None, metavar="DIR",
                        help="keep the campaign store/socket under DIR "
                             "(default: a temp dir, deleted after)")
    cserve.add_argument("--no-twins", action="store_true",
                        help="skip the byte-identical twin audit of "
                             "completed records")
    cserve.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario progress lines")
    cserve.add_argument("--json", action="store_true")
    cserve.set_defaults(fn=cmd_chaos_serve)

    creplay = chaos_sub.add_parser(
        "replay", help="re-execute a stored chaos repro and verify both "
                       "the timeline and the structured outcome")
    creplay.add_argument("id", help="record id (or unique prefix)")
    _add_store_flag(creplay)
    creplay.add_argument("--json", action="store_true")
    creplay.set_defaults(fn=cmd_chaos_replay)
    return ap


def main(argv: list[str] | None = None) -> int:
    import os

    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    # --provenance [DIR] (or $REPRO_PROVENANCE) turns on automatic
    # recording: every spec-built run the command executes lands in the
    # store, including each point of an experiment sweep.
    store_dir = getattr(args, "provenance", None)
    if store_dir is None:
        store_dir = os.environ.get("REPRO_PROVENANCE")
    disable = None
    if store_dir is not None:
        from repro.provenance import ProvenanceStore, enable_auto_record

        disable = enable_auto_record(
            ProvenanceStore(store_dir or None),
            notify=lambda line: print(line, file=sys.stderr),
        )
    try:
        return args.fn(args)
    except ReproError as e:
        # Simulated-job failure (unrecoverable fault, unsupported
        # toolchain, deadlock, ...): report and exit nonzero so scripts
        # and CI can detect it.
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        if disable is not None:
            disable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
