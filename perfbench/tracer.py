"""Host-time tracer for the benchmark's traced runs.

The tracer wraps public entry points of the ``repro`` layers from the
outside (class attributes and module functions are replaced while a
traced run is in progress); nothing under ``src/`` knows about it.

It keeps two kinds of records in memory:

* **spans** ``(id, name, start, end, parent, thread, request)`` around
  calls whose time matters (MPI calls, app kernel calls, the scheduler
  loop, ULT switches and parks, job build/start, store reads/writes,
  pool executions).  ``parent`` is the enclosing span on the same OS
  thread; a span that opens a ULT thread's stack points at the
  ``switch_in`` span that resumed it.  ``request`` is the sweep point
  or job label for batch workloads and the ``run_id`` for serve.
* **counts** of calls too frequent to time one by one (counter
  increments, clock advances, globals accesses).

:func:`dump` writes both out as JSON when the process ends; the
benchmark merges the dumps of every process of a run (client, server,
workers) with :func:`layer_metrics`.

Self time is a span's duration minus the time covered by its children
on the same thread.  The ULT park (``threads.yield``) is a child span,
so an MPI or kernel span's self time excludes the time its ULT spent
parked while other ranks ran.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

perf = time.perf_counter

#: AMPI point-to-point and collective entry points of ``MpiHandle``
P2P_CALLS = ("send", "recv", "sendrecv", "isend", "irecv", "wait", "waitall",
             "waitany", "test", "testall", "probe", "iprobe")
COLLECTIVE_CALLS = ("barrier", "bcast", "reduce", "allreduce", "gather",
                    "allgather", "scatter", "alltoall", "scan", "exscan",
                    "reduce_scatter")


class Tracer:
    """In-memory span and count store for one process."""

    def __init__(self, role: str):
        self.role = role
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ult_busy_s = 0.0
        self.kernel_bytes = 0       #: computed from step_kernel shapes
        self.migrations = 0         #: cross-PE moves of finished jobs
        self.request: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._active_switch = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._pool_specs: dict[int, dict] = {}

    # -- span plumbing ------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def timed(self, name: str,
              request_of: Callable[[tuple], str] | None = None,
              after: Callable[[tuple, Any], None] | None = None):
        """Wrapper factory: record a span around each call."""
        tr = self

        def wrap(fn):
            def traced(*args, **kw):
                st = tr._stack()
                parent = st[-1] if st else tr._active_switch
                sid = next(tr._ids)
                st.append(sid)
                t0 = perf()
                try:
                    out = fn(*args, **kw)
                finally:
                    t1 = perf()
                    st.pop()
                    tr.spans.append((
                        sid, name, t0, t1, parent, threading.get_ident(),
                        request_of(args) if request_of else tr.request))
                if after is not None:
                    after(args, out)
                return out
            return traced
        return wrap

    def counted(self, key: str):
        """Wrapper factory: count calls without timing them."""
        counts = self.counts

        def wrap(fn):
            def traced(*args, **kw):
                counts[key] += 1
                return fn(*args, **kw)
            return traced
        return wrap

    # -- layer-specific wrappers ---------------------------------------------

    def _switch_in(self, fn):
        tr = self

        def switch_in(ult):
            st = tr._stack()
            parent = st[-1] if st else 0
            sid = next(tr._ids)
            st.append(sid)
            outer, tr._active_switch = tr._active_switch, sid
            t0 = perf()
            try:
                return fn(ult)
            finally:
                t1 = perf()
                tr._active_switch = outer
                st.pop()
                tr.spans.append((sid, "threads.switch_in", t0, t1, parent,
                                 threading.get_ident(), tr.request))
        return switch_in

    def _ult_main(self, fn):
        """ULT body: its first busy segment starts here."""
        tr = self

        def _main(ult):
            tr._local.resumed = perf()
            try:
                return fn(ult)
            finally:
                tr.ult_busy_s += perf() - tr._local.resumed
        return _main

    def _ult_yield(self, fn):
        """ULT park: ends a busy segment, and is a child span of the
        MPI/kernel call it parks in."""
        tr = self
        span = self.timed("threads.yield")(fn)

        def yield_(ult, *args, **kw):
            t = perf()
            tr.ult_busy_s += t - getattr(tr._local, "resumed", t)
            try:
                return span(ult, *args, **kw)
            finally:
                tr._local.resumed = perf()
        return yield_

    def _ctx_call(self, fn):
        """``ExecutionContext.call``: one span per app function, named
        after it; bytes touched by ``step_kernel`` computed from the
        array shapes (not measured)."""
        tr = self
        by_name: dict[str, Callable] = {}

        def call(ctx, func_name, *args):
            if func_name == "step_kernel":
                eta, ground = args[0], args[1]
                # eta and ground read once, eta's interior written once
                tr.kernel_bytes += (eta.nbytes + ground.nbytes
                                    + eta[1:-1].nbytes)
            traced = by_name.get(func_name)
            if traced is None:
                traced = by_name[func_name] = tr.timed(
                    f"apps.call:{func_name}")(fn)
            return traced(ctx, func_name, *args)
        return call

    def _job_run(self, fn):
        tr = self

        def after(args, result):
            tr.migrations += sum(1 for m in result.migrations
                                 if m.src_pe != m.dst_pe)
        return self.timed("ampi.AmpiJob.run", after=after)(fn)

    def _build_job(self, fn):
        """``build_job``: the job's run_id becomes the request id of
        every span until the next job is built."""
        from repro.harness.jobspec import code_version
        from repro.provenance.record import run_id_for

        tr = self
        span = self.timed("program.build_job")(fn)

        def build_job(spec, **kw):
            tr.request = run_id_for(spec, code_version())
            return span(spec, **kw)
        return build_job

    def _pool_submit(self, fn):
        """``WorkerPool.submit`` -> result: the span closes when the
        returned future resolves (on the pool's reader thread)."""
        tr = self

        def submit(pool, spec_dict, **kw):
            sid = next(tr._ids)
            t0 = perf()
            fut = fn(pool, spec_dict, **kw)
            tr._pool_specs[sid] = spec_dict

            def done(_f):
                tr.spans.append((sid, "serve.pool.submit", t0, perf(), 0,
                                 threading.get_ident(), None))
            fut.add_done_callback(done)
            return fut
        return submit

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        from repro.ampi.api import MpiHandle
        from repro.ampi.runtime import AmpiJob
        from repro.charm.scheduler import JobScheduler
        from repro.harness import jobspec
        from repro.perf.clock import SimClock
        from repro.perf.counters import CounterSet
        from repro.program.context import ExecutionContext, GlobalsView
        from repro.provenance.store import ProvenanceStore
        from repro.provenance.record import run_id_for
        from repro.serve.client import ServeClient
        from repro.serve.pool import WorkerPool
        from repro.threads.ult import UserLevelThread

        def submitted_run_id(args: tuple) -> str:
            spec = args[1]
            if isinstance(spec, dict):
                spec = jobspec.JobSpec.from_dict(dict(spec))
            return run_id_for(spec, jobspec.code_version())

        p = self._patch
        p(UserLevelThread, "switch_in", self._switch_in)
        p(UserLevelThread, "_main", self._ult_main)
        p(UserLevelThread, "yield_", self._ult_yield)
        p(JobScheduler, "run", self.timed("charm.JobScheduler.run"))
        for name in P2P_CALLS:
            p(MpiHandle, name, self.timed(f"ampi.p2p:{name}"))
        for name in COLLECTIVE_CALLS:
            p(MpiHandle, name, self.timed(f"ampi.coll:{name}"))
        p(MpiHandle, "migrate", self.timed("ampi.migrate"))
        p(ExecutionContext, "call", self._ctx_call)
        p(CounterSet, "incr", self.counted("perf.CounterSet.incr"))
        p(SimClock, "advance", self.counted("perf.SimClock.advance"))
        p(GlobalsView, "read", self.counted("program.GlobalsView.read"))
        p(GlobalsView, "write", self.counted("program.GlobalsView.write"))
        p(jobspec, "build_job", self._build_job)
        p(AmpiJob, "start", self.timed("privatization.AmpiJob.start"))
        p(AmpiJob, "run", self._job_run)
        p(ProvenanceStore, "get",
          self.timed("provenance.get", request_of=lambda a: a[1]))
        p(ProvenanceStore, "put",
          self.timed("provenance.put", request_of=lambda a: a[1].run_id))
        p(WorkerPool, "submit", self._pool_submit)
        p(ServeClient, "ping", self.timed("serve.client.ping"))
        p(ServeClient, "submit",
          self.timed("serve.client.submit", request_of=submitted_run_id))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write spans and counts as JSON (request ids of pool spans are
        resolved to run_ids here, off the hot path)."""
        spans = self.spans
        if self._pool_specs:
            from repro.harness.jobspec import JobSpec, code_version
            from repro.provenance.record import run_id_for

            version = code_version()
            rid = {sid: run_id_for(JobSpec.from_dict(dict(d)), version)
                   for sid, d in self._pool_specs.items()}
            spans = [s if s[1] != "serve.pool.submit"
                     else (*s[:6], rid.get(s[0])) for s in spans]
        data = {"role": self.role, "pid": os.getpid(),
                "spans": spans, "counts": dict(self.counts),
                "ult_busy_s": self.ult_busy_s,
                "kernel_bytes": self.kernel_bytes,
                "migrations": self.migrations}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, separators=(",", ":")))
        os.replace(tmp, path)


def load_dumps(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text())
            for p in sorted(trace_dir.glob("spans-*.json"))]


def _self_times(spans: Iterable[list]) -> tuple[dict, dict, dict]:
    """Per-name totals: (self seconds, wall seconds, call count)."""
    spans = list(spans)
    thread_of = {s[0]: s[5] for s in spans}
    child: dict[int, float] = defaultdict(float)
    for sid, _name, t0, t1, parent, thread, _rid in spans:
        if parent and thread_of.get(parent) == thread:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    wall_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, t0, t1, _parent, _thread, _rid in spans:
        self_s[name] += (t1 - t0) - child[sid]
        wall_s[name] += t1 - t0
        calls[name] += 1
    return self_s, wall_s, calls


def _p50_ms(spans: Iterable[list], name: str) -> float:
    d = [(s[3] - s[2]) * 1e3 for s in spans if s[1] == name]
    return statistics.median(d) if d else 0.0


def layer_metrics(dumps: list[dict], wall_s: float) -> dict[str, Any]:
    """Per-layer metrics of one traced repetition, merged over its
    processes; ``wall_s`` is the repetition's timed window.

    Times are sums over processes (host seconds spent in the layer);
    latencies are medians over calls.
    """
    self_s: dict[str, float] = defaultdict(float)
    span_wall: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    all_spans: list[list] = []
    busy = kbytes = migrations = 0.0
    for d in dumps:
        s, w, c = _self_times(d["spans"])
        for k in s:
            self_s[k] += s[k]
            span_wall[k] += w[k]
            calls[k] += c[k]
        for k, v in d["counts"].items():
            counts[k] += v
        all_spans.extend(d["spans"])
        busy += d["ult_busy_s"]
        kbytes += d["kernel_bytes"]
        migrations += d["migrations"]

    def total(prefix: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    switches = calls["threads.switch_in"]
    baton_s = span_wall["threads.switch_in"] - busy
    p2p_calls = int(total("ampi.p2p:", calls))
    kernel_calls = int(total("apps.call:", calls))
    step_calls = calls["apps.call:step_kernel"]
    return {
        "threads.switches": switches,
        "threads.baton_us_per_switch":
            baton_s / switches * 1e6 if switches else 0.0,
        "threads.ult_busy_s": busy,
        "threads.baton_share_of_wall": baton_s / wall_s,
        "charm.scheduler_self_s": self_s["charm.JobScheduler.run"],
        "charm.lb_self_s": self_s["ampi.migrate"],
        "charm.migrations": int(migrations),
        "ampi.p2p_calls": p2p_calls,
        "ampi.p2p_self_us_per_call":
            total("ampi.p2p:", self_s) / p2p_calls * 1e6
            if p2p_calls else 0.0,
        "ampi.collective_self_s": total("ampi.coll:", self_s),
        "apps.kernel_self_s": total("apps.call:", self_s),
        "apps.kernel_calls": kernel_calls,
        "apps.kernel_share_of_ult_busy":
            total("apps.call:", self_s) / busy if busy else 0.0,
        "apps.kernel_bytes_computed":
            kbytes / step_calls if step_calls else 0.0,
        "perf.counter_incr_calls": counts["perf.CounterSet.incr"],
        "perf.clock_advance_calls": counts["perf.SimClock.advance"],
        "program.compile_s": span_wall["program.build_job"],
        "program.global_accesses": counts["program.GlobalsView.read"]
            + counts["program.GlobalsView.write"],
        "privatization.start_s": span_wall["privatization.AmpiJob.start"],
        "provenance.put_ms": _p50_ms(all_spans, "provenance.put"),
        "provenance.get_ms": _p50_ms(all_spans, "provenance.get"),
        "serve.ping_rtt_ms": _p50_ms(all_spans, "serve.client.ping"),
        "serve.pool_exec_ms": _p50_ms(all_spans, "serve.pool.submit"),
        "apps.kernel_self_by_function_s": {
            k.split(":", 1)[1]: v for k, v in sorted(self_s.items())
            if k.startswith("apps.call:")},
    }
