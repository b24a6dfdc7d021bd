"""The multiprocess worker pool that executes submitted specs.

The doeff-style runtime split: the service edge is real-async
(:mod:`repro.serve.server` on asyncio), while every job runs entirely
in *simulated* time inside a worker.  Workers are OS processes
(``mode="process"``, the default) so N jobs really execute in parallel
and a crashing simulation cannot take the front-end down; each worker
runs one job at a time, start to finish — the simulator's process-wide
state (ULT worker pool, loader namespaces) is never shared between
concurrently running jobs.

Crash resilience (the serving-layer contract: every submitted future
*resolves*, to a result or a structured failure — never hangs):

- Each worker has a private inbox and at most one assigned task, so
  the parent always knows exactly which job a dead worker was holding.
- A worker that dies mid-job (segfault, OOM kill, operator SIGKILL) is
  replaced by a fresh process (same slot, fresh inbox — no stale
  message can reach the replacement) and its job is *retried*, up to
  ``retries`` times.
- A job that keeps killing workers is **quarantined**: its future
  resolves to a structured ``poison-job`` failure
  (``unrecoverable_reason="poison-job"``) instead of grinding the pool
  down worker by worker.
- When every worker is dead and the respawn budget is spent (e.g. the
  spawn bootstrap cannot re-import the host program), all pending
  futures fail with a typed ``pool-dead`` reply — a hung client is
  worse than an error.
- A queued task whose deadline has already passed is dropped at
  dispatch with a ``deadline-exceeded`` failure instead of wasting a
  worker on a result nobody is waiting for.

Workers execute through :func:`repro.harness.jobspec.run_spec_job`
under an *exclusive* :func:`~repro.harness.jobspec.result_hook_scope`,
so recording is explicit per job — a process-global ``--provenance``
auto-recorder in the host process can never double-record (or
cross-record) service jobs.  ``strict=False``: a deterministic
unrecoverable run is a *result* (with ``unrecoverable_reason`` set),
and results are cacheable.

``mode="thread"`` trades parallelism for startup cost: workers are
threads in the current process, execution is serialized by a
process-wide lock (the simulator's state is not reentrant — the lock
is module-level so even two pools in one process never interleave).
Threads cannot be killed, so the crash-retry machinery is process-mode
only; deadlines are honored in both modes.

Chaos hook: a task may carry ``chaos={"kill_worker_attempts": N}``
(injected via the server's ``enable_chaos`` flag, never from specs) —
a process worker then ``os._exit``\\ s on its first N delivery
attempts, which is how the service fault campaign provokes real
worker crashes deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from repro.harness.jobspec import JobSpec, result_hook_scope, run_spec_job
from repro.provenance.record import RunRecord
from repro.trace.stream import compress_timeline

#: exit status a worker uses when the chaos kill hook fires
CHAOS_EXIT = 86

#: simulator state is process-wide; thread-mode pools in one process
#: must never run two jobs at once, even across pool instances
_THREAD_EXEC_LOCK = threading.Lock()


def execute_spec(spec_dict: dict[str, Any]) -> dict[str, Any]:
    """Run one spec dict to completion; never raises.

    Returns ``{"record": RunRecord.to_dict(), "timeline_z": bytes,
    "error": None}`` on success (including structured-unrecoverable
    runs), or ``{"record": None, "timeline_z": None, "error": str}``
    when the job cannot be built or dies unstructured.
    """
    try:
        spec = JobSpec.from_dict(dict(spec_dict))
        with result_hook_scope(exclusive=True):
            job, result = run_spec_job(spec, strict=False)
        record = RunRecord.from_run(spec, job, result)
        return {"record": record.to_dict(),
                "timeline_z": compress_timeline(job.scheduler.timeline),
                "error": None}
    except Exception as e:
        return {"record": None, "timeline_z": None,
                "error": f"{type(e).__name__}: {e}"}


def _deadline_reply(deadline_ts: float) -> dict[str, Any]:
    return {"record": None, "timeline_z": None,
            "error": "deadline exceeded before execution started",
            "unrecoverable_reason": "deadline-exceeded",
            "reason": "deadline-exceeded",
            "deadline_ts": deadline_ts}


def _worker_main(wid: int, inbox: Any, results: Any) -> None:
    """Process-mode worker loop: drain the inbox until the sentinel.

    Each item is ``(task_id, spec_dict, attempt, chaos)``; the chaos
    kill hook terminates the process abruptly (``os._exit``) to model a
    segfaulting/OOM-killed worker — no cleanup, no reply.

    The idle loop polls so an orphaned worker notices its parent died
    (SIGKILLed server: workers are reparented to init) and exits
    instead of blocking on the inbox forever — a leaked worker holds
    inherited pipes open, which can hang the parent's own parent (CI
    steps, shells) waiting for EOF.
    """
    parent = os.getppid()
    while True:
        try:
            item = inbox.get(timeout=2.0)
        except queue.Empty:
            if os.getppid() != parent:
                os._exit(0)
            continue
        if item is None:
            return
        task_id, spec_dict, attempt, chaos = item
        if chaos and attempt <= int(chaos.get("kill_worker_attempts", 0)):
            os._exit(CHAOS_EXIT)
        results.put((wid, task_id, execute_spec(spec_dict)))


@dataclass
class _Task:
    """One submission's pool-side state."""

    task_id: int
    spec_dict: dict[str, Any]
    fut: Future
    deadline_ts: float | None = None
    chaos: dict[str, Any] | None = None
    attempts: int = 0       #: dispatches so far (== worker deaths + 1)


@dataclass
class _Slot:
    """One worker slot (process mode); the process is replaceable."""

    wid: int
    proc: Any = None
    inbox: Any = None
    task_id: int | None = None
    dead: bool = False

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None


@dataclass
class PoolStats:
    """Lifetime resilience counters, surfaced through ``stats``."""

    retries: int = 0        #: jobs re-dispatched after a worker death
    quarantined: int = 0    #: jobs resolved as poison after max retries
    respawns: int = 0       #: replacement workers spawned
    deadline_drops: int = 0  #: queued jobs dropped past their deadline

    def to_dict(self) -> dict[str, int]:
        return {"retries": self.retries, "quarantined": self.quarantined,
                "respawns": self.respawns,
                "deadline_drops": self.deadline_drops}


class WorkerPool:
    """Fixed pool of spec executors with a Future-based submit API.

    ``submit`` returns a :class:`concurrent.futures.Future` resolving
    to :func:`execute_spec`'s reply dict — the asyncio server wraps it
    with :func:`asyncio.wrap_future`.  Thread-safe.  ``retries`` is the
    number of *re*-dispatches a job gets after killing a worker before
    it is quarantined; ``max_respawns`` bounds replacement workers over
    the pool's lifetime (budget spent + all workers dead = pool-dead).
    """

    def __init__(self, workers: int = 2, *, mode: str = "process",
                 mp_context: str = "spawn", retries: int = 2,
                 max_respawns: int | None = None):
        if workers < 1:
            raise ValueError("need at least one worker")
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.workers = workers
        self.mode = mode
        self.retries = retries
        self.max_respawns = (workers * 8 if max_respawns is None
                             else max_respawns)
        self.stats = PoolStats()
        self._seq = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tasks: dict[int, _Task] = {}
        self._backlog: queue.Queue = queue.Queue()
        self._closed = False
        self._pool_dead = False
        if mode == "process":
            self._ctx = multiprocessing.get_context(mp_context)
            self._results = self._ctx.Queue()
            self._slots = [_Slot(wid=i) for i in range(workers)]
            self._idle: list[int] = []
            for slot in self._slots:
                self._spawn(slot, respawn=False)
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serve-pool-dispatch",
                daemon=True)
            self._dispatcher.start()
            self._reader = threading.Thread(
                target=self._drain_results, name="serve-pool-reader",
                daemon=True)
            self._reader.start()
            self._monitor = threading.Thread(
                target=self._watch_workers, name="serve-pool-monitor",
                daemon=True)
            self._monitor.start()
        else:
            self._slots = []
            self._threads = [
                threading.Thread(target=self._thread_worker,
                                 name=f"serve-worker-{i}", daemon=True)
                for i in range(workers)
            ]
            for t in self._threads:
                t.start()

    # -- introspection ------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Unresolved tasks (queued + executing)."""
        with self._lock:
            return len(self._tasks)

    @property
    def dead(self) -> bool:
        """True once every worker died and the respawn budget is spent."""
        return self._pool_dead

    def alive_workers(self) -> int:
        if self.mode == "thread":
            return sum(1 for t in self._threads if t.is_alive())
        with self._lock:
            return sum(1 for s in self._slots
                       if s.proc is not None and s.proc.is_alive())

    def worker_pids(self) -> list[int]:
        """Live worker pids (empty in thread mode) — lets operators and
        the chaos campaign aim kill signals at real workers."""
        if self.mode == "thread":
            return []
        with self._lock:
            return [s.pid for s in self._slots
                    if s.proc is not None and s.proc.is_alive()
                    and s.pid is not None]

    def pool_stats(self) -> dict[str, Any]:
        return {"mode": self.mode, "workers": self.workers,
                "workers_alive": self.alive_workers(),
                "backlog": self.backlog, "dead": self.dead,
                "retries_allowed": self.retries,
                **self.stats.to_dict()}

    # -- submission ---------------------------------------------------------

    def submit(self, spec_dict: dict[str, Any], *,
               deadline_ts: float | None = None,
               chaos: dict[str, Any] | None = None) -> Future:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        fut: Future = Future()
        if self._pool_dead:
            fut.set_result(_pool_dead_reply())
            return fut
        with self._lock:
            self._seq += 1
            task = _Task(task_id=self._seq, spec_dict=spec_dict, fut=fut,
                         deadline_ts=deadline_ts, chaos=chaos)
            self._tasks[task.task_id] = task
        self._backlog.put(task.task_id)
        return fut

    def _resolve(self, task_id: int, out: dict[str, Any]) -> None:
        with self._lock:
            task = self._tasks.pop(task_id, None)
        if task is not None and not task.fut.done():
            task.fut.set_result(out)

    # -- process mode: dispatch / results / supervision ---------------------

    def _spawn(self, slot: _Slot, *, respawn: bool) -> None:
        """(Re)populate a slot with a fresh process and a fresh inbox —
        a stale message queued for a dead worker can never leak to its
        replacement."""
        slot.inbox = self._ctx.Queue()
        slot.proc = self._ctx.Process(
            target=_worker_main,
            args=(slot.wid, slot.inbox, self._results), daemon=True)
        slot.proc.start()
        slot.dead = False
        if respawn:
            self.stats.respawns += 1
        with self._lock:
            if slot.wid not in self._idle:
                self._idle.append(slot.wid)
            self._cond.notify_all()

    def _dispatch_loop(self) -> None:
        while True:
            item = self._backlog.get()
            if item is None:
                return
            with self._lock:
                task = self._tasks.get(item)
            if task is None:
                continue            # resolved while queued
            if (task.deadline_ts is not None
                    and time.time() > task.deadline_ts):  # repro: allow(det-wallclock) client deadlines are host wall-clock by definition
                self.stats.deadline_drops += 1
                self._resolve(task.task_id,
                              _deadline_reply(task.deadline_ts))
                continue
            with self._cond:
                while not self._idle and not self._closed \
                        and not self._pool_dead:
                    self._cond.wait(timeout=0.5)
                if self._closed or self._pool_dead:
                    return
                wid = self._idle.pop()
                slot = self._slots[wid]
                slot.task_id = task.task_id
                task.attempts += 1
                attempt = task.attempts
            slot.inbox.put((task.task_id, task.spec_dict, attempt,
                            task.chaos))

    def _drain_results(self) -> None:
        while True:
            item = self._results.get()
            if item is None:
                return
            wid, task_id, out = item
            with self._cond:
                slot = self._slots[wid]
                if slot.task_id == task_id:
                    slot.task_id = None
                    if not slot.dead and wid not in self._idle:
                        self._idle.append(wid)
                        self._cond.notify_all()
            self._resolve(task_id, out)

    def _watch_workers(self) -> None:
        """Supervisor: reap dead workers, retry or quarantine their
        jobs, respawn replacements, and declare the pool dead (failing
        every pending future with a typed reply) when nothing is left."""
        while not self._closed and not self._pool_dead:
            for slot in self._slots:
                if (slot.proc is not None and not slot.dead
                        and not slot.proc.is_alive()):
                    self._handle_worker_death(slot)
            self._check_pool_dead()
            time.sleep(0.2)  # repro: allow(det-wallclock) supervisor poll interval, host-side

    def _handle_worker_death(self, slot: _Slot) -> None:
        with self._cond:
            slot.dead = True
            if slot.wid in self._idle:
                self._idle.remove(slot.wid)
            task_id = slot.task_id
            slot.task_id = None
            task = self._tasks.get(task_id) if task_id is not None else None
        try:
            slot.proc.join(timeout=1.0)
        except Exception:
            pass
        if task is not None and not task.fut.done():
            if task.attempts > self.retries:
                self.stats.quarantined += 1
                self._resolve(task.task_id, {
                    "record": None, "timeline_z": None,
                    "error": (f"poison job: killed {task.attempts} "
                              f"worker(s); quarantined"),
                    "unrecoverable_reason": "poison-job",
                    "reason": "poison-job",
                    "attempts": task.attempts})
            else:
                self.stats.retries += 1
                self._backlog.put(task.task_id)
        if not self._closed and self.stats.respawns < self.max_respawns:
            self._spawn(slot, respawn=True)

    def _check_pool_dead(self) -> None:
        with self._lock:
            alive = any(s.proc is not None and s.proc.is_alive()
                        for s in self._slots)
            if alive or self._closed:
                return
            if self.stats.respawns < self.max_respawns:
                return              # replacements still possible
            self._pool_dead = True
            pending = list(self._tasks.values())
            self._tasks.clear()
            self._cond.notify_all()
        for task in pending:
            if not task.fut.done():
                task.fut.set_result(_pool_dead_reply())

    # -- thread mode --------------------------------------------------------

    def _thread_worker(self) -> None:
        while True:
            item = self._backlog.get()
            if item is None:
                return
            with self._lock:
                task = self._tasks.get(item)
            if task is None:
                continue
            if (task.deadline_ts is not None
                    and time.time() > task.deadline_ts):  # repro: allow(det-wallclock) client deadlines are host wall-clock by definition
                self.stats.deadline_drops += 1
                self._resolve(task.task_id,
                              _deadline_reply(task.deadline_ts))
                continue
            with _THREAD_EXEC_LOCK:
                out = execute_spec(task.spec_dict)
            self._resolve(task.task_id, out)

    # -- teardown -----------------------------------------------------------

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop accepting work and reap the workers.  Futures still
        pending afterwards resolve to a structured pool-closed error
        (the server drains in-flight jobs before closing, so in
        practice there are none)."""
        if self._closed:
            return
        self._closed = True
        self._backlog.put(None)     # dispatcher / thread workers exit
        if self.mode == "process":
            with self._cond:
                self._cond.notify_all()
            for slot in self._slots:
                if slot.inbox is not None:
                    try:
                        slot.inbox.put(None)
                    except (OSError, ValueError):
                        pass
            for slot in self._slots:
                if slot.proc is None:
                    continue
                slot.proc.join(timeout=timeout)
                if slot.proc.is_alive():
                    slot.proc.terminate()
                    slot.proc.join(timeout=1.0)
            self._results.put(None)
            self._reader.join(timeout=timeout)
        else:
            for _ in range(self.workers - 1):
                self._backlog.put(None)
            for t in self._threads:
                t.join(timeout=timeout)
        with self._lock:
            pending = list(self._tasks.values())
            self._tasks.clear()
        for task in pending:
            if not task.fut.done():
                task.fut.set_result({"record": None, "timeline_z": None,
                                     "error": "worker pool closed"})

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _pool_dead_reply() -> dict[str, Any]:
    return {"record": None, "timeline_z": None,
            "error": "all pool workers died and the respawn budget "
                     "is spent",
            "unrecoverable_reason": "pool-dead",
            "reason": "pool-dead"}
