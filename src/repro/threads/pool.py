"""The worker pool that gives user-level threads their OS stacks.

A :class:`UserLevelThread` needs a real OS stack to park blocked user
code on.  It gets one from a process-wide pool of persistent worker
threads: a worker is bound to a ULT lazily at its first switch-in and
recycled the moment the ULT finishes or is killed, so ranks and whole
jobs reuse the same OS threads.  After the pool has warmed up to a
job's high-water mark, running another job of the same scale performs
**zero** thread creates/joins.  Baton handoff uses raw locks, the
cheapest cross-thread wakeup CPython offers: under the job scheduler's
direct dispatch a yielding ULT releases the next ULT's lock and parks
on its own, and a finishing ULT's worker passes the baton on before it
waits for its next ULT.

Determinism contract: the pool only decides which OS stack runs a ULT's
body; it never touches simulated clocks, the run queue, or scheduling
order.  The same seed + workload therefore produces byte-identical
simulated timelines on a cold or a warm pool (enforced by tests).

Orphan accounting: a worker wedged by user code that swallows
:class:`~repro.threads.ult.UltKilled` is *surfaced* instead of silently
leaked — a warning is emitted and the module-wide counter returned by
:func:`orphan_count` grows, so sweeps can assert they shut down clean.
"""

from __future__ import annotations

import threading
import warnings
from typing import TYPE_CHECKING

from _thread import allocate_lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.ult import UserLevelThread

#: seconds :meth:`UltPool.close` waits for each idle worker to exit
JOIN_TIMEOUT_S = 5.0

_orphans = 0
_orphan_lock = threading.Lock()


def orphan_count() -> int:
    """Wedged OS threads surfaced since the last reset."""
    return _orphans


def consume_orphan_count() -> int:
    """Return the orphan count and reset it (shutdown-check idiom)."""
    global _orphans
    with _orphan_lock:
        n = _orphans
        _orphans = 0
    return n


def record_orphan(name: str, context: str) -> None:
    global _orphans
    with _orphan_lock:
        _orphans += 1
    warnings.warn(
        f"ULT thread {name!r} did not terminate ({context}); "
        f"{_orphans} orphan OS thread(s) now outstanding",
        ResourceWarning,
        stacklevel=3,
    )


class _PoolWorker:
    """A persistent OS thread that hosts one ULT at a time.

    The two raw locks form the baton: ``_resume`` is the ULT side's
    token, ``_yield`` the side of a ``switch_in``/``kill`` caller, which
    waits for the ULT to come back.  Both start held, so either party
    blocks until the other hands over.  Direct dispatch uses
    ``_resume`` alone.  One worker services many ULT lifetimes; binding
    costs two attribute writes.
    """

    __slots__ = ("_resume", "_yield", "_pool", "_ult", "thread")

    def __init__(self, pool: "UltPool", index: int):
        self._resume = allocate_lock()
        self._resume.acquire()
        self._yield = allocate_lock()
        self._yield.acquire()
        self._pool = pool
        self._ult: "UserLevelThread | None" = None
        self.thread = threading.Thread(
            target=self._loop, name=f"ult-pool-w{index}", daemon=True
        )
        self.thread.start()

    def _loop(self) -> None:
        acquire = self._resume.acquire
        while True:
            acquire()                  # first wakeup of a bound ULT
            ult = self._ult
            if ult is None:            # shutdown sentinel
                return
            ult._main()
            # Clearing the binding is how resume() and join_thread() tell
            # that the ULT finished and the worker is free.
            self._ult = None
            baton = ult.baton
            if baton is None:
                self._yield.release()  # switch_in/kill returns DONE/ERROR
            else:
                # Free before passing the baton on: the next quantum may
                # bind this very worker (its wakeup then waits in
                # _resume), and the job may end before this loop turns.
                self._pool._recycle(self)
                baton(ult)

    # -- runner protocol -----------------------------------------------------

    def resume(self) -> None:
        """Caller side: hand the baton to the ULT, block until it is back.

        A worker whose ULT finished is recycled here, by the caller, once
        it has taken the finish token: recycled any earlier, the worker
        could be rebound by another scheduler thread whose ``resume``
        would take that token in its place.
        """
        self._resume.release()
        self._yield.acquire()
        if self._ult is None:
            self._pool._recycle(self)

    def park(self) -> None:
        """ULT side: hand the baton back, block until resumed."""
        self._yield.release()
        self._resume.acquire()

    def wake(self) -> None:
        """Direct dispatch: start the ULT's next quantum, do not wait."""
        self._resume.release()

    def wait(self) -> None:
        """Direct dispatch, ULT side: block until the next wakeup."""
        self._resume.acquire()


class UltPool:
    """Worker threads reused across ULT lifetimes and jobs.

    The pool starts empty (or at ``prewarm``) and grows on demand to the
    high-water mark of simultaneously-live ULTs (the job scheduler
    prewarms one idle worker per queued ULT when a run starts); workers
    are never destroyed until :meth:`close`.  ``kill()`` on a ULT
    unwinds its user stack and recycles the worker instead of joining
    an OS thread.
    """

    def __init__(self, prewarm: int = 0):
        self._free: list[_PoolWorker] = []
        self._lock = threading.Lock()
        self.created = 0       #: workers ever created
        self.binds = 0         #: ULT lifetimes served
        self.closed = False
        if prewarm:
            self.prewarm(prewarm)

    def _new_worker(self) -> _PoolWorker:
        w = _PoolWorker(self, self.created)
        self.created += 1
        return w

    def prewarm(self, n: int) -> None:
        """Grow the free list to at least ``n`` idle workers."""
        with self._lock:
            while len(self._free) < n:
                self._free.append(self._new_worker())

    def _recycle(self, worker: _PoolWorker) -> None:
        with self._lock:
            if self.closed:
                worker._ult = None
                worker._resume.release()   # let the loop exit
                return
            self._free.append(worker)

    def idle_workers(self) -> int:
        with self._lock:
            return len(self._free)

    def bind(self, ult: "UserLevelThread") -> _PoolWorker:
        """Hand ``ult`` an idle worker, creating one if none is free."""
        with self._lock:
            if self.closed:
                raise RuntimeError("ULT worker pool is closed")
            self.binds += 1
            worker = self._free.pop() if self._free else self._new_worker()
        worker._ult = ult
        return worker

    def close(self) -> int:
        """Terminate idle workers (tests / interpreter teardown).

        Returns the number of workers told to exit.  Workers currently
        bound to live ULTs exit when their ULT finishes; a wedged one is
        counted as an orphan by its owner's shutdown path.
        """
        with self._lock:
            self.closed = True
            idle = self._free
            self._free = []
        for w in idle:
            w._ult = None
            w._resume.release()
        for w in idle:
            w.thread.join(timeout=JOIN_TIMEOUT_S)
        return len(idle)


_shared: UltPool | None = None
_shared_lock = threading.Lock()


def shared_pool() -> UltPool:
    """The process-wide pool every ULT binds from.

    A closed pool is replaced by a fresh one, so closing the shared pool
    (to release its idle threads) never breaks a later job.
    """
    global _shared
    pool = _shared
    if pool is None or pool.closed:
        with _shared_lock:
            if _shared is None or _shared.closed:
                _shared = UltPool()
            pool = _shared
    return pool
