"""The global message-driven scheduler.

One sequential event loop simulates every PE in the job.  It always
resumes the ULT with the smallest *effective start time*
(``max(ready_time, its PE's busy_until)``), which preserves causality:
a running rank can only influence simulated times at or after its own
clock, and nothing with an earlier effective start exists when it runs.

Per context switch the scheduler charges the baseline switch cost plus
the active privatization method's surcharge (TLS pointer swap, GOT swap)
— the quantity Figure 6 measures.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable

from repro.errors import DeadlockError, ReproError
from repro.perf.costs import CostModel
from repro.perf.counters import CounterSet, EV_CTX_SWITCH
from repro.threads.runqueue import RunQueue
from repro.threads.ult import UltState, UserLevelThread
from repro.trace.recorder import PE_TID, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank


class JobScheduler:
    """Runs all virtual ranks of a job to completion."""

    def __init__(self, costs: CostModel, ctx_switch_extra_ns: int = 0,
                 record_timeline: bool = True,
                 trace: TraceRecorder | None = None,
                 trace_pid_base: int = 0, trace_label: str = ""):
        self.costs = costs
        self.ctx_switch_extra_ns = ctx_switch_extra_ns
        self.trace = trace
        self.trace_pid_base = trace_pid_base
        self.trace_label = trace_label
        self.counters = CounterSet()
        self.current: "VirtualRank | None" = None
        self._ranks_by_tid: dict[int, "VirtualRank"] = {}
        self._tid_by_vp: dict[int, int] = {}
        self._all_ranks: list["VirtualRank"] = []
        #: ULT OS threads that survived their join timeout at shutdown
        self.orphaned = 0
        self.runq = RunQueue(self._pe_busy_of, pe_of=self._pe_of)
        #: (pe index, vp, start ns) per scheduling quantum, in order —
        #: consumed by the instruction-cache study to reconstruct the
        #: interleaving of rank code on each PE.
        self.record_timeline = record_timeline
        self.timeline: list[tuple[int, int, int]] = []
        #: called after each rank finishes (runtime hooks e.g. finalize)
        self.on_rank_done: Callable[["VirtualRank"], None] | None = None
        #: fault-injection hook, called with each quantum's effective
        #: start time before it runs; returning True means a fault fired
        #: and rolled the job back — the popped quantum is stale
        self.fault_check: Callable[[int], bool] | None = None
        #: sanitizer epoch hook, called once per scheduling quantum;
        #: ``None`` (the default) keeps the hot loop untouched
        self.on_quantum: Callable[[], None] | None = None
        #: simulated-time timer heap ``(at_ns, seq, callback)`` — used by
        #: the reliable transport for retransmission timeouts and by the
        #: message log for replay wakeups.  Empty (and therefore free in
        #: the hot loop) unless a subsystem schedules one.
        self._timers: list[tuple[int, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()

    # -- setup ------------------------------------------------------------------

    def register(self, rank: "VirtualRank", start_time: int) -> None:
        if rank.ult is None:
            raise ReproError(f"rank {rank.vp} has no ULT")
        self._ranks_by_tid[rank.ult.tid] = rank
        self._tid_by_vp[rank.vp] = rank.ult.tid
        self._all_ranks.append(rank)
        rank.ult.start()
        self.runq.push(rank.ult, start_time)

    def reregister(self, rank: "VirtualRank", start_time: int) -> None:
        """Re-admit a rank after fault recovery gave it a fresh ULT.

        The rank stays in ``_all_ranks``; the dead ULT generation's tid
        mapping is purged so repeated crash/recover cycles cannot grow
        ``_ranks_by_tid`` without bound.
        """
        if rank.ult is None:
            raise ReproError(f"rank {rank.vp} has no ULT")
        old_tid = self._tid_by_vp.get(rank.vp)
        if old_tid is not None and old_tid != rank.ult.tid:
            self._ranks_by_tid.pop(old_tid, None)
        self._ranks_by_tid[rank.ult.tid] = rank
        self._tid_by_vp[rank.vp] = rank.ult.tid
        if rank.ult.state is UltState.NEW:
            rank.ult.start()
        self.runq.push(rank.ult, start_time)

    def flush(self) -> None:
        """Drop every queued quantum and pending timer (fault rollback)."""
        self.runq.drain()
        self._timers.clear()

    # -- simulated-time timers ------------------------------------------------------

    def add_timer(self, at_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at simulated time ``at_ns``.

        Timers fire *between* scheduling quanta: before any quantum whose
        effective start is at or after ``at_ns``, and whenever the run
        queue is empty.  Ties are broken by insertion order, so timer
        firing is deterministic.  ``flush()`` (global rollback) discards
        pending timers along with the timeline they belong to.
        """
        heapq.heappush(self._timers, (int(at_ns), next(self._timer_seq), fn))

    @property
    def pending_timers(self) -> int:
        return len(self._timers)

    def _pe_busy_of(self, ult: UserLevelThread) -> int:
        return self._ranks_by_tid[ult.tid].pe.busy_until

    def _pe_of(self, ult: UserLevelThread):
        return self._ranks_by_tid[ult.tid].pe

    # -- blocking / waking (called by the MPI layer) ---------------------------------

    def block_current(self, reason: str) -> None:
        """Suspend the running rank (must be called from its ULT)."""
        rank = self.current
        if rank is None or rank.ult is None:
            raise ReproError("block_current outside a running rank")
        tr = self.trace
        if tr is not None:
            tr.instant(f"block:{reason}", "sched", rank.clock.now,
                       pid=self.trace_pid_base + rank.pe.index, tid=rank.vp)
        rank.ult.yield_(reason)

    def wake(self, rank: "VirtualRank", at_time: int) -> None:
        """Make a blocked rank runnable no earlier than ``at_time``."""
        if rank is self.current or rank.finished:
            return
        if rank.ult is None:
            # Post-recovery window: the rank's dead ULT is gone and its
            # replacement has not been reregistered yet.  Recovery will
            # requeue it; waking a ghost here would be an AttributeError.
            return
        self.runq.push(rank.ult, max(at_time, rank.clock.now))

    def yield_current(self, resume_at: int) -> None:
        """Suspend the running rank and requeue it at ``resume_at`` —
        used after self-migration so it resumes on its *new* PE."""
        rank = self.current
        if rank is None or rank.ult is None:
            raise ReproError("yield_current outside a running rank")
        self.runq.push(rank.ult, max(resume_at, rank.clock.now))
        rank.ult.yield_("reschedule")

    # -- the event loop ------------------------------------------------------------------

    def run(self) -> None:
        # The loop below runs once per scheduling quantum — hundreds of
        # thousands of iterations for paper-scale sweeps — so everything
        # invariant across quanta is hoisted into locals, including the
        # trace/timeline/fault guards (all three are decided before run()
        # and stay fixed for its duration).
        ctx_switch_ns = self.costs.context_switch_ns + self.ctx_switch_extra_ns
        tr = self.trace
        pid_base = self.trace_pid_base
        runq_pop = self.runq.pop
        ranks_by_tid = self._ranks_by_tid
        incr_ctx = self.counters.incr
        fault_check = self.fault_check
        on_quantum = self.on_quantum
        record_timeline = self.record_timeline
        timeline_append = self.timeline.append
        timers = self._timers
        heappop = heapq.heappop
        DONE = UltState.DONE
        ERROR = UltState.ERROR
        try:
            while True:
                item = runq_pop()
                if item is None:
                    if timers:
                        # Nothing runnable but a timeout is pending (e.g.
                        # a retransmission whose receiver blocks on it).
                        # The fault check runs *before* the pop: a crash
                        # firing here may roll the job back, and under
                        # local recovery a survivor's timer must stay in
                        # the heap and fire after the outage — popping
                        # first would silently drop it (a lost
                        # retransmission deadlocks its receiver).
                        at = timers[0][0]
                        if fault_check is not None and fault_check(at):
                            continue
                        at, _, fn = heappop(timers)
                        fn()
                        continue
                    if all(r.finished for r in self._all_ranks):
                        return
                    self._report_deadlock()
                ult, ready_time = item
                rank = ranks_by_tid.get(ult.tid)
                if rank is None:
                    # Stale quantum of a rolled-back ULT generation
                    # (local recovery does not flush survivors' queues).
                    continue
                pe = rank.pe
                busy_until = pe.busy_until
                eff_start = ready_time if ready_time > busy_until \
                    else busy_until

                if timers and timers[0][0] <= eff_start:
                    # Timers due before this quantum may deliver messages
                    # (or fire a crash) that change who should run next:
                    # fire them, requeue the popped quantum, re-pop.
                    while timers and timers[0][0] <= eff_start:
                        at = timers[0][0]
                        if fault_check is not None and fault_check(at):
                            continue  # rollback may have cleared timers
                        at, _, fn = heappop(timers)
                        fn()
                    if ranks_by_tid.get(ult.tid) is rank:
                        self.runq.push(ult, ready_time)
                    continue

                if fault_check is not None and fault_check(eff_start):
                    # A fault fired and the job rolled back.  Under
                    # global recovery the popped quantum belongs to a
                    # killed ULT generation; under local recovery a
                    # survivor's quantum stays valid and is requeued.
                    if ranks_by_tid.get(ult.tid) is rank:
                        self.runq.push(ult, ready_time)
                    continue

                if ready_time > busy_until:
                    if tr is not None:
                        tr.span("idle", "sched-idle", busy_until,
                                ready_time - busy_until,
                                pid=pid_base + pe.index,
                                tid=PE_TID)
                    pe.idle_ns += ready_time - busy_until
                    switch_at = ready_time
                else:
                    switch_at = busy_until
                start = switch_at + ctx_switch_ns
                pe.ctx_switches += 1
                incr_ctx(EV_CTX_SWITCH)
                ult.clock.advance_to(start)
                if tr is not None:
                    tr.span("ctx-switch", "sched-overhead", switch_at,
                            ctx_switch_ns,
                            pid=pid_base + pe.index, tid=rank.vp,
                            args={"method": self.trace_label,
                                  "surcharge_ns": self.ctx_switch_extra_ns})

                if record_timeline:
                    timeline_append((pe.index, rank.vp, start))
                if on_quantum is not None:
                    on_quantum()
                self.current = rank
                state = ult.switch_in()
                self.current = None

                now = ult.clock.now
                ran_ns = now - start
                if ran_ns < 0:
                    ran_ns = 0
                rank.record_run(ran_ns)
                pe.busy_ns += ran_ns
                pe.busy_until = now
                pe.last_rank = rank
                if tr is not None and ran_ns > 0:
                    tr.span(f"vp{rank.vp}", "exec", start, ran_ns,
                            pid=pid_base + pe.index, tid=rank.vp)

                if state is DONE:
                    rank.finished = True
                    rank.exit_value = ult.result
                    if self.on_rank_done is not None:
                        self.on_rank_done(rank)
                elif state is ERROR:
                    exc = ult.exception
                    self.shutdown()
                    raise exc
        finally:
            # Leave no orphan OS threads behind on any exit path.
            self.shutdown()

    def _report_deadlock(self) -> None:
        blocked = []
        for r in self._all_ranks:
            if r.finished:
                continue
            if r.ult is None:
                # Post-recovery window: don't let a secondary error here
                # (no ULT means no clock either) mask the DeadlockError
                # we are trying to raise.
                blocked.append(f"vp {r.vp} (no ULT (awaiting recovery))")
            else:
                reason = r.ult.block_reason or "blocked"
                blocked.append(f"vp {r.vp} ({reason}) at t={r.clock.now}")
        self.shutdown()
        raise DeadlockError(
            "no runnable rank but the job is not finished; blocked: "
            + "; ".join(blocked)
        )

    def shutdown(self) -> None:
        """Force-unwind every live ULT and release its pool worker.

        Idempotent.  A worker wedged by user code that refuses to unwind
        is counted in :attr:`orphaned` (and in the process-wide
        :func:`repro.threads.orphan_count`) instead of being silently
        leaked across sweeps.
        """
        for rank in self._all_ranks:
            ult = rank.ult
            if ult is None:
                continue
            if not ult.finished:
                ult.kill()
            if ult.join_thread():
                self.orphaned += 1

    # -- reporting ------------------------------------------------------------------------

    def makespan_ns(self) -> int:
        """Job completion time: the latest rank clock."""
        return max((r.clock.now for r in self._all_ranks), default=0)

    def ranks(self) -> list["VirtualRank"]:
        return list(self._all_ranks)
