"""Automatic crash recovery: detect, roll back, re-map, replay.

When a :class:`~repro.ft.plan.NodeCrash` fires, the node's PEs fail and
every rank resident there is lost.  Recovery is global, like Charm++'s
in-memory restart protocol: *all* ranks (not just the dead ones) roll
back to the last buddy checkpoint, because messages sent after it are
gone with the node that acknowledged them.  Concretely:

1. flush the run queue and reset the MPI layer (mailboxes, posted
   receives, wait/probe registrations, in-flight collectives);
2. re-map dead-node ranks onto surviving PEs through the existing
   :class:`~repro.charm.migration.MigrationEngine` (least-loaded
   surviving PE, deterministic vp order) — recovery migrations show up
   in ``JobResult.migrations`` like any LB move;
3. restore every rank's globals + heap from the checkpoint and give it
   a fresh ULT **reusing its old simulated clock object** (the rank's
   execution context captured that clock at privatization setup);
4. charge a recovery cost (restart barrier + state memcpy + slowest
   retrieval/migration) and re-register every rank at
   ``crash time + recovery time``.

Restart-aware programs (ones that consult restored globals before
iterating, the same contract ``restore_from=`` uses) then replay from
the checkpointed step and finish with numerics identical to a
failure-free run.  Anything that makes this impossible — no redundant
snapshot copy left, a non-checkpointable method, no surviving PE —
raises :class:`~repro.errors.FaultUnrecoverableError` out of the
scheduler loop instead of hanging, carrying a structured ``reason``
from :data:`~repro.errors.UNRECOVERABLE_REASONS`.

Overlapping faults are part of the protocol, not an afterthought:

* a crash whose instant falls inside an in-progress recovery's outage
  window (``[crash, resume)``) is drained *during* that recovery and
  re-enters the protocol with the enlarged failure set — the restart is
  priced as one extended outage and the job never resumes onto a node
  that died mid-restart.  If the cascade kills the restart itself (both
  copies of a snapshot gone), the failure is classified
  ``crash-during-recovery``;
* pending retransmission timers touching dead endpoints are squashed at
  crash-detection time (:meth:`ReliableTransport.on_crash
  <repro.net.reliable.ReliableTransport.on_crash>`), before
  recoverability is decided, so classification is immediate and no
  zombie RTO chain burns fault draws against a dead rank;
* the checkpoint restored from is the newest generation that passes its
  snapshot checksums — a corrupted generation falls back to the
  previous one under global rollback (local recovery cannot: its
  message-log cursors belong to the newest checkpoint) instead of
  silently restoring garbage.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.charm.messages import Mailbox
from repro.charm.reduction import tree_depth
from repro.errors import FaultUnrecoverableError, ReproError
from repro.ft.plan import FaultInjector, NodeCrash
from repro.perf.counters import (
    EV_CASCADE,
    EV_CKPT_FALLBACK,
    EV_FAULT,
    EV_RECOVERY_NS,
)
from repro.threads.ult import UserLevelThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.runtime import AmpiJob


class RecoveryManager:
    """Watches the scheduler for due node crashes and performs recovery."""

    #: a corrupted current checkpoint generation may be served by the
    #: previous one (False for local recovery: the message-log cursor
    #: snapshot only matches the newest generation)
    supports_ckpt_fallback = True

    def __init__(self, job: "AmpiJob", injector: FaultInjector):
        self.job = job
        self.injector = injector
        self.dead_procs: set[int] = set()
        self.recoveries = 0
        self.recovery_ns_total = 0
        #: crashes absorbed while a recovery was already in progress
        self.cascades = 0
        #: vp -> number of times recovery rolled that rank back; global
        #: rollback counts every rank, local rollback only the dead ones
        self.rollback_counts: Counter[int] = Counter()
        #: one entry per *recovered* crash, in handling order — the
        #: machine-checkable account the chaos invariants reconcile
        #: rollback counters against
        self.crash_log: list[dict[str, Any]] = []
        self._recovering = False
        self._queued: list[NodeCrash] = []
        for crash in injector.plan.node_crashes:
            if crash.node >= len(job.nodes):
                raise ReproError(
                    f"fault plan crashes node {crash.node} but the job "
                    f"has only {len(job.nodes)} nodes"
                )

    # -- scheduler hook -----------------------------------------------------------

    def poll(self, now_ns: int) -> bool:
        """Called before each scheduling quantum; True if a crash fired
        (the popped quantum is stale and must be discarded)."""
        crash = self.injector.next_crash(now_ns)
        if crash is None:
            return False
        self.handle_crash(crash)
        return True

    # -- the recovery protocol ------------------------------------------------------

    def handle_crash(self, crash: NodeCrash) -> None:
        """Recover from ``crash`` and from every crash that lands inside
        the resulting outage window (a *cascade*), re-entering the
        protocol with the enlarged failure set each time.

        Re-entrant calls (none of the scheduler's code paths produce one
        today, but a hardened protocol must not corrupt state if one
        ever does) park the crash on a queue that the active invocation
        drains deterministically.
        """
        if self._recovering:
            self._queued.append(crash)
            return
        self._recovering = True
        try:
            horizon = self._recover_one(crash, cascade=False)
            while horizon is not None:
                if self._queued:
                    nxt = self._queued.pop(0)
                else:
                    # Strictly inside the window: a crash due exactly at
                    # the resume instant is an ordinary next fault.
                    nxt = self.injector.next_crash(horizon - 1)
                if nxt is None:
                    break
                self.cascades += 1
                self.job.counters.incr(EV_CASCADE)
                later = self._recover_one(nxt, cascade=True,
                                          resume_floor=horizon)
                if later is not None:
                    horizon = max(horizon, later)
        finally:
            self._recovering = False

    def _recover_one(self, crash: NodeCrash, *, cascade: bool,
                     resume_floor: int = 0) -> int | None:
        """Handle one crash; returns the resume instant (None when the
        node was already down)."""
        job = self.job
        node = job.nodes[crash.node]
        job.counters.incr(EV_FAULT)
        if job.trace is not None:
            job.trace.instant(
                "fault:node-crash", "ft", crash.at_ns,
                pid=job._pe_pid_base,
                args={"node": crash.node, "cascade": cascade,
                      "pes": [pe.index for proc in node.processes
                              for pe in proc.pes]},
            )

        newly_dead = [pe for proc in node.processes for pe in proc.pes
                      if not pe.failed]
        if not newly_dead:
            return None  # node already down; nothing further to lose
        for pe in newly_dead:
            pe.failed = True
        self.dead_procs.update(proc.index for proc in node.processes)

        # Residents of the PEs that just died (earlier recoveries have
        # already migrated everyone off previously-failed PEs).
        dead_vps = sorted(r.vp for r in job.ranks() if r.pe.failed)
        if job.reliable is not None:
            # Squash RTO chains touching the dead endpoints *now*, before
            # recoverability is decided: even an unrecoverable
            # classification must not race pending retransmissions.
            job.reliable.on_crash(set(dead_vps))

        survivors = [pe for pe in job.pes if not pe.failed]
        if not survivors:
            raise FaultUnrecoverableError(
                f"node {crash.node} crash at t={crash.at_ns} left no "
                "surviving PE",
                reason="crash-during-recovery" if cascade
                else "no-survivor",
            )
        bc = job.buddy_ckpt
        if bc is None or bc.current is None:
            raise FaultUnrecoverableError(
                f"node {crash.node} crashed at t={crash.at_ns} with no "
                "checkpoint to restart from",
                reason="no-checkpoint",
            )
        gen, fellback = bc.usable_generation(
            self.dead_procs, allow_fallback=self.supports_ckpt_fallback)
        if gen is None:
            lost = bc.lost_ranks(self.dead_procs)
            if cascade:
                reason = "crash-during-recovery"
            elif len(job.processes) == 1:
                reason = "nprocs-too-small"
            else:
                reason = "buddy-pair-dead"
            raise FaultUnrecoverableError(
                f"node {crash.node} crash at t={crash.at_ns}"
                f"{' (during recovery)' if cascade else ''} destroyed "
                f"both snapshot copies of vp(s) {lost}; with "
                f"{len(job.processes)} OS process(es) the buddy scheme "
                "holds no surviving replica",
                reason=reason,
            )
        if fellback:
            job.counters.incr(EV_CKPT_FALLBACK)

        recovery_ns, resume_at = self._rollback(crash, survivors,
                                                gen.ckpt, resume_floor)
        self.recoveries += 1
        self.recovery_ns_total += recovery_ns
        job.counters.incr(EV_RECOVERY_NS, recovery_ns)
        self.crash_log.append({
            "node": crash.node,
            "at_ns": crash.at_ns,
            "dead_vps": dead_vps,
            "cascade": cascade,
            "ckpt_fallback": fellback,
            "recovery_ns": recovery_ns,
            "resume_ns": resume_at,
        })
        if job.trace is not None:
            job.trace.span(
                "recovery", "ft", crash.at_ns, recovery_ns,
                pid=job._pe_pid_base,
                args={"node": crash.node, "recoveries": self.recoveries,
                      "cascade": cascade},
            )
        return resume_at

    def _rollback(self, crash: NodeCrash, survivors: list, ckpt,
                  resume_floor: int = 0) -> tuple[int, int]:
        """Global rollback to checkpoint ``ckpt``; returns (cost,
        resume instant)."""
        job = self.job

        # 1. Quiesce: nothing queued or half-communicated survives the
        #    rollback horizon.  The transport's receive cursors must
        #    resync to its send cursors: the flush kills any in-flight
        #    retransmission mid-chain, so its seq will never complete,
        #    and the replayed ranks re-send with fresh seqs above it.
        job.scheduler.flush()
        job._ft_reset_mpi_state()
        if job.reliable is not None:
            job.reliable.resync()

        # 2. Dead ranks move to the least-loaded surviving PE, in vp
        #    order — the same deterministic tie-break the LB uses.
        move_ns = 0
        for rank in sorted((r for r in job.ranks() if r.pe.failed),
                           key=lambda r: r.vp):
            target = min(survivors,
                         key=lambda pe: (len(pe.resident), pe.index))
            rec = job.migration_engine.migrate(rank, target)
            move_ns = max(move_ns, rec.ns)

        # 3. Every rank restarts from its snapshot on a fresh ULT that
        #    keeps the old SimClock object (contexts hold references).
        for rank in job.ranks():
            old = rank.ult
            clock = old.clock
            if not old.finished:
                old.kill()
            old.join_thread()
            ult = UserLevelThread(
                f"vp{rank.vp}", job._rank_entry, (rank,),
                stack_bytes=job.stack_bytes,
            )
            ult.clock = clock
            rank.ult = ult
            rank.finished = False
            rank.exit_value = None
            ckpt.restore_rank(rank, reset_heap=True)
            self.rollback_counts[rank.vp] += 1

        # 4. Price the restart: a job-wide barrier, unpacking the
        #    checkpoint state, and the slowest snapshot retrieval/move.
        costs = job.costs
        recovery_ns = (
            tree_depth(job.nvp) * costs.collective_step_ns
            + costs.memcpy_ns(ckpt.nbytes)
            + move_ns
        )
        # A cascade never resumes before the recovery it interrupted
        # would have (the outage window only ever extends).
        resume_at = max(crash.at_ns + recovery_ns, resume_floor)
        for rank in job.ranks():
            # A rank can never run before its process finished AMPI
            # startup, even when the crash struck mid-initialization.
            job.scheduler.reregister(
                rank,
                max(resume_at, rank.pe.process.startup_clock.now),
            )
        return recovery_ns, resume_at


class LocalRecoveryManager(RecoveryManager):
    """Message-logging local recovery: only dead-node ranks roll back.

    Requires the job's :class:`~repro.ft.msglog.MessageLogger` (armed by
    ``recovery="local"``).  Where the global protocol flushes the whole
    scheduler and rewinds every rank, this one retracts exactly the lost
    timeline — the dead ranks' queued quanta, mailboxes, collective
    arrivals and transport channels — restores only those ranks from the
    buddy checkpoint, and lets them catch up by replaying logged
    messages and collective results while survivors keep running.  The
    recovery cost therefore scales with the *recovering* set (its
    restart barrier, its snapshot bytes, its slowest move), not with the
    job: deterministically cheaper than a global rollback of the same
    crash.
    """

    supports_ckpt_fallback = False

    def _rollback(self, crash: NodeCrash, survivors: list, ckpt,
                  resume_floor: int = 0) -> tuple[int, int]:
        job = self.job
        recovering = sorted((r for r in job.ranks() if r.pe.failed),
                            key=lambda r: r.vp)
        if not recovering:
            return 0, crash.at_ns
        vps = {r.vp for r in recovering}

        # 1. Retract exactly the lost timeline.  Survivors' run-queue
        #    entries, mailboxes and half-built collectives stay live.
        for rank in recovering:
            job.scheduler.runq.discard(rank.ult)
            job._mailboxes[rank.vp] = Mailbox()
            job._posted[rank.vp] = []
            job._waiting.pop(rank.vp, None)
            job._waiting_any.pop(rank.vp, None)
            job._probing.pop(rank.vp, None)
            # The rank re-executes from MPI_Init; its lifecycle markers
            # belong to the timeline that just died.
            job._initialized.discard(rank.vp)
            job._finalized.discard(rank.vp)
        job.collectives.purge_ranks(vps)
        job.msglog.rollback(vps, job)

        # 2. Dead ranks move to the least-loaded surviving PE, in vp
        #    order — the same deterministic tie-break the LB uses.
        move_ns = 0
        for rank in recovering:
            target = min(survivors,
                         key=lambda pe: (len(pe.resident), pe.index))
            rec = job.migration_engine.migrate(rank, target)
            move_ns = max(move_ns, rec.ns)

        # 3. Only the recovering ranks restart from their snapshots, on
        #    fresh ULTs keeping the old SimClock objects.
        restored_bytes = 0
        for rank in recovering:
            old = rank.ult
            clock = old.clock
            if not old.finished:
                old.kill()
            old.join_thread()
            ult = UserLevelThread(
                f"vp{rank.vp}", job._rank_entry, (rank,),
                stack_bytes=job.stack_bytes,
            )
            ult.clock = clock
            rank.ult = ult
            rank.finished = False
            rank.exit_value = None
            ckpt.restore_rank(rank, reset_heap=True)
            snap = ckpt.snapshots.get(rank.vp)
            if snap is not None:
                restored_bytes += snap.nbytes
            self.rollback_counts[rank.vp] += 1

        # 4. Price the restart over the recovering set only: its restart
        #    barrier, its snapshot bytes, its slowest retrieval/move.
        costs = job.costs
        recovery_ns = (
            tree_depth(len(recovering)) * costs.collective_step_ns
            + costs.memcpy_ns(restored_bytes)
            + move_ns
        )
        resume_at = max(crash.at_ns + recovery_ns, resume_floor)
        for rank in recovering:
            job.scheduler.reregister(
                rank,
                max(resume_at, rank.pe.process.startup_clock.now),
            )
        return recovery_ns, resume_at
