"""The AMPI runtime: builds, starts, and runs virtualized MPI jobs.

:class:`AmpiJob` is the package's main entry point.  It owns the whole
object graph — machine topology, loaders, Isomalloc arena, privatization
method, scheduler, message plumbing, collectives, migration and load
balancing — and returns a :class:`JobResult` with simulated-time metrics
for every figure in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.ampi.api import MpiHandle
from repro.ampi.collectives import CollectiveEngine
from repro.ampi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.ampi.datatypes import payload_nbytes
from repro.ampi.funcptr import pack_transport, shim_compile_unit
from repro.ampi.ops import Op, UserOp
from repro.ampi.requests import Request, RequestKind, Status
from repro.charm.lb import RankStat, get_strategy, summarize_loads
from repro.charm.locmgr import LocationManager
from repro.charm.messages import Mailbox, Message
from repro.charm.migration import MigrationEngine, MigrationRecord
from repro.charm.node import JobLayout, build_topology
from repro.charm.reduction import tree_depth
from repro.charm.scheduler import JobScheduler
from repro.charm.vrank import VirtualRank
from repro.elf.loader import DynamicLoader
from repro.errors import (
    FaultUnrecoverableError,
    MpiAbort,
    MpiError,
    ReductionOffsetError,
    ReproError,
)
from repro.fs.sharedfs import SharedFileSystem
from repro.machine import GENERIC_LINUX, MachineModel
from repro.mem.address_space import MapKind
from repro.mem.heap import RankHeap
from repro.mem.isomalloc import IsomallocArena
from repro.mem.layout import DEFAULT_SLOT_SIZE
from repro.ft.buddy import BuddyCheckpointer, FtConfig
from repro.ft.msglog import MessageLogger
from repro.ft.plan import FaultInjector, FaultPlan
from repro.ft.recovery import LocalRecoveryManager, RecoveryManager
from repro.net.network import Network
from repro.net.reliable import ReliableTransport
from repro.perf.counters import (
    CounterSet,
    EV_DEDUP_DROP,
    EV_FAULT,
    EV_MSG_BYTES,
    EV_MSG_FAULT_CORRUPT,
    EV_MSG_FAULT_DROP,
    EV_MSG_FAULT_DUP,
    EV_MSG_SENT,
    EV_REPLAYED,
)
from repro.privatization import get_method
from repro.privatization.base import SetupEnv
from repro.privatization.pieglobals import PieGlobals
from repro.program.binary import Binary
from repro.program.compiler import Compiler, CompileOptions
from repro.program.context import ExecutionContext, FetchTracer, GlobalsView
from repro.program.source import ProgramSource
from repro.threads.ult import UserLevelThread
from repro.trace.recorder import TraceRecorder

_job_ids = itertools.count(0)


@dataclass(frozen=True)
class PeStat:
    index: int
    busy_ns: int
    idle_ns: int
    ctx_switches: int
    final_ranks: tuple[int, ...]


@dataclass(frozen=True)
class LbReport:
    at_ns: int
    strategy: str
    moves: int
    bytes_moved: int
    imbalance_before: float
    imbalance_after: float


@dataclass
class JobResult:
    method: str
    nvp: int
    layout: JobLayout
    machine: str
    exit_values: dict[int, Any]
    makespan_ns: int
    startup_ns: int
    startup_per_process: list[int]
    counters: CounterSet
    pe_stats: list[PeStat]
    migrations: list[MigrationRecord]
    lb_reports: list[LbReport]
    forwarded_messages: int
    collectives_completed: int
    rank_cpu_ns: dict[int, int]
    #: the job's trace recorder, when tracing was enabled
    trace: "TraceRecorder | None" = None
    #: completed crash recoveries (fault-tolerance subsystem)
    recoveries: int = 0
    #: which transport delivered point-to-point messages
    transport: str = "priced"
    #: rollback protocol armed for this job ("global" or "local")
    recovery: str = "global"
    #: per-vp count of times that rank was rolled back by recovery
    rollbacks: dict[int, int] = field(default_factory=dict)
    #: sanitizer findings from this job, in deterministic order
    #: (empty unless the job ran with ``sanitize=``)
    sanitize_findings: list = field(default_factory=list)
    #: structured classification when the job died unrecoverably (one of
    #: :data:`repro.errors.UNRECOVERABLE_REASONS`); None for a run that
    #: completed.  Populated by ``run(strict=False)``.
    unrecoverable_reason: str | None = None
    #: human-readable message of the fatal error (None when completed)
    error: str | None = None
    #: one entry per recovered crash, in handling order (node, at_ns,
    #: dead_vps, cascade, ckpt_fallback, recovery_ns, resume_ns) — the
    #: account chaos invariants reconcile rollback counters against
    crashes: list = field(default_factory=list)

    @property
    def app_ns(self) -> int:
        """Post-startup execution time."""
        return max(0, self.makespan_ns - self.startup_ns)

    def summary(self) -> str:
        top = sorted(self.counters.items(), key=lambda kv: (-kv[1], kv[0]))
        highlights = " ".join(f"{k}={v}" for k, v in top[:3])
        return (
            f"[{self.method}] nvp={self.nvp} "
            f"pes={self.layout.total_pes} "
            f"startup={self.startup_ns} ns app={self.app_ns} ns "
            f"makespan={self.makespan_ns} ns "
            f"migrations={sum(1 for m in self.migrations if m.src_pe != m.dst_pe)}"
            + (f" | {highlights}" if highlights else "")
        )

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable report (gem5-style standardized results).

        Everything is plain JSON-able data; rank exit values that are not
        JSON-native are stringified.
        """
        def _jsonable(v: Any) -> Any:
            if isinstance(v, (int, float, str, bool)) or v is None:
                return v
            return repr(v)

        return {
            "method": self.method,
            "nvp": self.nvp,
            "machine": self.machine,
            "layout": {
                "nodes": self.layout.nodes,
                "processes_per_node": self.layout.processes_per_node,
                "pes_per_process": self.layout.pes_per_process,
            },
            "makespan_ns": self.makespan_ns,
            "startup_ns": self.startup_ns,
            "app_ns": self.app_ns,
            "startup_per_process_ns": list(self.startup_per_process),
            "counters": dict(sorted(self.counters.snapshot().items())),
            "pe_stats": [
                {"pe": p.index, "busy_ns": p.busy_ns, "idle_ns": p.idle_ns,
                 "ctx_switches": p.ctx_switches,
                 "final_ranks": list(p.final_ranks)}
                for p in self.pe_stats
            ],
            "migrations": [
                {"vp": m.vp, "src_pe": m.src_pe, "dst_pe": m.dst_pe,
                 "nbytes": m.nbytes, "ns": m.ns,
                 "cross_process": m.cross_process}
                for m in self.migrations
            ],
            "lb_reports": [
                {"at_ns": r.at_ns, "strategy": r.strategy, "moves": r.moves,
                 "bytes_moved": r.bytes_moved,
                 "imbalance_before": r.imbalance_before,
                 "imbalance_after": r.imbalance_after}
                for r in self.lb_reports
            ],
            "forwarded_messages": self.forwarded_messages,
            "collectives_completed": self.collectives_completed,
            "recoveries": self.recoveries,
            "transport": self.transport,
            "recovery": self.recovery,
            "rollbacks": {str(vp): n
                          for vp, n in sorted(self.rollbacks.items())},
            "status": ("ok" if self.unrecoverable_reason is None
                       else "unrecoverable"),
            "unrecoverable_reason": self.unrecoverable_reason,
            "error": self.error,
            "crashes": list(self.crashes),
            "sanitize_findings": [f.to_dict() for f in self.sanitize_findings],
            "rank_cpu_ns": {str(vp): ns
                            for vp, ns in sorted(self.rank_cpu_ns.items())},
            "exit_values": {str(vp): _jsonable(v)
                            for vp, v in sorted(self.exit_values.items())},
        }


@dataclass
class _PostedRecv:
    request: Request


class AmpiJob:
    """One virtualized MPI job on a simulated machine."""

    def __init__(
        self,
        source: ProgramSource | Binary,
        nvp: int,
        *,
        method: str | Any = "pieglobals",
        machine: MachineModel = GENERIC_LINUX,
        layout: JobLayout | None = None,
        lb_strategy: str | Any = "greedyrefine",
        optimize: int = 2,
        stack_bytes: int = 64 * 1024,
        slot_size: int = DEFAULT_SLOT_SIZE,
        placement: str = "block",
        trace_fetches: bool = False,
        trace: "TraceRecorder | bool | None" = None,
        argv: tuple[str, ...] = (),
        restore_from: "Any | None" = None,
        fault_plan: FaultPlan | None = None,
        ft: FtConfig | None = None,
        transport: str = "priced",
        recovery: str = "global",
        sanitize: "bool | Any | None" = None,
    ):
        if nvp < 1:
            raise ReproError("need at least one virtual rank")
        self.job_id = next(_job_ids)
        self.nvp = nvp
        self.machine = machine
        self.costs = machine.costs
        self.method = get_method(method)
        self.layout = layout or JobLayout.single(
            min(nvp, machine.cores_per_node)
        )
        self.lb_strategy = get_strategy(lb_strategy)
        self.optimize = optimize
        self.stack_bytes = stack_bytes
        self.slot_size = slot_size
        if placement not in ("block", "roundrobin"):
            raise ReproError(f"unknown placement {placement!r}")
        self.placement = placement
        self.trace_fetches = trace_fetches
        #: Projections-style tracing: off unless a recorder is attached.
        if trace is True:
            trace = TraceRecorder()
        elif trace is False:
            trace = None
        self.trace: TraceRecorder | None = trace
        self._pe_pid_base = 0
        self._proc_pid_base = 0
        self.argv = tuple(argv)
        self.restore_from = restore_from
        #: fault tolerance: injector follows the plan; buddy checkpoints
        #: and the recovery manager are created by start() when enabled
        self.fault_plan = fault_plan
        self.ft = ft
        self.fault_injector = (FaultInjector(fault_plan)
                               if fault_plan is not None else None)
        self.buddy_ckpt: BuddyCheckpointer | None = None
        self.recovery: RecoveryManager | None = None
        #: message delivery discipline: "priced" charges faults as a flat
        #: latency lump; "reliable" runs the real seq/ack/retransmit
        #: protocol (repro.net.reliable)
        if transport not in ("priced", "reliable"):
            raise ReproError(f"unknown transport {transport!r}")
        if recovery not in ("global", "local"):
            raise ReproError(f"unknown recovery mode {recovery!r}")
        if recovery == "local" and transport != "reliable":
            raise ReproError(
                'recovery="local" requires transport="reliable": message '
                "logging and replay suppression key off the reliable "
                "transport's channel sequence numbers"
            )
        self.transport = transport
        self.recovery_mode = recovery
        self.reliable: ReliableTransport | None = None
        self.msglog: MessageLogger | None = None

        self.method.check_supported(machine, self.layout)
        self.binary = (source if isinstance(source, Binary)
                       else self._build(source))
        self.method.validate_binary(self.binary)

        # Populated by start():
        self.started = False
        self.world = Communicator.world(nvp)
        self._comms: dict[int, Communicator] = {self.world.cid: self.world}
        self.nodes: list = []
        self.processes: list = []
        self.pes: list = []
        self._ranks: dict[int, VirtualRank] = {}
        self.sharedfs = SharedFileSystem(self.costs)
        self.network = Network(self.costs)
        self.locmgr = LocationManager()
        self.counters = CounterSet()
        #: runtime race detection (repro.sanitize): off unless a detector
        #: is attached — same zero-overhead-when-off rule as tracing.
        #: ``True`` builds a fresh detector; an existing RaceDetector can
        #: be shared across jobs to accumulate findings over a sweep.
        if sanitize is True:
            from repro.sanitize.runtime import RaceDetector
            sanitize = RaceDetector(counters=self.counters, trace=self.trace)
        elif sanitize is False:
            sanitize = None
        self.sanitizer: Any = sanitize
        self.scheduler: JobScheduler | None = None
        self.migration_engine: MigrationEngine | None = None
        self.collectives = CollectiveEngine(self)
        self.lb_reports: list[LbReport] = []
        self.checkpoints: list = []
        #: PEs currently hosting ranks (shrink/expand); all at start
        self.active_pes: int = self.layout.total_pes

        self._mailboxes: dict[int, Mailbox] = {}
        self._posted: dict[int, list[_PostedRecv]] = {}
        self._waiting: dict[int, Request] = {}
        self._waiting_any: dict[int, set[int]] = {}
        self._probing: dict[int, tuple[int, int, int]] = {}
        self._initialized: set[int] = set()
        self._finalized: set[int] = set()
        self._user_ops: list[UserOp] = []

    # -- build ---------------------------------------------------------------------

    def _build(self, source: ProgramSource) -> Binary:
        base = CompileOptions(optimize=self.optimize)
        opts = self.method.compile_options(base, self.machine)
        extra_units = []
        if self.method.uses_funcptr_shim:
            extra_units.append(shim_compile_unit())
        return Compiler(self.machine.toolchain).compile(
            source, opts, extra_units=extra_units
        )

    # -- startup -----------------------------------------------------------------------

    def _pe_for_vp(self, vp: int) -> int:
        npes = self.layout.total_pes
        if self.placement == "roundrobin":
            return vp % npes
        return vp * npes // self.nvp

    def start(self) -> None:
        """Bring the job up: topology, privatization setup, ULTs."""
        if self.started:
            raise ReproError("job already started")
        self.started = True
        arena = IsomallocArena(self.nvp, self.slot_size)
        san = self.sanitizer
        if san is not None:
            san.attach_job(self.binary.name, arena)
        self.nodes, self.processes, self.pes = build_topology(
            self.layout, self.machine, arena
        )
        tr = self.trace
        if tr is not None:
            # One pid per PE, then one per OS process (startup track).
            base = tr.alloc_pid_block(len(self.pes) + len(self.processes))
            self._pe_pid_base = base
            self._proc_pid_base = base + len(self.pes)
            for pe in self.pes:
                tr.name_process(base + pe.index,
                                f"{self.method.name}/pe{pe.index}")
            for proc in self.processes:
                tr.name_process(self._proc_pid_base + proc.index,
                                f"{self.method.name}/proc{proc.index} startup")
        for proc in self.processes:
            proc.loader = DynamicLoader(
                proc.vm, self.machine.toolchain, self.costs,
                counters=proc.counters,
                trace=tr, trace_pid=self._proc_pid_base + proc.index,
            )
            proc.startup_clock.advance(self.costs.ampi_init_base_ns)

        # Place ranks and create their ULTs/heaps/stacks.
        for vp in range(self.nvp):
            pe = self.pes[self._pe_for_vp(vp)]
            rank = VirtualRank(vp, pe)
            self._ranks[vp] = rank
            self.locmgr.register(rank)
            self._mailboxes[vp] = Mailbox()
            self._posted[vp] = []
            proc = pe.process
            rank.heap = RankHeap(vp, proc.isomalloc)
            rank.stack_mapping = proc.isomalloc.alloc(
                vp, self.stack_bytes, MapKind.STACK, tag=f"stack[{vp}]"
            )
            rank.ult = UserLevelThread(
                f"vp{vp}", self._rank_entry, (rank,),
                stack_bytes=self.stack_bytes,
            )
            proc.startup_clock.advance(
                self.costs.ult_create_ns + self.costs.ampi_rank_setup_ns
            )

        # Privatization setup, per process.
        transport = (pack_transport(self)
                     if self.method.uses_funcptr_shim else None)
        default_calltable = pack_transport(self)
        for proc in self.processes:
            ranks_here = sorted(proc.resident_ranks(), key=lambda r: r.vp)
            env = SetupEnv(
                process=proc,
                loader=proc.loader,
                machine=self.machine,
                layout=self.layout,
                costs=self.costs,
                sharedfs=self.sharedfs,
                concurrent_procs=self.layout.total_processes,
                job_tag=f"job{self.job_id}",
                optimized=self.optimize >= 1,
                funcptr_transport=transport,
                trace=tr,
                trace_pid=self._proc_pid_base + proc.index,
            )
            t_setup = proc.startup_clock.now
            wirings = self.method.setup_process(env, self.binary, ranks_here)
            if tr is not None:
                tr.span(
                    f"setup:{self.method.name}", "priv", t_setup,
                    proc.startup_clock.now - t_setup,
                    pid=self._proc_pid_base + proc.index,
                    args={"ranks": len(ranks_here)},
                )
            for rank in ranks_here:
                wiring = wirings[rank.vp]
                if san is None:
                    view = GlobalsView(
                        wiring.routes, self.costs, rank.ult.clock,
                        counters=rank.counters,
                        optimized=self.optimize >= 1,
                    )
                else:
                    from repro.sanitize.runtime import SanitizedGlobalsView
                    view = SanitizedGlobalsView(
                        wiring.routes, self.costs, rank.ult.clock,
                        counters=rank.counters,
                        optimized=self.optimize >= 1,
                        probe=san.bind(rank.vp, rank.ult.clock),
                    )
                tracer = FetchTracer() if self.trace_fetches else None
                rank.code = wiring.code
                rank.tls_instance = wiring.tls_instance
                calltable = wiring.shim_calltable or default_calltable
                ctx = ExecutionContext(
                    vp=rank.vp,
                    view=view,
                    code=wiring.code,
                    clock=rank.ult.clock,
                    costs=self.costs,
                    heap=rank.heap,
                    counters=rank.counters,
                    tracer=tracer,
                    argv=self.argv,
                )
                ctx.mpi = MpiHandle(
                    rank, calltable,
                    via_shim=wiring.shim_calltable is not None,
                )
                rank.ctx = ctx

        if self.restore_from is not None:
            self.restore_from.apply_to(self)

        self.migration_engine = MigrationEngine(
            self.network, self.locmgr, self.method, self.counters,
            trace=tr, trace_pid_base=self._pe_pid_base,
        )
        self.scheduler = JobScheduler(
            self.costs, self.method.context_switch_extra_ns(self.costs),
            trace=tr, trace_pid_base=self._pe_pid_base,
            trace_label=self.method.name,
        )
        if san is not None:
            self.scheduler.on_quantum = san.on_quantum
            self.migration_engine.sanitizer = san

        if self.transport == "reliable":
            mf = (self.fault_plan.message_faults
                  if self.fault_plan is not None else None)
            self.reliable = ReliableTransport(
                self.scheduler, self.counters,
                injector=self.fault_injector,
                rto_ns=mf.retry_timeout_ns if mf is not None else 50_000,
                trace=tr,
            )

        # Fault tolerance: buddy checkpointing is on whenever an FtConfig
        # is given or the fault plan can kill a node (a crash without a
        # checkpoint would be unrecoverable by construction).
        wants_ft = self.ft is not None or (
            self.fault_plan is not None and self.fault_plan.node_crashes
        )
        if wants_ft:
            self.buddy_ckpt = BuddyCheckpointer(
                self.ft or FtConfig(), self.network, self.costs,
                self.counters, trace=tr, trace_pid_base=self._pe_pid_base,
            )
        if self.fault_plan is not None and self.fault_plan.node_crashes:
            if self.recovery_mode == "local":
                # Sender-based message logging must exist before the
                # baseline checkpoint below snapshots its cursors.
                self.msglog = MessageLogger(self.counters)
                self.recovery = LocalRecoveryManager(self, self.fault_injector)
            else:
                self.recovery = RecoveryManager(self, self.fault_injector)
            self.scheduler.fault_check = self.recovery.poll
        if self.buddy_ckpt is not None:
            # Baseline checkpoint at startup: a crash before the first
            # application checkpoint restarts from the initial state, and
            # non-checkpointable methods fail here, structured and early.
            at0 = max(p.startup_clock.now for p in self.processes)
            extra = self.buddy_ckpt.take(self, at0)
            self.checkpoints.append(self.buddy_ckpt.checkpoint)
            for proc in self.processes:
                proc.startup_clock.advance(extra)

        if tr is not None:
            for proc in self.processes:
                tr.span("ampi-init", "startup", 0, proc.startup_clock.now,
                        pid=self._proc_pid_base + proc.index,
                        args={"method": self.method.name,
                              "ranks": len(proc.resident_ranks())})
        for vp in range(self.nvp):
            rank = self._ranks[vp]
            self.scheduler.register(
                rank, rank.pe.process.startup_clock.now
            )

    def _ft_reset_mpi_state(self) -> None:
        """Roll the MPI layer back to pristine (crash recovery).

        Messages in flight, posted receives, wait/probe registrations
        and in-progress collectives all belong to the timeline the crash
        destroyed; ranks replay from MPI_Init.
        """
        for vp in range(self.nvp):
            self._mailboxes[vp] = Mailbox()
            self._posted[vp] = []
        self._waiting.clear()
        self._waiting_any.clear()
        self._probing.clear()
        self._initialized.clear()
        self._finalized.clear()
        self.collectives.reset()

    def _rank_entry(self, rank: VirtualRank) -> Any:
        ctx = rank.ctx
        entry = self.binary.image.entry
        if ctx.tracer is not None:
            fdef = self.binary.image.code.funcs[entry]
            ctx.tracer.record(ctx.code.addr_of(entry), fdef.code_bytes)
        fn = ctx.code.fn(entry)
        return fn(ctx)

    # -- run --------------------------------------------------------------------------------

    def run(self, *, strict: bool = True) -> JobResult:
        """Execute the job to completion.

        ``strict=True`` (the default) propagates
        :class:`~repro.errors.FaultUnrecoverableError` to the caller.
        ``strict=False`` converts an unrecoverable death into a
        *structured* result — ``unrecoverable_reason`` carries the
        taxonomy code, ``error`` the message, and every counter reflects
        the partial execution — which is what fault campaigns compare
        across re-runs (deterministic unrecoverability: same reason,
        same counters, same timeline, every time).
        """
        try:
            if not self.started:
                self.start()
            self.scheduler.run()
        except FaultUnrecoverableError as e:
            if strict or getattr(self, "scheduler", None) is None:
                raise
            # The scheduler's run loop unwinds its ULTs on any exit path,
            # but a failure *before* the loop (e.g. a non-checkpointable
            # method dying at the baseline checkpoint) leaves the threads
            # created by start() alive — shut down explicitly (idempotent).
            self.scheduler.shutdown()
            result = self._result()
            result.unrecoverable_reason = e.reason
            result.error = str(e)
            return result
        return self._result()

    def cleanup(self) -> int:
        """Job teardown: remove per-rank artifacts left on shared storage.

        FSglobals copies the binary once per rank onto the shared
        filesystem; a polite job removes them on exit.  Returns the
        number of files unlinked.
        """
        return self.sharedfs.cleanup_prefix(f"job{self.job_id}/")

    def _result(self) -> JobResult:
        counters = CounterSet()
        counters.merge(self.counters)
        counters.merge(self.scheduler.counters)
        for proc in self.processes:
            counters.merge(proc.counters)
        for rank in self._ranks.values():
            counters.merge(rank.counters)
        startup_each = [p.startup_clock.now for p in self.processes]
        return JobResult(
            method=self.method.name,
            nvp=self.nvp,
            layout=self.layout,
            machine=self.machine.name,
            exit_values={vp: r.exit_value for vp, r in self._ranks.items()},
            makespan_ns=self.scheduler.makespan_ns(),
            startup_ns=max(startup_each),
            startup_per_process=startup_each,
            counters=counters,
            pe_stats=[
                PeStat(pe.index, pe.busy_ns, pe.idle_ns, pe.ctx_switches,
                       tuple(sorted(pe.resident)))
                for pe in self.pes
            ],
            migrations=list(self.migration_engine.records),
            lb_reports=list(self.lb_reports),
            forwarded_messages=self.locmgr.forwarded_messages,
            collectives_completed=self.collectives.completed,
            rank_cpu_ns={vp: r.total_cpu_ns for vp, r in self._ranks.items()},
            trace=self.trace,
            recoveries=self.recovery.recoveries if self.recovery else 0,
            transport=self.transport,
            recovery=self.recovery_mode,
            rollbacks=(dict(self.recovery.rollback_counts)
                       if self.recovery else {}),
            crashes=(list(self.recovery.crash_log)
                     if self.recovery else []),
            sanitize_findings=(self.sanitizer.sorted_findings()
                               if self.sanitizer is not None else []),
        )

    # -- lookups ------------------------------------------------------------------------------

    def rank_of(self, vp: int) -> VirtualRank:
        return self._ranks[vp]

    def trace_pid_of(self, pe) -> int:
        """Trace pid of a PE's timeline track (valid when tracing is on)."""
        return self._pe_pid_base + pe.index

    def ranks(self) -> list[VirtualRank]:
        return [self._ranks[vp] for vp in range(self.nvp)]

    def _resolve_comm(self, comm: Communicator | None) -> Communicator:
        return comm if comm is not None else self.world

    # =====================================================================
    # MPI API implementations (reached through the function-pointer shim or
    # directly; first argument is always the acting rank)
    # =====================================================================

    # -- lifecycle ---------------------------------------------------------------

    def _api_init(self, rank: VirtualRank) -> None:
        if rank.vp in self._initialized:
            raise MpiError(f"vp {rank.vp}: MPI_Init called twice")
        self._initialized.add(rank.vp)
        rank.clock.advance(self.costs.msg_overhead_ns)

    def _api_initialized(self, rank: VirtualRank) -> bool:
        return rank.vp in self._initialized

    def _api_finalize(self, rank: VirtualRank) -> None:
        if rank.vp in self._finalized:
            raise MpiError(f"vp {rank.vp}: MPI_Finalize called twice")
        self._finalized.add(rank.vp)
        self.collectives.enter(rank, self.world, "barrier")

    def _api_rank(self, rank: VirtualRank,
                  comm: Communicator | None = None) -> int:
        return self._resolve_comm(comm).rank_of_vp(rank.vp)

    def _api_size(self, rank: VirtualRank,
                  comm: Communicator | None = None) -> int:
        return self._resolve_comm(comm).size

    def _api_comm_world(self, rank: VirtualRank) -> Communicator:
        return self.world

    def _api_num_pes(self, rank: VirtualRank) -> int:
        return len(self.pes)

    def _api_wtime(self, rank: VirtualRank) -> float:
        return rank.clock.seconds

    def _api_abort(self, rank: VirtualRank, errorcode: int = 1) -> None:
        raise MpiAbort(errorcode, f"vp {rank.vp} called MPI_Abort({errorcode})")

    # -- point-to-point -------------------------------------------------------------

    def _transfer_plan(self, rank: VirtualRank, dst_vp: int,
                       nbytes: int) -> tuple[int, Any]:
        """Transfer duration and destination PE for a send to ``dst_vp``."""
        dest_pe, forwarded = self.locmgr.lookup_for_send(rank.vp, dst_vp)
        ns = self.network.transfer_ns(
            nbytes, rank.pe.endpoint, dest_pe.endpoint
        )
        if forwarded:
            # Stale location cache: one extra forwarding hop.
            ns += self.costs.msg_overhead_ns + self.costs.net_latency_intra_ns
        return ns, dest_pe

    def _do_send(self, rank: VirtualRank, payload: Any, dest: int, tag: int,
                 comm: Communicator | None) -> None:
        comm = self._resolve_comm(comm)
        src_cr = comm.rank_of_vp(rank.vp)
        dst_vp = comm.vp_of_rank(dest)
        nbytes = payload_nbytes(payload)
        now = rank.clock.now
        ns, dest_pe = self._transfer_plan(rank, dst_vp, nbytes)
        if self.reliable is None and self.fault_injector is not None:
            # Priced transport: the protocol is not modelled, so a fault
            # is charged as a flat latency lump on the one-and-only
            # delivery.  The reliable path never takes this branch — it
            # pays for faults through actual retransmissions instead.
            fault = self.fault_injector.next_message_fault()
            if fault is not None:
                ns += self.fault_injector.message_penalty_ns(
                    fault, ns, self.costs.msg_overhead_ns
                )
                self.counters.incr(EV_FAULT)
                self.counters.incr({
                    "drop": EV_MSG_FAULT_DROP,
                    "duplicate": EV_MSG_FAULT_DUP,
                    "corrupt": EV_MSG_FAULT_CORRUPT,
                }[fault])
                if self.trace is not None:
                    self.trace.instant(
                        f"fault:msg-{fault}", "ft", now,
                        pid=self.trace_pid_of(rank.pe), tid=rank.vp,
                        args={"dst_vp": dst_vp, "tag": tag,
                              "nbytes": nbytes},
                    )
        msg = Message(
            src=src_cr, dst=dest, tag=tag, comm_id=comm.cid,
            payload=payload, nbytes=nbytes, sent_at=now, arrival=now + ns,
            src_vp=rank.vp, dst_vp=dst_vp,
        )
        rank.clock.advance(self.costs.msg_overhead_ns)
        if nbytes > self.costs.eager_threshold_bytes:
            rank.clock.advance(self.costs.rendezvous_handshake_ns)
        self.counters.incr(EV_MSG_SENT)
        self.counters.incr(EV_MSG_BYTES, nbytes)
        if self.trace is not None:
            self.trace.instant(
                "send", "msg", now, pid=self.trace_pid_of(rank.pe),
                tid=rank.vp,
                args={"dst_vp": dst_vp, "tag": tag, "nbytes": nbytes,
                      "arrival": now + ns},
            )
        if self.reliable is not None:
            msg.dest_endpoint = dest_pe.endpoint
            delivered = self.reliable.send(
                msg, ns, self._deliver_frame,
                trace_pid=self.trace_pid_of(rank.pe),
            )
            if delivered and self.msglog is not None:
                self.msglog.log_send(msg)
        else:
            self._deliver(dst_vp, msg)

    def _deliver_frame(self, msg: Message) -> None:
        """Reliable-transport delivery hook: the final, checksum-clean
        attempt of a frame (possibly fired from a retransmission timer,
        long after the send)."""
        dst_rank = self._ranks[msg.dst_vp]
        san = self.sanitizer
        if (san is not None and msg.dest_endpoint is not None
                and dst_rank.pe.endpoint != msg.dest_endpoint):
            san.on_stale_delivery(dst_rank, msg)
        self._deliver(msg.dst_vp, msg)

    def _deliver(self, dst_vp: int, msg: Message) -> None:
        dst_rank = self._ranks[dst_vp]
        ml = self.msglog
        if ml is not None and ml.already_consumed(dst_vp, msg.src_vp,
                                                  msg.chan_seq):
            # Local-recovery duplicate: this rank already consumed the
            # channel seq from the message log while the sender's
            # re-executed copy was still in flight.  Matching it against
            # a posted receive would hand a *later* receive this stale
            # payload.
            self.counters.incr(EV_DEDUP_DROP)
            if self.trace is not None:
                self.trace.instant(
                    "replay:dedup-drop", "ft", msg.arrival,
                    pid=self.trace_pid_of(dst_rank.pe), tid=dst_vp,
                    args={"src_vp": msg.src_vp, "chan_seq": msg.chan_seq},
                )
            return
        for i, posted in enumerate(self._posted[dst_vp]):
            req = posted.request
            if msg.matches(src=req.src, tag=req.tag, comm_id=req.comm_id):
                del self._posted[dst_vp][i]
                req.complete(
                    when=msg.arrival, payload=msg.payload,
                    source=msg.src, tag=msg.tag, nbytes=msg.nbytes,
                )
                if self.msglog is not None:
                    self.msglog.on_consume(dst_vp, msg.src_vp, msg.chan_seq)
                if self.trace is not None:
                    self.trace.instant(
                        "recv-match", "msg", msg.arrival,
                        pid=self.trace_pid_of(dst_rank.pe), tid=dst_vp,
                        args={"src": msg.src, "tag": msg.tag,
                              "nbytes": msg.nbytes},
                    )
                if self._waiting.get(dst_vp) is req:
                    self.scheduler.wake(dst_rank, msg.arrival)
                elif req.rid in self._waiting_any.get(dst_vp, ()):
                    self.scheduler.wake(dst_rank, msg.arrival)
                return
        self._mailboxes[dst_vp].deliver(msg)
        probe = self._probing.get(dst_vp)
        if probe is not None and msg.matches(*probe):
            del self._probing[dst_vp]
            self.scheduler.wake(dst_rank, msg.arrival)

    def _api_send(self, rank: VirtualRank, payload: Any, dest: int,
                  tag: int = 0, comm: Communicator | None = None) -> None:
        self._do_send(rank, payload, dest, tag, comm)

    def _api_isend(self, rank: VirtualRank, payload: Any, dest: int,
                   tag: int = 0, comm: Communicator | None = None) -> Request:
        comm_r = self._resolve_comm(comm)
        req = Request(kind=RequestKind.SEND, vp=rank.vp, comm_id=comm_r.cid,
                      tag=tag)
        self._do_send(rank, payload, dest, tag, comm)
        req.complete(when=rank.clock.now)
        return req

    def _post_recv(self, rank: VirtualRank, source: int, tag: int,
                   comm: Communicator | None) -> Request:
        comm = self._resolve_comm(comm)
        req = Request(kind=RequestKind.RECV, vp=rank.vp, comm_id=comm.cid,
                      src=source, tag=tag)
        ml = self.msglog
        if ml is not None and ml.is_replaying(rank.vp):
            # A recovering rank re-executes: serve its receives from the
            # message log first.  Anything in the mailbox is a *fresh*
            # post-crash delivery with a higher channel seq — consuming
            # it before the logged history would break non-overtaking.
            src_vp = (None if source == ANY_SOURCE
                      else comm.vp_of_rank(source))
            entry = ml.replay_match(rank.vp, src_vp, tag, comm.cid)
            if entry is not None:
                sender = self._ranks[entry.src_vp]
                fetch_ns = self.network.transfer_ns(
                    entry.nbytes, sender.pe.endpoint, rank.pe.endpoint
                )
                entry.sent_at = rank.clock.now
                entry.arrival = rank.clock.now + fetch_ns
                req.complete(when=entry.arrival, payload=entry.payload,
                             source=entry.src, tag=entry.tag,
                             nbytes=entry.nbytes)
                ml.on_consume(rank.vp, entry.src_vp, entry.chan_seq)
                self.counters.incr(EV_REPLAYED)
                if self.trace is not None:
                    self.trace.instant(
                        "replay:msg", "ft", rank.clock.now,
                        pid=self.trace_pid_of(rank.pe), tid=rank.vp,
                        args={"src_vp": entry.src_vp,
                              "chan_seq": entry.chan_seq},
                    )
                return req
        while True:
            msg = self._mailboxes[rank.vp].match(source, tag, comm.cid)
            if msg is None or ml is None or not ml.already_consumed(
                    rank.vp, msg.src_vp, msg.chan_seq):
                break
            # A duplicate copy of a seq this rank already replayed from
            # the message log (see _deliver): discard and keep matching.
            self.counters.incr(EV_DEDUP_DROP)
        if msg is not None:
            req.complete(when=msg.arrival, payload=msg.payload,
                         source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
            if ml is not None:
                ml.on_consume(rank.vp, msg.src_vp, msg.chan_seq)
        else:
            self._posted[rank.vp].append(_PostedRecv(req))
        return req

    def _api_recv(self, rank: VirtualRank, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG, comm: Communicator | None = None,
                  status: Status | None = None) -> Any:
        req = self._post_recv(rank, source, tag, comm)
        return self._api_wait(rank, req, status)

    def _api_irecv(self, rank: VirtualRank, source: int = ANY_SOURCE,
                   tag: int = ANY_TAG,
                   comm: Communicator | None = None) -> Request:
        return self._post_recv(rank, source, tag, comm)

    def _api_wait(self, rank: VirtualRank, request: Request,
                  status: Status | None = None) -> Any:
        if request.vp != rank.vp:
            raise MpiError(
                f"vp {rank.vp} cannot wait on vp {request.vp}'s request"
            )
        if not request.completed:
            t_block = rank.clock.now
            self._waiting[rank.vp] = request
            self.scheduler.block_current("MPI_Wait")
            self._waiting.pop(rank.vp, None)
            if not request.completed:
                raise MpiError("woken before request completion")
            if self.trace is not None:
                self.trace.span(
                    "MPI_Wait", "msg", t_block,
                    max(0, request.completion_time - t_block),
                    pid=self.trace_pid_of(rank.pe), tid=rank.vp,
                )
        rank.clock.advance_to(request.completion_time)
        rank.clock.advance(self.costs.msg_overhead_ns)
        if status is not None:
            status.source = request.status.source
            status.tag = request.status.tag
            status.nbytes = request.status.nbytes
        return request.payload

    def _api_test(self, rank: VirtualRank,
                  request: Request) -> tuple[bool, Any]:
        rank.clock.advance(self.costs.scheduler_poll_ns)
        if request.completed and request.completion_time <= rank.clock.now:
            return True, request.payload
        return False, None

    def _api_waitall(self, rank: VirtualRank,
                     requests: Sequence[Request]) -> list[Any]:
        return [self._api_wait(rank, r) for r in requests]

    def _api_waitany(self, rank: VirtualRank,
                     requests: Sequence[Request]) -> tuple[int, Any]:
        """MPI_Waitany: block until one request completes; returns
        (index, payload)."""
        if not requests:
            raise MpiError("waitany on an empty request list")
        while True:
            done = [(i, r) for i, r in enumerate(requests) if r.completed]
            if done:
                idx, req = min(done, key=lambda t: t[1].completion_time)
                payload = self._api_wait(rank, req)
                return idx, payload
            # Block on whichever completes first: register every pending
            # recv as the waited request in turn is not expressible, so
            # wait via the scheduler with a multi-request marker.
            pending = [r for r in requests if not r.completed]
            for r in pending:
                self._waiting_any.setdefault(rank.vp, set()).add(r.rid)
            self.scheduler.block_current("MPI_Waitany")
            self._waiting_any.pop(rank.vp, None)

    def _api_testall(self, rank: VirtualRank,
                     requests: Sequence[Request]) -> tuple[bool, list[Any]]:
        rank.clock.advance(self.costs.scheduler_poll_ns)
        if all(r.completed and r.completion_time <= rank.clock.now
               for r in requests):
            return True, [r.payload for r in requests]
        return False, []

    def _api_probe(self, rank: VirtualRank, source: int = ANY_SOURCE,
                   tag: int = ANY_TAG,
                   comm: Communicator | None = None) -> Status:
        comm = self._resolve_comm(comm)
        while True:
            msg = self._mailboxes[rank.vp].peek(source, tag, comm.cid)
            if msg is not None:
                rank.clock.advance_to(msg.arrival)
                return Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
            self._probing[rank.vp] = (source, tag, comm.cid)
            self.scheduler.block_current("MPI_Probe")

    def _api_iprobe(self, rank: VirtualRank, source: int = ANY_SOURCE,
                    tag: int = ANY_TAG,
                    comm: Communicator | None = None) -> Status | None:
        comm = self._resolve_comm(comm)
        rank.clock.advance(self.costs.scheduler_poll_ns)
        msg = self._mailboxes[rank.vp].peek(source, tag, comm.cid)
        if msg is not None and msg.arrival <= rank.clock.now:
            return Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
        return None

    def _api_sendrecv(self, rank: VirtualRank, payload: Any, dest: int,
                      source: int = ANY_SOURCE, sendtag: int = 0,
                      recvtag: int = ANY_TAG,
                      comm: Communicator | None = None) -> Any:
        req = self._post_recv(rank, source, recvtag, comm)
        self._do_send(rank, payload, dest, sendtag, comm)
        return self._api_wait(rank, req)

    # -- collectives --------------------------------------------------------------------

    def _api_barrier(self, rank: VirtualRank,
                     comm: Communicator | None = None) -> None:
        self.collectives.enter(rank, self._resolve_comm(comm), "barrier")

    def _api_bcast(self, rank: VirtualRank, value: Any = None, root: int = 0,
                   comm: Communicator | None = None) -> Any:
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "bcast", value, root=root
        )

    def _api_reduce(self, rank: VirtualRank, value: Any, op: Op,
                    root: int = 0, comm: Communicator | None = None) -> Any:
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "reduce", value, root=root, op=op
        )

    def _api_allreduce(self, rank: VirtualRank, value: Any, op: Op,
                       comm: Communicator | None = None) -> Any:
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "allreduce", value, op=op
        )

    def _api_gather(self, rank: VirtualRank, value: Any, root: int = 0,
                    comm: Communicator | None = None):
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "gather", value, root=root
        )

    def _api_allgather(self, rank: VirtualRank, value: Any,
                       comm: Communicator | None = None):
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "allgather", value
        )

    def _api_scatter(self, rank: VirtualRank, values, root: int = 0,
                     comm: Communicator | None = None):
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "scatter", values, root=root
        )

    def _api_alltoall(self, rank: VirtualRank, values,
                      comm: Communicator | None = None):
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "alltoall", values
        )

    def _api_scan(self, rank: VirtualRank, value: Any, op: Op,
                  comm: Communicator | None = None):
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "scan", value, op=op
        )

    def _api_exscan(self, rank: VirtualRank, value: Any, op: Op,
                    comm: Communicator | None = None):
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "exscan", value, op=op
        )

    def _api_reduce_scatter(self, rank: VirtualRank, values, op: Op,
                            comm: Communicator | None = None):
        return self.collectives.enter(
            rank, self._resolve_comm(comm), "reduce_scatter", values, op=op
        )

    # -- operators -------------------------------------------------------------------------

    def _api_op_create(self, rank: VirtualRank, fn_name: str,
                       commute: bool = True) -> UserOp:
        addr = rank.ctx.addr_of(fn_name)
        if isinstance(self.method, PieGlobals):
            op = UserOp(
                name=fn_name, commutative=commute,
                fn_offset=self.method.fnptr_to_offset(rank, addr),
                rebase=self.method.offset_to_fnptr,
                invoke=self._invoke_user_op,
            )
        else:
            op = UserOp(name=fn_name, commutative=commute, fn_addr=addr,
                        invoke=self._invoke_user_op)
        self._user_ops.append(op)
        return op

    def _invoke_user_op(self, pe, addr: int, a: Any, b: Any) -> Any:
        host = pe.any_resident()
        if host is None:
            # Shared-code methods can run the function from any rank in
            # the same process; PIE never reaches here (rebase failed
            # earlier with ReductionOffsetError).
            ranks = pe.process.resident_ranks()
            if not ranks:
                raise ReductionOffsetError(
                    f"no rank available in process {pe.process.index} to "
                    "apply a user-defined reduction"
                )
            host = ranks[0]
        return host.ctx.call_addr(addr, a, b)

    # -- communicator management ----------------------------------------------------------------

    def _api_comm_dup(self, rank: VirtualRank,
                      comm: Communicator | None = None) -> Communicator:
        comm = self._resolve_comm(comm)
        return self.collectives.enter(rank, comm, "comm_dup")

    def _api_comm_split(self, rank: VirtualRank, color: int, key: int = 0,
                        comm: Communicator | None = None):
        comm = self._resolve_comm(comm)
        return self.collectives.enter(
            rank, comm, "comm_split", (color, key)
        )

    def register_comm(self, comm: Communicator) -> None:
        self._comms[comm.cid] = comm

    # -- AMPI extensions ---------------------------------------------------------------------------

    def _api_migrate(self, rank: VirtualRank) -> None:
        """AMPI_Migrate: collective LB sync over MPI_COMM_WORLD."""
        self.collectives.enter(rank, self.world, "lb_sync")

    def _lb_finish(self, state) -> None:
        """Runs in the last arriver's ULT: decide + migrate + release."""
        comm = state.comm
        T = max(t for t, _ in state.arrivals.values())
        stats = [
            RankStat(vp=r.vp, load_ns=r.load_ns, pe=r.pe.index)
            for r in self.ranks()
        ]
        n_pes = len(self.pes)
        before = summarize_loads(stats, n_pes)
        assignment = self.lb_strategy.assign(stats, n_pes)
        decision_ns = self.costs.scheduler_poll_ns * max(1, len(stats))

        move_ns: dict[int, int] = {}
        moved = bytes_moved = 0
        for s in stats:
            target = assignment.get(s.vp, s.pe)
            if target != s.pe and not self.pes[target].failed:
                rec = self.migration_engine.migrate(
                    self._ranks[s.vp], self.pes[target]
                )
                move_ns[s.vp] = rec.ns
                moved += 1
                bytes_moved += rec.nbytes

        after_stats = [
            RankStat(vp=r.vp, load_ns=r.load_ns, pe=r.pe.index)
            for r in self.ranks()
        ]
        after = summarize_loads(after_stats, n_pes)
        for r in self.ranks():
            r.reset_load()

        depth = tree_depth(comm.size)
        base = T + depth * self.collectives._step_ns(comm) + decision_ns
        state.releases = {}
        for cr in state.arrivals:
            vp = comm.vp_of_rank(cr)
            state.releases[cr] = (base + move_ns.get(vp, 0), None)
        self.lb_reports.append(LbReport(
            at_ns=base,
            strategy=self.lb_strategy.name,
            moves=moved,
            bytes_moved=bytes_moved,
            imbalance_before=before.imbalance,
            imbalance_after=after.imbalance,
        ))

    def _api_resize(self, rank: VirtualRank, n_active_pes: int) -> None:
        """AMPI shrink/expand: collectively evacuate (or repopulate) PEs.

        After the call only PEs ``0..n_active_pes-1`` host ranks; the
        paper lists dynamic job shrink/expand among the adaptive features
        virtualization + migration enable (Section 2.1).
        """
        if not 1 <= n_active_pes <= len(self.pes):
            raise MpiError(
                f"cannot resize to {n_active_pes} PEs (job has "
                f"{len(self.pes)})"
            )
        self.collectives.enter(rank, self.world, "resize",
                               n_active_pes)

    def _resize_finish(self, state) -> None:
        """Runs in the last arriver's ULT (like _lb_finish)."""
        comm = state.comm
        targets = {v for _, v in state.arrivals.values()}
        if len(targets) != 1:
            raise MpiError(
                f"resize: ranks disagree on the target PE count {targets}"
            )
        n_active = targets.pop()
        T = max(t for t, _ in state.arrivals.values())
        stats = [
            RankStat(vp=r.vp, load_ns=max(r.load_ns, 1), pe=r.pe.index)
            for r in self.ranks()
        ]
        assignment = self.lb_strategy.assign(
            [s if s.pe < n_active else
             RankStat(vp=s.vp, load_ns=s.load_ns, pe=s.vp % n_active)
             for s in stats],
            n_active,
        )
        move_ns: dict[int, int] = {}
        for s in stats:
            target = assignment.get(s.vp, s.vp % n_active)
            if target != s.pe and not self.pes[target].failed:
                rec = self.migration_engine.migrate(
                    self._ranks[s.vp], self.pes[target]
                )
                move_ns[s.vp] = rec.ns
        self.active_pes = n_active
        depth = tree_depth(comm.size)
        base = T + depth * self.collectives._step_ns(comm)
        state.releases = {
            cr: (base + move_ns.get(comm.vp_of_rank(cr), 0), None)
            for cr in state.arrivals
        }

    def _api_migrate_to(self, rank: VirtualRank, pe_index: int) -> None:
        """AMPI_Migrate_to: explicit self-migration."""
        if not 0 <= pe_index < len(self.pes):
            raise MpiError(f"no such PE {pe_index}")
        rec = self.migration_engine.migrate(rank, self.pes[pe_index])
        if rec.ns:
            self.scheduler.yield_current(rank.clock.now + rec.ns)

    def _api_yield_(self, rank: VirtualRank) -> None:
        """AMPI_Yield: cooperative yield to the PE scheduler."""
        self.scheduler.yield_current(rank.clock.now)

    def _api_checkpoint(self, rank: VirtualRank) -> None:
        """Collective in-memory/shared-FS checkpoint."""
        self.collectives.enter(rank, self.world, "checkpoint")
