"""Jacobi-3D: a 7-point-stencil relaxation solver over virtual ranks.

This is the paper's microbenchmark workload: every variable referenced in
the innermost computational loop — relaxation weight, reciprocal stencil
divisor, local block dimensions — is a *mutable global*, so under a
privatization method each access goes through that method's routing (the
Figure 7 per-access-overhead probe), and the ~3 MB code segment is what
PIEglobals copies per rank and migrates.

The solver is real: ranks own numpy blocks of a 3-D domain decomposed on
a process grid, exchange six halo faces per iteration, relax, and
periodically allreduce the residual, which converges monotonically (tests
check this).  Simulated compute time per iteration is
``cells * compute_ns_per_cell`` plus one modelled inner-loop access to
each privatized global per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from repro.ampi.ops import MAX as MPI_MAX
from repro.ampi.runtime import AmpiJob, JobResult
from repro.charm.node import JobLayout
from repro.errors import ReproError
from repro.machine import GENERIC_LINUX, MachineModel
from repro.program.source import Program, ProgramSource

#: simulated .text footprint: "our Jacobi-3D standalone benchmark is
#: around 100 lines of code and has a PIEglobals code segment size of 3 MB"
JACOBI_CODE_BYTES = 3 * 1024 * 1024


@dataclass(frozen=True)
class JacobiConfig:
    n: int = 24                      #: global cube edge (n^3 cells)
    iters: int = 10
    reduce_every: int = 5            #: residual allreduce period
    omega: float = 0.8               #: relaxation weight
    compute_ns_per_cell: float = 2.0
    code_bytes: int = JACOBI_CODE_BYTES
    lb_period: int = 0               #: call AMPI_Migrate every k iters (0=off)
    #: collective checkpoint every k iters (0=off); makes the solver
    #: restart-aware: it resumes from the checkpointed iteration, both
    #: after an in-run crash recovery and under ``restore_from=``
    ckpt_period: int = 0
    #: tag the inner-loop globals ``thread_local`` — what a user does when
    #: building for TLSglobals (Figure 7's per-access overhead probe)
    tag_tls: bool = False

    def __post_init__(self) -> None:
        if self.n < 2 or self.iters < 1:
            raise ReproError("jacobi needs n >= 2 and iters >= 1")


@lru_cache(maxsize=None)
def dims_create(nranks: int, ndims: int = 3) -> tuple[int, ...]:
    """MPI_Dims_create-style balanced factorization of ``nranks``.

    Pure function of its arguments and called once per rank, so it is
    memoized — at 4k VPs the repeated factorization showed up in the
    event-loop profile.
    """
    dims = [1] * ndims
    remaining = nranks
    f = 2
    factors: list[int] = []
    while f * f <= remaining:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1
    if remaining > 1:
        factors.append(remaining)
    for p in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= p
    return tuple(sorted(dims, reverse=True))


def _block_bounds(n: int, parts: int, idx: int) -> tuple[int, int]:
    """[start, end) of block ``idx`` when n cells split into ``parts``."""
    base = n // parts
    extra = n % parts
    start = idx * base + min(idx, extra)
    end = start + base + (1 if idx < extra else 0)
    return start, end


def build_jacobi_program(cfg: JacobiConfig) -> ProgramSource:
    """Build the Jacobi-3D MPI program against the simulator's API."""
    p = Program("jacobi3d", code_bytes=cfg.code_bytes)
    # Inner-loop globals (all mutable => all privatization-sensitive):
    p.add_global("omega", cfg.omega, tls=cfg.tag_tls)
    p.add_global("inv6", 1.0 / 6.0, tls=cfg.tag_tls)
    p.add_global("nx", 0)
    p.add_global("ny", 0)
    p.add_global("nz", 0)
    # Static iteration counter (the Swapglobals hole, if anyone tries):
    p.add_static("cur_iter", 0)
    # Safe globals:
    p.add_global("n_global", cfg.n, write_once_same=True)
    p.add_global("residual", 0.0)
    if cfg.ckpt_period:
        # Restart state: which iteration to resume at, and the block
        # itself (checkpointed alongside the heap copy so the restored
        # solver picks up exactly where the snapshot was taken).  This
        # state is per-rank and read back after a restore, so a TLS
        # build must tag it ``__thread`` like the inner-loop globals:
        # untagged it would be process-shared under TLSglobals and a
        # restore would hand every rank its last process-mate's block.
        p.add_global("next_iter", 0, tls=cfg.tag_tls)
        p.add_global("ublock", None, tls=cfg.tag_tls)

    iters = cfg.iters
    reduce_every = cfg.reduce_every
    lb_period = cfg.lb_period
    ckpt_period = cfg.ckpt_period
    compute_ns = cfg.compute_ns_per_cell
    n = cfg.n

    @p.function(code_bytes=6144)
    def exchange_halos(ctx, u, coords, dims, comm):
        """Six-face halo exchange: all irecv/isend posted, then waited —
        deadlock-free and overlappable by the message-driven scheduler."""
        mpi = ctx.mpi
        cx, cy, cz = coords
        recvs = []
        for axis in (0, 1, 2):
            for direction in (-1, +1):
                nc = [cx, cy, cz]
                nc[axis] += direction
                if not 0 <= nc[axis] < dims[axis]:
                    continue
                # Row-major rank of the neighbour coordinate.
                nbr = (nc[0] * dims[1] + nc[1]) * dims[2] + nc[2]
                # The message I receive travels opposite to the one I send.
                send_tag = 10 + axis * 2 + (direction > 0)
                recv_tag = 10 + axis * 2 + (direction < 0)
                recvs.append(
                    (axis, direction,
                     mpi.irecv(source=nbr, tag=recv_tag, comm=comm))
                )
                mpi.isend(_face(u, axis, direction, interior=True).copy(),
                          dest=nbr, tag=send_tag, comm=comm)
        for axis, direction, req in recvs:
            _set_face(u, axis, direction, mpi.wait(req))

    @p.function(code_bytes=24576)
    def relax(ctx, u):
        """One Jacobi sweep over the interior; returns (new u, residual)."""
        om = ctx.g.omega
        inv6 = ctx.g.inv6
        stencil = (
            u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
            + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
            + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
        )
        interior = u[1:-1, 1:-1, 1:-1]
        updated = (1.0 - om) * interior + (om * inv6) * stencil
        resid = float(np.max(np.abs(updated - interior)))
        cells = interior.size
        # Simulated cost of the compiled loop: arithmetic plus one access
        # to each privatized inner-loop global per cell.
        ctx.compute(cells * compute_ns)
        ctx.charge_accesses({"omega": cells, "inv6": cells})
        out = u.copy()
        out[1:-1, 1:-1, 1:-1] = updated
        return out, resid

    @p.function(code_bytes=16384)
    def main(ctx):
        mpi = ctx.mpi
        mpi.init()
        me = mpi.rank()
        nranks = mpi.size()
        comm = None  # world

        dims = dims_create(nranks, 3)
        cz = me % dims[2]
        cy = (me // dims[2]) % dims[1]
        cx = me // (dims[2] * dims[1])
        coords = (cx, cy, cz)
        (x0, x1) = _block_bounds(n, dims[0], cx)
        (y0, y1) = _block_bounds(n, dims[1], cy)
        (z0, z1) = _block_bounds(n, dims[2], cz)
        ctx.g.nx, ctx.g.ny, ctx.g.nz = x1 - x0, y1 - y0, z1 - z0

        start_iter = ctx.g.next_iter if ckpt_period else 0
        if start_iter > 0:
            # Restarted from a checkpoint: the block comes back through
            # the restored globals, already holding iteration start_iter.
            u = ctx.g.ublock
        else:
            # Initial condition: hot plane at x == 0 globally, zero
            # elsewhere.
            u = np.zeros((x1 - x0 + 2, y1 - y0 + 2, z1 - z0 + 2))
            if x0 == 0:
                u[1, 1:-1, 1:-1] = 100.0
            ctx.malloc(u.nbytes, data=u, tag="jacobi:block")

        resid = float("inf")
        for it in range(start_iter, iters):
            ctx.g.cur_iter = it
            ctx.call("exchange_halos", u, coords, dims, comm)
            u, local_resid = ctx.call("relax", u)
            if x0 == 0:
                u[1, 1:-1, 1:-1] = 100.0  # Dirichlet boundary reasserted
            if (it + 1) % reduce_every == 0 or it == iters - 1:
                resid = mpi.allreduce(local_resid, op=MPI_MAX)
                ctx.g.residual = resid
            if lb_period and (it + 1) % lb_period == 0:
                mpi.migrate()
            if ckpt_period and (it + 1) % ckpt_period == 0 \
                    and (it + 1) < iters:
                ctx.g.ublock = u
                ctx.g.next_iter = it + 1
                mpi.checkpoint()
        mpi.finalize()
        return resid

    return p.build()


def _face(u: np.ndarray, axis: int, direction: int, interior: bool) -> np.ndarray:
    """The face plane to send (interior=True) or the ghost plane index."""
    idx: list[Any] = [slice(1, -1)] * 3
    if interior:
        idx[axis] = 1 if direction < 0 else u.shape[axis] - 2
    else:
        idx[axis] = 0 if direction < 0 else u.shape[axis] - 1
    return u[tuple(idx)]


def _set_face(u: np.ndarray, axis: int, direction: int,
              data: np.ndarray) -> None:
    idx: list[Any] = [slice(1, -1)] * 3
    idx[axis] = 0 if direction < 0 else u.shape[axis] - 1
    u[tuple(idx)] = data


def run_jacobi(
    cfg: JacobiConfig,
    nvp: int,
    *,
    method: str | Any = "pieglobals",
    machine: MachineModel = GENERIC_LINUX,
    layout: JobLayout | None = None,
    optimize: int = 2,
    lb_strategy: str | Any = "greedyrefine",
    trace_fetches: bool = False,
    trace: Any = None,
    fault_plan: Any = None,
    ft: Any = None,
    transport: str = "priced",
    recovery: str = "global",
    sanitize: Any = None,
    strict: bool = True,
) -> JobResult:
    """Build + run Jacobi-3D; returns the job result (exit value of each
    rank is the final global residual).

    Runs through the canonical :class:`repro.harness.jobspec.JobSpec`
    whenever the arguments are spec-able (preset machine, named method
    and LB strategy), so ``--provenance`` records these runs too; a
    custom machine model or method/strategy *instance* falls back to
    direct :class:`AmpiJob` construction and is not recordable.
    """
    # Lazy import: jobspec's app registry imports this module.
    from repro.harness import jobspec as _js

    preset = _js.machine_preset_name(machine)
    if preset is not None and isinstance(method, str) \
            and isinstance(lb_strategy, str):
        lay = layout or JobLayout.single(min(nvp, machine.cores_per_node))
        spec = _js.JobSpec(
            app="jacobi3d", nvp=nvp, app_config=dict(cfg.__dict__),
            method=method, machine=preset,
            layout=(lay.nodes, lay.processes_per_node, lay.pes_per_process),
            lb_strategy=lb_strategy, optimize=optimize,
            fault_plan=fault_plan.to_dict() if fault_plan is not None
            else None,
            ft_interval_ns=ft.ckpt_interval_ns if ft is not None else None,
            transport=transport, recovery=recovery,
        )
        return _js.run_spec(spec, trace=trace, sanitize=sanitize,
                            trace_fetches=trace_fetches, strict=strict)
    source = build_jacobi_program(cfg)
    job = AmpiJob(
        source, nvp, method=method, machine=machine, layout=layout,
        optimize=optimize, lb_strategy=lb_strategy,
        trace_fetches=trace_fetches, trace=trace,
        fault_plan=fault_plan, ft=ft, transport=transport,
        recovery=recovery, sanitize=sanitize,
    )
    return job.run(strict=strict)
