"""The seeded-violation fixture catalog of ``repro check`` and
``repro analyze``: one record per fixture, keyed by name.

Each fixture is the smallest program, image, loader or job state that
genuinely exhibits one defect, and declares the phase whose detector
must report it: ``static`` (image/loader lint, compat matrix, Isomalloc
projection; images are mutated post-link, loaders aged through real
``dlmopen``/``dlclose`` cycles), ``source`` (the program analyzer) or
``runtime`` (the race/migration detector on a live job).  Source
fixtures also declare what *running* their program does, so the
agreement tests can show the ``silent`` defects only the analyzer
reports.  ``repro check fixture:<name>`` runs any fixture and ``repro
analyze fixture:<name>`` the source ones; the tests and CI assert each
reports exactly its :data:`EXPECTED` codes in its declared phase.

The determinism fixtures contain the host-nondeterminism shapes the
self-lint forbids; their offending lines carry ``# repro: allow(...)``
pragmas, which only the *file* lint (``repro analyze self``) honors.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.elf.image import ElfType
from repro.elf.relocation import Relocation, RelocKind
from repro.elf.symbols import Symbol, SymbolBinding, SymbolKind
from repro.machine import GENERIC_LINUX
from repro.privatization.registry import get_method
from repro.program.binary import Binary
from repro.program.compiler import CompileOptions, Compiler
from repro.program.source import Program, ProgramSource
from repro.sanitize.findings import Finding, with_phase
from repro.sanitize.runtime import RaceDetector
from repro.sanitize.static import StaticLinter, compat_findings, project_isomalloc

#: host interpreter state for the module-global-write fixture
_MODULE_STATE = 0

#: how a source fixture's program behaves when actually executed
RUNTIME_SEGFAULT = "segfault"    #: raises SegFault
RUNTIME_DEADLOCK = "deadlock"    #: raises DeadlockError
RUNTIME_RACES = "races"          #: run completes, race detector fires
RUNTIME_SILENT = "silent"        #: run completes, no runtime finding


@dataclass(frozen=True)
class Fixture:
    name: str
    phase: str                     #: "static" | "source" | "runtime"
    expected: frozenset[str]       #: exactly these finding codes
    #: source phase: builds the program; else runs the detector
    body: Callable
    # Source fixtures only: the RUNTIME_* outcome of running the program,
    # extra ``analyze_source`` kwargs, and the agreement run's method/nvp.
    runtime: str | None = None
    analyze_kwargs: dict = field(default_factory=dict)
    run_method: str = "pieglobals"
    nvp: int = 4

    def run(self) -> list[Finding]:
        """Run the detector; stamp the declared phase on unphased findings."""
        if self.phase == "source":
            from repro.analyze.driver import analyze_source

            findings = analyze_source(
                self.body(), target=f"fixture:{self.name}",
                **self.analyze_kwargs).findings
        else:
            findings = self.body()
        return with_phase(findings, self.phase)

    def run_job(self):
        """Execute a source fixture under the race detector; returns
        ``(result, detector)`` or raises what the run raises (SegFault,
        DeadlockError), the contrast the agreement tests assert on."""
        from repro.ampi.runtime import AmpiJob
        from repro.charm.node import JobLayout

        det = RaceDetector()
        job = AmpiJob(self.body(), self.nvp, method=self.run_method,
                      optimize=1, layout=JobLayout.single(2), sanitize=det)
        return job.run(), det


_FIXTURES: dict[str, Fixture] = {}

#: fixture name -> exactly the finding codes it must produce
EXPECTED: dict[str, frozenset[str]] = {}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def get_fixture(name: str) -> Fixture:
    try:
        return _FIXTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; have: {', '.join(fixture_names())}"
        ) from None


def _fixture(name: str, phase: str, expected: set[str],
             runtime: str | None = None, **kw):
    def deco(body: Callable):
        fx = Fixture(name, phase, frozenset(expected), body, runtime, **kw)
        _FIXTURES[name] = fx
        EXPECTED[name] = fx.expected
        return body
    return deco


# ---------------------------------------------------------------------------
# Family 1: privatization surface
# ---------------------------------------------------------------------------

@_fixture("ana-undeclared-global", "source", {"pv-undeclared-global"},
          RUNTIME_SEGFAULT)
def _undeclared() -> ProgramSource:
    p = Program("ana_undeclared")

    @p.function()
    def main(ctx):
        ctx.g.mystery = ctx.mpi.rank()
        return 0

    return p.build()


@_fixture("ana-const-write", "source", {"pv-const-write"}, RUNTIME_SEGFAULT)
def _const_write() -> ProgramSource:
    p = Program("ana_const_write")
    p.add_global("cfg", 7, const=True)

    @p.function()
    def main(ctx):
        ctx.g.cfg = 8
        return ctx.g.cfg

    return p.build()


@_fixture("ana-write-once-divergent", "source", {"pv-write-once-divergent"},
          RUNTIME_SILENT)
def _write_once_divergent() -> ProgramSource:
    # The defect the runtime CANNOT see: write_once_same tells every
    # detector and method the value is rank-uniform, so a rank-dependent
    # write is silently shared.  Only the analyzer reports it.
    p = Program("ana_once_divergent")
    p.add_global("nr", 0, write_once_same=True)

    @p.function()
    def main(ctx):
        ctx.g.nr = ctx.mpi.rank()
        return ctx.g.nr

    return p.build()


@_fixture("ana-unneeded-privatization", "source", {"pv-unneeded-privatization"},
          RUNTIME_SILENT, analyze_kwargs={"suggest": True})
def _unneeded() -> ProgramSource:
    p = Program("ana_unneeded")
    p.add_global("coef", 314)   # mutable, but never written

    @p.function()
    def main(ctx):
        return ctx.g.coef * 2

    return p.build()


@_fixture("ana-method-insufficient", "source", {"pv-method-insufficient"},
          RUNTIME_RACES, analyze_kwargs={"method": "tlsglobals"},
          run_method="tlsglobals")
def _method_insufficient() -> ProgramSource:
    # tlsglobals only privatizes TLS variables; a plain rank-varying
    # global stays shared under it.
    p = Program("ana_insufficient")
    p.add_global("acc", 0)

    @p.function()
    def main(ctx):
        ctx.g.acc = ctx.mpi.rank()
        ctx.mpi.barrier()
        return ctx.g.acc

    return p.build()


# ---------------------------------------------------------------------------
# Family 2: migration/checkpoint safety
# ---------------------------------------------------------------------------

@_fixture("ana-closure-mutable", "source", {"mig-closure-mutable"}, RUNTIME_SILENT)
def _closure_mutable() -> ProgramSource:
    p = Program("ana_closure")
    cache: list[int] = []   # captured by main: invisible to migration

    @p.function()
    def main(ctx):
        cache.append(ctx.mpi.rank())
        return len(cache)

    return p.build()


@_fixture("ana-module-global-write", "source", {"mig-module-global-write"},
          RUNTIME_SILENT)
def _module_global_write() -> ProgramSource:
    p = Program("ana_module_write")

    @p.function()
    def main(ctx):
        global _MODULE_STATE
        _MODULE_STATE = ctx.vp
        return 0

    return p.build()


@_fixture("ana-ctx-escape", "source", {"mig-ctx-escape"}, RUNTIME_SILENT)
def _ctx_escape() -> ProgramSource:
    p = Program("ana_ctx_escape")

    @p.function()
    def main(ctx):
        return ctx

    return p.build()


# ---------------------------------------------------------------------------
# Family 3: communication shape
# ---------------------------------------------------------------------------

@_fixture("ana-collective-divergent", "source", {"comm-collective-divergent"},
          RUNTIME_DEADLOCK)
def _collective_divergent() -> ProgramSource:
    p = Program("ana_divergent")

    @p.function()
    def main(ctx):
        if ctx.mpi.rank() == 0:
            ctx.mpi.barrier()
        return 0

    return p.build()


@_fixture("ana-recv-deadlock", "source", {"comm-recv-before-send"},
          RUNTIME_DEADLOCK)
def _recv_deadlock() -> ProgramSource:
    p = Program("ana_recv_deadlock")

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        peer = (me + 1) % ctx.mpi.size()
        msg = ctx.mpi.recv(source=peer)
        ctx.mpi.send(me, peer)
        return msg

    return p.build()


@_fixture("ana-tag-mismatch", "source", {"comm-tag-mismatch"}, RUNTIME_DEADLOCK,
          nvp=2)
def _tag_mismatch() -> ProgramSource:
    p = Program("ana_tag_mismatch")

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        if me == 0:
            ctx.mpi.send(42, 1, 3)
        elif me == 1:
            return ctx.mpi.recv(source=0, tag=4)
        return 0

    return p.build()


@_fixture("ana-unwaited-request", "source", {"comm-unwaited-request"},
          RUNTIME_SILENT)
def _unwaited() -> ProgramSource:
    p = Program("ana_unwaited")

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        peer = (me + 1) % ctx.mpi.size()
        req = ctx.mpi.irecv(source=peer)  # noqa: F841 -- seeded: never waited
        ctx.mpi.send(me, peer)
        return 0

    return p.build()


# ---------------------------------------------------------------------------
# Family 4: determinism
# ---------------------------------------------------------------------------

@_fixture("ana-wallclock", "source", {"det-wallclock"}, RUNTIME_SILENT)
def _wallclock() -> ProgramSource:
    p = Program("ana_wallclock")

    @p.function()
    def main(ctx):
        t = time.time()  # repro: allow(det-wallclock) seeded fixture body
        return int(t) * 0

    return p.build()


@_fixture("ana-unseeded-random", "source", {"det-unseeded-random"}, RUNTIME_SILENT)
def _unseeded_random() -> ProgramSource:
    p = Program("ana_random")

    @p.function()
    def main(ctx):
        x = random.random()  # repro: allow(det-unseeded-random) seeded fixture body
        return int(x) * 0

    return p.build()


@_fixture("ana-set-iteration", "source", {"det-set-iteration"}, RUNTIME_SILENT)
def _set_iteration() -> ProgramSource:
    p = Program("ana_set_iter")

    @p.function()
    def main(ctx):
        total = 0
        for x in {1, 2, 3}:  # repro: allow(det-set-iteration) seeded fixture body
            total += x
        return total

    return p.build()


@_fixture("ana-id-key", "source", {"det-id-key"}, RUNTIME_SILENT)
def _id_key() -> ProgramSource:
    p = Program("ana_id_key")

    @p.function()
    def main(ctx):
        table = {}
        table[id(ctx)] = 1  # repro: allow(det-id-key) seeded fixture body
        return len(table)

    return p.build()


# ---------------------------------------------------------------------------
# Static and runtime phases: the sanitizer's detectors
# ---------------------------------------------------------------------------

# -- building blocks --------------------------------------------------------

def _compile(program: Program, method: str = "pieglobals") -> Binary:
    # A bare compile, not AmpiJob's: the funcptr shim it links would
    # give the image-lint fixtures findings of their own.
    m = get_method(method)
    opts = m.compile_options(CompileOptions(optimize=1), GENERIC_LINUX)
    return Compiler(GENERIC_LINUX.toolchain).compile(program.build(), opts)


def _app() -> Binary:
    p = Program("sanapp")
    p.add_global("app_state", 0)

    @p.function()
    def main(ctx):
        ctx.g.app_state = ctx.mpi.rank()
        return ctx.g.app_state

    return _compile(p)


def _shared_lib() -> Binary:
    p = Program("libshared")
    p.add_global("shared_counter", 0)
    p.set_entry("lib_touch")

    @p.function()
    def lib_touch(ctx):
        return ctx.g.shared_counter

    return _compile(p)


def _racy_program() -> Program:
    """Mutable global + static + TLS — the full unsafe feature set."""
    p = Program("racy")
    p.add_global("g_count", 0)
    p.add_static("s_count", 0)
    p.add_global("t_count", 0, tls=True)

    @p.function()
    def main(ctx):
        ctx.g.g_count = ctx.g.g_count + ctx.mpi.rank() + 1
        ctx.g.s_count = ctx.g.s_count + 1
        ctx.g.t_count = ctx.g.t_count + 1
        ctx.mpi.barrier()
        return (ctx.g.g_count, ctx.g.s_count, ctx.g.t_count)

    return p


def _mig_program() -> Program:
    """Write a global, migrate cross-process, read it back."""
    p = Program("migfix")
    p.add_global("x", 0)

    @p.function()
    def main(ctx):
        ctx.g.x = ctx.mpi.rank() * 10
        ctx.mpi.barrier()
        if ctx.mpi.rank() == 0:
            ctx.mpi.migrate_to(1)
        ctx.mpi.barrier()
        return ctx.g.x == ctx.mpi.rank() * 10

    return p


# -- static linter fixtures -------------------------------------------------

@_fixture("reloc-unresolved", "static", {"reloc-unresolved"})
def _fx_reloc_unresolved() -> list[Finding]:
    b = _app()
    # A relocation against a symbol no image ever defined: the classic
    # under-linked build that only fails at first call.
    b.image.got.add("ghost_fn", is_func=True)
    b.image.relocations.append(
        Relocation(RelocKind.PLT_CALL, "ghost_fn")
    )
    return StaticLinter().lint_images([b.image])


@_fixture("reloc-dangling", "static", {"reloc-dangling"})
def _fx_reloc_dangling() -> list[Finding]:
    b = _app()
    # Symbol exists, but the GOT has no slot for the relocation to
    # land in — relocation table and GOT layout disagree.
    b.image.symbols.define(
        Symbol("orphan_obj", SymbolKind.OBJECT, SymbolBinding.GLOBAL, "data")
    )
    b.image.relocations.append(
        Relocation(RelocKind.GOT_ENTRY, "orphan_obj")
    )
    return StaticLinter().lint_images([b.image])


@_fixture("copy-reloc-writable", "static", {"copy-reloc-writable"})
def _fx_copy_reloc() -> list[Finding]:
    app, lib = _app(), _shared_lib()
    # Fixed-address executable taking a load-time copy of the library's
    # mutable counter; the library keeps updating its own copy.
    app.image.etype = ElfType.ET_EXEC
    app.image.symbols.define(
        Symbol("shared_counter", SymbolKind.OBJECT, SymbolBinding.GLOBAL,
               "data", defined=False)
    )
    app.image.relocations.append(
        Relocation(RelocKind.COPY, "shared_counter")
    )
    return StaticLinter().lint_images([app.image, lib.image])


@_fixture("dup-strong-def", "static", {"dup-strong-def"})
def _fx_dup_strong() -> list[Finding]:
    app, lib = _app(), _shared_lib()
    # Both images export a strong definition of the same object.
    lib.image.symbols.define(
        Symbol("app_state", SymbolKind.OBJECT, SymbolBinding.GLOBAL, "data")
    )
    return StaticLinter().lint_images([app.image, lib.image])


@_fixture("textrel-pie", "static", {"textrel-pie"})
def _fx_textrel() -> list[Finding]:
    b = _app()
    # An absolute patch inside .text of a PIE image — the relocation the
    # -fPIC build exists to avoid.
    b.image.relocations.append(
        Relocation(RelocKind.ABS64, "app_state", where="text:0x40")
    )
    return StaticLinter().lint_images([b.image])


@_fixture("got-dangling", "static", {"got-dangling"})
def _fx_got_dangling() -> list[Finding]:
    from repro.elf.loader import DynamicLoader
    from repro.mem.address_space import VirtualMemory

    loader = DynamicLoader(VirtualMemory(), GENERIC_LINUX.toolchain,
                           GENERIC_LINUX.costs)
    app = loader.dlopen(_app().image)
    lib = loader.dlmopen(_shared_lib().image)
    # Cache a dlsym result in the app's GOT, then tear the library's
    # namespace down: the cached address now points at unmapped memory.
    stale = loader.dlsym(lib, "shared_counter")
    slot = next(iter(app.got.template))
    app.got.resolve(slot.symbol, stale)
    loader.dlclose(lib)
    return StaticLinter().lint_loader(loader)


@_fixture("iso-overlap", "static", {"iso-overlap"})
def _fx_iso_overlap() -> list[Finding]:
    # 2^20 ranks x 1 GiB slots: the arena runs past its reserved VA end.
    return project_isomalloc(_app(), "none", nvp=1 << 20, slot_size=1 << 30)


@_fixture("iso-exhaustion", "static", {"iso-exhaustion"})
def _fx_iso_exhaustion() -> list[Finding]:
    # PIEglobals copies the whole load segment per rank; a 64 KiB slot
    # cannot hold stack + segment copies.
    return project_isomalloc(_app(), "pieglobals", nvp=4, slot_size=1 << 16)


@_fixture("compat-none", "static", {"compat-shared-tls",
                                    "compat-unprivatized-static",
                                    "compat-unprivatized-global"})
def _fx_compat_none() -> list[Finding]:
    return compat_findings(_compile(_racy_program(), "none"), "none")


@_fixture("compat-binary", "static", {"compat-binary"})
def _fx_compat_binary() -> list[Finding]:
    # Photran rewrites Fortran COMMON blocks; a C binary is structurally
    # incompatible no matter what it contains.
    return compat_findings(_compile(_racy_program(), "none"), "photran")


# -- runtime detector fixtures ----------------------------------------------

def _run_sanitized(program: Program, method: str, *, nvp: int = 4,
                   layout=None, slot_size: int = 1 << 26) -> list[Finding]:
    from repro.ampi.runtime import AmpiJob
    from repro.charm.node import JobLayout

    job = AmpiJob(program.build(), nvp, method=method,
                  layout=layout or JobLayout.single(2),
                  slot_size=slot_size, sanitize=True)
    return job.run().sanitize_findings


@_fixture("race-shared-globals", "runtime", {"race-write-read", "race-write-write"})
def _fx_races() -> list[Finding]:
    return _run_sanitized(_racy_program(), "none")


@_fixture("use-after-migrate", "runtime", {"use-after-migrate"})
def _fx_use_after_migrate() -> list[Finding]:
    from repro.charm.node import JobLayout

    return _run_sanitized(_mig_program(), "none", nvp=2,
                          layout=JobLayout(1, 2, 1))


def _migrating_job(detector: RaceDetector):
    """A started 2-process job about to migrate vp 0 cross-process."""
    from repro.ampi.runtime import AmpiJob
    from repro.charm.node import JobLayout

    job = AmpiJob(_mig_program().build(), 2, method="none",
                  layout=JobLayout(1, 2, 1), slot_size=1 << 26,
                  sanitize=detector)
    job.start()
    return job


@_fixture("stale-got", "runtime", {"stale-got"})
def _fx_stale_got() -> list[Finding]:
    from repro.elf.got import GotTemplate

    det = RaceDetector()
    job = _migrating_job(det)
    rank = job.rank_of(0)
    # Seed what a buggy GOT-swapping method would leave behind: a
    # per-rank GOT whose entry still holds a source-process address
    # that exists in no destination mapping.
    tmpl = GotTemplate()
    tmpl.add("lost_obj")
    got = tmpl.instantiate()
    got.resolve("lost_obj", 0xDEAD_0000)
    rank.method_data["got"] = got
    job.migration_engine.migrate(rank, job.pes[1])
    return det.sorted_findings()


@_fixture("stale-tls", "runtime", {"stale-tls"})
def _fx_stale_tls() -> list[Finding]:
    det = RaceDetector()
    job = _migrating_job(det)
    rank = job.rank_of(0)
    src_proc = rank.pe.process
    # Seed a TLS block living in a source-process-private mapping (the
    # loader's segment area) instead of the rank's Isomalloc slot.
    lm = next(iter(src_proc.loader.link_maps()))
    rank.tls_instance = job.binary.image.tls.instantiate(lm.data.base)
    job.migration_engine.migrate(rank, job.pes[1])
    findings = det.sorted_findings()
    # The seeded TLS block also makes the data segment route "stale";
    # only the TLS diagnosis is this fixture's subject.
    return [f for f in findings if f.code == "stale-tls"]


@_fixture("stale-endpoint-delivery", "runtime", {"stale-endpoint-delivery"})
def _fx_stale_endpoint() -> list[Finding]:
    from repro.ampi.runtime import AmpiJob
    from repro.charm.node import JobLayout
    from repro.ft.plan import FaultPlan, MessageFaults
    from repro.ft.prng import CounterRng

    p = Program("staleend")
    p.add_global("pad", 0)

    @p.function()
    def main(ctx):
        mpi = ctx.mpi
        mpi.init()
        if mpi.rank() == 0:
            mpi.send(1.25, dest=1, tag=7)
        else:
            # Move cross-process while the dropped frame sits in its
            # retransmission backoff (10 us << the 50 us base RTO), so
            # the retry lands on the PE this rank just left.
            ctx.compute(10_000)
            mpi.migrate_to(0)
            mpi.recv(source=0, tag=7)
        mpi.finalize()
        return mpi.rank()

    # Pick a plan seed whose first fault draw drops the job's first (and
    # only) point-to-point frame and whose second lets the retry through.
    drop = 0.5
    seed = next(s for s in range(1 << 16)
                if CounterRng(s, "msg").uniform(0) < drop
                and CounterRng(s, "msg").uniform(1) >= drop)
    plan = FaultPlan(seed=seed, message_faults=MessageFaults(drop=drop))
    job = AmpiJob(p.build(), 2, method="none", layout=JobLayout(1, 2, 1),
                  slot_size=1 << 26, sanitize=True,
                  fault_plan=plan, transport="reliable")
    findings = job.run().sanitize_findings
    # Running unprivatized also surfaces shared-global noise on some
    # platforms; only the transport diagnosis is this fixture's subject.
    return [f for f in findings if f.code == "stale-endpoint-delivery"]


@_fixture("foreign-write", "runtime", {"foreign-write"})
def _fx_foreign_write() -> list[Finding]:
    from repro.program.context import AccessRoute

    det = RaceDetector()
    job = _migrating_job(det)
    rank = job.rank_of(0)
    view = rank.ctx.view
    # Reroute vp 0's global into vp 1's Isomalloc slot — the aliasing
    # bug a wild pointer (or an off-by-one slot computation) produces.
    other_slot = job.rank_of(1).stack_mapping.start
    old = view.routes["x"]
    view.routes["x"] = AccessRoute(
        old.instance.image.instantiate(other_slot), old.kind
    )
    job.run()
    return [f for f in det.sorted_findings() if f.code == "foreign-write"]
