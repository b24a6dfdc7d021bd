"""The canonical job specification shared by the CLI, the experiment
drivers, the bench, and the provenance store.

Every run in this repo is deterministic by contract: the simulated
timeline is a pure function of *what ran* — program, machine preset,
virtualization, placement, fault plan, transport, recovery scheme.
:class:`JobSpec` is the one value object that captures exactly that set
of inputs, with a stable JSON encoding (:meth:`JobSpec.to_dict` /
:meth:`JobSpec.from_dict`) and a content digest (:meth:`JobSpec.digest`)
over the canonical encoding.  It is deliberately *observer-agnostic*:
tracing and fetch tracing are runtime options of :func:`build_job`,
because neither may change simulated timelines (the repo-wide
zero-overhead-when-off contract).

The provenance store (:mod:`repro.provenance`) keys run records by
``spec.digest()``; the future ``repro serve`` result cache will use the
same key.  :func:`run_spec` is the chokepoint every spec-built job runs
through — result hooks registered with :func:`add_result_hook` see
``(spec, job, result)`` for every run, which is how ``--provenance``
records runs without the harness importing the store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.ampi.runtime import AmpiJob, JobResult
from repro.apps.adcirc import AdcircConfig, build_adcirc_program
from repro.apps.jacobi3d import JacobiConfig, build_jacobi_program
from repro.apps.memhog import MemhogConfig, build_memhog_program
from repro.apps.micro import (
    build_hello_program,
    build_pingpong_program,
    build_startup_program,
)
from repro.charm.node import JobLayout
from repro.errors import ReproError
from repro.ft.buddy import FtConfig
from repro.ft.plan import FaultPlan
from repro.machine import PRESETS, MachineModel, get_machine
from repro.mem.layout import DEFAULT_SLOT_SIZE
from repro.program.source import ProgramSource

# ---------------------------------------------------------------------------
# App registry: name + config dict -> ProgramSource
# ---------------------------------------------------------------------------

AppBuilder = Callable[[dict], ProgramSource]

_APPS: dict[str, AppBuilder] = {}


def register_app(name: str, builder: AppBuilder) -> None:
    """Register (or replace) a named program builder.

    The builder must be a pure function of its config dict so that equal
    specs build bit-identical programs.
    """
    _APPS[name] = builder


def app_names() -> list[str]:
    return sorted(_APPS)


def build_app_source(app: str, config: dict) -> ProgramSource:
    """Build a registered app's program from its config dict."""
    try:
        builder = _APPS[app]
    except KeyError:
        raise ReproError(
            f"unknown app {app!r}; registered: {app_names()}"
        ) from None
    return builder(dict(config))


register_app("jacobi3d", lambda cfg: build_jacobi_program(JacobiConfig(**cfg)))
register_app("adcirc", lambda cfg: build_adcirc_program(AdcircConfig(**cfg)))
register_app("memhog", lambda cfg: build_memhog_program(MemhogConfig(**cfg)))
register_app("startup", lambda cfg: build_startup_program(**cfg))
register_app("pingpong", lambda cfg: build_pingpong_program(**cfg))
register_app("hello", lambda cfg: build_hello_program(**cfg))


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobSpec:
    """Everything that determines a job's simulated timeline.

    ``app`` names a registered program builder and ``app_config`` holds
    its keyword arguments (JSON-able scalars only).  ``machine`` is a
    preset name (:data:`repro.machine.PRESETS`); custom machine models
    are not spec-able — callers with one fall back to constructing
    :class:`AmpiJob` directly and lose recordability.
    """

    app: str
    nvp: int
    app_config: dict = field(default_factory=dict)
    method: str = "pieglobals"
    machine: str = "generic-linux"
    layout: tuple[int, int, int] = (1, 1, 1)
    lb_strategy: str = "greedyrefine"
    optimize: int = 2
    stack_bytes: int = 64 * 1024
    slot_size: int = DEFAULT_SLOT_SIZE
    placement: str = "block"
    argv: tuple[str, ...] = ()
    #: :meth:`FaultPlan.to_dict` encoding, or None for a fault-free run
    fault_plan: dict | None = None
    #: ``FtConfig.ckpt_interval_ns`` or None for no explicit FT config
    ft_interval_ns: int | None = None
    transport: str = "priced"
    recovery: str = "global"
    #: run under the shared-state race detector (timeline-neutral)
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.nvp < 1:
            raise ReproError("spec needs at least one virtual rank")
        object.__setattr__(self, "layout", tuple(int(x) for x in self.layout))
        if len(self.layout) != 3:
            raise ReproError(f"layout must be (nodes, procs/node, pes/proc), "
                             f"got {self.layout!r}")
        object.__setattr__(self, "argv", tuple(str(a) for a in self.argv))
        object.__setattr__(self, "app_config", dict(self.app_config))

    # -- encoding -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d = {
            "app": self.app,
            "app_config": dict(self.app_config),
            "nvp": self.nvp,
            "method": self.method,
            "machine": self.machine,
            "layout": list(self.layout),
            "lb_strategy": self.lb_strategy,
            "optimize": self.optimize,
            "stack_bytes": self.stack_bytes,
            "slot_size": self.slot_size,
            "placement": self.placement,
            "argv": list(self.argv),
            "fault_plan": self.fault_plan,
            "ft_interval_ns": self.ft_interval_ns,
            "transport": self.transport,
            "recovery": self.recovery,
            "sanitize": self.sanitize,
        }
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ReproError(f"unknown JobSpec fields: {sorted(unknown)}")
        kw = dict(d)
        if "layout" in kw:
            kw["layout"] = tuple(kw["layout"])
        if "argv" in kw:
            kw["argv"] = tuple(kw["argv"])
        return cls(**kw)

    def canonical(self) -> str:
        """The canonical encoding the digest is computed over: JSON with
        sorted keys and no whitespace.  Stable across processes and
        Python versions (no hash randomization, no float formatting
        ambiguity for the repr-round-trippable values specs hold)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of the canonical encoding — the content address."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    # -- materialization ----------------------------------------------------

    def build_source(self) -> ProgramSource:
        return build_app_source(self.app, self.app_config)

    def job_layout(self) -> JobLayout:
        n, ppn, pes = self.layout
        return JobLayout(nodes=n, processes_per_node=ppn,
                         pes_per_process=pes)


def machine_preset_name(machine: MachineModel) -> str | None:
    """The preset name of ``machine`` if it *is* a preset, else None
    (a copy_with-customized model is not serializable by name)."""
    preset = PRESETS.get(machine.name)
    return machine.name if preset == machine else None


def default_layout(nvp: int, machine: MachineModel) -> tuple[int, int, int]:
    """The layout :class:`AmpiJob` would pick when given none."""
    return (1, 1, min(nvp, machine.cores_per_node))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def build_job(
    spec: JobSpec,
    *,
    trace: Any = None,
    sanitize: Any = None,
    trace_fetches: bool = False,
) -> AmpiJob:
    """Materialize a spec into a runnable :class:`AmpiJob`.

    The keyword arguments are the runtime (non-spec) options: none of
    them may change the simulated timeline.  ``sanitize`` overrides the
    spec's flag when given (e.g. to share one detector across a sweep).
    """
    if sanitize is None and spec.sanitize:
        sanitize = True
    plan = (FaultPlan.from_dict(spec.fault_plan)
            if spec.fault_plan is not None else None)
    ft = (FtConfig(ckpt_interval_ns=spec.ft_interval_ns)
          if spec.ft_interval_ns is not None else None)
    return AmpiJob(
        spec.build_source(), spec.nvp,
        method=spec.method,
        machine=get_machine(spec.machine),
        layout=spec.job_layout(),
        lb_strategy=spec.lb_strategy,
        optimize=spec.optimize,
        stack_bytes=spec.stack_bytes,
        slot_size=spec.slot_size,
        placement=spec.placement,
        argv=spec.argv,
        fault_plan=plan,
        ft=ft,
        transport=spec.transport,
        recovery=spec.recovery,
        trace=trace,
        sanitize=sanitize,
        trace_fetches=trace_fetches,
    )


#: the hook signature: fn(spec, job, result)
ResultHook = Callable[[JobSpec, AmpiJob, JobResult], None]

#: process-global hooks fired after every spec-built run
_result_hooks: list[ResultHook] = []

#: (hooks, exclusive) visible only to the current thread/task — the
#: scoped alternative the serve worker pool uses so one tenant's
#: recording hooks never fire for another tenant's jobs
_hook_scope: ContextVar[tuple[tuple[ResultHook, ...], bool]] = ContextVar(
    "repro_result_hook_scope", default=((), False))

_log = logging.getLogger(__name__)


def add_result_hook(fn: ResultHook) -> None:
    _result_hooks.append(fn)


def remove_result_hook(fn: ResultHook) -> None:
    try:
        _result_hooks.remove(fn)
    except ValueError:
        pass


@contextmanager
def result_hook_scope(*fns: ResultHook,
                      exclusive: bool = False) -> Iterator[None]:
    """Fire ``fns`` for spec-built runs inside this context only.

    Scoped hooks are carried in a :class:`~contextvars.ContextVar`, so
    they are invisible to other threads and asyncio tasks — two tenants
    recording into different stores cannot cross-contaminate the way
    they would through the process-global :func:`add_result_hook` list.
    ``exclusive=True`` additionally suppresses the process-global hooks
    for runs inside the scope (the serve workers run with an exclusive
    scope so a ``--provenance`` auto-recorder in the same process never
    double-records service jobs).
    """
    hooks, excl = _hook_scope.get()
    token = _hook_scope.set((hooks + fns, excl or exclusive))
    try:
        yield
    finally:
        _hook_scope.reset(token)


def run_spec_job(spec: JobSpec, **runtime: Any) -> tuple[AmpiJob, JobResult]:
    """Build and run a spec; returns (job, result) and fires the result
    hooks (the provenance auto-recorder attaches here).

    ``strict=False`` returns a structured result (with
    ``unrecoverable_reason`` set) instead of raising
    :class:`~repro.errors.FaultUnrecoverableError`; the result hooks
    fire for such runs too, so unrecoverable scenarios are recordable
    and replayable provenance like any other run.

    Hooks are observers, never participants: a raising hook is logged
    and skipped, so a *completed* job can never be made to look failed
    by its recorder — and every remaining hook still fires.
    """
    strict = runtime.pop("strict", True)
    job = build_job(spec, **runtime)
    result = job.run(strict=strict)
    scoped, exclusive = _hook_scope.get()
    hooks = scoped if exclusive else (*_result_hooks, *scoped)
    for fn in hooks:
        try:
            fn(spec, job, result)
        except Exception:
            _log.exception("result hook %r failed; run result is "
                           "unaffected", fn)
    return job, result


def run_spec(spec: JobSpec, **runtime: Any) -> JobResult:
    """Build and run a spec; returns the result."""
    return run_spec_job(spec, **runtime)[1]


# ---------------------------------------------------------------------------
# Code version
# ---------------------------------------------------------------------------

_code_version_cache: str | None = None


def code_version() -> str:
    """Digest of the installed ``repro`` source tree.

    Stored in every provenance record, fault-sweep row, and bench
    payload so results are attributable to the code that produced them.
    Computed over the relative path and bytes of every ``.py`` file
    under the package root, in sorted order.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for p in sorted(root.rglob("*.py")):
            h.update(p.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(p.read_bytes())
            h.update(b"\0")
        _code_version_cache = h.hexdigest()
    return _code_version_cache
