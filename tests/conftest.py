"""Shared fixtures for the test suite.

Tests run on ``TEST_MACHINE`` (tiny, round-number cost model) unless the
behaviour under test is toolchain-specific, in which case the relevant
preset's toolchain is grafted onto the test machine.
"""

from __future__ import annotations

import pytest

from repro.ampi.runtime import AmpiJob
from repro.machine import (
    LEGACY_LINUX_OLD_LD,
    STAMPEDE2_ICX,
    TEST_MACHINE,
    MachineModel,
)
from repro.program.source import Program, ProgramSource
from repro.threads import orphan_count


@pytest.fixture(autouse=True)
def no_new_orphans():
    """Fail a test that leaves more wedged ULT workers than it found.

    Tests that wedge a worker on purpose reset the counter themselves
    with ``consume_orphan_count()``.
    """
    before = orphan_count()
    yield
    leaked = orphan_count() - before
    assert leaked <= 0, f"test left {leaked} orphan ULT worker(s)"


@pytest.fixture
def tm() -> MachineModel:
    return TEST_MACHINE


@pytest.fixture
def tm_old_ld() -> MachineModel:
    """Test machine with a Swapglobals-capable (old-ld) toolchain."""
    return TEST_MACHINE.copy_with(toolchain=LEGACY_LINUX_OLD_LD.toolchain)


@pytest.fixture
def tm_mpc() -> MachineModel:
    """Test machine with -fmpc-privatize compiler support."""
    return TEST_MACHINE.copy_with(toolchain=STAMPEDE2_ICX.toolchain)


def make_hello(language: str = "c") -> ProgramSource:
    """The paper's Figure 2 program: unsafe global rank, safe size."""
    p = Program("hello", language=language)
    p.add_global("my_rank", -1)
    p.add_global("num_ranks", 0, write_once_same=True)

    @p.function()
    def main(ctx):
        ctx.g.my_rank = ctx.mpi.rank()
        ctx.g.num_ranks = ctx.mpi.size()
        ctx.mpi.barrier()
        return ctx.g.my_rank

    return p.build()


@pytest.fixture
def hello_src() -> ProgramSource:
    return make_hello()


def run_job(source, nvp, *, method="pieglobals", machine=TEST_MACHINE,
            layout=None, **kw):
    """Build + run a small job with test defaults."""
    kw.setdefault("slot_size", 1 << 24)
    job = AmpiJob(source, nvp, method=method, machine=machine,
                  layout=layout, **kw)
    return job.run()


@pytest.fixture
def run():
    return run_job
