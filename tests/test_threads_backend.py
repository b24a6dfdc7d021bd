"""Tests for the ULT worker pool.

Covers the process-wide shared pool, worker reuse/recycling, orphan
(wedged-worker) surfacing, and the determinism contract: the same job
must produce byte-identical simulated timelines on a cold or a warm
pool.
"""

import sys
import threading

import pytest

from repro.threads import (
    UltPool,
    consume_orphan_count,
    shared_pool,
)
from repro.threads.ult import UltKilled, UltState, UserLevelThread


def run_to_completion(ults):
    live = list(ults)
    while live:
        nxt = []
        for u in live:
            u.switch_in()
            if not u.finished:
                nxt.append(u)
        live = nxt


def make_ults(n, yields=1):
    def body(u):
        for _ in range(yields):
            u.yield_("spin")
        return u.name

    out = []
    for i in range(n):
        u = UserLevelThread(f"b{i}", lambda: None)
        u.target = body
        u.args = (u,)
        out.append(u)
        u.start()
    return out


@pytest.fixture
def pool():
    """A fresh shared pool, closed after the test."""
    shared_pool().close()
    fresh = shared_pool()
    yield fresh
    fresh.close()


class TestRegistry:
    """The process-wide pool slot every ULT binds from."""

    def test_closed_shared_pool_is_replaced(self):
        pool = shared_pool()
        assert shared_pool() is pool
        pool.close()
        fresh = shared_pool()
        assert fresh is not pool and not fresh.closed
        assert shared_pool() is fresh

    def test_job_after_closing_shared_pool_runs(self):
        from repro.harness.jobspec import JobSpec, run_spec_job

        spec = JobSpec(app="pingpong", nvp=2,
                       app_config={"yields_per_rank": 5,
                                   "name": "closed-pool"},
                       method="none", machine="generic-linux",
                       layout=(1, 1, 1), slot_size=1 << 24)
        _, first = run_spec_job(spec)
        shared_pool().close()
        _, second = run_spec_job(spec)
        assert second.makespan_ns == first.makespan_ns
        assert second.exit_values == first.exit_values


class TestPooledReuse:
    def test_workers_reused_across_batches(self, pool):
        for _ in range(3):
            ults = make_ults(8)
            run_to_completion(ults)
            for u in ults:
                assert not u.join_thread()
            # a finished ULT's worker is recycled before switch_in returns
            assert pool.idle_workers() == 8
        assert pool.created == 8        # high-water mark, not 24
        assert pool.binds == 24         # but every lifetime was served

    def test_prewarm_creates_idle_workers(self, pool):
        pool.prewarm(4)
        assert pool.created == 4 and pool.idle_workers() == 4
        run_to_completion(make_ults(4))
        assert pool.created == 4        # prewarmed workers were used

    def test_kill_recycles_worker(self, pool):
        (u,) = make_ults(1, yields=100)
        u.switch_in()                   # now blocked mid-body
        assert u.state is UltState.BLOCKED
        u.kill()
        assert u.state is UltState.ERROR
        assert isinstance(u.exception, UltKilled)
        assert not u.join_thread()
        assert pool.idle_workers() == 1

    def test_never_run_ult_consumes_no_worker(self, pool):
        u = UserLevelThread("lazy", lambda: None)
        u.start()
        u.kill()                        # killed before first quantum
        assert u.state is UltState.ERROR
        assert not u.join_thread()
        assert pool.created == 0 and pool.binds == 0

    def test_concurrent_schedulers_share_pool(self, pool):
        # Several OS threads driving their own ULT batches at once (the
        # serve thread mode next to a host job): a worker must never be
        # rebound before its previous caller took the finish token.
        n_threads, batches, n_ults = 4, 5, 6
        errors = []

        def drive():
            try:
                for _ in range(batches):
                    ults = make_ults(n_ults, yields=3)
                    run_to_completion(ults)
                    assert all(u.state is UltState.DONE for u in ults)
            except BaseException as e:  # noqa: BLE001 - reported below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert pool.binds == n_threads * batches * n_ults
        assert pool.created <= n_threads * n_ults

    def test_close_returns_idle_worker_count(self):
        pool = UltPool(prewarm=3)
        assert pool.close() == 3
        with pytest.raises(RuntimeError, match="closed"):
            pool.bind(UserLevelThread("x", lambda: None))


def stubborn_body(u):
    # Swallows UltKilled (a BaseException) — the pathological user code
    # that would otherwise leak a worker silently at shutdown.
    while True:
        try:
            u.yield_("stuck")
        except BaseException:
            pass


class TestOrphanSurfacing:
    @pytest.fixture(autouse=True)
    def reset_orphans(self):
        consume_orphan_count()
        yield
        consume_orphan_count()

    def _wedge(self):
        u = UserLevelThread("wedge", lambda: None)
        u.target = stubborn_body
        u.args = (u,)
        u.start()
        u.switch_in()
        u.kill()                            # swallowed: still blocked
        assert not u.finished
        return u

    def test_pooled_backend_counts_wedged_worker(self, pool):
        u = self._wedge()
        with pytest.warns(ResourceWarning, match="did not terminate"):
            assert u.join_thread() is True
        assert consume_orphan_count() == 1
        assert u.join_thread() is False     # recorded exactly once
        assert pool.idle_workers() == 0     # the worker is lost, not reused

    def test_clean_exit_records_nothing(self, pool):
        ults = make_ults(4)
        run_to_completion(ults)
        assert all(not u.join_thread() for u in ults)
        assert consume_orphan_count() == 0


class TestDeterminismContract:
    """Same workload, cold or warm pool => byte-identical simulated history."""

    @staticmethod
    def _run():
        from repro.ampi.runtime import AmpiJob
        from repro.apps.jacobi3d import JacobiConfig, build_jacobi_program
        from repro.charm.node import JobLayout

        source = build_jacobi_program(JacobiConfig(n=8, iters=3,
                                                   reduce_every=2))
        job = AmpiJob(source, 8, method="pieglobals",
                      layout=JobLayout(1, 2, 2))
        result = job.run()
        return (result.makespan_ns, result.exit_values,
                list(job.scheduler.timeline))

    def test_identical_timelines_cold_and_warm_pool(self, pool):
        cold_run = self._run()
        assert pool.created > 0
        warm_run = self._run()
        assert cold_run == warm_run
