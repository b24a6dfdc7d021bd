"""Execute every source-phase fixture and assert the declared runtime
contrast: what the analyzer flags either crashes, deadlocks, races — or
is runtime-silent, which is precisely where static analysis earns its
keep (the runtime detectors cannot see those defects at all)."""

import pytest

from repro.analyze.fixtures import (
    RUNTIME_DEADLOCK,
    RUNTIME_RACES,
    RUNTIME_SEGFAULT,
    RUNTIME_SILENT,
    fixture_names,
    get_fixture,
)
from repro.errors import DeadlockError, SegFault


def _fixtures_with(runtime):
    return [n for n in fixture_names()
            if get_fixture(n).runtime == runtime]


class TestRuntimeAgreement:
    @pytest.mark.parametrize("name", _fixtures_with(RUNTIME_SEGFAULT))
    def test_segfaults(self, name):
        with pytest.raises(SegFault):
            get_fixture(name).run_job()

    @pytest.mark.parametrize("name", _fixtures_with(RUNTIME_DEADLOCK))
    def test_deadlocks(self, name):
        with pytest.raises(DeadlockError):
            get_fixture(name).run_job()

    @pytest.mark.parametrize("name", _fixtures_with(RUNTIME_RACES))
    def test_races(self, name):
        result, det = get_fixture(name).run_job()
        assert result.sanitize_findings

    @pytest.mark.parametrize("name", _fixtures_with(RUNTIME_SILENT))
    def test_runtime_silent(self, name):
        result, det = get_fixture(name).run_job()
        assert not result.sanitize_findings

    def test_silent_set_is_where_analysis_wins(self):
        # The headline contrast: these defects produce NO runtime signal
        # under any detector, yet the analyzer reports each one.
        silent = set(_fixtures_with(RUNTIME_SILENT))
        assert "ana-write-once-divergent" in silent
        assert "ana-closure-mutable" in silent
        assert "ana-unwaited-request" in silent

    def test_every_fixture_declares_a_runtime_outcome(self):
        # Every source fixture declares one, and so lands in exactly one
        # of the tests above; the sanitizer's own fixtures declare none.
        valid = {RUNTIME_SEGFAULT, RUNTIME_DEADLOCK, RUNTIME_RACES,
                 RUNTIME_SILENT}
        for n in fixture_names():
            fx = get_fixture(n)
            if fx.phase == "source":
                assert fx.runtime in valid
            else:
                assert fx.runtime is None
