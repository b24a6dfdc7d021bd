"""Rule-family tests: seeded fixtures report exactly their codes, and
every bundled app and example analyzes clean."""

import pytest

from repro.analyze import analyze_source, classify_globals, build_model
from repro.analyze.fixtures import EXPECTED, fixture_names, get_fixture
from repro.analyze.targets import (
    APP_CONFIGS,
    app_source,
    build_example,
    example_names,
    resolve_targets,
)
from repro.program.source import Program
from repro.sanitize.findings import Severity

SOURCE_FIXTURES = [n for n in fixture_names()
                   if get_fixture(n).phase == "source"]


def _analyze(name):
    """What ``repro analyze fixture:<name>`` runs for one fixture."""
    ((label, source, kw),) = resolve_targets(f"fixture:{name}")
    return analyze_source(source, target=label, **kw)


class TestFixtures:
    def test_catalog_size(self):
        assert len(SOURCE_FIXTURES) >= 12

    def test_all_rule_families_covered(self):
        heads = {c.split("-")[0] for n in SOURCE_FIXTURES
                 for c in EXPECTED[n]}
        assert heads == {"pv", "mig", "comm", "det"}

    @pytest.mark.parametrize("name", SOURCE_FIXTURES)
    def test_exact_codes(self, name):
        # Through target resolution and the fixture's analyzer kwargs;
        # the catalog-wide test in test_sanitize_static runs Fixture.run.
        report = _analyze(name)
        assert {f.code for f in report.findings} == set(EXPECTED[name])

    @pytest.mark.parametrize("name", SOURCE_FIXTURES)
    def test_findings_carry_locations(self, name):
        report = _analyze(name)
        for f in report.findings:
            assert f.phase == "source"
            if f.code != "pv-unneeded-privatization":  # aggregate
                assert f.file and f.file.endswith("fixtures.py")
                assert f.line and f.line > 0

    def test_fixture_clean_without_trigger_kwargs(self):
        # The suggest-mode fixture is clean under default analysis: the
        # info finding is opt-in.
        fx = get_fixture("ana-unneeded-privatization")
        assert analyze_source(fx.body()).ok

    def test_fixtures_target_is_the_source_phase(self):
        labels = [label for label, _, _ in resolve_targets("fixtures")]
        assert labels == [f"fixture:{n}" for n in SOURCE_FIXTURES]


class TestAppsAndExamplesClean:
    @pytest.mark.parametrize("app", sorted(APP_CONFIGS))
    def test_app_clean(self, app):
        report = analyze_source(app_source(app), target=app)
        assert report.ok, [f.format() for f in report.findings]

    @pytest.mark.parametrize("name", example_names())
    def test_example_clean(self, name):
        report = analyze_source(build_example(name), target=name)
        assert report.ok, [f.format() for f in report.findings]

    def test_jacobi_checkpoint_config_also_clean(self):
        # The ckpt branch is live under this config: the checkpoint
        # globals are declared, so the analyzer must stay clean.
        from repro.apps import JacobiConfig, build_jacobi_program

        src = build_jacobi_program(JacobiConfig(n=12, iters=4,
                                                ckpt_period=2))
        report = analyze_source(src)
        assert report.ok, [f.format() for f in report.findings]


class TestClassification:
    def test_classes(self):
        p = Program("cls")
        p.add_global("ro", 1)
        p.add_global("once", 0)
        p.add_global("vary", 0)

        @p.function()
        def main(ctx):
            n = ctx.mpi.size()
            ctx.g.once = n
            ctx.g.vary = ctx.mpi.rank()
            return ctx.g.ro

        model = build_model(p.build())
        classes = classify_globals(model)
        assert classes == {"ro": "read-only", "once": "write-once-same",
                           "vary": "rank-varying"}

    def test_loop_write_is_rank_varying(self):
        p = Program("loop")
        p.add_global("it", 0)

        @p.function()
        def main(ctx):
            for i in range(4):
                ctx.g.it = i
            return 0

        model = build_model(p.build())
        assert classify_globals(model)["it"] == "rank-varying"


class TestSeverities:
    def test_unneeded_privatization_is_info(self):
        report = _analyze("ana-unneeded-privatization")
        (f,) = report.findings
        assert f.severity is Severity.INFO

    def test_set_iteration_is_warning(self):
        report = _analyze("ana-set-iteration")
        (f,) = report.findings
        assert f.severity is Severity.WARNING

    def test_divergent_collective_is_error(self):
        report = _analyze("ana-collective-divergent")
        (f,) = report.findings
        assert f.severity is Severity.ERROR


class TestTagMatching:
    def test_computed_tags_are_wildcards(self):
        # jacobi3d computes its halo tags; the analyzer must treat the
        # dynamic expressions as matching anything.
        report = analyze_source(app_source("jacobi3d"))
        assert not [f for f in report.findings
                    if f.code == "comm-tag-mismatch"]

    def test_matched_constants_clean(self):
        p = Program("tags")

        @p.function()
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                ctx.mpi.send(1, 1, 5)
                return ctx.mpi.recv(source=1, tag=6)
            if me == 1:
                got = ctx.mpi.recv(source=0, tag=5)
                ctx.mpi.send(got, 0, 6)
            return 0

        report = analyze_source(p.build())
        assert not [f for f in report.findings
                    if f.code == "comm-tag-mismatch"]
