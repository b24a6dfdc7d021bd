"""Static linter and the seeded-fixture catalog: every seeded violation
fires in its declared phase, clean binaries stay clean."""

from __future__ import annotations

import pytest

from repro.machine import GENERIC_LINUX
from repro.privatization.registry import get_method
from repro.program.compiler import CompileOptions, Compiler
from repro.sanitize import (
    Finding,
    Severity,
    StaticLinter,
    compat_findings,
    program_features,
    project_isomalloc,
    sort_findings,
)
from repro.analyze.fixtures import EXPECTED, fixture_names, get_fixture

from conftest import make_hello

GOOD_METHODS = ("pieglobals", "pipglobals", "fsglobals")


def _compile(source, method):
    m = get_method(method)
    opts = m.compile_options(CompileOptions(optimize=1), GENERIC_LINUX)
    return Compiler(GENERIC_LINUX.toolchain).compile(source, opts)


# -- seeded violations: the whole fixture catalog, every phase --------------

@pytest.mark.parametrize("name", fixture_names())
def test_fixture_reports_exactly_its_codes(name):
    fx = get_fixture(name)
    findings = fx.run()
    assert findings, f"fixture {name} produced no findings"
    assert {f.code for f in findings} == EXPECTED[name]
    assert {f.phase for f in findings} == {fx.phase}
    if fx.phase != "source":
        # The analyzer grades its own rules (det-set-iteration is a
        # warning); every sanitizer detector finding is an error.
        assert all(f.severity is Severity.ERROR for f in findings)


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError, match="unknown fixture"):
        get_fixture("no-such-thing")


def test_every_fixture_has_expectations():
    assert set(fixture_names()) == set(EXPECTED)
    phases = [get_fixture(n).phase for n in fixture_names()]
    assert {p: phases.count(p) for p in set(phases)} == {
        "static": 10, "source": 16, "runtime": 6}


# -- clean binaries lint clean ----------------------------------------------

@pytest.mark.parametrize("method", GOOD_METHODS)
def test_hello_clean_under_full_copy_methods(method):
    binary = _compile(make_hello(), method)
    m = get_method(method)
    findings = (
        StaticLinter().lint_images([binary.image])
        + compat_findings(binary, m)
        + project_isomalloc(binary, m, nvp=8, slot_size=1 << 26)
    )
    assert findings == []


def test_hello_flagged_under_none():
    binary = _compile(make_hello(), "none")
    codes = {f.code for f in compat_findings(binary, "none")}
    # my_rank is mutable-shared; num_ranks is write-once-same and safe.
    assert codes == {"compat-unprivatized-global"}
    syms = {f.symbol for f in compat_findings(binary, "none")}
    assert syms == {"my_rank"}


# -- isomalloc projections --------------------------------------------------

def test_projection_clean_when_everything_fits():
    binary = _compile(make_hello(), "pieglobals")
    assert project_isomalloc(binary, "pieglobals", 8, 1 << 26) == []


def test_projection_is_method_sensitive():
    binary = _compile(make_hello(), "pieglobals")
    # The same tiny slot starves pieglobals (per-rank segment copies)
    # but is fine for none (stack only).
    tiny = 1 << 16
    assert {f.code for f in
            project_isomalloc(binary, "pieglobals", 4, tiny)} \
        == {"iso-exhaustion"}
    assert project_isomalloc(binary, "none", 4, tiny) == []


# -- feature extraction -----------------------------------------------------

def test_program_features_classifies_vars():
    from repro.program.source import Program

    p = Program("feat")
    p.add_global("g", 0)
    p.add_static("s", 0)
    p.add_global("t", 0, tls=True)
    p.add_global("c", 7, const=True)
    p.add_pointer_global("fp", "main")

    @p.function()
    def main(ctx):
        return ctx.g.g

    feats = program_features(_compile(p.build(), "pieglobals"))
    assert feats["unsafe_globals"] == ["fp", "g"]
    assert feats["unsafe_statics"] == ["s"]
    assert feats["tls_vars"] == ["t"]
    assert feats["function_pointers"] == ["fp"]
    assert feats["pie"] is True
    assert feats["language"] == "c"


# -- finding plumbing -------------------------------------------------------

def test_findings_sort_deterministically():
    a = Finding("zz", Severity.INFO, "info msg")
    b = Finding("aa", Severity.ERROR, "error msg", image="img")
    c = Finding("aa", Severity.ERROR, "error msg", image="aaa")
    assert sort_findings([a, b, c]) == [c, b, a]
    assert sort_findings([b, c, a]) == [c, b, a]


def test_finding_to_dict_and_format():
    f = Finding("got-dangling", Severity.ERROR, "boom", image="app",
                symbol="x", fix_hint="re-resolve", vp=3,
                address=0x1000, epoch=7)
    d = f.to_dict()
    assert d["address"] == "0x1000"
    assert d["severity"] == "error"
    text = f.format()
    assert "[got-dangling]" in text and "vp 3" in text
    assert "hint: re-resolve" in text
