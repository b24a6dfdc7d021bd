"""Structured sanitizer findings.

Every detector — static or runtime — reports through one record type so
the CLI, the JSON export, and the tests all consume the same shape.
Findings sort deterministically (severity first, then code and
location), which is what makes repeated sanitized runs comparable
byte-for-byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Iterable


class Severity(enum.Enum):
    """How bad a finding is; ``ERROR`` findings fail ``repro check``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One sanitizer diagnosis.

    ``code`` is the stable detector identifier (e.g. ``reloc-unresolved``
    or ``race-write-read``); tests and CI assert on codes, never on
    message text.
    """

    code: str
    severity: Severity
    message: str
    image: str | None = None     #: ELF image / binary the finding is about
    symbol: str | None = None    #: variable or function symbol, if any
    fix_hint: str = ""
    vp: int | None = None        #: acting virtual rank (runtime findings)
    address: int | None = None   #: simulated address, if any
    epoch: int | None = None     #: scheduler quantum epoch (runtime findings)
    file: str | None = None      #: host source file (analyzer findings)
    line: int | None = None      #: 1-based line in ``file``
    phase: str | None = None     #: "static" | "source" | "runtime"

    def sort_key(self) -> tuple:
        return (
            self.severity.rank,
            self.code,
            self.image or "",
            self.symbol or "",
            -1 if self.vp is None else self.vp,
            0 if self.address is None else self.address,
            self.file or "",
            0 if self.line is None else self.line,
            self.message,
        )

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.image is not None:
            d["image"] = self.image
        if self.symbol is not None:
            d["symbol"] = self.symbol
        if self.fix_hint:
            d["fix_hint"] = self.fix_hint
        if self.vp is not None:
            d["vp"] = self.vp
        if self.address is not None:
            d["address"] = hex(self.address)
        if self.epoch is not None:
            d["epoch"] = self.epoch
        if self.file is not None:
            d["file"] = self.file
        if self.line is not None:
            d["line"] = self.line
        if self.phase is not None:
            d["phase"] = self.phase
        return d

    def format(self) -> str:
        loc = self.image or ""
        if self.symbol:
            loc = f"{loc}:{self.symbol}" if loc else self.symbol
        if self.file is not None:
            pos = self.file if self.line is None else f"{self.file}:{self.line}"
            loc = f"{loc} [{pos}]" if loc else pos
        if self.vp is not None:
            loc = f"{loc} (vp {self.vp})" if loc else f"vp {self.vp}"
        head = f"{self.severity.value}: [{self.code}]"
        if loc:
            head = f"{head} {loc}"
        out = f"{head}: {self.message}"
        if self.fix_hint:
            out += f"\n    hint: {self.fix_hint}"
        return out


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Deterministic order: severity, then code/image/symbol/vp/address."""
    return sorted(findings, key=Finding.sort_key)


def with_phase(findings: Iterable[Finding], phase: str) -> list[Finding]:
    """Stamp a pipeline phase on the findings that don't carry one."""
    return [f if f.phase else replace(f, phase=phase) for f in findings]


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity is Severity.ERROR for f in findings)
