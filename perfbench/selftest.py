#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

For every workload, a tiny-size run (``--tiny``) must

* pass its output checks and print every end-to-end metric of
  ``BENCHMARK.json`` with its unit (``--trace 0``), and every
  per-layer metric with its unit (``--trace 1``);
* fail -- exit status 1, ``correct`` false, ``failed`` > 0 -- when its
  reference is corrupted (``--corrupt-reference``).

It also checks that the benchmark refuses to run (exit status 2, no
result line) in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in (wl["name"] for wl in contract["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(["--workload", w, "--seed", "0", "--trace",
                             str(trace), "--tiny"])
            result = json.loads(out[-1]) if out else {}
            want = {m["name"]: m["unit"] for m in contract[kind]}
            got = {k: v.get("unit") for k, v in
                   result.get("metrics", {}).items()}
            expect(code == 0 and result.get("correct") is True
                   and result.get("failed") == 0,
                   f"{w} trace={trace}: tiny run passes its checks")
            expect(got == want, f"{w} trace={trace}: emits every "
                   f"{kind} metric with its unit"
                   + ("" if got == want else
                      f" (missing {sorted(set(want) - set(got))})"))
        code, out = run(["--workload", w, "--seed", "0", "--trace", "0",
                         "--tiny", "--corrupt-reference"])
        result = json.loads(out[-1]) if out else {}
        expect(code == 1 and result.get("correct") is False
               and result.get("failed", 0) > 0,
               f"{w}: corrupted reference fails the output checks")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = run(["--workload", "ult_pingpong", "--seed", "0",
                     "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code == 2 and not out,
           "without the program: exit status 2 and no result")

    print("selftest: " + ("OK" if not failures
                          else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
