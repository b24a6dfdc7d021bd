"""Guard: the committed figure tables must match what the code computes.

``benchmarks/results/*.txt`` are regenerated by the full benchmark run,
which tier-1 does not execute; a change that moves simulated timelines
could otherwise leave the committed tables (and the EXPERIMENTS.md
numbers quoting them) stale.  The cheap Figure 9 points are recomputed
here and compared cell for cell.
"""

from __future__ import annotations

import pathlib

from repro.harness.experiments import adcirc_scaling_experiment
from repro.harness.tables import format_table

FIG9_TABLE = (pathlib.Path(__file__).resolve().parents[1]
              / "benchmarks" / "results" / "fig9_adcirc_scaling.txt")


def _table_cells(text: str) -> dict[tuple[str, str], str]:
    """``(series, cores) -> exec time`` cells of a rendered Fig 9 table."""
    cells = {}
    for line in text.splitlines():
        parts = [p.strip() for p in line.strip().strip("|").split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cells[(parts[0], parts[1])] = parts[2]
    return cells


def test_fig9_cheap_points_match_committed_table():
    # 2 cores x 1 and x 4 VPs/core: one baseline and one LB row
    rows, _ = adcirc_scaling_experiment(cores_list=(2,), ratios=(1, 4))
    fresh = _table_cells(format_table(
        ["Series", "Cores", "Exec time (ms)"],
        [[f"{r.virtualization}x"
          + (" + LB" if r.virtualization > 1 else " (baseline)"),
          r.cores, r.exec_ns / 1e6] for r in rows]))
    committed = _table_cells(FIG9_TABLE.read_text())
    assert len(fresh) == 2
    for key, value in fresh.items():
        assert committed.get(key) == value, (
            f"{FIG9_TABLE.name} row {key} is stale: committed "
            f"{committed.get(key)}, computed {value}; regenerate with "
            "`pytest benchmarks --ignore=benchmarks/perf`")
