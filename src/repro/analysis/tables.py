"""ASCII table rendering and the Table 1 reproduction harness.

``table1_comparison`` runs the three algorithm families of the paper's
Table 1 under one roof and emits the measured convergence row next to the
paper's asymptotic claim, so the bench output reads like the paper's table
with an extra "measured" column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.campaign import ScenarioSpec
from repro.analysis.experiments import SweepResult, run_sweep
from repro.core.protocol import resolve_protocol
from repro.net.component import Component

__all__ = ["Table1Row", "render_table", "standard_families", "table1_comparison"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table (monospace-friendly, no dependencies)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        line = " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines)


@dataclass(frozen=True)
class Table1Row:
    """One measured row of the Table 1 reproduction."""

    paper_row: str
    claimed_convergence: str
    claimed_resilience: str
    n: int
    f: int
    sweep: SweepResult

    def cells(self) -> list[object]:
        summary = (
            self.sweep.latency_summary()
            if self.sweep.latencies
            else None
        )
        measured = f"{summary.mean:.1f} beats (median {summary.median:.0f})" if summary else "did not converge"
        return [
            self.paper_row,
            self.claimed_convergence,
            self.claimed_resilience,
            f"n={self.n}, f={self.f}",
            measured,
            f"{self.sweep.success_rate * 100:.0f}%",
        ]


#: Table 1 family -> (registered protocol, paper row, claimed
#: convergence, claimed resilience).
_FAMILIES = {
    "dolev-welch": (
        "dolev-welch", "[10] sync, probabilistic", "O(2^(2(n-f)))", "f < n/3",
    ),
    "deterministic": (
        "deterministic", "[15]/[7] sync, deterministic", "O(f)",
        "f < n/3 ([15]: n/4)",
    ),
    "current": (
        "clock-sync", "current paper, probabilistic", "O(1) expected",
        "f < n/3",
    ),
}


def standard_families(
    n: int, f: int, k: int
) -> dict[str, Callable[[int], Component]]:
    """Per-node factories for the three Table 1 algorithm families.

    Built through the :mod:`repro.core.protocol` seam (``"current"`` is
    the registry's ``"clock-sync"`` with its default oracle coin); the
    full registered catalog is wider — see ``python -m repro protocols``.
    """
    return {
        family: resolve_protocol(protocol).factory(n, f, k)
        for family, (protocol, *_) in _FAMILIES.items()
    }


def table1_comparison(
    *,
    n: int,
    f: int,
    k: int,
    seeds: Sequence[int],
    max_beats: int = 500,
    families: Sequence[str] = ("dolev-welch", "deterministic", "current"),
) -> list[Table1Row]:
    """Measure the requested families under one configuration."""
    rows = []
    for family in families:
        protocol, paper_row, convergence, resilience = _FAMILIES[family]
        spec = ScenarioSpec(
            n=n, f=f, k=k, protocol=protocol, max_beats=max_beats
        )
        rows.append(
            Table1Row(
                paper_row=paper_row,
                claimed_convergence=convergence,
                claimed_resilience=resilience,
                n=n,
                f=f,
                sweep=run_sweep(spec, seeds),
            )
        )
    return rows
