#!/usr/bin/env python3
"""The protocol shootout: every registered protocol, one k-Clock problem.

All four registered protocols (``python -m repro protocols``) race from
fully scrambled memory at n=16, f=5 — the paper's expected-O(1)
ss-Byz-Clock-Sync against the deterministic O(f) cyclic-agreement clocks
(Table 1's cyclic Turpin-Coan row, the shorter-cycle bitwise
phase-king) and the expected-exponential local-coin Dolev-Welch row.
The table prints mean stabilization beats and message traffic per
protocol: Table 1 of the paper, measured through one seam.

Run:  python examples/protocol_shootout.py        (add --smoke for a
      CI-sized n=7, f=2 grid)
"""

from __future__ import annotations

import sys

from repro.analysis import ScenarioSpec, render_table, run_sweep
from repro.core.protocol import PROTOCOLS

K = 8
SMOKE = "--smoke" in sys.argv[1:]
N, F = (7, 2) if SMOKE else (16, 5)
SEEDS = range(2) if SMOKE else range(3)
MAX_BEATS = 150 if SMOKE else 300


def measure(name: str) -> list[str]:
    protocol = PROTOCOLS[name]
    spec = ScenarioSpec(n=N, f=F, k=K, protocol=name, max_beats=MAX_BEATS)
    sweep = run_sweep(spec, SEEDS)
    if sweep.latencies:
        mean = sum(sweep.latencies) / len(sweep.latencies)
        latency = f"{mean:.1f}"
        if sweep.failure_count:
            latency += f" ({sweep.failure_count} DNF)"
    else:
        latency = f">{MAX_BEATS}"
    bound = protocol.convergence_bound(N, F, K)
    return [
        name,
        protocol.claimed_convergence,
        latency,
        f"<= {bound}" if bound is not None else "-",
        f"{sweep.mean_messages_per_beat:.0f}",
    ]


def main() -> None:
    print(
        f"protocol shootout: n={N}, f={F}, k={K}, "
        f"{len(list(SEEDS))} scrambled-start trials each "
        f"(DNF = did not stabilize in {MAX_BEATS} beats)\n"
    )
    print(
        render_table(
            ["protocol", "claimed", "mean conv. (beats)", "det. bound",
             "msgs/beat"],
            [measure(name) for name in sorted(PROTOCOLS)],
        )
    )
    print(
        "\nShapes to notice: the paper's clock-sync stays flat where the\n"
        "deterministic cyclic clocks pay O(f) beats per recovery —\n"
        "phase-king's 3(f+1)-beat cycle undercuts deterministic's\n"
        "2 + 3(f+1) Turpin-Coan cycle at a ~log2(k) message premium —\n"
        "while the local-coin dolev-welch row stops converging at all\n"
        "once n - f is large.\n"
        "Reproduce any row: python -m repro run --protocol <name>."
    )


if __name__ == "__main__":
    main()
