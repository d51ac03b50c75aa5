"""F3 — the resilience boundary: f < n/3 is tight.

Theorem 4 claims optimal resiliency.  We probe the boundary with the
bisector attack (two-sided majority pushing, coin-aware, model-legal):

* at n = 3f + 1 (within the bound) it cannot hold two camps — only one
  value can muster honest support n - 2f — so convergence stays constant;
* at n = 3f (one node beyond the bound) it pins two camps of correct
  nodes at opposite clock values forever once it wins a single coin flip.

Both stall rates are pinned exactly: any stall *within* the bound is a
correctness regression, and losing the stall *one past* it would mean
the attack — the tightness evidence — broke.
"""

from __future__ import annotations

from repro.bench.suites._common import convergence_latencies, pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"full": {}, "nightly": {}}


def run(trials: int = 10, max_beats: int = 150) -> tuple:
    from repro.adversary.bisector import BisectorAdversary
    from repro.analysis.tables import render_table
    from repro.coin.oracle import OracleCoin
    from repro.core.clock2 import SSByz2Clock

    coin = OracleCoin(p0=0.4, p1=0.4, rounds=2)

    def _stall_rate(n: int, f: int) -> float:
        latencies = convergence_latencies(
            lambda i: SSByz2Clock(coin),
            n=n,
            f=f,
            k=2,
            trials=trials,
            max_beats=max_beats,
            adversary_factory=lambda: BisectorAdversary(coin),
            enforce_resilience=False,
        )
        return sum(1 for beat in latencies if beat >= max_beats) / trials

    configurations = {
        "n=3f+1 (f=2, n=7)": (7, 2, True),
        "n=3f   (f=2, n=6)": (6, 2, False),
        "n=3f+1 (f=3, n=10)": (10, 3, True),
        "n=3f   (f=3, n=9)": (9, 3, False),
    }
    rates = {
        name: _stall_rate(n, f)
        for name, (n, f, _within) in configurations.items()
    }
    pins = {}
    for name, rate in rates.items():
        pin(pins, "fig_resilience/stall_rate", rate, "fraction",
            configuration=name)
    failures = []
    # Within the bound: never stalls.  One past it: stalls most of the
    # time (the attack loses only its opening coin flips).
    for name, (_n, _f, within) in configurations.items():
        if within and rates[name] != 0.0:
            failures.append(f"{name} stalled within the bound "
                            f"({rates[name]:.0%})")
        if not within and rates[name] < 0.5:
            failures.append(f"{name} attack lost its grip "
                            f"({rates[name]:.0%} < 50%)")
    table = render_table(
        [f"configuration ({max_beats}-beat stall rate)", "stalled"],
        [[name, f"{rate * 100:.0f}%"] for name, rate in rates.items()],
    )
    return pins, failures, {"fig_resilience": table}
