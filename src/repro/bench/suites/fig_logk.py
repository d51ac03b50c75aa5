"""F8 — §5: recursive doubling pays log k; ss-Byz-Clock-Sync does not.

The paper gives two routes to a k-clock.  The recursive-doubling tower
("any 2^(k+1)-Clock ... with A1 that solves 2^k-Clock and A2 that solves
2-Clock") stacks log2(k) levels, each of which must converge before the
next can; ss-Byz-Clock-Sync's 4-phase vote settles every bit of the
clock in one shot.  Convergence latency vs k should grow for the tower
and stay flat for ss-Byz-Clock-Sync — the reason the paper builds the
latter.  §5's second schema (squaring) reaches k=16 with 2 layers
instead of the doubling tower's 4 and converges correspondingly faster —
while still losing to ss-Byz-Clock-Sync's flat construction.

The k-exponent sweep burns a 600-beat budget per trial per layer, which
makes this the slowest suite — it runs in the ``nightly`` tier.
"""

from __future__ import annotations

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult
from repro.bench.suites._common import mean_latency


def run(
    trials: int = 6,
    max_beats: int = 600,
    exponents=(1, 2, 3, 4),
    flat_bound: float = 45.0,
) -> BenchOutcome:
    from repro.analysis.tables import render_table
    from repro.coin.oracle import OracleCoin
    from repro.core.cascade import squaring_tower
    from repro.core.clock2 import SSByz2Clock
    from repro.core.clock_sync import SSByzClockSync
    from repro.core.power_of_two import RecursiveDoublingClock

    coin_factory = lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)

    def _mean(factory, k: int) -> float:
        return mean_latency(
            factory, n=4, f=1, k=k, trials=trials, max_beats=max_beats
        )

    table = {}
    for exponent in exponents:
        k = 2 ** exponent
        table[k] = {
            "doubling": _mean(
                lambda i: RecursiveDoublingClock(exponent, coin_factory), k
            ),
            "clock_sync": _mean(
                lambda i: SSByzClockSync(k, coin_factory), k
            ),
        }
    top_exponent = max(exponents)
    top_k = 2 ** top_exponent
    squaring = {
        f"doubling ({top_exponent} layers)": table[top_k]["doubling"],
        "squaring (2 layers)": _mean(
            lambda i: squaring_tower(2, lambda: SSByz2Clock(coin_factory())),
            top_k,
        ),
        "ss-Byz-Clock-Sync": table[top_k]["clock_sync"],
    }

    results = []
    for k, cell in sorted(table.items()):
        for construction, mean in cell.items():
            results.append(
                BenchResult(
                    benchmark="fig_logk",
                    metric="mean_latency",
                    value=mean,
                    unit="beats",
                    scenario={"construction": construction, "k": k},
                    direction="lower",
                )
            )
    results.append(
        BenchResult(
            benchmark="fig_logk",
            metric="mean_latency",
            value=squaring["squaring (2 layers)"],
            unit="beats",
            scenario={"construction": "squaring", "k": top_k},
            direction="lower",
        )
    )

    doubling = [table[k]["doubling"] for k in sorted(table)]
    clock_sync = [table[k]["clock_sync"] for k in sorted(table)]
    failures = []
    # The tower's latency grows with log k...
    if doubling[-1] <= doubling[0] * 1.5:
        failures.append(
            f"doubling tower latency failed to grow with log k "
            f"({doubling[0]:.1f} -> {doubling[-1]:.1f})"
        )
    # ...while ss-Byz-Clock-Sync stays flat in k.
    if max(clock_sync) >= flat_bound:
        failures.append(
            f"ss-Byz-Clock-Sync left its flat band "
            f"(max {max(clock_sync):.1f} >= {flat_bound})"
        )
    # Crossover: at large k, ss-Byz-Clock-Sync wins clearly.
    if table[top_k]["clock_sync"] >= table[top_k]["doubling"]:
        failures.append(
            f"ss-Byz-Clock-Sync lost to the doubling tower at k={top_k}"
        )
    if squaring["squaring (2 layers)"] >= squaring[
        f"doubling ({top_exponent} layers)"
    ]:
        failures.append("squaring schema failed to beat the doubling tower")
    if squaring["ss-Byz-Clock-Sync"] >= squaring["squaring (2 layers)"] * 2:
        failures.append(
            "ss-Byz-Clock-Sync fell behind the squaring schema's band"
        )

    logk_table = render_table(
        ["modulus", "recursive doubling (beats)", "ss-Byz-Clock-Sync"],
        [
            [f"k={k}", f"{v['doubling']:.1f}", f"{v['clock_sync']:.1f}"]
            for k, v in sorted(table.items())
        ],
    )
    squaring_table = render_table(
        [f"construction (k={top_k})", "mean beats"],
        [[name, f"{mean:.1f}"] for name, mean in squaring.items()],
    )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(
            ("fig_logk", logk_table),
            ("fig_logk_squaring", squaring_table),
        ),
    )


register(
    Benchmark(
        name="fig_logk",
        tier="nightly",
        runner=run,
        params={
            "trials": 6,
            "max_beats": 600,
            "exponents": (1, 2, 3, 4),
            "flat_bound": 45.0,
        },
        description="convergence vs clock modulus: doubling tower pays "
                    "log k, squaring pays 2 layers, clock-sync stays flat",
    )
)
