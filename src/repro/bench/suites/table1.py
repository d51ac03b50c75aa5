"""T1 — Table 1 reproduction: convergence/resilience of the families.

Paper's Table 1 (claims):

    [10]  sync, probabilistic   O(2^(2(n-f)))   f < n/3
    [15]  sync, deterministic   O(f)            f < n/4
    [7]   sync, deterministic   O(f)            f < n/3
    current sync, probabilistic O(1) expected   f < n/3

We measure each family on the same k-Clock instance from scrambled
memory.  Absolute beat counts are ours; the *ordering and growth shapes*
are the paper's claims under test.
"""

from __future__ import annotations

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult

HEADERS = ["paper row", "claimed conv.", "resilience", "config", "measured",
           "ok"]


def run(
    n: int = 10,
    f: int = 3,
    dw_seeds: int = 6,
    det_seeds: int = 5,
    cur_seeds: int = 8,
    combined_seeds: int = 5,
) -> BenchOutcome:
    from repro.analysis.tables import render_table, table1_comparison

    results, failures, tables = [], [], []

    # Row [10]: the exponential family needs a cap — latencies are
    # censored at 600 on the same k-Clock instance the other rows use.
    (dw_row,) = table1_comparison(
        n=n, f=f, k=4, seeds=range(dw_seeds), max_beats=600,
        families=("dolev-welch",),
    )
    dw_latencies = list(dw_row.sweep.latencies) + [600] * dw_row.sweep.failure_count
    dw_mean = sum(dw_latencies) / len(dw_latencies)
    results.append(BenchResult(
        benchmark="table1", metric="mean_latency_censored", value=dw_mean,
        unit="beats", scenario={"family": "dolev-welch", "n": n},
        direction="lower",
    ))
    if dw_mean <= 60:
        # An order of magnitude above the constant-time row's < 40 band.
        failures.append(
            f"dolev-welch censored mean {dw_mean:.0f} is not exponential-"
            "family slow"
        )
    tables.append((
        "table1_dolev_welch",
        render_table(HEADERS, [dw_row.cells()])
        + f"\n(censored mean over all seeds: {dw_mean:.0f} beats)",
    ))

    # Rows [15]/[7]: deterministic — every seed identical, linear in f.
    (det_row,) = table1_comparison(
        n=n, f=f, k=8, seeds=range(det_seeds), max_beats=120,
        families=("deterministic",),
    )
    det_latencies = det_row.sweep.latencies
    results.append(BenchResult(
        benchmark="table1", metric="success_rate",
        value=det_row.sweep.success_rate, unit="fraction",
        scenario={"family": "deterministic", "n": n}, direction="higher",
    ))
    if det_row.sweep.success_rate != 1.0:
        failures.append("deterministic family missed its budget")
    if len(set(det_latencies)) != 1:
        failures.append(
            f"deterministic latencies are seed-dependent: {det_latencies}"
        )
    else:
        results.append(BenchResult(
            benchmark="table1", metric="latency", value=det_latencies[0],
            unit="beats", scenario={"family": "deterministic", "n": n},
            direction="lower",
        ))
        if not 3 * f <= det_latencies[0] <= 2 * (2 + f * (f + 1)):
            failures.append(
                f"deterministic latency {det_latencies[0]} left its "
                "linear-in-f band"
            )
    tables.append(("table1_deterministic",
                   render_table(HEADERS, [det_row.cells()])))

    # Current paper's row: expected-constant, not tied to f or n.
    (cur_row,) = table1_comparison(
        n=n, f=f, k=8, seeds=range(cur_seeds), max_beats=400,
        families=("current",),
    )
    results.append(BenchResult(
        benchmark="table1", metric="success_rate",
        value=cur_row.sweep.success_rate, unit="fraction",
        scenario={"family": "current", "n": n}, direction="higher",
    ))
    if cur_row.sweep.success_rate != 1.0:
        failures.append("current family missed its budget")
    if cur_row.sweep.latencies:
        cur_mean = (
            sum(cur_row.sweep.latencies) / len(cur_row.sweep.latencies)
        )
        results.append(BenchResult(
            benchmark="table1", metric="mean_latency", value=cur_mean,
            unit="beats", scenario={"family": "current", "n": n},
            direction="lower",
        ))
        if cur_mean >= 40:
            failures.append(
                f"current family mean {cur_mean:.1f} is not expected-"
                "constant sized"
            )
    tables.append(("table1_current", render_table(HEADERS, [cur_row.cells()])))

    # The combined table at one configuration, like the paper prints it.
    combined = table1_comparison(
        n=7, f=2, k=4, seeds=range(combined_seeds), max_beats=400
    )
    tables.append((
        "table1_combined",
        render_table(HEADERS, [row.cells() for row in combined]),
    ))
    by_name = {row.paper_row: row for row in combined}
    for family_label in ("[15]/[7] sync, deterministic",
                         "current paper, probabilistic"):
        sweep = by_name[family_label].sweep
        results.append(BenchResult(
            benchmark="table1", metric="success_rate",
            value=sweep.success_rate, unit="fraction",
            scenario={"family": family_label, "n": 7}, direction="higher",
        ))
        if sweep.success_rate != 1.0:
            failures.append(
                f"combined table: {family_label} missed its budget"
            )

    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=tuple(tables),
    )


register(
    Benchmark(
        name="table1",
        tier="full",
        runner=run,
        params={"n": 10, "f": 3, "dw_seeds": 6, "det_seeds": 5,
                "cur_seeds": 8, "combined_seeds": 5},
        description="Table 1 reproduction: expected-constant vs O(f) vs "
                    "expected-exponential families",
    )
)
