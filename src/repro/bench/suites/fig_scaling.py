"""F1 — convergence latency vs system size: flat / linear / exponential.

Derived figure for the paper's central comparison: sweep n with
f = ⌊(n-1)/3⌋ and plot mean convergence beats per family.  Expected
shapes: the current paper's algorithm is flat in n (expected O(1)); the
deterministic comparator grows linearly in f; Dolev-Welch's local-coin
randomized family deteriorates so fast it is only measurable at toy
sizes.  Executed through the campaign subsystem: one picklable
:class:`~repro.analysis.campaign.ScenarioSpec` grid per family, fanned
out by :func:`~repro.analysis.campaign.run_campaign`.
"""

from __future__ import annotations

from repro.bench.suites._common import pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"full": {}, "nightly": {}}


def _mean_latencies(protocol, sizes, seeds, k, max_beats) -> dict:
    """Per-(n, f) mean convergence latency (budget on non-convergence)."""
    from repro.analysis.campaign import run_campaign, scenario_grid

    specs = scenario_grid(sizes, ks=[k], protocol=protocol, max_beats=max_beats)
    table = {}
    for entry in run_campaign(specs, range(seeds)):
        sweep = entry.sweep
        if sweep.latencies:
            mean = sum(sweep.latencies) / len(sweep.latencies)
        else:
            mean = float(max_beats)
        table[(entry.spec.n, entry.spec.f)] = (mean, sweep.failure_count)
    return table


def run(
    sizes=(4, 7, 10, 13),
    dw_sizes=(4, 7, 10),
    seeds: int = 6,
    k: int = 4,
    flat_bound: float = 45.0,
) -> tuple:
    from repro.analysis.tables import render_table

    current = _mean_latencies("clock-sync", sizes, seeds, k, 400)
    deterministic = _mean_latencies("deterministic", sizes, seeds, k, 200)
    dolev_welch = _mean_latencies("dolev-welch", dw_sizes, seeds, k, 500)

    pins = {}
    for protocol, table, seeds_run in (
        ("clock-sync", current, seeds),
        ("deterministic", deterministic, seeds),
        ("dolev-welch", dolev_welch, seeds),
    ):
        for (n, f), (mean, dnf) in sorted(table.items()):
            axes = {"protocol": protocol, "n": n, "f": f}
            pin(pins, "fig_scaling/mean_latency", mean, "beats", **axes)
            # The mean above only averages converged seeds — pin the
            # success rate alongside it so new timeouts cannot read as
            # latency improvements (dolev-welch legitimately times out,
            # which the pinned value itself records).
            pin(pins, "fig_scaling/success_rate", 1.0 - dnf / seeds_run,
                "fraction", **axes)

    failures = []
    det_means = [deterministic[key][0] for key in sorted(deterministic)]
    cur_means = [mean for mean, _dnf in current.values()]
    # Deterministic grows monotonically with f...
    if det_means != sorted(det_means):
        failures.append("deterministic latency is not monotone in n")
    if det_means[-1] <= det_means[0] * 1.8:
        failures.append(
            f"deterministic latency failed to grow with f "
            f"({det_means[0]:.1f} -> {det_means[-1]:.1f})"
        )
    # ...while the current algorithm stays within a flat constant band.
    if max(cur_means) >= flat_bound:
        failures.append(
            f"clock-sync left its flat band (max {max(cur_means):.1f})"
        )
    # Crossover: at the largest size the deterministic baseline has lost.
    top = max(sizes)
    top_key = max(current)
    if current[top_key][0] >= deterministic[top_key][0]:
        failures.append(f"clock-sync lost the n={top} crossover")
    # The exponential family deteriorates sharply with n - f.
    dw_small, dw_large = min(dolev_welch), max(dolev_welch)
    if dolev_welch[dw_large][0] <= dolev_welch[dw_small][0] * 3:
        failures.append(
            "dolev-welch failed to deteriorate with n "
            f"({dolev_welch[dw_small][0]:.1f} -> {dolev_welch[dw_large][0]:.1f})"
        )

    scaling_table = render_table(
        ["system", "current (beats)", "deterministic (beats)"],
        [
            [f"n={n}, f={f}", f"{current[(n, f)][0]:.1f}",
             f"{deterministic[(n, f)][0]:.1f}"]
            for (n, f) in sorted(current)
        ],
    )
    dw_table = render_table(
        ["system", "mean beats (DNF=500)", "DNF count"],
        [
            [f"n={n}, f={f}", f"{mean:.1f}", str(dnf)]
            for (n, f), (mean, dnf) in sorted(dolev_welch.items())
        ],
    )
    return pins, failures, {
        "fig_scaling": scaling_table, "fig_scaling_dw": dw_table,
    }
