"""F7 — self-stabilization: recovery from mid-run transient faults.

Definition 3.2's convergence is from *any* state, so recovery after a
mid-run memory storm must look exactly like initial convergence:
expected constant for the paper's algorithm, one agreement cycle for the
deterministic baseline.  We also storm the network with phantom messages
(Definition 2.2's pre-coherence condition) during the fault.
"""

from __future__ import annotations

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult


def _recovery_latencies(family, n, f, k, storm_beat, max_beats, trials):
    from repro.analysis.convergence import ClockConvergenceMonitor
    from repro.analysis.tables import standard_families
    from repro.faults.network_faults import inject_phantom_storm
    from repro.net.simulator import Simulation

    initial, recovery = [], []
    for seed in range(trials):
        factory = standard_families(n, f, k)[family]
        sim = Simulation(n, f, factory, seed=seed)
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(storm_beat)
        sim.scramble()
        inject_phantom_storm(
            sim, ["root", "root/coin", "root/A/A1"], count=200
        )
        sim.run(max_beats)
        first = monitor.beats_to_converge(until_beat=storm_beat)
        second = monitor.beats_to_converge(from_beat=storm_beat + 1)
        if first is not None:
            initial.append(first)
        if second is not None:
            recovery.append(second)
    return initial, recovery


def run(
    trials: int = 8, k: int = 8, storm_beat: int = 60
) -> BenchOutcome:
    from repro.analysis.stats import summarize
    from repro.analysis.tables import render_table

    families = {"current": 300, "deterministic": 120}
    measured = {
        family: _recovery_latencies(family, 7, 2, k, storm_beat,
                                    max_beats, trials)
        for family, max_beats in families.items()
    }

    results = []
    failures = []
    for family, (initial, recovery) in measured.items():
        if len(initial) != trials:
            failures.append(
                f"{family}: initial convergence failed "
                f"({len(initial)}/{trials})"
            )
        if len(recovery) != trials:
            failures.append(
                f"{family}: post-storm recovery failed "
                f"({len(recovery)}/{trials})"
            )
        if initial:
            results.append(BenchResult(
                benchmark="stabilization", metric="initial_latency",
                value=sum(initial) / len(initial), unit="beats",
                scenario={"family": family},
            ))
        if recovery:
            results.append(BenchResult(
                benchmark="stabilization", metric="recovery_latency",
                value=sum(recovery) / len(recovery), unit="beats",
                scenario={"family": family},
            ))
        results.append(BenchResult(
            benchmark="stabilization", metric="recovered",
            value=len(recovery) / trials, unit="fraction",
            scenario={"family": family},
        ))
    current_initial, current_recovery = measured["current"]
    if current_initial and current_recovery:
        mean_initial = sum(current_initial) / len(current_initial)
        mean_recovery = sum(current_recovery) / len(current_recovery)
        # Self-stabilization: recovering is no harder than starting
        # (within a generous constant band — both are a handful of beats).
        if mean_recovery >= mean_initial * 3 + 10:
            failures.append(
                f"recovery ({mean_recovery:.1f} beats) is much harder "
                f"than initial convergence ({mean_initial:.1f})"
            )

    def _mean_cell(latencies: list) -> str:
        if not latencies:
            return "-"
        return f"{summarize([float(v) for v in latencies]).mean:.1f}"

    rows = []
    for family, (initial, recovery) in measured.items():
        rows.append([
            family,
            _mean_cell(initial),
            _mean_cell(recovery),
            f"{len(recovery)}/{trials}",
        ])
    table = render_table(
        ["family", "initial conv. (beats)", "post-storm recovery",
         "recovered"],
        rows,
    )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(("stabilization", table),),
    )


register(
    Benchmark(
        name="stabilization",
        tier="full",
        runner=run,
        params={"trials": 8, "k": 8, "storm_beat": 60},
        description="recovery after a mid-run memory storm + phantom "
                    "network incoherence equals initial convergence",
    )
)
