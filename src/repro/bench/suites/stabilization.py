"""F7 — self-stabilization: recovery from mid-run transient faults.

Definition 3.2's convergence is from *any* state, so recovery after a
mid-run memory storm must look exactly like initial convergence:
expected constant for the paper's algorithm, one agreement cycle for the
deterministic baseline.  We also storm the network with phantom messages
(Definition 2.2's pre-coherence condition) during the fault.
"""

from __future__ import annotations

from repro.bench.suites._common import pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"full": {}, "nightly": {}}


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
) -> tuple:
    from repro.analysis.stats import summarize
    from repro.analysis.tables import render_table

    families = {"current": 300, "deterministic": 120}
    measured = {
        family: _recovery_latencies(family, 7, 2, k, storm_beat,
                                    max_beats, trials)
        for family, max_beats in families.items()
    }

    pins = {}
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
            pin(pins, "stabilization/initial_latency",
                sum(initial) / len(initial), "beats", family=family)
        if recovery:
            pin(pins, "stabilization/recovery_latency",
                sum(recovery) / len(recovery), "beats", family=family)
        pin(pins, "stabilization/recovered", len(recovery) / trials,
            "fraction", family=family)
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
    return pins, failures, {"stabilization": table}
