"""Dynamic-world stabilization: re-convergence across membership churn.

The self-stabilization claim (Definition 3.2: convergence from *any*
state) is usually benchmarked against memory storms in a fixed
population.  This suite drives the same claim through the dynamic-world
seam instead: one run scripts a late **join** (a pristine node boots
mid-protocol), a **crash + recover** of two nodes (they come back with
scrambled memory — the reboot reading of a transient fault), and a
permanent **leave** — and measures the beats the surviving active set
needs to re-converge after each event.  Recovery after churn must stay
in the same band as initial convergence, for the paper's algorithm and
the deterministic baseline alike.

The churn script keeps the active population at or above ``n - f`` at
every beat, so the protocol's threshold arithmetic stays satisfiable
throughout (this is membership stress, not a liveness counterexample).
"""

from __future__ import annotations

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult

#: The membership script, as (beat, kind, node_ids): a pristine boot,
#: a two-node crash + scrambled-state recovery, a permanent departure.
#: Windows between events are sized for the *slowest* measured family
#: (the deterministic baseline needs ~10 beats from a scrambled start).
_CHURN = (
    (20, "join", (6,)),
    (45, "crash", (0, 1)),
    (60, "recover", (0, 1)),
    (95, "leave", (5,)),
)

#: The events whose re-convergence latency is measured (a crash alone
#: cannot desynchronize the survivors; the paired recover is measured).
_MEASURED_EVENTS = (("join", 20), ("recover", 60), ("leave", 95))


def _churn_latencies(family, n, f, k, max_beats, trials):
    from repro.analysis.convergence import ClockConvergenceMonitor
    from repro.analysis.tables import standard_families
    from repro.net.simulator import Simulation

    initial = []
    by_event = {kind: [] for kind, _ in _MEASURED_EVENTS}
    misses = 0
    for seed in range(trials):
        factory = standard_families(n, f, k)[family]
        sim = Simulation(n, f, factory, seed=seed, churn=_CHURN)
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(max_beats)
        first = monitor.beats_to_converge(until_beat=_CHURN[0][0])
        if first is not None:
            initial.append(first)
        else:
            misses += 1
        for index, (kind, beat) in enumerate(_MEASURED_EVENTS):
            next_beat = (
                _MEASURED_EVENTS[index + 1][1]
                if index + 1 < len(_MEASURED_EVENTS)
                else None
            )
            latency = monitor.beats_to_converge(
                from_beat=beat, until_beat=next_beat
            )
            if latency is not None:
                by_event[kind].append(latency)
            else:
                misses += 1
    return initial, by_event, misses


def run(trials: int = 8, n: int = 7, f: int = 2, k: int = 8,
        max_beats: int = 220) -> BenchOutcome:
    from repro.analysis.stats import summarize
    from repro.analysis.tables import render_table

    families = ("current", "deterministic")
    measured = {
        family: _churn_latencies(family, n, f, k, max_beats, trials)
        for family in families
    }

    results = []
    failures = []
    for family, (initial, by_event, misses) in measured.items():
        if misses:
            failures.append(
                f"{family}: {misses} re-convergence window(s) never "
                f"converged across {trials} trials"
            )
        if initial:
            results.append(BenchResult(
                benchmark="stabilization_under_churn",
                metric="initial_latency",
                value=sum(initial) / len(initial), unit="beats",
                scenario={"family": family}, direction="lower",
            ))
        for kind, latencies in by_event.items():
            if latencies:
                results.append(BenchResult(
                    benchmark="stabilization_under_churn",
                    metric="reconvergence_latency",
                    value=sum(latencies) / len(latencies), unit="beats",
                    scenario={"family": family, "event": kind},
                    direction="lower",
                ))
        windows = len(_MEASURED_EVENTS) * trials
        recovered = sum(len(v) for v in by_event.values())
        results.append(BenchResult(
            benchmark="stabilization_under_churn", metric="recovered",
            value=recovered / windows, unit="fraction",
            scenario={"family": family}, direction="higher",
        ))

    current_initial, current_events, _ = measured["current"]
    recover_latencies = current_events["recover"]
    if current_initial and recover_latencies:
        mean_initial = sum(current_initial) / len(current_initial)
        mean_recover = sum(recover_latencies) / len(recover_latencies)
        # Self-stabilization: rejoining with scrambled memory is no
        # harder than the initial scrambled start (generous band — both
        # are a handful of beats for the paper's algorithm).
        if mean_recover >= mean_initial * 3 + 10:
            failures.append(
                f"post-recover re-convergence ({mean_recover:.1f} beats) "
                f"is much harder than initial convergence "
                f"({mean_initial:.1f})"
            )

    def _mean_cell(latencies) -> str:
        if not latencies:
            return "-"
        return f"{summarize([float(v) for v in latencies]).mean:.1f}"

    rows = []
    for family, (initial, by_event, _) in measured.items():
        rows.append(
            [family, _mean_cell(initial)]
            + [_mean_cell(by_event[kind]) for kind, _ in _MEASURED_EVENTS]
        )
    table = render_table(
        ["family", "initial conv. (beats)"]
        + [f"after {kind}" for kind, _ in _MEASURED_EVENTS],
        rows,
    )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(("stabilization_under_churn", table),),
    )


register(
    Benchmark(
        name="stabilization_under_churn",
        tier="smoke",
        runner=run,
        params={"trials": 8, "n": 7, "f": 2, "k": 8, "max_beats": 220},
        tier_params={
            "smoke": {"trials": 3},
            "nightly": {"trials": 16},
        },
        description="re-convergence after scripted membership churn "
                    "(join, crash+scrambled recover, leave) stays in the "
                    "initial-convergence band",
    )
)
