"""End-to-end cost of the full GVSS stack (engineering bench).

Not a paper artifact: this one exists so regressions in the algebraic
substrate (field ops, Reed-Solomon decoding) show up as changes in the
complete ss-Byz-Clock-Sync over the real Feldman-Micali-style coin —
three GVSS pipelines, n dealings each, four rounds deep.  Smoke tier, so
CI gates it on every push.  The cases cover both decoder paths: fault
free every recover is the optimistic table lookup, while ``mixed-dealing``
(:mod:`repro.adversary.mixed_dealing`) makes half the correct nodes
eliminate and fall back every beat.  Convergence beat, per-beat traffic
and two counts are simulation-deterministic and gate against the
baseline: share lists validated and Reed-Solomon decodes run per beat,
which shared readings (:mod:`repro.coin.gvss`) hold at n per recover
round per class of receivers, not n².  Its speed is the beat ledger's
``sim-gvss`` workload.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult
from repro.bench.suites._common import counted

#: (n, f, adversary registry name); the n=7 f=2 rows are the beat
#: ledger's ``sim-gvss`` shape.
CASES = ((4, 1, "none"), (7, 2, "none"), (7, 2, "mixed-dealing"))


def run(
    cases: tuple = CASES, k: int = 16, beats: int = 40, seed: int = 3
) -> BenchOutcome:
    from repro.analysis.campaign import ScenarioSpec
    from repro.analysis.convergence import ClockConvergenceMonitor
    from repro.coin import reedsolomon
    from repro.coin.gvss import GradedSharingState
    from repro.net.simulator import Simulation

    results = []
    failures = []
    lines = []
    for n, f, adversary in cases:
        spec = ScenarioSpec(n=n, f=f, k=k, coin="gvss", adversary=adversary)
        sim = Simulation(
            n, f, spec.root_factory(),
            adversary=spec.build_adversary(), seed=seed,
        )
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        sim.scramble()
        tally: Counter = Counter()
        with counted(GradedSharingState, "_validate_recover", tally), \
                counted(reedsolomon, "_decode", tally):
            sim.run(beats)
        converged_beat = monitor.convergence_beat()
        total_messages = sim.stats.total_messages

        axes = {"n": n, "f": f, "k": k}
        label = f"n={n} f={f} k={k}"
        if adversary != "none":
            axes["adversary"] = adversary
            label += f" {adversary}"
        results += [
            BenchResult(
                benchmark="gvss_stack", metric=metric, value=count / beats,
                unit=unit, scenario=axes,
            )
            for metric, count, unit in (
                ("messages_per_beat", total_messages, "messages"),
                ("share_list_readings_per_beat", tally["_validate_recover"], "readings"),
                ("recover_decodes_per_beat", tally["_decode"], "decodes"),
            )
        ]
        if converged_beat is None:
            failures.append(
                f"{label}: full GVSS stack failed to converge within "
                f"{beats} beats"
            )
        else:
            results.append(
                BenchResult(
                    benchmark="gvss_stack",
                    metric="converged_beat",
                    value=converged_beat,
                    unit="beats",
                    scenario=axes,
                )
            )
        lines.append(
            f"{label}: converged at beat {converged_beat}, "
            f"{total_messages} messages over {beats} beats "
            f"({total_messages / beats:.0f}/beat)"
        )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(("gvss_stack", "\n".join(lines)),),
    )


register(
    Benchmark(
        name="gvss_stack",
        tier="smoke",
        runner=run,
        params={"cases": CASES, "k": 16, "beats": 40, "seed": 3},
        description="end-to-end ss-Byz-Clock-Sync over the real GVSS coin "
                    "(algebraic-substrate canary)",
    )
)
