"""Engine micro-benchmark: beats/sec of reference vs fast vs bulk.

Times the full ss-Byz-Clock-Sync stack (k=8, oracle coin, scrambled
start, fault-free) on every engine across a size matrix and reports
beats/sec.  The reference engine is only timed on the small grid (it is
the O(n² objects) executable specification — at n=1024 a single beat
costs seconds); the large rows n∈{256, 1024} time the fast and bulk
engines, which is where the bulk engine's structure-of-arrays batch
execution has to earn its keep (``min_bulk_speedup_at_largest``).

Wall-clock numbers are hardware-noisy, so every beats/sec and speedup
metric is ``gated=False``; the regression guard is the benchmark's own
relative check.  The *gated* metrics are the trajectory digests: each
digest case runs one deterministic simulation per engine and hashes
every observable (clock history, convergence beat, traffic counters),
so ``trajectory_match`` is exactly 1.0 whenever an engine is
bit-identical to the reference on that case — simulation-deterministic
at every tier, on any hardware, and a 0.0 trips the baseline gate.
Beside each ``fast`` digest sit two gated counts of what the protocol
tower cost that run: rule tallies per beat, which follow the distinct
inbox *objects* the engine hands out (classes of receivers, not n), and
contexts built per beat (each is built once, so 1/beats of a constant).
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import Counter

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult
from repro.bench.suites._common import counted, counted_rules

#: Deterministic differential cases hashed per engine at every tier.
DIGEST_CASES = (
    {"case": "fault_free", "n": 16, "f": 5, "k": 8, "seed": 0, "beats": 30,
     "adversary": None},
    {"case": "equivocator", "n": 7, "f": 2, "k": 6, "seed": 1, "beats": 40,
     "adversary": "equivocator"},
)


def _build_simulation(n: int, f: int, engine: str, seed: int = 0, k: int = 8,
                      adversary=None):
    from repro.coin.oracle import OracleCoin
    from repro.core.clock_sync import SSByzClockSync
    from repro.net.simulator import Simulation

    simulation = Simulation(
        n,
        f,
        lambda i: SSByzClockSync(k, lambda: OracleCoin()),
        adversary=adversary,
        seed=seed,
        engine=engine,
    )
    simulation.scramble()
    return simulation


def time_engine(
    n: int, f: int, engine: str, beats: int, repeats: int = 3
) -> float:
    """Best-of-``repeats`` beats/sec for one engine at one system size."""
    best = float("inf")
    for _ in range(repeats):
        simulation = _build_simulation(n, f, engine)
        simulation.run(2)  # warm caches (path interning, inbox buffers)
        started = time.perf_counter()
        simulation.run(beats)
        best = min(best, time.perf_counter() - started)
    return beats / best


def trajectory_digest(engine: str, case: dict) -> str:
    """Hash of every observable of one deterministic run on ``engine``."""
    from repro.adversary import EquivocatorAdversary
    from repro.analysis.convergence import ClockConvergenceMonitor

    adversary = (
        EquivocatorAdversary() if case["adversary"] == "equivocator" else None
    )
    simulation = _build_simulation(
        case["n"], case["f"], engine, seed=case["seed"], k=case["k"],
        adversary=adversary,
    )
    monitor = ClockConvergenceMonitor(case["k"])
    simulation.add_monitor(monitor)
    simulation.run(case["beats"])
    stats = simulation.stats
    observed = (
        monitor.history,
        monitor.convergence_beat(),
        stats.total_messages,
        stats.honest_messages,
        stats.byzantine_messages,
        stats.dropped_messages,
        sorted(stats.per_beat.items()),
        sorted(stats.per_path_prefix.items()),
    )
    return hashlib.sha256(repr(observed).encode("utf-8")).hexdigest()


def tower_costs(case: dict) -> tuple[str, dict[str, float]]:
    """The ``fast`` digest of ``case`` and, per beat of that run, the
    rules of Figures 2 and 4 actually run and the contexts constructed."""
    from repro.coin.interfaces import InstanceContext
    from repro.net.component import BeatContext

    tally: Counter = Counter()
    with contextlib.ExitStack() as stack:
        stack.enter_context(counted_rules(tally))
        for owner in (BeatContext, InstanceContext):
            stack.enter_context(counted(owner, "__init__", tally))
        digest = trajectory_digest("fast", case)
    built = tally.pop("__init__")
    return digest, {
        "tallies_per_beat": sum(tally.values()) / case["beats"],
        "contexts_built_per_beat": built / case["beats"],
    }


def _render(rows: list[dict]) -> str:
    header = (
        f"{'system':<14} | {'reference b/s':>13} | {'fast b/s':>10} | "
        f"{'bulk b/s':>10} | {'fast/ref':>8} | {'bulk/fast':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        reference = (
            f"{row['reference_beats_per_sec']:>13.1f}"
            if "reference_beats_per_sec" in row else f"{'-':>13}"
        )
        speedup = (
            f"{row['speedup']:>7.2f}x" if "speedup" in row else f"{'-':>8}"
        )
        lines.append(
            f"n={row['n']:<5} f={row['f']:<4} | {reference} | "
            f"{row['fast_beats_per_sec']:>10.1f} | "
            f"{row['bulk_beats_per_sec']:>10.1f} | {speedup} | "
            f"{row['bulk_speedup']:>8.2f}x"
        )
    return "\n".join(lines)


def run(
    sizes=((4, 1, 200), (16, 5, 50), (64, 21, 10)),
    large_sizes=((256, 85, 6), (1024, 341, 3)),
    repeats: int = 3,
    large_repeats: int = 2,
    min_speedup_each: float = 0.9,
    min_speedup_at_largest: float = 2.0,
    min_bulk_speedup_at_largest: float = 10.0,
) -> BenchOutcome:
    rows = []
    for n, f, beats in sizes:
        reference = time_engine(n, f, "reference", beats, repeats)
        fast = time_engine(n, f, "fast", beats, repeats)
        bulk = time_engine(n, f, "bulk", beats, repeats)
        rows.append(
            {
                "n": n,
                "f": f,
                "beats_timed": beats,
                "reference_beats_per_sec": reference,
                "fast_beats_per_sec": fast,
                "bulk_beats_per_sec": bulk,
                "speedup": fast / reference,
                "bulk_speedup": bulk / fast,
            }
        )
    for n, f, beats in large_sizes:
        fast = time_engine(n, f, "fast", beats, large_repeats)
        bulk = time_engine(n, f, "bulk", beats, large_repeats)
        rows.append(
            {
                "n": n,
                "f": f,
                "beats_timed": beats,
                "fast_beats_per_sec": fast,
                "bulk_beats_per_sec": bulk,
                "bulk_speedup": bulk / fast,
            }
        )
    results = []
    for row in rows:
        for engine in ("reference", "fast", "bulk"):
            key = f"{engine}_beats_per_sec"
            if key not in row:
                continue
            results.append(
                BenchResult(
                    benchmark="engines",
                    metric="beats_per_sec",
                    value=row[key],
                    unit="beats/s",
                    scenario={"engine": engine, "n": row["n"], "f": row["f"]},
                    direction="higher",
                    gated=False,  # wall-clock: too noisy for CI gating
                )
            )
        if "speedup" in row:
            results.append(
                BenchResult(
                    benchmark="engines",
                    metric="speedup",
                    value=row["speedup"],
                    unit="x",
                    scenario={"n": row["n"], "f": row["f"]},
                    direction="higher",
                    gated=False,
                )
            )
        results.append(
            BenchResult(
                benchmark="engines",
                metric="bulk_speedup",
                value=row["bulk_speedup"],
                unit="x",
                scenario={"n": row["n"], "f": row["f"]},
                direction="higher",
                gated=False,
            )
        )
    failures = []
    for row in rows:
        if "speedup" in row and row["speedup"] <= min_speedup_each:
            failures.append(
                f"fast engine lost at n={row['n']}: speedup "
                f"{row['speedup']:.2f}x <= {min_speedup_each}x"
            )
    small_largest = max(
        (row for row in rows if "speedup" in row),
        key=lambda row: row["n"],
    )
    if small_largest["speedup"] < min_speedup_at_largest:
        failures.append(
            f"fast engine below {min_speedup_at_largest}x at "
            f"n={small_largest['n']}: {small_largest['speedup']:.2f}x"
        )
    largest = max(rows, key=lambda row: row["n"])
    if largest["bulk_speedup"] < min_bulk_speedup_at_largest:
        failures.append(
            f"bulk engine below {min_bulk_speedup_at_largest}x over fast "
            f"at n={largest['n']}: {largest['bulk_speedup']:.2f}x"
        )
    # -- gated trajectory digests: deterministic at every tier -------------
    digest_lines = []
    for case in DIGEST_CASES:
        reference_digest = trajectory_digest("reference", case)
        for engine in ("reference", "fast", "bulk"):
            if engine == "reference":
                digest = reference_digest
            elif engine != "fast":
                digest = trajectory_digest(engine, case)
            else:
                digest, costs = tower_costs(case)
                results += [
                    BenchResult(
                        benchmark="engines", metric=metric, value=value,
                        unit="per beat", direction="lower",
                        scenario={"engine": engine, "case": case["case"]},
                    )
                    for metric, value in costs.items()
                ]
            match = 1.0 if digest == reference_digest else 0.0
            results.append(
                BenchResult(
                    benchmark="engines",
                    metric="trajectory_match",
                    value=match,
                    unit="match",
                    scenario={"engine": engine, "case": case["case"]},
                    direction="higher",
                    gated=True,  # simulation-deterministic: exact at any tier
                )
            )
            digest_lines.append(
                f"{case['case']:<12} {engine:<10} {digest[:16]}… "
                f"{'match' if match else 'MISMATCH'}"
            )
            if not match:
                failures.append(
                    f"engine {engine!r} diverged from reference on digest "
                    f"case {case['case']!r}"
                )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(
            ("engines", _render(rows)),
            ("engine_digests", "\n".join(digest_lines)),
        ),
    )


register(
    Benchmark(
        name="engines",
        tier="smoke",
        runner=run,
        params={
            "sizes": ((4, 1, 200), (16, 5, 50), (64, 21, 10)),
            "large_sizes": ((256, 85, 6), (1024, 341, 3)),
            "repeats": 3,
            "large_repeats": 2,
            "min_speedup_each": 0.9,
            "min_speedup_at_largest": 2.0,
            # The tentpole acceptance bar: SoA batch execution must beat
            # the fast engine ≥10x at the campaign scales.
            "min_bulk_speedup_at_largest": 10.0,
        },
        tier_params={
            "smoke": {
                "sizes": ((7, 2, 200),),
                "large_sizes": (),
                "repeats": 1,
                # The CI guard: fast within 2x of reference; the
                # bulk engine must merely not lose outright at n=7.
                "min_speedup_each": 0.5,
                "min_speedup_at_largest": 0.5,
                "min_bulk_speedup_at_largest": 0.5,
            },
        },
        description="beats/sec of reference vs fast vs bulk engines "
                    "across system sizes, plus gated trajectory digests",
    )
)
