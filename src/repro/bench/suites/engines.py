"""Engine differential pin: reference vs fast vs bulk, as digests.

Each digest case runs one deterministic simulation per engine (the full
ss-Byz-Clock-Sync stack, oracle coin, scrambled start) and hashes every
observable — clock history, convergence beat, traffic counters — so
``trajectory_match`` is exactly 1.0 whenever an engine is bit-identical
to the reference on that case: simulation-deterministic at every tier,
on any hardware, and a 0.0 both fails the run and trips the gate.
Beside each ``fast`` digest sit two counts of what the protocol tower
cost that run: rule tallies per beat, which follow the distinct inbox
*objects* the engine hands out (classes of receivers, not n), and
contexts built per beat (each is built once, so 1/beats of a constant).

How fast each engine runs is the beat ledger's question
(``sim-pernode-byz``, ``sim-bulk-clean``, ``sim-bulk-byz``), not this
suite's.
"""

from __future__ import annotations

import contextlib
import hashlib
from collections import Counter

from repro.bench.suites._common import counted, counted_rules, pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"smoke": {}, "full": {}, "nightly": {}}

#: Deterministic differential cases hashed per engine at every tier.
DIGEST_CASES = (
    {"case": "fault_free", "n": 16, "f": 5, "k": 8, "seed": 0, "beats": 30,
     "adversary": None},
    {"case": "equivocator", "n": 7, "f": 2, "k": 6, "seed": 1, "beats": 40,
     "adversary": "equivocator"},
)


def trajectory_digest(engine: str, case: dict) -> str:
    """Hash of every observable of one deterministic run on ``engine``."""
    from repro.adversary import EquivocatorAdversary
    from repro.analysis.convergence import ClockConvergenceMonitor
    from repro.coin.oracle import OracleCoin
    from repro.core.clock_sync import SSByzClockSync
    from repro.net.simulator import Simulation

    k = case["k"]
    simulation = Simulation(
        case["n"],
        case["f"],
        lambda i: SSByzClockSync(k, lambda: OracleCoin()),
        adversary=(
            EquivocatorAdversary() if case["adversary"] == "equivocator"
            else None
        ),
        seed=case["seed"],
        engine=engine,
    )
    simulation.scramble()
    monitor = ClockConvergenceMonitor(k)
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


def run() -> tuple:
    pins = {}
    failures = []
    digest_lines = []
    for case in DIGEST_CASES:
        reference_digest = trajectory_digest("reference", case)
        for engine in ("reference", "fast", "bulk"):
            axes = {"engine": engine, "case": case["case"]}
            if engine == "reference":
                digest = reference_digest
            elif engine != "fast":
                digest = trajectory_digest(engine, case)
            else:
                digest, costs = tower_costs(case)
                for metric, value in costs.items():
                    pin(pins, f"engines/{metric}", value, "per beat", **axes)
            match = 1.0 if digest == reference_digest else 0.0
            pin(pins, "engines/trajectory_match", match, "match", **axes)
            digest_lines.append(
                f"{case['case']:<12} {engine:<10} {digest[:16]}… "
                f"{'match' if match else 'MISMATCH'}"
            )
            if not match:
                failures.append(
                    f"engine {engine!r} diverged from reference on digest "
                    f"case {case['case']!r}"
                )
    return pins, failures, {"engine_digests": "\n".join(digest_lines)}
