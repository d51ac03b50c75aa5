"""Shared measurement helpers for the benchmark suites."""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Callable

from repro.analysis.convergence import ClockConvergenceMonitor
from repro.net.simulator import Simulation


@contextlib.contextmanager
def counted(owner, name: str, tally: Counter):
    """While open, ``owner.name`` also counts its calls under ``name``:
    how a suite reads a simulation-deterministic cost as a count."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        tally[name] += 1
        return original(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def counted_rules(tally: Counter):
    """While open, every run of a rule of Figures 2 and 4 is counted in
    ``tally``.  The tower runs a rule once per distinct inbox *object*,
    so the total follows the classes of receivers a message plane hands
    out, not n."""
    from repro.core import clock2, clock_sync

    with contextlib.ExitStack() as stack:
        for owner, name in (
            (clock2, "two_clock_step"), (clock_sync, "phase1_proposal"),
            (clock_sync, "phase2_bit_and_save"), (clock_sync, "phase3_agreed_bit"),
        ):
            stack.enter_context(counted(owner, name, tally))
        yield tally


def convergence_latencies(
    factory: Callable[[int], object],
    *,
    n: int,
    f: int,
    k: int,
    trials: int,
    max_beats: int,
    adversary_factory: Callable[[], object] | None = None,
    enforce_resilience: bool = True,
) -> list[int]:
    """Scrambled-start convergence beat per seed; ``max_beats`` censors
    non-convergence (the legacy benches' convention)."""
    latencies = []
    for seed in range(trials):
        sim = Simulation(
            n,
            f,
            factory,
            adversary=adversary_factory() if adversary_factory else None,
            seed=seed,
            enforce_resilience=enforce_resilience,
        )
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(max_beats)
        beat = monitor.convergence_beat()
        latencies.append(beat if beat is not None else max_beats)
    return latencies


def mean_latency(factory, **kwargs) -> float:
    latencies = convergence_latencies(factory, **kwargs)
    return sum(latencies) / len(latencies)
