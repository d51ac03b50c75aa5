"""Shared measurement helpers for the benchmark suites, and the one rule
that names a pinned value."""

from __future__ import annotations

import contextlib
import math
import numbers
from collections import Counter
from typing import Callable

from repro.analysis.convergence import ClockConvergenceMonitor
from repro.net.simulator import Simulation


def pin(pins: dict, name: str, value: float, unit: str, **axes) -> None:
    """Add ``value`` to ``pins`` under its ``benchmarks/baselines.json``
    key, ``suite/metric{axis=value,...}``: axes sorted by name, a bool
    printed as ``true``/``false``, a float as ``:g``.  A key is pinned
    once per run, and only a finite number is pinned: a NaN never equals
    itself, so it could never match its baseline."""
    suite, _, metric = name.partition("/")
    if not suite or not metric or "{" in name:
        raise ValueError(f"{name!r}: a pin is named 'suite/metric'")
    if not isinstance(unit, str) or not unit:
        raise ValueError(f"{name}: the unit must be a non-empty string")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: the value must be a number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name}: the value must be finite, not {value!r}")
    for axis, axis_value in axes.items():
        if not isinstance(axis_value, (str, numbers.Real)):
            raise ValueError(f"{name}: axis {axis} must be a scalar, "
                             f"not {axis_value!r}")
    rendered = ",".join(
        f"{axis}={_render(axes[axis])}" for axis in sorted(axes)
    )
    key = f"{name}{{{rendered}}}"
    if key in pins:
        raise ValueError(f"{key} is pinned twice")
    pins[key] = {"unit": unit, "value": value}


def _render(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


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
