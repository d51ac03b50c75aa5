"""Continuous-time pulse precision: the event engine's differential pin
and the pulse-barrier runtime's wall-clock skew.

Three measurement families:

* **gated ``trace_match``** — the load-bearing differential pin.  At
  zero drift and zero delay the event-driven engine
  (:class:`~repro.net.events.ContinuousSimulation`) must replay the
  lock-step :class:`~repro.net.simulator.Simulation` (reference engine)
  bit-identically: same seeds, same scramble, same adversary, same JSONL
  trace bytes.  One digest-match fraction per adversary over the seed
  range (1.0 = every seed matched).
* **gated drift metrics** — a drifting-clock bounded-delay run is still
  simulation-deterministic (every draw is keyed), so its convergence
  beat, max pulse skew and late-message count gate exactly like the
  ``engines`` suite's trajectory digests.  Three counts ride along, for
  the same case: ``late_free_beats`` (how long nothing *can* be late —
  the boundary ROADMAP 1c asks to locate), and what the run cost while
  inside it, ``heap_events_per_beat`` (a pulse and a close per honest
  node, one adversary phase; arrivals are decided, not scheduled) and
  ``delay_draws_per_beat`` (zero: no draw could have decided anything)
  — so a silent return to one event and one draw per copy trips the
  gate without reading a clock.  Under the equivocator a fourth,
  ``tallies_per_beat``: the rules of Figures 2 and 4 run once per
  distinct inbox *object*, so it follows the classes of receivers the
  message plane hands out and moves if the event path goes back to one
  grouping per receiver.
* **ungated wall-clock** — the pulse-barrier runtime
  (``run_runtime(..., sync="pulse")``) on LocalTransport: measured max
  pulse skew in milliseconds and real convergence time.  Hardware-noisy,
  so ungated; correctness (convergence, zero pulse timeouts on a healthy
  run) is enforced through ``failures`` instead.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult
from repro.bench.suites._common import counted_rules

#: Drift case: slow enough (rho=0.005 over 40 beats of period 1.0 with
#: delays in [0, 0.1]) that the slowest sender still beats the fastest
#: receiver's close — no late messages, deterministic convergence.
_DRIFT_CASE = {
    "n": 4,
    "f": 1,
    "beats": 40,
    "seed": 0,
    "rho": 0.005,
    "delay_bounds": (0.0, 0.1),
    "pulse_period": 1.0,
}


def _factory():
    from repro.coin.oracle import OracleCoin
    from repro.core.clock_sync import SSByzClockSync

    return lambda _node_id: SSByzClockSync(8, lambda: OracleCoin())


def _adversary(name: str):
    if name == "none":
        return None
    if name == "equivocator":
        from repro.adversary.strategies import EquivocatorAdversary

        return EquivocatorAdversary()
    raise ValueError(f"unknown adversary {name!r}")


#: Horizon ``late_free_beats`` is asked about: far past the boundary.
_LATE_FREE_HORIZON = 1000


@contextmanager
def _event_counts():
    """Count the heap events pushed and the keyed delays drawn by the
    event-engine runs inside the block (the engine offers no seam for
    either, so the two methods are wrapped for the duration)."""
    from repro.net.events import EventHeap, KeyedDelays

    counts = {"heap": 0, "draws": 0}
    push, delay = EventHeap.push, KeyedDelays.delay

    def counted_push(heap, key, payload=None):
        counts["heap"] += 1
        push(heap, key, payload)

    def counted_delay(delays, *key):
        counts["draws"] += 1
        return delay(delays, *key)

    EventHeap.push, KeyedDelays.delay = counted_push, counted_delay
    try:
        yield counts
    finally:
        EventHeap.push, KeyedDelays.delay = push, delay


def _reference_digest(n: int, f: int, beats: int, seed: int, adversary: str) -> str:
    """sha256 of the lock-step reference engine's trace."""
    import hashlib

    from repro.net.simulator import Simulation
    from repro.net.trace import Tracer

    sim = Simulation(
        n,
        f,
        _factory(),
        adversary=_adversary(adversary),
        seed=seed,
        engine="reference",
    )
    tracer = Tracer(lambda root: root.clock_value)
    sim.add_monitor(tracer)
    sim.scramble()
    sim.run(beats)
    return hashlib.sha256(tracer.to_jsonl().encode("utf-8")).hexdigest()


def _event_digest(n: int, f: int, beats: int, seed: int, adversary: str) -> str:
    """sha256 of the event engine's trace at zero drift / zero delay."""
    import hashlib

    from repro.net.events import run_continuous

    result = run_continuous(
        n,
        f,
        _factory(),
        adversary=_adversary(adversary),
        seed=seed,
        beats=beats,
        rho=0.0,
        delay_bounds=(0.0, 0.0),
        pulse_period=1.0,
        k=8,
    )
    return hashlib.sha256(result.to_jsonl().encode("utf-8")).hexdigest()


def run(
    seeds: int = 10,
    digest_beats: int = 20,
    drift_beats: int = 40,
    runtime_beats: int = 24,
    pulse_period: float = 0.05,
) -> BenchOutcome:
    results = []
    failures = []
    tables = []

    # -- gated differential pin: event engine == reference engine ---------
    digest_lines = [f"{'adversary':<12} {'seeds':<8} matched"]
    for adversary in ("none", "equivocator"):
        matched = 0
        first_mismatch = None
        for seed in range(seeds):
            ref = _reference_digest(4, 1, digest_beats, seed, adversary)
            evt = _event_digest(4, 1, digest_beats, seed, adversary)
            if ref == evt:
                matched += 1
            elif first_mismatch is None:
                first_mismatch = seed
        fraction = matched / seeds
        results.append(
            BenchResult(
                benchmark="pulse_precision",
                metric="trace_match",
                value=fraction,
                unit="match",
                scenario={
                    "engine": "event",
                    "adversary": adversary,
                    "n": 4,
                    "f": 1,
                    "seeds": seeds,
                },
                direction="higher",
                gated=True,  # simulation-deterministic: exact at any tier
            )
        )
        digest_lines.append(f"{adversary:<12} 0..{seeds - 1:<5} {matched}/{seeds}")
        if fraction < 1.0:
            failures.append(
                f"event engine diverged from the reference engine at zero "
                f"drift / zero delay (adversary={adversary}, first "
                f"mismatching seed {first_mismatch}) — the differential "
                "pin is broken"
            )
    tables.append(("pulse_trace_digests", "\n".join(digest_lines)))

    # -- gated drift metrics: keyed draws make these exact -----------------
    from repro.net.events import ContinuousSimulation

    case = dict(_DRIFT_CASE, beats=drift_beats)
    drift_lines = [
        f"{'adversary':<12} {'converged':>9} | {'max skew':>9} | "
        f"{'late':>4} | {'late-free':>9} | {'events/beat':>11} | draws/beat"
    ]
    for adversary in ("none", "equivocator"):
        simulation = ContinuousSimulation(
            case["n"],
            case["f"],
            _factory(),
            adversary=_adversary(adversary),
            seed=case["seed"],
            rho=case["rho"],
            delay_bounds=case["delay_bounds"],
            pulse_period=case["pulse_period"],
        )
        simulation.scramble()
        with _event_counts() as counts, counted_rules(Counter()) as tally:
            result = simulation.run(case["beats"], k=8)
        late_free = simulation.late_free_beats(_LATE_FREE_HORIZON)
        events_per_beat = counts["heap"] / case["beats"]
        draws_per_beat = counts["draws"] / case["beats"]
        scenario = {
            "n": case["n"],
            "f": case["f"],
            "rho": case["rho"],
            "delay": "0-0.1",
            "adversary": adversary,
        }
        if result.converged_beat is None:
            failures.append(
                f"drifting-clock run (adversary={adversary}, "
                f"rho={case['rho']}) failed to converge in "
                f"{case['beats']} beats"
            )
        if result.late_messages:
            failures.append(
                f"drifting-clock run (adversary={adversary}) dropped "
                f"{result.late_messages} late messages — the horizon "
                "arithmetic no longer clears the drift envelope"
            )
        results.append(
            BenchResult(
                benchmark="pulse_precision",
                metric="converged_beat",
                value=float(
                    result.converged_beat
                    if result.converged_beat is not None
                    else case["beats"]
                ),
                unit="beats",
                scenario=scenario,
                direction="lower",
                gated=True,  # keyed draws: deterministic at any tier
            )
        )
        results.append(
            BenchResult(
                benchmark="pulse_precision",
                metric="max_pulse_skew",
                value=result.max_pulse_skew,
                unit="time units",
                scenario=scenario,
                direction="lower",
                gated=True,
            )
        )
        counts_of_the_case = [
            ("late_free_beats", float(late_free), "beats", "higher"),
            ("heap_events_per_beat", events_per_beat, "events/beat", "lower"),
            ("delay_draws_per_beat", draws_per_beat, "draws/beat", "lower"),
        ]
        if adversary == "equivocator":
            counts_of_the_case.append((
                "tallies_per_beat", sum(tally.values()) / case["beats"],
                "tallies/beat", "lower",
            ))
        for metric, value, unit, direction in counts_of_the_case:
            results.append(
                BenchResult(
                    benchmark="pulse_precision",
                    metric=metric,
                    value=value,
                    unit=unit,
                    scenario=scenario,
                    direction=direction,
                    gated=True,  # counts, not clocks: exact at any tier
                )
            )
        drift_lines.append(
            f"{adversary:<12} {str(result.converged_beat):>9} | "
            f"{result.max_pulse_skew:>9.4f} | {result.late_messages:>4} | "
            f"{late_free:>9} | {events_per_beat:>11.2f} | {draws_per_beat:.2f}"
        )
    tables.append(("pulse_drift_metrics", "\n".join(drift_lines)))

    # -- ungated wall-clock: pulse-barrier runtime skew ---------------------
    from repro.runtime import run_runtime

    runtime_lines = [
        f"{'rho':>6} | {'skew ms':>8} | {'conv s':>7} | timeouts"
    ]
    for rho in (0.0, 0.01):
        result = run_runtime(
            4,
            1,
            _factory(),
            adversary=_adversary("equivocator"),
            seed=0,
            beats=runtime_beats,
            transport="local",
            k=8,
            sync="pulse",
            pulse_period=pulse_period,
            rho=rho,
        )
        scenario = {
            "transport": "local",
            "sync": "pulse",
            "n": 4,
            "f": 1,
            "rho": rho,
        }
        if result.converged_beat is None:
            failures.append(
                f"pulse-barrier runtime (rho={rho}) failed to converge "
                f"in {runtime_beats} beats"
            )
        if result.late_messages or result.malformed_frames:
            failures.append(
                f"pulse-barrier runtime (rho={rho}) saw "
                f"{result.late_messages} late / "
                f"{result.malformed_frames} malformed frames on "
                "LocalTransport — the pulse barrier is dropping traffic"
            )
        skew_ms = (result.pulse_skew_s or 0.0) * 1e3
        results.append(
            BenchResult(
                benchmark="pulse_precision",
                metric="pulse_skew_ms",
                value=skew_ms,
                unit="ms",
                scenario=scenario,
                direction="lower",
                gated=False,  # wall-clock: too noisy for CI gating
            )
        )
        results.append(
            BenchResult(
                benchmark="pulse_precision",
                metric="beats_per_sec",
                value=result.beats_per_sec,
                unit="beats/s",
                scenario=scenario,
                direction="higher",
                gated=False,
            )
        )
        runtime_lines.append(
            f"{rho:>6.3f} | {skew_ms:>8.3f} | "
            f"{result.converged_time_s if result.converged_time_s is not None else float('nan'):>7.3f} | "
            f"{result.pulse_timeouts}"
        )
    tables.append(("pulse_runtime_skew", "\n".join(runtime_lines)))

    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=tuple(tables),
    )


register(
    Benchmark(
        name="pulse_precision",
        tier="smoke",
        runner=run,
        params={
            "seeds": 10,
            "digest_beats": 20,
            "drift_beats": 40,
            "runtime_beats": 24,
            "pulse_period": 0.05,
        },
        tier_params={
            "smoke": {
                "seeds": 3,
                "digest_beats": 12,
                "drift_beats": 24,
                "runtime_beats": 12,
            },
        },
        description="continuous-time event engine pinned bit-identical "
                    "to the reference engine at zero drift/delay (gated "
                    "digest-match per adversary), deterministic "
                    "drifting-clock convergence and skew metrics, and "
                    "the pulse-barrier runtime's wall-clock skew on "
                    "LocalTransport",
    )
)
