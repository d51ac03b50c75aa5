"""Continuous-time pulse precision: the continuous run's differential pin,
its drifting-clock metrics and the pulse-barrier runtime's health.

Three families, every pinned value deterministic:

* **``trace_match``** — the load-bearing differential pin.  At
  zero drift and zero delay a continuous run
  (:class:`~repro.net.events.ContinuousSimulation`) must replay the
  lock-step :class:`~repro.net.simulator.Simulation` (reference engine)
  bit-identically: same seeds, same scramble, same adversary, same JSONL
  trace bytes.  One digest-match fraction per adversary over the seed
  range (1.0 = every seed matched).
* **drift metrics** — a drifting-clock bounded-delay run is still
  simulation-deterministic (every draw is keyed), so its convergence
  beat and max pulse skew are pinned exactly like the ``engines``
  suite's trajectory digests.  Two counts ride along, for the same
  case: ``late_free_beats`` (how long nothing *can* be late — the
  boundary ROADMAP 1c asks to locate), and what the run cost while
  inside it, ``delay_draws_per_beat`` (zero: no draw could have decided
  anything) — so a silent return to one draw per copy trips the gate
  without reading a clock.  Under the equivocator a third,
  ``tallies_per_beat``: the rules of Figures 2 and 4 run once per
  distinct inbox *object*, so it follows the classes of receivers the
  message plane hands out and moves if a drifting run goes back to one
  grouping per receiver.
* **live checks, no rows** — the pulse-barrier runtime
  (``run_runtime(..., sync="pulse")``) on LocalTransport must converge
  and drop no late or malformed frame, enforced through ``failures``.
  Its skew is real seconds, so it is not pinned here.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from repro.bench.suites._common import counted_rules, pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {
    "smoke": {
        "seeds": 3, "digest_beats": 12, "drift_beats": 24, "runtime_beats": 12,
    },
    "full": {},
    "nightly": {},
}

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
    """Count the keyed delays drawn by the continuous runs inside the
    block (the link offers no seam for it, so the method is wrapped for
    the duration)."""
    from repro.net.events import KeyedDelays

    counts = {"draws": 0}
    delay = KeyedDelays.delay

    def counted_delay(delays, *key):
        counts["draws"] += 1
        return delay(delays, *key)

    KeyedDelays.delay = counted_delay
    try:
        yield counts
    finally:
        KeyedDelays.delay = delay


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
    """sha256 of a continuous run's trace at zero drift / zero delay."""
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
) -> tuple:
    pins = {}
    failures = []
    tables = {}

    # -- differential pin: continuous run == reference engine --------------
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
        pin(pins, "pulse_precision/trace_match", fraction, "match",
            engine="event", adversary=adversary, n=4, f=1, seeds=seeds)
        digest_lines.append(f"{adversary:<12} 0..{seeds - 1:<5} {matched}/{seeds}")
        if fraction < 1.0:
            failures.append(
                f"continuous run diverged from the reference engine at zero "
                f"drift / zero delay (adversary={adversary}, first "
                f"mismatching seed {first_mismatch}) — the differential "
                "pin is broken"
            )
    tables["pulse_trace_digests"] = "\n".join(digest_lines)

    # -- drift metrics: keyed draws make these exact ----------------------
    from repro.net.events import ContinuousSimulation

    case = dict(_DRIFT_CASE, beats=drift_beats)
    drift_lines = [
        f"{'adversary':<12} {'converged':>9} | {'max skew':>9} | "
        f"{'late':>4} | {'late-free':>9} | draws/beat"
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
        pin(pins, "pulse_precision/converged_beat",
            result.converged_beat if result.converged_beat is not None
            else case["beats"], "beats", **scenario)
        pin(pins, "pulse_precision/max_pulse_skew", result.max_pulse_skew,
            "time units", **scenario)
        counts_of_the_case = [
            ("late_free_beats", float(late_free), "beats"),
            ("delay_draws_per_beat", draws_per_beat, "draws/beat"),
        ]
        if adversary == "equivocator":
            counts_of_the_case.append((
                "tallies_per_beat", sum(tally.values()) / case["beats"],
                "tallies/beat",
            ))
        for metric, value, unit in counts_of_the_case:
            pin(pins, f"pulse_precision/{metric}", value, unit, **scenario)
        drift_lines.append(
            f"{adversary:<12} {str(result.converged_beat):>9} | "
            f"{result.max_pulse_skew:>9.4f} | {result.late_messages:>4} | "
            f"{late_free:>9} | {draws_per_beat:.2f}"
        )
    tables["pulse_drift_metrics"] = "\n".join(drift_lines)

    # -- live pulse-barrier runtime: health checks only --------------------
    from repro.runtime import run_runtime

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

    return pins, failures, tables
