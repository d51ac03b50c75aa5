"""Live runtime against the simulator: trace digests and codec counts.

Runs :func:`~repro.runtime.runner.run_runtime` driving the full
ss-Byz-Clock-Sync stack (oracle coin, scrambled start, fault-free) as
concurrent asyncio tasks with in-process queue delivery, once per codec
in the registry — ``json`` is the per-message differential reference,
``binary`` the batched fast path — bare and with telemetry on.  What it
pins is deterministic, three ways:

* ``encodes_per_beat`` / ``decodes_per_beat`` counts —
  ``encode_batch`` / ``decode_batch`` calls per beat on the (fault-free,
  pure-broadcast) digest case: n on ``binary``, one per sender (one per
  distinct unit on ``json``), where per-link encoding or per-receiver
  decoding would make n² — so the gate catches a silent return to
  either without reading a clock;
* a correctness check on every run — zero-delay local delivery must
  never time a barrier out nor drop a late or malformed frame;
* ``trace_match`` digests — the sha256 of each codec's runtime trace,
  bare and telemetry-enabled (the no-perturbation invariant), pinned
  against the lock-step simulator's trace for the same seed, the same
  discipline the ``engines`` suite pins its trajectory digests with.

How fast the live runtime runs is the beat ledger's question
(``rt-local``, ``cluster-tcp``), not this suite's.
"""

from __future__ import annotations

import hashlib

from repro.bench.suites._common import pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"smoke": {}, "full": {}, "nightly": {}}

#: The digest case: small enough to be free at every tier, adversarial
#: enough (scrambled start) to catch any codec- or barrier-level drift.
_DIGEST_CASE = {"n": 4, "f": 1, "beats": 20, "seed": 0}


def _factory():
    from repro.coin.oracle import OracleCoin
    from repro.core.clock_sync import SSByzClockSync

    return lambda _node_id: SSByzClockSync(8, lambda: OracleCoin())


def _counting(codec: str):
    """The registered ``codec`` behind a count of ``encode_batch`` and
    ``decode_batch`` calls."""
    from repro.runtime.codec import Codec, resolve_codec

    inner = resolve_codec(codec)

    class Counting(Codec):
        name, batched = inner.name, inner.batched
        encodes = decodes = 0

        def encode_batch(self, frames):
            self.encodes += 1
            return inner.encode_batch(frames)

        def decode_batch(self, data):
            self.decodes += 1
            return inner.decode_batch(data)

    return Counting()


def _run_digest_case(codec, telemetry: bool = False):
    from repro.runtime import run_runtime

    kwargs = {}
    if telemetry:
        from repro.obs import FlightRecorder, MetricsRegistry

        kwargs = {"metrics": MetricsRegistry(), "recorder": FlightRecorder()}
    case = _DIGEST_CASE
    return run_runtime(
        case["n"],
        case["f"],
        _factory(),
        seed=case["seed"],
        beats=case["beats"],
        transport="local",
        codec=codec,
        k=8,
        **kwargs,
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _simulator_digest() -> str:
    """sha256 of the lock-step simulator's trace for the digest case."""
    from repro.net.simulator import Simulation
    from repro.net.trace import Tracer

    case = _DIGEST_CASE
    sim = Simulation(
        case["n"], case["f"], _factory(), seed=case["seed"]
    )
    tracer = Tracer(lambda root: root.clock_value)
    sim.add_monitor(tracer)
    sim.scramble()
    sim.run(case["beats"])
    return _sha(tracer.to_jsonl())


def run(codecs=("json", "binary")) -> tuple:
    case = _DIGEST_CASE
    reference = _simulator_digest()
    pins = {}
    failures = []
    digest_lines = [f"{'codec':<8} {'digest':<20} verdict"]
    for telemetry in (False, True):
        for codec in codecs:
            scenario = {"transport": "local", "codec": codec,
                        "n": case["n"], "f": case["f"]}
            label = codec
            if telemetry:
                result = _run_digest_case(codec, telemetry=True)
                scenario["telemetry"] = "on"
                label += "+obs"
            else:
                counting = _counting(codec)
                result = _run_digest_case(counting)
                for count in ("encodes", "decodes"):
                    pin(pins, f"runtime_throughput/{count}_per_beat",
                        getattr(counting, count) / case["beats"],
                        f"{count}/beat", **scenario)
            if (
                result.barrier_timeouts
                or result.late_messages
                or result.malformed_frames
            ):
                failures.append(
                    f"zero-delay local runtime ({label}) saw "
                    f"{result.barrier_timeouts} barrier timeouts / "
                    f"{result.late_messages} late / "
                    f"{result.malformed_frames} malformed — the "
                    "determinism contract is broken"
                )
            digest = _sha(result.to_jsonl())
            match = 1.0 if digest == reference else 0.0
            pin(pins, "runtime_throughput/trace_match", match, "match",
                **scenario)
            digest_lines.append(
                f"{label:<8} {digest[:16]}…    "
                f"{'match' if match else 'MISMATCH'}"
            )
            if not match:
                failures.append(
                    f"runtime ({label}) diverged from the simulator trace "
                    f"on the digest case (n={case['n']}, "
                    f"seed={case['seed']})"
                    + (" — instrumentation perturbed the trajectory"
                       if telemetry else "")
                )
    return pins, failures, {"runtime_trace_digests": "\n".join(digest_lines)}
