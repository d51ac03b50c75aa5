"""Live-runtime throughput: beats/sec and messages/sec per wire codec.

Times :func:`~repro.runtime.runner.run_runtime` driving the full
ss-Byz-Clock-Sync stack (oracle coin, scrambled start, fault-free) as
concurrent asyncio tasks with in-process queue delivery, across a size
matrix *and* across the codec registry — ``json`` is the per-message
differential reference, ``binary`` the batched fast path — so one table
prices the round barrier, each wire format, and the batching win against
the lock-step simulator's batch beats.

Wall-clock rates are hardware-noisy, so the throughput metrics are
``gated=False``; the *determinism* is gated instead, three ways:

* gated ``encodes_per_beat`` / ``decodes_per_beat`` counts —
  ``encode_batch`` / ``decode_batch`` calls per beat on the (fault-free,
  pure-broadcast) digest case: n on ``binary``, one per sender (one per
  distinct unit on ``json``), where per-link encoding or per-receiver
  decoding would make n² — so the gate catches a silent return to
  either without reading a clock;
* a correctness guard — zero-delay local delivery must never time a
  barrier out nor drop a late or malformed frame, on any codec;
* gated ``trace_match`` digests — the sha256 of each codec's runtime
  trace pinned against the lock-step simulator's trace for the same
  seed, the same simulation-deterministic discipline the ``engines``
  suite gates its trajectory digests with.
"""

from __future__ import annotations

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult

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


def _run_once(
    n: int, f: int, beats: int, seed: int, codec, telemetry: bool = False
):
    from repro.runtime import run_runtime

    kwargs = {}
    if telemetry:
        from repro.obs import FlightRecorder, MetricsRegistry

        kwargs = {"metrics": MetricsRegistry(), "recorder": FlightRecorder()}
    return run_runtime(
        n,
        f,
        _factory(),
        seed=seed,
        beats=beats,
        transport="local",
        codec=codec,
        k=8,
        **kwargs,
    )


def _simulator_digest() -> str:
    """sha256 of the lock-step simulator's trace for the digest case."""
    import hashlib

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
    return hashlib.sha256(tracer.to_jsonl().encode("utf-8")).hexdigest()


def _render(rows: list[dict]) -> str:
    lines = [
        f"{'system':<12} | {'codec':<7} | {'beats/s':>9} | {'msgs/s':>10} "
        f"| {'wire units':>10} | messages",
        "-" * 74,
    ]
    for row in rows:
        lines.append(
            f"n={row['n']:<3} f={row['f']:<3}  | "
            f"{row['codec']:<7} | "
            f"{row['beats_per_sec']:>9.1f} | "
            f"{row['messages_per_sec']:>10.0f} | "
            f"{row['frames_sent']:>10} | "
            f"{row['messages_sent']}"
        )
    return "\n".join(lines)


def run(
    sizes=((4, 1), (8, 2), (16, 5), (32, 10)),
    codecs=("json", "binary"),
    beats: int = 40,
    repeats: int = 3,
    seed: int = 0,
) -> BenchOutcome:
    rows = []
    failures = []
    for n, f in sizes:
        for codec in codecs:
            best = None
            for _ in range(repeats):
                result = _run_once(n, f, beats, seed, codec)
                if (
                    result.barrier_timeouts
                    or result.late_messages
                    or result.malformed_frames
                ):
                    failures.append(
                        f"zero-delay local runtime at n={n} codec={codec} "
                        f"saw {result.barrier_timeouts} barrier timeouts / "
                        f"{result.late_messages} late / "
                        f"{result.malformed_frames} malformed — the "
                        "determinism contract is broken"
                    )
                if best is None or result.elapsed_s < best.elapsed_s:
                    best = result
            rows.append(
                {
                    "n": n,
                    "f": f,
                    "codec": codec,
                    "beats_timed": beats,
                    "beats_per_sec": best.beats_per_sec,
                    "messages_per_sec": best.messages_per_sec,
                    "messages_sent": best.messages_sent,
                    "frames_sent": best.frames_sent,
                }
            )
    results = []
    for row in rows:
        scenario = {
            "transport": "local",
            "codec": row["codec"],
            "n": row["n"],
            "f": row["f"],
        }
        results.append(
            BenchResult(
                benchmark="runtime_throughput",
                metric="beats_per_sec",
                value=row["beats_per_sec"],
                unit="beats/s",
                scenario=scenario,
                direction="higher",
                gated=False,  # wall-clock: too noisy for CI gating
            )
        )
        results.append(
            BenchResult(
                benchmark="runtime_throughput",
                metric="messages_per_sec",
                value=row["messages_per_sec"],
                unit="msgs/s",
                scenario=scenario,
                direction="higher",
                gated=False,
            )
        )

    # -- gated trace digests: simulation-deterministic at every tier -------
    import hashlib

    case = _DIGEST_CASE
    reference = _simulator_digest()
    digest_lines = [f"{'codec':<8} {'digest':<20} verdict"]
    for codec in codecs:
        counting = _counting(codec)
        result = _run_once(
            case["n"], case["f"], case["beats"], case["seed"], counting
        )
        for count in ("encodes", "decodes"):
            results.append(
                BenchResult(
                    benchmark="runtime_throughput",
                    metric=f"{count}_per_beat",
                    value=getattr(counting, count) / case["beats"],
                    unit=f"{count}/beat",
                    scenario={"transport": "local", "codec": codec,
                              "n": case["n"], "f": case["f"]},
                    direction="lower",
                    gated=True,  # a count, not a clock: exact at any tier
                )
            )
        digest = hashlib.sha256(
            result.to_jsonl().encode("utf-8")
        ).hexdigest()
        match = 1.0 if digest == reference else 0.0
        results.append(
            BenchResult(
                benchmark="runtime_throughput",
                metric="trace_match",
                value=match,
                unit="match",
                scenario={"transport": "local", "codec": codec,
                          "n": case["n"], "f": case["f"]},
                direction="higher",
                gated=True,  # simulation-deterministic: exact at any tier
            )
        )
        digest_lines.append(
            f"{codec:<8} {digest[:16]}…    "
            f"{'match' if match else 'MISMATCH'}"
        )
        if not match:
            failures.append(
                f"runtime codec {codec!r} diverged from the simulator "
                f"trace on the digest case (n={case['n']}, "
                f"seed={case['seed']})"
            )

    # -- telemetry parity: instrumentation must not perturb (gated digest)
    # nor meaningfully slow the run (soft throughput guard + ungated rate).
    # The guard's two legs are taken alternately, best of >= 3 each at
    # every tier: a single telemetry run against a plain one measured
    # several benches earlier compares two heap states, not two runtimes.
    tele_n, tele_f = 16, 5
    for codec in codecs:
        legs = {False: [], True: []}
        for _ in range(max(3, repeats)):
            for telemetry in (False, True):
                legs[telemetry].append(_run_once(
                    tele_n, tele_f, beats, seed, codec, telemetry=telemetry
                ))
        plain, observed = (
            min(legs[telemetry], key=lambda result: result.elapsed_s)
            for telemetry in (False, True)
        )
        results.append(
            BenchResult(
                benchmark="runtime_throughput",
                metric="messages_per_sec",
                value=observed.messages_per_sec,
                unit="msgs/s",
                scenario={"transport": "local", "codec": codec,
                          "n": tele_n, "f": tele_f, "telemetry": "on"},
                direction="higher",
                gated=False,  # wall-clock: too noisy for CI gating
            )
        )
        if observed.messages_per_sec < 0.75 * plain.messages_per_sec:
            failures.append(
                f"telemetry-enabled runtime at n={tele_n} codec={codec} "
                f"ran at {observed.messages_per_sec:.0f} msgs/s vs "
                f"{plain.messages_per_sec:.0f} plain — instrumentation "
                "overhead exceeds the near-zero budget"
            )
        tele_result = _run_once(
            case["n"], case["f"], case["beats"], case["seed"], codec,
            telemetry=True,
        )
        tele_digest = hashlib.sha256(
            tele_result.to_jsonl().encode("utf-8")
        ).hexdigest()
        tele_match = 1.0 if tele_digest == reference else 0.0
        results.append(
            BenchResult(
                benchmark="runtime_throughput",
                metric="trace_match",
                value=tele_match,
                unit="match",
                scenario={"transport": "local", "codec": codec,
                          "n": case["n"], "f": case["f"],
                          "telemetry": "on"},
                direction="higher",
                gated=True,  # no-perturbation invariant: exact at any tier
            )
        )
        digest_lines.append(
            f"{codec + '+obs':<8} {tele_digest[:16]}…    "
            f"{'match' if tele_match else 'MISMATCH'}"
        )
        if not tele_match:
            failures.append(
                f"telemetry-enabled runtime codec {codec!r} diverged from "
                f"the simulator trace on the digest case — instrumentation "
                "perturbed the trajectory"
            )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(
            ("runtime_throughput", _render(rows)),
            ("runtime_trace_digests", "\n".join(digest_lines)),
        ),
    )


register(
    Benchmark(
        name="runtime_throughput",
        tier="smoke",
        runner=run,
        params={
            "sizes": ((4, 1), (8, 2), (16, 5), (32, 10)),
            "codecs": ("json", "binary"),
            "beats": 40,
            "repeats": 3,
        },
        tier_params={
            "smoke": {
                "sizes": ((4, 1), (16, 5)),
                "beats": 12,
                "repeats": 1,
            },
        },
        description="live-runtime beats/sec and messages/sec per wire "
                    "codec on LocalTransport, with gated trace digests "
                    "against the lock-step simulator (bare and "
                    "telemetry-enabled — the no-perturbation invariant)",
    )
)
