"""The child side of the beat ledger: measure one workload, in-process.

``run.py`` starts one interpreter per workload and calls
:func:`measure` in it.  An untraced run is: set up several times, run
one gauged leg, read the peak resident set, check the outputs (which
runs the ``FastEngine`` reference leg where there is one).  A traced run
splits the window: an untraced half for the diagnostics, a traced half
under the shims for the per-layer numbers, and the two traces must be
equal.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import pathlib
import resource
import statistics

import spans
from gauge import Gauge
from paths import DRIVERS, sim_leg
from workloads import PINNED_SEED0, PIN_OPS, WORKLOADS, scaled

__all__ = ["measure"]

RESULTS = pathlib.Path(__file__).resolve().parent / "results"

#: ``ledger.unattributed_pct`` above this fails a traced run on the
#: single-process paths, where the spans should account for the wall.
MAX_UNATTRIBUTED_PCT = 15.0
CLOSED_PATHS = ("sim", "runtime", "events")
#: Paths whose whole trace must equal the lock-step simulator's.
LIVE_PATHS = ("runtime", "cluster")


def digest(lines: "list[str]") -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def percentile(values: "list[float]", share: float) -> float:
    """Nearest-rank percentile: ``share`` of the sample is at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _throughput(leg, setup_s: float) -> float:
    """Steady-state beats per second of one leg."""
    if leg.segment_rates:
        return statistics.median(leg.segment_rates)
    # A cluster run is one call with no per-beat seam: steady state is
    # what remains once a one-beat run's cost (spawn, address exchange,
    # merge) is taken off.
    wall_s = leg.wall_s / leg.slowdown
    if leg.ops > 1 and wall_s > setup_s:
        return (leg.ops - 1) / (wall_s - setup_s)
    return leg.ops / wall_s


def _beat_ms(leg, rate: float) -> float:
    """Median steady beat time (the mean where the path has no per-beat
    seam)."""
    steady = leg.steady()
    return 1e3 * statistics.median(steady) if steady else 1e3 / rate


def _gauged_setup(driver, workload, seed: int, gauge) -> float:
    """One fresh set-up, at reference machine speed."""
    # The previous build is cyclic garbage by now; collected during this
    # one it would double some set-ups' time (measured at n=1024: the
    # fifteen set-ups' quartiles 55% apart without this line, 12% with).
    gc.collect()
    started = gauge.sample()
    raw_s = driver.setup(workload, seed)
    ended = started + raw_s
    gauge.sample()
    return raw_s / gauge.slowdown(started, ended)


def _diagnostics(workload, leg, reference, rate: float) -> dict:
    """What the untraced leg shows beyond the end-to-end metrics."""
    values = {
        "ledger.stabilize_beats": leg.stabilize or 0.0,
        "ledger.machine_slowdown_x": leg.slowdown,
    }
    steady = leg.steady()
    if steady:
        values["beat.ms_p50"] = 1e3 * statistics.median(steady)
        values["beat.ms_p90"] = 1e3 * percentile(steady, 0.9)
        values["beat.samples"] = len(steady)
    if workload.path == "campaign":
        values["analysis.trials_per_s"] = leg.ops * leg.slowdown / leg.wall_s
    if workload.path in LIVE_PATHS:
        # Live ms/beat over FastEngine ms/beat on the identical scenario.
        values["ledger.overhead_x"] = (1e3 / rate) / (
            1e3 * statistics.median(reference.steady())
        )
    return values


def _verify(workload, seed: int, leg, smoke: bool, gauge):
    """Output checks of one untraced leg: (failures, reference leg)."""
    failures = []
    if leg.stabilize is None:
        failures.append("never reached Definition 3.2 convergence + closure")
    if seed == 0 and digest(leg.pin_lines) != PINNED_SEED0[workload.name]:
        failures.append("seed-0 trace prefix differs from the pinned digest")
    if workload.path in LIVE_PATHS:
        beats = leg.ops
    elif smoke:
        beats = -(-workload.reference_beats // 4)
    else:
        beats = workload.reference_beats
    reference = None
    if beats:
        reference = sim_leg(workload, seed, beats, gauge, engine="fast")
        if reference.lines != leg.lines[:beats]:
            failures.append(
                f"first {beats} beats differ from the FastEngine reference leg"
            )
    return failures, reference


def _layer_values(workload, leg, untraced_ms: float, traced_ms: float) -> dict:
    """Per-layer metrics from what the ledger gained during one leg."""
    gained = leg.ledger
    beats = leg.beats
    trials = leg.ops if workload.path == "campaign" else 0
    waiters = DRIVERS[workload.path].waiters(workload)
    workers = workload.processes if workload.path == "campaign" else 1

    def ms(key: str, per: int) -> float:
        return gained[key] / 1e6 / leg.slowdown / per if per else 0.0

    def each(key: str, per: int) -> float:
        return gained[key] / per if per else 0.0

    wall_ns = leg.wall_s * 1e9 * workers
    values = {
        "core.send_ms_per_beat": ms("self:core.send", beats),
        "core.update_ms_per_beat": ms("self:core.update", beats),
        "core.calls_per_beat": each("calls:core.send", beats)
        + each("calls:core.update", beats),
        "coin.ms_per_beat": ms("self:coin", beats),
        # send_round and update_round are both spans: two per round.
        "coin.rounds_per_beat": each("calls:coin", beats) / 2,
        "coin.msgs_per_beat": each("coin.msgs", beats),
        "adversary.craft_ms_per_beat": ms("self:adversary", beats),
        "adversary.msgs_per_beat": each("adversary.msgs", beats),
        "engine.self_ms_per_beat": ms("self:engine", beats),
        "bulk.send_ms_per_beat": ms("self:bulk.send", beats),
        "bulk.update_ms_per_beat": ms("self:bulk.update", beats),
        "bulk.vectorized": leg.vectorized,
        "bulk.bind_ms": leg.bind_ns / 1e6 + ms("self:bulk.bind", 1),
        "linkmodel.classify_ms_per_trial": ms("self:linkmodel", trials),
        "linkmodel.classify_calls_per_trial": each("calls:linkmodel", trials),
        "linkmodel.dropped_per_trial": each("linkmodel.dropped", trials),
        "events.heap_ms_per_beat": ms("self:events.heap", beats),
        "events.heap_ops_per_beat": each("calls:events.heap", beats),
        "events.sync_ms_per_beat": ms("self:events.sync", beats),
        "events.loop_ms_per_beat": ms("self:events.loop", beats),
        "codec.encode_ms_per_beat": ms("self:codec.encode", beats),
        "codec.decode_ms_per_beat": ms("self:codec.decode", beats),
        "codec.units_per_beat": each("codec.units", beats),
        "codec.bytes_per_beat": each("codec.bytes", beats),
        "transport.send_ms_per_beat": ms("self:transport.send", beats),
        "transport.recv_ms_per_beat": ms("self:transport.recv", beats),
        # Waiting overlaps other nodes' work: it is a mean per node, and
        # is never summed into the busy ledger.
        "transport.recv_wait_ms_per_beat": ms(
            "wait:transport.recv", beats * waiters
        ),
        "transport.units_per_beat": each("transport.units", beats),
        "sync.busy_ms_per_beat": ms("self:sync", beats),
        "sync.wait_ms_per_beat": ms("wait:sync", beats * waiters),
        "runtime.node_ms_per_beat": ms("self:runtime.node", beats),
        "analysis.build_ms_per_trial": ms("self:analysis.build", trials),
        "analysis.run_ms_per_trial": ms("self:analysis.run", trials),
        # Share of the pool's capacity spent inside trials.
        "analysis.pool_efficiency": (
            gained["attributed"] / wall_ns if trials else 0.0
        ),
        "ledger.unattributed_pct": 100.0 * (1.0 - gained["attributed"] / wall_ns),
        "ledger.tracing_overhead_pct": 100.0 * (traced_ms / untraced_ms - 1.0),
    }
    if workload.path in ("sim", "campaign"):
        values["engine.msgs_per_beat"] = leg.counts["messages"] / beats
    return values


def _counter_values(workload, leg, setup_s: float, rate: float) -> dict:
    """Per-layer metrics that come from a result's own counters."""
    counts = leg.counts
    values = {}
    if workload.path == "cluster":
        values = {
            "orchestrator.setup_s": setup_s,
            "orchestrator.steady_ms_per_beat": 1e3 / rate,
            "orchestrator.frames_per_beat": counts["frames"] / leg.ops,
            "orchestrator.msgs_per_beat": counts["messages"] / leg.ops,
            # No span reaches a spawned worker.
            "ledger.unattributed_pct": 100.0,
        }
    if "timeouts" in counts:
        values["sync.timeouts"] = counts["timeouts"]
        values["sync.late"] = counts["late"]
    elif "late" in counts:
        values["events.late_per_beat"] = counts["late"] / leg.ops
    return values


def _trace(
    workload, driver, seed: int, ops: int, leg, rate: float, values: dict
) -> list:
    """Repeat ``leg`` under the shims; add the per-layer metrics to
    ``values``, write the spans out, and return what failed."""
    ledger = spans.Ledger()
    gauge = Gauge()
    if driver.gauge_in_spans:
        gauge.sample = ledger.span("gauge", gauge.sample)
    shims = spans.install_shims(ledger)
    try:
        traced = driver.leg(workload, seed, ops, gauge, ledger)
    finally:
        shims.remove()
    values.update(
        _layer_values(
            workload, traced,
            _beat_ms(leg, rate), _beat_ms(traced, _throughput(traced, 0.0)),
        )
    )
    _write_trace(workload.name, seed, traced, ledger)
    failures = []
    if traced.lines != leg.lines:
        failures.append("traced trace differs from the untraced one")
    unattributed = values["ledger.unattributed_pct"]
    if workload.path in CLOSED_PATHS and unattributed > MAX_UNATTRIBUTED_PCT:
        failures.append(
            f"ledger.unattributed_pct {unattributed:.1f} exceeds "
            f"{MAX_UNATTRIBUTED_PCT:.0f}"
        )
    return failures


def measure(
    name: str, seed: int, seconds: float, smoke: bool, traced: bool
) -> dict:
    """Run one workload in this process; return its full result."""
    workload = WORKLOADS[name]
    driver = DRIVERS[workload.path]
    gauge = Gauge()
    ops = scaled(workload.size, seconds, smoke, floor=PIN_OPS)
    # No shim reaches a cluster's spawned workers: its traced run is an
    # untraced one.  Elsewhere a traced run halves the window: the
    # untraced half gives the diagnostics and the tracing-overhead base,
    # and its trace is what the traced half must reproduce.
    with_spans = traced and workload.path != "cluster"
    setup_s = 0.0
    if with_spans:
        ops = max(PIN_OPS, ops // 2)
    else:
        setup_s = statistics.median(
            _gauged_setup(driver, workload, seed, gauge)
            for _ in range(driver.setup_repeats)
        )
    gc.collect()
    leg = driver.leg(workload, seed, ops, gauge)
    rate = _throughput(leg, setup_s)
    values = {
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
        "beats_per_s": rate,
        "beats_per_cpu_s": statistics.median(leg.cpu_rates),
    }
    failures, reference = _verify(workload, seed, leg, smoke, gauge)
    values.update(_diagnostics(workload, leg, reference, rate))
    values.update(_counter_values(workload, leg, setup_s, rate))
    if with_spans:
        failures += _trace(workload, driver, seed, ops, leg, rate, values)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": traced,
        "correct": not failures and not leg.failed_ops,
        "failures": failures,
        "ops": leg.ops,
        # A run whose output is wrong has no good operations.
        "failed_ops": leg.ops if failures else leg.failed_ops,
        "digest": digest(leg.lines),
        "pin_digest": digest(leg.pin_lines),
        "counts": leg.counts,
        "values": values,
    }


def _write_trace(name: str, seed: int, leg, ledger) -> None:
    """The traced leg's spans and per-layer totals, kept in memory until
    now, to ``results/<workload>.trace.json``."""
    origin = ledger.spans[0][1] if ledger.spans else 0
    RESULTS.mkdir(exist_ok=True)
    document = {
        "workload": name,
        "seed": seed,
        "ops": leg.ops,
        "beats": leg.beats,
        "wall_ms": leg.wall_s * 1e3,
        "totals": leg.ledger,
        "layers": list(spans.LAYERS),
        "span_fields": ["layer", "start_ns", "end_ns", "parent"],
        "spans": [
            [index, start - origin, end - origin, parent]
            for index, start, end, parent in ledger.spans
        ],
    }
    path = RESULTS / f"{name}.trace.json"
    path.write_text(json.dumps(document), encoding="utf-8")
