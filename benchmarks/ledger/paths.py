"""One driver per execution path: how a workload is set up and run.

Every driver reaches the repository through public entry points only —
``Simulation``, ``run_continuous``, ``run_runtime``, ``run_cluster``,
``run_campaign`` — and returns a :class:`Leg`: what one execution did
(the trace, exact counters) and how long each operation took, read from
outside.  Per-beat times come from wrapping ``Simulation.run_beat()`` or,
where a run is one call, from a ``probe=`` that stamps the clock and
returns the default probe's value; ``ClusterSpec`` has no such seam, so
a cluster leg has no per-beat times.

Every leg samples the machine's speed with a :class:`~gauge.Gauge`
between operations (from a thread while child processes do the work) and
reports its times at reference speed; see ``gauge.py`` for why.

A leg given a :class:`~spans.Ledger` is a *traced* leg: it passes the
ledger's seam wrappers in and reports what the ledger gained while the
operations ran.  The runner installs the shims around it.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import (
    ScenarioSpec,
    Simulation,
    coin_by_name,
    resolve_protocol,
    run_campaign,
    run_runtime,
)
from repro.analysis.campaign import ADVERSARY_REGISTRY
from repro.core.problem import converged_at
from repro.net.events import run_continuous
from repro.net.trace import Tracer, records_to_jsonl
from repro.runtime.codec import resolve_codec
from repro.runtime.orchestrator import ClusterSpec, run_cluster
from repro.runtime.transport import LocalTransport

import spans
from gauge import Gauge
from workloads import K, PIN_OPS, WARM_BEATS, Workload

__all__ = ["DRIVERS", "Driver", "Leg", "SEGMENTS"]

_now = time.perf_counter
_cpu = time.process_time


def _cpu_tree() -> float:
    """CPU seconds this process and its reaped children have used."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return _cpu() + children.ru_utime + children.ru_stime


#: Equal segments a window is cut into; a rate is the median over them.
SEGMENTS = 6


@dataclass
class Leg:
    """One execution of a workload's scenario."""

    #: Operations run: beats, or trials for a campaign.
    ops: int
    #: Beats run (== ``ops`` except for a campaign, where trials stop early).
    beats: int
    #: Wall time the operations took, seconds (for a campaign: summed
    #: over its segments; for a cluster: the whole ``run_cluster`` call).
    wall_s: float
    #: The trace, one line per operation.
    lines: list[str]
    #: Beat of Definition 3.2 convergence (mean over trials for a
    #: campaign); ``None`` if the run never stabilized.
    stabilize: "float | None"
    failed_ops: int = 0
    #: Per-beat durations in seconds, where the path has a seam for them:
    #: as timed, and at reference machine speed.
    beat_s: "list[float] | None" = None
    gauged_s: "list[float] | None" = None
    #: How slow the machine ran over the whole leg (1.0 = the reference).
    slowdown: float = 1.0
    #: Beats per second, and per CPU-second (all processes), of each
    #: equal segment.
    segment_rates: list[float] = field(default_factory=list)
    cpu_rates: list[float] = field(default_factory=list)
    #: Lines the pinned digest covers.
    pin_lines: list[str] = field(default_factory=list)
    #: Exact counters: equal across runs of one (seed, size).
    counts: dict = field(default_factory=dict)
    #: Traced legs: what the ledger gained while the operations ran, and
    #: (``sim``) how long ``BulkEngine.bind`` took before them.
    ledger: "dict | None" = None
    bind_ns: int = 0
    vectorized: int = 0

    def steady(self) -> list[float]:
        """Gauged per-beat durations after the warm-up beats."""
        gauged_s = self.gauged_s or []
        return gauged_s[min(WARM_BEATS, len(gauged_s) // 4):]


@dataclass(frozen=True)
class Driver:
    """How one execution path is set up, run, and cross-checked."""

    #: Seconds to build, scramble and run the shortest run the path
    #: allows (two warm beats; one beat on a cluster; one two-trial
    #: campaign) — what a user pays before the first steady beat.
    setup: Callable[[Workload, int], float]
    #: ``leg(workload, seed, ops, gauge, ledger=None)``.
    leg: Callable[..., Leg]
    #: Fresh builds ``setup_s`` is the median of.
    setup_repeats: int = 15
    #: Node tasks sharing the thread (waits are reported per node).
    waiters: Callable[[Workload], int] = lambda workload: 1
    #: Whether the gauge's samples are taken inside the program (from a
    #: probe), and so inside the traced run's spans.
    gauge_in_spans: bool = False


def _clock(root: Any) -> Any:
    """The default probe of every runner: the tower's clock value."""
    return getattr(root, "clock_value", None)


def _root_factory(workload: Workload) -> Callable:
    return resolve_protocol("clock-sync").factory(
        workload.n,
        workload.f,
        K,
        coin_factory=coin_by_name(workload.coin, workload.n, workload.f),
    )


def _adversary(workload: Workload) -> Any:
    adversary_cls = ADVERSARY_REGISTRY[workload.adversary]
    return None if adversary_cls is None else adversary_cls()


def _history(records: Any) -> list[tuple]:
    return [
        tuple(record.values[i] for i in sorted(record.values))
        for record in records
    ]


def _segment_rates(durations: list[float]) -> list[float]:
    """Operations per second of each of :data:`SEGMENTS` equal cuts."""
    size = len(durations) // SEGMENTS
    if size == 0:
        return [len(durations) / sum(durations)] if durations else []
    return [
        size / sum(durations[index * size:(index + 1) * size])
        for index in range(SEGMENTS)
    ]


class _BeatTimer:
    """Times beats from outside, by wall clock and by CPU clock:
    ``beat_done()`` closes one, and the gauge takes its samples in the
    gaps between beats."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.beat_s: list[float] = []
        self.cpu_s: list[float] = []
        self.ends: list[float] = []
        self._start = gauge.sample()
        self._cpu_start = _cpu()

    def beat_done(self) -> None:
        end = _now()
        self.cpu_s.append(_cpu() - self._cpu_start)
        self.beat_s.append(end - self._start)
        self.ends.append(end)
        self._start = self.gauge.due(end)
        self._cpu_start = _cpu()

    def gauged(self, durations: list[float]) -> list[float]:
        """``durations`` (one per beat) at reference machine speed."""
        return [
            duration / self.gauge.slowdown(end - wall, end)
            for duration, wall, end in zip(durations, self.beat_s, self.ends)
        ]


def _beat_leg(
    records: Any, timer: "_BeatTimer | None", wall_s: float, **extra: Any
) -> Leg:
    """The :class:`Leg` of a run that yields one trace record per beat."""
    lines = records_to_jsonl(records).splitlines()
    leg = Leg(
        ops=len(lines),
        beats=len(lines),
        wall_s=wall_s,
        lines=lines,
        pin_lines=lines[:PIN_OPS],
        stabilize=converged_at(_history(records), K),
        **extra,
    )
    if timer is not None:
        leg.beat_s = timer.beat_s
        timer.gauge.sample()  # brackets the last beat
        leg.gauged_s = timer.gauged(timer.beat_s)
        leg.slowdown = sum(leg.beat_s) / sum(leg.gauged_s)
        leg.segment_rates = _segment_rates(leg.steady())
        leg.cpu_rates = _segment_rates(
            timer.gauged(timer.cpu_s)[len(leg.beat_s) - len(leg.steady()):]
        )
    return leg


class _StampingProbe:
    """A ``probe=`` that stamps the clock and returns the default value.

    Every honest node probes once per beat, so each ``honest`` probes
    are one beat of work, complete at the last of them.
    """

    def __init__(self, workload: Workload, gauge: Gauge) -> None:
        # The default corruption rule takes exactly f nodes.
        self._honest = workload.n - (
            workload.f if workload.adversary != "none" else 0
        )
        self._calls = 0
        self.timer = _BeatTimer(gauge)

    def __call__(self, root: Any) -> Any:
        self._calls += 1
        if self._calls % self._honest == 0:
            self.timer.beat_done()
        return _clock(root)


# -- sim: Simulation on a named engine -------------------------------------


def _build_sim(workload: Workload, seed: int, engine: str) -> Simulation:
    simulation = Simulation(
        workload.n,
        workload.f,
        _root_factory(workload),
        adversary=_adversary(workload),
        seed=seed,
        engine=engine,
    )
    simulation.scramble()
    return simulation


def _sim_setup(workload: Workload, seed: int) -> float:
    started = _now()
    _build_sim(workload, seed, workload.engine).run(2)
    return _now() - started


def sim_leg(
    workload: Workload,
    seed: int,
    ops: int,
    gauge: Gauge,
    ledger: "spans.Ledger | None" = None,
    *,
    engine: "str | None" = None,
) -> Leg:
    simulation = _build_sim(workload, seed, engine or workload.engine)
    tracer = Tracer(_clock)
    simulation.add_monitor(tracer)
    built = ledger.snapshot() if ledger else None
    run_beat = simulation.run_beat
    timer = _BeatTimer(gauge)
    for _ in range(ops):
        run_beat()
        timer.beat_done()
    return _beat_leg(
        tracer.records,
        timer,
        sum(timer.beat_s),
        counts={"messages": simulation.stats.total_messages},
        vectorized=int(getattr(simulation.engine, "vectorized", False)),
        ledger=spans.subtract(ledger.snapshot(), built) if ledger else None,
        bind_ns=built["self:bulk.bind"] if ledger else 0,
    )


# -- events: run_continuous ------------------------------------------------


def _drift(workload: Workload, beats: int) -> float:
    """The drift bound that spends the workload's skew budget by the end
    of the horizon.  Pulses are never resynchronized, so worst-case skew
    grows by ``2 * rho * period`` per beat; a fixed ``rho`` would push
    messages past their beat's close on long horizons (at the issue's
    ``rho=0.005`` that happens after ~70 beats and the run never
    converges) and be negligible on short ones."""
    return workload.skew_budget / (2.0 * beats * workload.pulse_period)


def _run_events(workload: Workload, seed: int, beats: int, probe: Any) -> Any:
    return run_continuous(
        workload.n,
        workload.f,
        _root_factory(workload),
        seed=seed,
        beats=beats,
        rho=_drift(workload, beats),
        delay_bounds=workload.delay_bounds,
        pulse_period=workload.pulse_period,
        k=K,
        probe=probe,
    )


def _events_setup(workload: Workload, seed: int) -> float:
    started = _now()
    _run_events(workload, seed, 2, _clock)
    return _now() - started


def events_leg(
    workload: Workload,
    seed: int,
    ops: int,
    gauge: Gauge,
    ledger: "spans.Ledger | None" = None,
) -> Leg:
    probe = _StampingProbe(workload, gauge)
    before = ledger.snapshot() if ledger else None
    started = _now()
    result = _run_events(workload, seed, ops, probe)
    wall_s = _now() - started
    return _beat_leg(
        result.records,
        probe.timer,
        wall_s,
        failed_ops=min(ops, result.late_messages),
        counts={
            "messages": result.total_messages,
            "late": result.late_messages,
        },
        ledger=spans.subtract(ledger.snapshot(), before) if ledger else None,
    )


# -- runtime: run_runtime over the local transport -------------------------


def _run_live(
    workload: Workload, seed: int, beats: int, probe: Any, **seams: Any
) -> Any:
    return run_runtime(
        workload.n,
        workload.f,
        _root_factory(workload),
        adversary=_adversary(workload),
        seed=seed,
        beats=beats,
        k=K,
        probe=probe,
        **{"transport": "local", "codec": workload.codec, **seams},
    )


def _runtime_setup(workload: Workload, seed: int) -> float:
    started = _now()
    _run_live(workload, seed, 2, _clock)
    return _now() - started


def _barrier_failures(result: Any, ops: int) -> int:
    return min(ops, sum(result.health.values()))


def runtime_leg(
    workload: Workload,
    seed: int,
    ops: int,
    gauge: Gauge,
    ledger: "spans.Ledger | None" = None,
) -> Leg:
    probe = _StampingProbe(workload, gauge)
    seams = {}
    if ledger:
        seams = {
            "transport": spans.TimedTransport(LocalTransport(), ledger),
            "codec": spans.TimedCodec(resolve_codec(workload.codec), ledger),
        }
    before = ledger.snapshot() if ledger else None
    started = _now()
    result = _run_live(workload, seed, ops, probe, **seams)
    wall_s = _now() - started
    return _beat_leg(
        result.records,
        probe.timer,
        wall_s,
        failed_ops=_barrier_failures(result, ops),
        counts=_wire_counts(result),
        ledger=spans.subtract(ledger.snapshot(), before) if ledger else None,
    )


# -- the two paths whose work runs in child processes ----------------------


def _gauged_call(gauge: Gauge, call: Callable[[], Any]) -> tuple:
    """Run ``call`` while the gauge samples from a thread; return its
    result, the wall seconds it took, how slow the machine ran, and the
    CPU seconds the process tree used (less the gauge's own) at
    reference speed."""
    started, cpu_started = _now(), _cpu_tree()
    with gauge.background():
        result = call()
    ended, cpu_s = _now(), _cpu_tree() - cpu_started
    slowdown = gauge.slowdown(started, ended)
    cpu_s = (cpu_s - gauge.spent(started, ended)) / slowdown
    return result, ended - started, slowdown, cpu_s


def _wire_counts(result: Any) -> dict:
    """The exact counters of a live run (single- or multi-process)."""
    return {
        "messages": result.messages_sent,
        "frames": result.frames_sent,
        "timeouts": result.barrier_timeouts,
        "late": result.late_messages,
    }


# -- cluster: run_cluster over TCP loopback --------------------------------


def _run_cluster(workload: Workload, seed: int, beats: int) -> Any:
    return run_cluster(
        ClusterSpec(
            name=workload.name,
            n=workload.n,
            f=workload.f,
            k=K,
            adversary=workload.adversary,
            codec=workload.codec,
            seed=seed,
            beats=beats,
            processes=workload.processes,
        )
    )


def _cluster_setup(workload: Workload, seed: int) -> float:
    return _run_cluster(workload, seed, 1).elapsed_s


def cluster_leg(
    workload: Workload,
    seed: int,
    ops: int,
    gauge: Gauge,
    ledger: "spans.Ledger | None" = None,
) -> Leg:
    # Workers are spawned processes: no shim reaches them, so a traced
    # cluster leg is an untraced one (a known gap, see the README).
    result, _, slowdown, cpu_s = _gauged_call(
        gauge, lambda: _run_cluster(workload, seed, ops)
    )
    return _beat_leg(
        result.records,
        None,
        result.elapsed_s,
        slowdown=slowdown,
        # Worker start-up (spawn, imports) is part of this CPU.
        cpu_rates=[ops / cpu_s],
        failed_ops=_barrier_failures(result, ops),
        counts=_wire_counts(result),
    )


# -- campaign: run_campaign over a worker pool -----------------------------


def _specs(workload: Workload) -> list[ScenarioSpec]:
    return [
        ScenarioSpec(
            n=workload.n,
            f=workload.f,
            k=K,
            coin=workload.coin,
            adversary=adversary,
            link=link,
            link_params=link_params,
            max_beats=workload.max_beats,
            engine=workload.engine,
        )
        for adversary, link, link_params in workload.scenarios
    ]


def _trial_seeds(seed: int, count: int) -> range:
    return range(seed * 100_000, seed * 100_000 + count)


def _campaign_setup(workload: Workload, seed: int) -> float:
    started = _now()
    run_campaign(
        _specs(workload)[:1], _trial_seeds(seed, 2),
        workers=workload.processes,
    )
    return _now() - started


def campaign_leg(
    workload: Workload,
    seed: int,
    ops: int,
    gauge: Gauge,
    ledger: "spans.Ledger | None" = None,
) -> Leg:
    """``ops`` seeds per scenario, run as :data:`SEGMENTS` campaigns."""
    specs = _specs(workload)
    per_segment = max(1, round(ops / SEGMENTS))
    seeds = _trial_seeds(seed, per_segment * SEGMENTS)
    rows: list[tuple] = []
    segment_rates: list[float] = []
    cpu_rates: list[float] = []
    wall_s = gauged_wall_s = 0.0
    gained = None
    for index in range(SEGMENTS):
        chunk = seeds[index * per_segment:(index + 1) * per_segment]
        entries, elapsed, slowdown, cpu_s = _gauged_call(
            gauge,
            lambda: run_campaign(specs, chunk, workers=workload.processes),
        )
        wall_s += elapsed
        gauged_wall_s += elapsed / slowdown
        results = [
            (entry.index, result)
            for entry in entries
            for result in entry.sweep.results
        ]
        beats = sum(result.beats_run for _, result in results)
        segment_rates.append(beats * slowdown / elapsed)
        cpu_rates.append(beats / cpu_s)
        for scenario, result in results:
            rows.append(
                (
                    result.seed, scenario, result.converged_beat,
                    result.beats_run, result.total_messages,
                    result.dropped_messages,
                )
            )
            if ledger:
                gained = spans.add(gained, result.ledger_delta)
    rows.sort()
    converged = [row[2] for row in rows if row[2] is not None]
    pin_seeds = set(seeds[:PIN_OPS])
    return Leg(
        ops=len(rows),
        beats=sum(row[3] for row in rows),
        wall_s=wall_s,
        lines=[repr(row) for row in rows],
        pin_lines=[repr(row) for row in rows if row[0] in pin_seeds],
        stabilize=(
            sum(converged) / len(converged)
            if len(converged) == len(rows) else None
        ),
        failed_ops=len(rows) - len(converged),
        slowdown=wall_s / gauged_wall_s,
        segment_rates=segment_rates,
        cpu_rates=cpu_rates,
        counts={
            "messages": sum(row[4] for row in rows),
            "dropped": sum(row[5] for row in rows),
        },
        ledger=gained,
    )


#: execution path -> driver.
DRIVERS = {
    "sim": Driver(setup=_sim_setup, leg=sim_leg),
    "events": Driver(
        setup=_events_setup, leg=events_leg,
        waiters=lambda workload: workload.n, gauge_in_spans=True,
    ),
    "runtime": Driver(
        setup=_runtime_setup, leg=runtime_leg,
        waiters=lambda workload: workload.n, gauge_in_spans=True,
    ),
    "cluster": Driver(setup=_cluster_setup, leg=cluster_leg, setup_repeats=5),
    "campaign": Driver(setup=_campaign_setup, leg=campaign_leg),
}
