"""Trial and sweep harness used by tests, examples and every benchmark.

One *trial* = build a simulation, scramble every correct node (the
worst-case transient fault), run up to ``max_beats``, and report when the
k-Clock problem's convergence + closure held (Definition 3.2).  Sweeps
repeat trials across seeds and aggregate with :mod:`repro.analysis.stats`.

Trials stop early by default: once the system has been clock-synched and
in closure for ``closure_window`` consecutive beats past its convergence
beat (and every scheduled mid-run fault has been injected), the remaining
budget is provably uneventful for the convergence measurement and is
skipped.  ``TrialResult.beats_run`` always reflects the beats actually
executed, so per-beat rates stay honest.  For parallel multi-scenario
campaigns over picklable specs, see :mod:`repro.analysis.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.adversary.base import Adversary
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.stats import Summary, summarize
from repro.errors import ConfigurationError, check_resilience
from repro.faults.dynamic import ChurnSchedule
from repro.net.component import Component
from repro.net.engine import DEFAULT_ENGINE, resolve_engine
from repro.net.events import DriftingClock, KeyedDelays, run_continuous
from repro.net.linkmodel import make_link
from repro.net.simulator import Simulation

__all__ = [
    "SweepResult",
    "TrialConfig",
    "TrialResult",
    "check_axes",
    "run_sweep",
    "run_trial",
]

ProtocolFactory = Callable[[int], Component]
AdversaryFactory = Callable[[], Adversary | None]


@dataclass(frozen=True)
class TrialConfig:
    """Everything one convergence trial needs.

    Attributes:
        n, f: system size and fault parameter.
        k: the clock modulus being solved for (read from the component if 0).
        protocol_factory: per-node root component builder.
        adversary_factory: builds a fresh adversary per trial (or None).
        max_beats: give up after this many beats.
        scramble: apply the worst-case transient fault before beat 0.
        scramble_beats: fault schedule — additional beats *before* which
            every correct node is re-scrambled mid-run; convergence is then
            measured from the last scheduled fault.
        early_stop: stop once convergence plus a ``closure_window``-beat
            closure run is confirmed instead of burning the whole budget.
        closure_window: closure beats (beyond the convergence beat) that
            must be observed before an early stop.
        engine: simulation engine name (``"fast"``, ``"reference"`` or
            ``"bulk"``).
        link: link-condition model name from
            :data:`~repro.net.linkmodel.LINK_MODELS` (default: the paper's
            perfect network).
        link_params: keyword parameters for the link model, as a sorted
            tuple of ``(name, value)`` pairs so configs stay hashable and
            picklable (see
            :func:`~repro.net.linkmodel.normalize_link_params`).
        churn: membership churn schedule in the normalized tuple form
            :meth:`~repro.faults.dynamic.ChurnSchedule.normalized` emits
            — ``(beat, kind, node_ids)`` triples, hashable and picklable;
            empty means a static world.  Convergence is measured from the
            last fault of any kind (scramble *or* membership event).
        trace: attach a clock-probing :class:`~repro.net.trace.Tracer`
            and carry its records on ``TrialResult.records``, making the
            trial's trajectory exportable in the shared JSONL format
            (``repro run --trace``); off by default — tracing costs one
            probe sweep per beat and most sweeps never read it.
        timing: continuous-time axis — empty (the default) runs the
            lock-step beat model; ``(rho, d_min, d_max, pulse_period)``
            runs the event-driven bounded-delay engine
            (:class:`~repro.net.events.ContinuousSimulation`) with
            drifting clocks and keyed message delays instead.
            Continuous trials always burn the full ``max_beats`` horizon
            (the event schedule is fixed up front) and are incompatible
            with ``scramble_beats``, ``churn``, a non-perfect ``link``
            and a non-default ``engine`` — those axes are beat-model
            machinery.
    """

    n: int
    f: int
    k: int
    protocol_factory: ProtocolFactory
    adversary_factory: AdversaryFactory = lambda: None
    max_beats: int = 500
    scramble: bool = True
    scramble_beats: tuple[int, ...] = ()
    early_stop: bool = True
    closure_window: int = 12
    engine: str = "fast"
    link: str = "perfect"
    link_params: tuple[tuple[str, object], ...] = ()
    churn: tuple[tuple[int, str, tuple[int, ...]], ...] = ()
    trace: bool = False
    timing: tuple[float, ...] = ()


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial.

    ``beats_run`` counts beats actually executed — with early stopping it
    is usually well below ``config.max_beats``, and ``history`` has exactly
    ``beats_run`` entries.
    """

    seed: int
    converged_beat: int | None
    beats_run: int
    total_messages: int
    history: tuple[tuple[int | None, ...], ...] = field(repr=False)
    dropped_messages: int = 0
    delayed_messages: int = 0
    #: Per-beat probe records when the config asked for a trace
    #: (``TrialConfig.trace``); empty otherwise.
    records: tuple = field(default=(), repr=False)
    #: Continuous-time trials only: max pairwise pulse skew over the
    #: horizon and the real time of the convergence beat's last close,
    #: both in the run's time units; ``None`` on lock-step trials.
    pulse_skew: float | None = None
    converged_time: float | None = None

    @property
    def converged(self) -> bool:
        return self.converged_beat is not None

    def to_jsonl(self) -> str:
        """The traced trajectory in the shared JSONL format.

        Raises :class:`ConfigurationError` when the trial ran without
        ``TrialConfig.trace`` — an empty trace file would read as "zero
        beats happened", which is not what an untraced trial means.
        """
        if not self.records:
            raise ConfigurationError(
                "trial ran without trace=True, so there are no records "
                "to serialize"
            )
        from repro.net.trace import records_to_jsonl

        return records_to_jsonl(self.records)

    @property
    def latency(self) -> int | None:
        """Beats from the scrambled start until convergence."""
        return self.converged_beat

    @property
    def messages_per_beat(self) -> float:
        return self.total_messages / max(1, self.beats_run)


def check_axes(config: "TrialConfig") -> None:
    """Reject an inconsistent run description before any beat runs.

    The one statement of the rules on the axes a resolved
    :class:`TrialConfig` and a named
    :class:`~repro.analysis.campaign.ScenarioSpec` share by field name —
    either is accepted.  :func:`run_trial` applies it to the config it is
    handed; ``ScenarioSpec.validate`` applies it in the driving process,
    so a bad grid fails there and not beats into a pool worker's trial.
    (Churn overlap with the *faulty* set is checked inside the trial: the
    adversary picks its coalition at simulation-build time.)
    """
    check_resilience(config.n, config.f)
    resolve_engine(config.engine)
    if config.max_beats < 1:
        raise ConfigurationError(
            f"need at least one beat, got {config.max_beats}"
        )
    if any(not 0 <= beat < config.max_beats for beat in config.scramble_beats):
        raise ConfigurationError(
            f"scramble_beats {sorted(config.scramble_beats)} must lie "
            f"within [0, max_beats={config.max_beats}) or they would "
            "silently never fire"
        )
    # Building the model validates both the name and the parameters.
    make_link(config.link, dict(config.link_params))
    schedule = ChurnSchedule.coerce(config.churn)
    if schedule is not None:
        if not 0 <= schedule.last_event_beat < config.max_beats:
            raise ConfigurationError(
                f"churn schedule {schedule.describe()} has events at or "
                f"beyond max_beats={config.max_beats}; they would "
                "silently never fire"
            )
        schedule.validate_for(config.n, frozenset())
    if not config.timing:
        return
    if len(config.timing) != 4:
        raise ConfigurationError(
            "timing must be (rho, d_min, d_max, pulse_period), got "
            f"{config.timing!r}"
        )
    # Bounds are checked with the event engine's own rules.
    rho, d_min, d_max, pulse_period = config.timing
    DriftingClock(0, 0, rho, pulse_period)
    KeyedDelays(0, d_min, d_max)
    beat_axes = {
        "scramble_beats": bool(config.scramble_beats),
        "churn": bool(config.churn),
        "link": config.link != "perfect",
        "link_params": bool(config.link_params),
        "engine": config.engine != DEFAULT_ENGINE,
    }
    bad = sorted(name for name, used in beat_axes.items() if used)
    if bad:
        raise ConfigurationError(
            f"the continuous-time engine does not support {bad}: those "
            "are lock-step beat-model axes (delays and drops come from "
            "the timing bounds here)"
        )


def run_trial(config: TrialConfig, seed: int) -> TrialResult:
    """Run one scrambled-start convergence trial.

    The trial executes at most ``config.max_beats`` beats, but stops as
    soon as (a) every scheduled fault — ``config.scramble_beats`` *and*
    every ``config.churn`` membership event — has fired and (b) the
    system has stayed clock-synched and in closure for
    ``config.closure_window`` beats beyond its convergence
    beat — after that, extra beats cannot change the reported convergence.
    Pass ``early_stop=False`` to always burn the full budget (e.g. to
    measure steady-state traffic over a fixed horizon).

    A config with a ``timing`` axis dispatches to the continuous-time
    event engine instead (see :class:`TrialConfig`); such trials always
    run the full horizon, and late deliveries are reported through
    ``dropped_messages``.
    """
    check_axes(config)
    if config.timing:
        return _run_continuous_trial(config, seed)
    simulation = Simulation(
        config.n,
        config.f,
        config.protocol_factory,
        adversary=config.adversary_factory(),
        seed=seed,
        engine=config.engine,
        link=make_link(config.link, dict(config.link_params)),
        churn=config.churn or None,
    )
    monitor = ClockConvergenceMonitor(config.k)
    simulation.add_monitor(monitor)
    tracer = None
    if config.trace:
        from repro.net.trace import Tracer, clock_probe

        tracer = Tracer(clock_probe)
        simulation.add_monitor(tracer)
    if config.scramble:
        simulation.scramble()
    scramble_beats = frozenset(config.scramble_beats)
    churn_beats = frozenset(beat for beat, _, _ in config.churn)
    last_fault = max(scramble_beats | churn_beats, default=0)
    window = max(1, config.closure_window)
    beats_run = 0
    for beat in range(config.max_beats):
        if beat in scramble_beats:
            simulation.scramble()
        simulation.run_beat()
        beats_run += 1
        if (
            config.early_stop
            and beat >= last_fault
            and monitor.closure_streak > window
        ):
            break
    return TrialResult(
        seed=seed,
        converged_beat=monitor.convergence_beat(from_beat=last_fault),
        beats_run=beats_run,
        total_messages=simulation.stats.total_messages,
        history=tuple(monitor.history),
        dropped_messages=simulation.stats.dropped_messages,
        delayed_messages=simulation.stats.delayed_messages,
        records=tuple(tracer.records) if tracer is not None else (),
    )


def _run_continuous_trial(config: TrialConfig, seed: int) -> TrialResult:
    """One trial on the event-driven continuous-time engine."""
    rho, d_min, d_max, pulse_period = config.timing
    result = run_continuous(
        config.n,
        config.f,
        config.protocol_factory,
        adversary=config.adversary_factory(),
        seed=seed,
        beats=config.max_beats,
        rho=rho,
        delay_bounds=(d_min, d_max),
        pulse_period=pulse_period,
        k=config.k,
        scramble=config.scramble,
    )
    return TrialResult(
        seed=seed,
        converged_beat=result.converged_beat,
        beats_run=result.beats_run,
        total_messages=result.total_messages,
        history=result.history,
        dropped_messages=result.late_messages,
        delayed_messages=0,
        records=result.records if config.trace else (),
        pulse_skew=result.max_pulse_skew,
        converged_time=result.converged_time,
    )


@dataclass(frozen=True)
class SweepResult:
    """Aggregate over seeds for one configuration."""

    config: TrialConfig
    results: tuple[TrialResult, ...]

    @property
    def latencies(self) -> list[int]:
        return [r.converged_beat for r in self.results if r.converged_beat is not None]

    @property
    def failure_count(self) -> int:
        return sum(1 for r in self.results if not r.converged)

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failure_count / len(self.results)

    def latency_summary(self) -> Summary:
        return summarize([float(v) for v in self.latencies])

    @property
    def mean_messages_per_beat(self) -> float:
        return sum(r.messages_per_beat for r in self.results) / len(self.results)

    @property
    def mean_dropped_messages(self) -> float:
        """Mean envelopes the link model dropped, per trial."""
        return sum(r.dropped_messages for r in self.results) / len(self.results)

    @property
    def mean_delayed_messages(self) -> float:
        """Mean envelopes the link model deferred, per trial."""
        return sum(r.delayed_messages for r in self.results) / len(self.results)


def run_sweep(config: TrialConfig, seeds: Sequence[int]) -> SweepResult:
    """Run one trial per seed and aggregate."""
    results = tuple(run_trial(config, seed) for seed in seeds)
    return SweepResult(config=config, results=results)
