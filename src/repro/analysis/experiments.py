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
from typing import TYPE_CHECKING, Sequence

from repro.adversary.base import Adversary
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.stats import Summary, summarize
from repro.errors import ConfigurationError
from repro.net.events import run_continuous
from repro.net.linkmodel import make_link
from repro.net.simulator import Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.campaign import ScenarioSpec

__all__ = ["SweepResult", "TrialResult", "run_sweep", "run_trial"]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial.

    ``beats_run`` counts beats actually executed — with early stopping it
    is usually well below ``spec.max_beats``, and ``history`` has exactly
    ``beats_run`` entries.
    """

    seed: int
    converged_beat: int | None
    beats_run: int
    total_messages: int
    history: tuple[tuple[int | None, ...], ...] = field(repr=False)
    dropped_messages: int = 0
    delayed_messages: int = 0
    #: Per-beat probe records when the trial was asked for a trace
    #: (``run_trial(..., trace=True)``); empty otherwise.
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
        ``trace=True`` — an empty trace file would read as "zero
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


def run_trial(
    spec: "ScenarioSpec",
    seed: int,
    *,
    adversary: Adversary | None = None,
    trace: bool = False,
) -> TrialResult:
    """Run one scrambled-start convergence trial of ``spec``.

    The spec is validated once, here, and its names resolved — the
    adversary into a fresh instance unless ``adversary`` hands one in.
    ``trace`` keeps a clock probe's per-beat records on
    ``TrialResult.records`` (the shared JSONL format, ``repro run
    --trace``); it is off by default because it costs one probe sweep
    per beat and most sweeps never read it.

    The trial executes at most ``spec.max_beats`` beats, but stops as
    soon as (a) every scheduled fault — ``spec.scramble_beats`` *and*
    every ``spec.churn`` membership event — has fired and (b) the
    system has stayed clock-synched and in closure for
    ``spec.closure_window`` beats beyond its convergence
    beat — after that, extra beats cannot change the reported convergence.
    A spec with ``early_stop=False`` always burns the full budget (e.g. to
    measure steady-state traffic over a fixed horizon).

    A spec with a ``timing`` axis runs in continuous time instead
    (:func:`~repro.net.events.run_continuous`); such trials always run
    the full horizon, and late deliveries are reported through
    ``dropped_messages``.
    """
    spec.validate()
    if adversary is None:
        adversary = spec.build_adversary()
    if spec.timing:
        return _run_continuous_trial(spec, seed, adversary, trace)
    simulation = Simulation(
        spec.n,
        spec.f,
        spec.root_factory(),
        adversary=adversary,
        seed=seed,
        engine=spec.engine,
        link=make_link(spec.link, dict(spec.link_params)),
        churn=spec.churn or None,
    )
    monitor = ClockConvergenceMonitor(spec.k)
    simulation.add_monitor(monitor)
    tracer = None
    if trace:
        from repro.net.trace import Tracer, clock_probe

        tracer = Tracer(clock_probe)
        simulation.add_monitor(tracer)
    if spec.scramble:
        simulation.scramble()
    scramble_beats = frozenset(spec.scramble_beats)
    churn_beats = frozenset(beat for beat, _, _ in spec.churn)
    last_fault = max(scramble_beats | churn_beats, default=0)
    window = max(1, spec.closure_window)
    beats_run = 0
    for beat in range(spec.max_beats):
        if beat in scramble_beats:
            simulation.scramble()
        simulation.run_beat()
        beats_run += 1
        if (
            spec.early_stop
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


def _run_continuous_trial(
    spec: "ScenarioSpec", seed: int, adversary: Adversary | None, trace: bool
) -> TrialResult:
    """One continuous-time trial: drifting clocks, keyed delays."""
    rho, d_min, d_max, pulse_period = spec.timing
    result = run_continuous(
        spec.n,
        spec.f,
        spec.root_factory(),
        adversary=adversary,
        seed=seed,
        beats=spec.max_beats,
        rho=rho,
        delay_bounds=(d_min, d_max),
        pulse_period=pulse_period,
        k=spec.k,
        scramble=spec.scramble,
    )
    return TrialResult(
        seed=seed,
        converged_beat=result.converged_beat,
        beats_run=result.beats_run,
        total_messages=result.total_messages,
        history=result.history,
        dropped_messages=result.late_messages,
        delayed_messages=0,
        records=result.records if trace else (),
        pulse_skew=result.max_pulse_skew,
        converged_time=result.converged_time,
    )


@dataclass(frozen=True)
class SweepResult:
    """Aggregate over seeds for one scenario."""

    spec: "ScenarioSpec"
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


def run_sweep(spec: "ScenarioSpec", seeds: Sequence[int]) -> SweepResult:
    """Run one trial per seed, in this process, and aggregate (for a
    worker pool, see :func:`~repro.analysis.campaign.run_campaign`)."""
    results = tuple(run_trial(spec, seed) for seed in seeds)
    return SweepResult(spec=spec, results=results)
