"""Continuous-time bounded-delay mode: the beat system under drifting
clocks and real message delays.

Everything else in :mod:`repro.net` executes the paper's *global beat
system*, in which every message sent at a beat arrives within it.  This
module drops that assumption and replays the same protocol tower in the
bounded-delay regime the paper claims its algorithms extend to (and that
the follow-up work in PAPERS.md — pulse resynchronization,
optimal-precision clock sync — takes as its base model):

* every node owns a **drifting hardware clock**: a rate drawn once per
  node from ``[1 - rho, 1 + rho]`` (:class:`DriftingClock`), so equal
  spans of real time advance different nodes' local clocks by different
  amounts;
* a node fires a **pulse** whenever its local clock crosses the next
  multiple of the pulse period, and one protocol beat rides on each
  pulse (:class:`PulseSynchronizer`): the send phase runs at the pulse,
  the update phase runs when the *next* pulse closes the beat;
* every message takes real time: a copy handed to the network at
  instant ``when`` reaches its receiver at ``when + delay``, the delay a
  keyed draw (:class:`KeyedDelays`).  A copy that reaches its receiver
  after the receiver already closed the tagged beat is **counted and
  dropped** — the same late-traffic semantics the live runtime's round
  barrier applies (:mod:`repro.runtime.sync`).

Timing is a link model
----------------------

Correct nodes share nothing but messages: coin outcomes are keyed draws
of the environment, the adversary's stream is its own.  So a drifting
run computes what a lock-step run computes over the copies that make
their close, whatever order the nodes' phases would interleave in real
time.  :class:`ContinuousSimulation` is therefore a plain
:class:`~repro.net.simulator.Simulation` on the ``fast`` engine whose
link model, :class:`TimingLinks`, rules on each copy: ``0`` (delivered
in its beat) if it is on time, ``None`` (dropped, and counted in its
receiver's ``late_messages``) if not.

**The rule.**  A copy is on time iff it is in its receiver's inbox when
the tagged beat closes — a pure function of three floats, written once
(:func:`_on_time`)::

    on time  iff  when < close  and  when + delay <= close

where ``close`` is the receiver's ``close_time(beat)`` and ``when`` is
the instant the copy was handed to the network: its sender's pulse, or
for a faulty sender the instant of the rushing adversary, which acts
once the *latest* honest pulse of the beat has fired.  ``when + delay
<= close``: the copy has arrived by the close (**the tie**:
arrive-at-deadline traffic is on time).  ``when < close``: it was sent
before the close at all — at equal instants a close runs first, and with
a zero delay the arrival test alone would let such a copy through.
Loopback is perfect in every engine, and the engines never ask about it.

**A draw is asked for only when it can decide.**  No draw exceeds
:attr:`KeyedDelays.hi` and none is below ``d_min`` (float add and
multiply are monotone), so ``when + hi <= close`` is on time and
``when + d_min > close`` is late whatever the draw says; only the band
between them calls :meth:`KeyedDelays.delay`.  Draws are keyed and
stateless, so a skipped draw changes no other.

**A beat nothing can lose.**  If the latest pulse of a beat, with the
largest delay, makes the earliest close, every copy of the beat is on
time: :meth:`TimingLinks.perfect_at` says so, and the engine runs the
beat on its perfect path — shared broadcasts, shared crafted rows, no
call per copy.  :meth:`ContinuousSimulation.late_free_beats` is the
first beat that is not so.

Determinism contract
--------------------

Every random choice is a *keyed* draw in the exact
:mod:`repro.net.linkmodel` discipline, from the world's ``"timing"``
seed: clock rates are keyed by node id, delays by ``(sender, receiver,
beat, seq)``, ``seq`` being the index the engine hands the link — a
copy's position in its sender's per-receiver envelope list, or in the
beat's expanded crafted traffic — never a per-link emission counter, so
a verdict depends on no other copy and on no order of asking.  The
load-bearing correctness argument is the **differential pin**: at ``rho
= 0`` and ``delay_bounds = (0, 0)`` every pulse coincides, every beat is
perfect, and a continuous run replays the lock-step engines
bit-identically.  ``tests/test_event_engine.py`` enforces the pin
against :class:`~repro.net.engine.ReferenceEngine` across seeds, pins
the outputs with drift and delay on (``TestTimingPins``) and holds
:class:`TimingLinks` equal on the reference and fast engines;
``tests/test_event_rule.py`` holds the rule to the arrival-event loop
frozen there as an oracle (the wire plane's ``BeatInbox`` in
:mod:`repro.net.inbox` underneath); ``tests/test_plane_pins.py`` pins
what every node is handed.

With drift or delay switched on, the lock-step guarantee becomes a
*precision* question: pulse coincidence degrades at up to
``2 * rho * period`` real seconds per beat, and :class:`ContinuousResult`
reports the resulting max pairwise pulse skew and the convergence time
in real time units — the metric family the bounded-delay literature
gates on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ConfigurationError
from repro.net.component import Component
from repro.net.linkmodel import LinkModel
from repro.net.node import Node
from repro.net.rng import derive_seed
from repro.net.simulator import Simulation
from repro.net.trace import (
    BeatRecord,
    Tracer,
    TrajectoryResult,
    clock_probe,
    history_rows,
)
from repro.net.world import World

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.adversary.base import Adversary

__all__ = [
    "ContinuousResult",
    "ContinuousSimulation",
    "DriftingClock",
    "EventHeap",
    "KeyedDelays",
    "PulseSynchronizer",
    "TimingLinks",
    "run_continuous",
]

#: 2**64 as a float: maps a keyed 64-bit draw onto [0, 1) — the same
#: scale :mod:`repro.net.linkmodel` uses for its keyed uniforms.
_UNIFORM_SCALE = float(2**64)


def _on_time(when: float, delay: float, close: float) -> bool:
    """The lateness rule, written once: a copy handed to the network at
    ``when`` that takes ``delay`` is in its receiver's inbox when the
    receiver closes the beat at ``close``.

    ``when + delay <= close``: the copy has arrived by the close, a tie
    counting as on time.  ``when < close``: it was sent before the close
    at all — at equal instants the close runs first, and with a zero
    delay the arrival test alone would let such a copy through.
    Monotone in ``delay``, which is what lets a bound on the delay stand
    in for the draw.
    """
    return when < close and when + delay <= close


class DriftingClock:
    """One node's hardware clock: local time advances at a fixed rate.

    The rate is a keyed draw in ``[1 - rho, 1 + rho]`` — keyed by node
    id from the simulation's ``"timing"`` seed, so it is identical
    whatever order clocks are built in and wherever the node runs (the
    live runtime's pulse barrier derives the *same* rates from the same
    seed).  ``rho = 0`` yields a rate of exactly ``1.0``, which is what
    makes the zero-drift pulse schedule coincide bit-for-bit across
    nodes.
    """

    __slots__ = ("node_id", "period", "rate", "rho")

    def __init__(
        self, seed: int, node_id: int, rho: float, period: float = 1.0
    ) -> None:
        if not 0.0 <= rho < 1.0:
            raise ConfigurationError(
                f"clock drift rho must lie in [0, 1), got {rho}"
            )
        if not period > 0.0:
            raise ConfigurationError(
                f"pulse period must be positive, got {period}"
            )
        self.node_id = node_id
        self.rho = rho
        self.period = period
        u = derive_seed(seed, "clock-rate", node_id) / _UNIFORM_SCALE
        # rho = 0 gives exactly 1.0: the expression collapses to 1.0 - 0.0.
        self.rate = 1.0 - rho + 2.0 * rho * u

    def local_time(self, t: float) -> float:
        """Local clock reading after ``t`` real time units."""
        return t * self.rate

    def global_time(self, local: float) -> float:
        """Real time at which the local clock reads ``local``."""
        return local / self.rate

    def pulse_time(self, index: int) -> float:
        """Real time of pulse ``index`` (local clock crossing
        ``index * period``)."""
        return (index * self.period) / self.rate


class KeyedDelays:
    """Per-message delivery delays: keyed draws in ``[d_min, hi]``.

    Keyed by ``(sender, receiver, beat, seq)`` — one independent draw
    per emitted envelope, reproducible whatever order envelopes are
    decided in and whether or not their neighbours are drawn at all
    (the :mod:`~repro.net.linkmodel` discipline).  The degenerate
    ``(0, 0)`` bounds short-circuit to exactly ``0.0``, the
    differential-pin configuration.

    :attr:`hi` is the largest value :meth:`delay` can return: its own
    expression at ``u = 1``, ``d_min + (d_max - d_min)``.  That is
    ``d_max`` to within one ulp, *not* always ``d_max`` itself: the
    float sum lands one ulp above it for ``(0.001, 0.009)`` and one
    below for ``(0.2, 0.9)``, and a draw can reach it.  Float add and
    multiply are monotone, so no draw exceeds ``hi`` and none is below
    ``d_min``.
    """

    __slots__ = ("d_max", "d_min", "hi", "_seed")

    def __init__(self, seed: int, d_min: float, d_max: float) -> None:
        if not 0.0 <= d_min <= d_max:
            raise ConfigurationError(
                f"delay bounds need 0 <= d_min <= d_max, got "
                f"({d_min}, {d_max})"
            )
        self._seed = seed
        self.d_min = d_min
        self.d_max = d_max
        self.hi = d_min + (d_max - d_min)

    def delay(self, sender: int, receiver: int, beat: int, seq: int) -> float:
        """The delivery delay of one envelope; always in
        ``[d_min, hi]``."""
        if self.d_max == 0.0:
            return 0.0
        u = (
            derive_seed(self._seed, "delay", sender, receiver, beat, seq)
            / _UNIFORM_SCALE
        )
        return self.d_min + (self.d_max - self.d_min) * u


class EventHeap:
    """Deterministic min-heap of ``(key, payload)`` events.

    Pop order is *total*: events come out in ascending ``key`` order
    whatever order they were pushed in, and events with equal keys come
    out in push (FIFO) order — the two properties
    ``tests/test_event_properties.py`` pins.  Payloads are never
    compared, so they can be arbitrary objects.
    """

    __slots__ = ("_heap", "_pushes")

    def __init__(self) -> None:
        self._heap: list[tuple[Any, int, Any]] = []
        self._pushes = 0

    def push(self, key: Any, payload: Any = None) -> None:
        heapq.heappush(self._heap, (key, self._pushes, payload))
        self._pushes += 1

    def pop(self) -> tuple[Any, Any]:
        """Remove and return the smallest ``(key, payload)`` event."""
        key, _, payload = heapq.heappop(self._heap)
        return key, payload

    def peek(self) -> tuple[Any, Any]:
        key, _, payload = self._heap[0]
        return key, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class PulseSynchronizer:
    """One correct node's pulse schedule on its drifting clock, and the
    copies addressed to it that missed their close.

    The node fires pulse ``b`` when its local clock crosses ``b *
    period`` — the beat-``b`` send phase — and closes the beat, running
    its update phase, at pulse ``b + 1``.
    """

    __slots__ = ("clock", "late_messages", "node")

    def __init__(self, node: Node, clock: DriftingClock) -> None:
        self.node = node
        self.clock = clock
        self.late_messages = 0

    def pulse_time(self, beat: int) -> float:
        """Real time of this node's pulse ``beat`` (send phase)."""
        return self.clock.pulse_time(beat)

    def close_time(self, beat: int) -> float:
        """Real time at which this node closes beat ``beat``."""
        return self.clock.pulse_time(beat + 1)


class TimingLinks(LinkModel):
    """Drifting clocks and keyed delays, as a link model: a copy is
    delivered in its beat if it reaches its receiver by the receiver's
    close, and dropped — counted in the receiver's ``late_messages`` —
    if not (the rule of :func:`_on_time`; see the module docstring).

    Bound to a :class:`~repro.net.world.World`, it keys clock rates and
    delays by the world's ``"timing"`` seed and holds one
    :class:`PulseSynchronizer` per correct node.  It is not a registered
    link model: :class:`ContinuousSimulation` builds it.
    """

    name = "timing"

    def __init__(
        self,
        rho: float = 0.0,
        delay_bounds: tuple[float, float] = (0.0, 0.0),
        pulse_period: float = 1.0,
    ) -> None:
        super().__init__()
        self.rho = rho
        self.delay_bounds = delay_bounds
        self.pulse_period = pulse_period
        self.delays: "KeyedDelays | None" = None
        #: Correct node id -> its pulse schedule, in ascending id order.
        self.synchronizers: dict[int, PulseSynchronizer] = {}

    def bind_world(self, world: World) -> None:
        seed = world.timing_seed
        self.bind(world.n, seed)
        self.delays = KeyedDelays(seed, *self.delay_bounds)
        self.synchronizers = {
            i: PulseSynchronizer(
                node, DriftingClock(seed, i, self.rho, self.pulse_period)
            )
            for i, node in world.nodes.items()
        }

    def sent_at(self, sender: int, beat: int) -> float:
        """When ``sender``'s beat-``beat`` traffic is handed to the
        network: its pulse, or for a faulty sender the rushing
        adversary's instant, the latest honest pulse."""
        sync = self.synchronizers.get(sender)
        if sync is not None:
            return sync.pulse_time(beat)
        return max(s.pulse_time(beat) for s in self.synchronizers.values())

    def classify(self, sender: int, receiver: int, beat: int, seq: int) -> int | None:
        sync = self.synchronizers[receiver]
        when = self.sent_at(sender, beat)
        close = sync.close_time(beat)
        delays = self.delays
        # The bounds decide where they can; the keyed draw, in the band.
        if _on_time(when, delays.hi, close) or (
            _on_time(when, delays.d_min, close)
            and _on_time(when, delays.delay(sender, receiver, beat, seq), close)
        ):
            return 0
        sync.late_messages += 1
        return None

    def perfect_at(self, beat: int) -> bool:
        """Whether the latest pulse of ``beat``, with the largest delay
        a draw can return, still makes the earliest close: then nothing
        of the beat can be late."""
        synchronizers = self.synchronizers.values()
        return _on_time(
            max(s.pulse_time(beat) for s in synchronizers),
            self.delays.hi,
            min(s.close_time(beat) for s in synchronizers),
        )


@dataclass(frozen=True)
class ContinuousResult(TrajectoryResult):
    """Outcome of one continuous-time run.

    ``records`` carries the per-beat honest probe values in the shared
    JSONL trace shape (see :mod:`repro.net.trace`); at zero drift and
    zero delay it is byte-identical to a lock-step
    :class:`~repro.net.trace.Tracer`'s records for the same seed.  The
    precision metrics are in the run's (simulated) real time units:
    ``max_pulse_skew`` is the largest pairwise spread of honest pulse
    times over any beat of the horizon, ``converged_time`` the real time
    at which the last honest node closed the convergence beat.
    """

    seed: int
    n: int
    f: int
    beats_run: int
    rho: float
    delay_bounds: tuple[float, float]
    pulse_period: float
    records: tuple[BeatRecord, ...] = field(repr=False)
    converged_beat: "int | None" = None
    total_messages: int = 0
    late_messages: int = 0
    max_pulse_skew: float = 0.0
    converged_time: "float | None" = None
    duration: float = 0.0


class ContinuousSimulation:
    """A continuous-time run of one protocol stack: a
    :class:`~repro.net.simulator.Simulation` on the ``fast`` engine
    behind :class:`TimingLinks`, traced by a
    :class:`~repro.net.trace.Tracer`.

    Args:
        n, f: system size and fault parameter.
        root_factory: per-node root component builder.
        adversary: controls the faulty ids (``None`` = fault-free); the
            rushing power is preserved — it sees the whole beat's
            coalition-bound traffic, and its crafted copies are handed
            to the network at the latest honest pulse.
        seed: master seed; equal seeds reproduce runs exactly.
        rho: clock drift bound — rates are keyed draws in
            ``[1 - rho, 1 + rho]``.
        delay_bounds: ``(d_min, d_max)`` message delay bounds in real
            time units.
        pulse_period: local-clock span between pulses (one beat each).
        probe: per-beat tower snapshot for the trace (default: the
            universal ``clock_value`` probe).
    """

    def __init__(
        self,
        n: int,
        f: int,
        root_factory: Callable[[int], Component],
        *,
        adversary: "Adversary | None" = None,
        seed: int = 0,
        rho: float = 0.0,
        delay_bounds: tuple[float, float] = (0.0, 0.0),
        pulse_period: float = 1.0,
        root_path: str = "root",
        enforce_resilience: bool = True,
        probe: Callable[[Component], Any] = clock_probe,
    ) -> None:
        d_min, d_max = delay_bounds
        self.delay_bounds = (float(d_min), float(d_max))
        self.links = TimingLinks(rho, self.delay_bounds, pulse_period)
        self.simulation = Simulation(
            n,
            f,
            root_factory,
            adversary=adversary,
            seed=seed,
            root_path=root_path,
            enforce_resilience=enforce_resilience,
            engine="fast",
            link=self.links,
        )
        self.tracer = Tracer(probe)
        self.simulation.add_monitor(self.tracer)
        self.world = self.simulation.world
        self.nodes = self.world.nodes
        self.faulty_ids = self.world.faulty_ids
        self.n = n
        self.f = f
        self.seed = seed
        self.rho = rho
        self.pulse_period = pulse_period
        self.delays = self.links.delays
        self.synchronizers = self.links.synchronizers
        self.beats_run = 0

    @property
    def stats(self):
        """Traffic statistics; a late copy is a dropped one."""
        return self.simulation.stats

    @property
    def late_messages(self) -> int:
        """Arrivals that missed their beat's close, summed over nodes."""
        return sum(s.late_messages for s in self.synchronizers.values())

    def scramble(self, node_ids: Iterable[int] | None = None) -> None:
        """Transient fault: redraw state of the given correct nodes
        (default all, ascending) — :meth:`World.scramble`."""
        self.world.scramble(node_ids)

    def pulse_skew(self, beat: int) -> float:
        """Max pairwise spread of honest pulse times at ``beat``."""
        times = [s.pulse_time(beat) for s in self.synchronizers.values()]
        return max(times) - min(times)

    def late_free_beats(self, horizon: int) -> int:
        """How many leading beats ``b < horizon`` cannot lose a message:
        the first beat that is not :meth:`TimingLinks.perfect_at`.
        Pulses are never resynchronized, so skew only grows and the
        first beat that fails is where lateness can begin."""
        for beat in range(horizon):
            if not self.links.perfect_at(beat):
                return beat
        return horizon

    def run(self, beats: int, *, k: "int | None" = None) -> ContinuousResult:
        """Execute ``beats`` pulses per node; return the trajectory.

        ``k`` enables Definition-3.2 convergence reporting on the
        records, plus the real-time convergence metric.  A simulation
        instance is single-use: it covers exactly one horizon.
        """
        if beats < 1:
            raise ConfigurationError(f"need at least one beat, got {beats}")
        if self.beats_run:
            raise ConfigurationError(
                "continuous simulations are single-use; build a new one "
                "to run another horizon"
            )
        self.beats_run = beats
        self.simulation.run(beats)
        return self._result(k)

    def _result(self, k: "int | None") -> ContinuousResult:
        beats = self.beats_run
        records = tuple(self.tracer.records)
        synchronizers = self.synchronizers.values()
        converged = None
        converged_time = None
        if k is not None:
            from repro.core.problem import converged_at

            converged = converged_at(history_rows(records), k)
            if converged is not None:
                converged_time = max(s.close_time(converged) for s in synchronizers)
        return ContinuousResult(
            seed=self.seed,
            n=self.n,
            f=self.f,
            beats_run=beats,
            rho=self.rho,
            delay_bounds=self.delay_bounds,
            pulse_period=self.pulse_period,
            records=records,
            converged_beat=converged,
            total_messages=self.stats.total_messages,
            late_messages=self.late_messages,
            max_pulse_skew=max(self.pulse_skew(b) for b in range(beats + 1)),
            converged_time=converged_time,
            duration=max(s.close_time(beats - 1) for s in synchronizers),
        )


def run_continuous(
    n: int,
    f: int,
    root_factory: Callable[[int], Component],
    *,
    adversary: "Adversary | None" = None,
    seed: int = 0,
    beats: int = 60,
    rho: float = 0.0,
    delay_bounds: tuple[float, float] = (0.0, 0.0),
    pulse_period: float = 1.0,
    k: "int | None" = None,
    scramble: bool = True,
    root_path: str = "root",
    probe: Callable[[Component], Any] = clock_probe,
) -> ContinuousResult:
    """Build and run one continuous-time trial (the
    :func:`~repro.runtime.runner.run_runtime` counterpart).

    ``scramble=True`` applies the worst-case transient fault before the
    first pulse, in the simulator's exact ``"faults"``-stream order.
    """
    simulation = ContinuousSimulation(
        n,
        f,
        root_factory,
        adversary=adversary,
        seed=seed,
        rho=rho,
        delay_bounds=delay_bounds,
        pulse_period=pulse_period,
        root_path=root_path,
        probe=probe,
    )
    if scramble:
        simulation.scramble()
    return simulation.run(beats, k=k)
