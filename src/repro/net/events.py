"""Continuous-time bounded-delay mode: an event-driven simulation engine.

Everything else in :mod:`repro.net` executes the paper's *global beat
system* — a lock-step loop in which every node's send and update phases
are globally serialized per beat.  This module drops the lock-step
assumption and replays the same protocol tower in the bounded-delay
regime the paper claims its algorithms extend to (and that the follow-up
work in PAPERS.md — pulse resynchronization, optimal-precision clock
sync — takes as its base model):

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
  barrier applies (:mod:`repro.runtime.sync`);
* instead of a beat loop, a deterministic min-heap of timestamped events
  (:class:`EventHeap`) interleaves pulses, closes and the adversary
  phase in global time order.

Arrivals are decided, not scheduled
-----------------------------------

An arrival is not an event.  Nothing records *when* a copy arrives;
the only thing its arrival instant ever decides is whether the copy is
in its receiver's inbox when the tagged beat closes.  That is a pure
function of three floats, written once (:func:`_on_time`)::

    on time  iff  when < close  and  when + delay <= close

where ``when`` is the instant the copy was handed to the network (its
sender's pulse, or the adversary phase), ``close`` is the receiver's own
``close_time(beat)`` and loopback ``delay`` is ``0.0``.  The two halves
are exactly what a heap of arrival events would decide: the arrival
``when + delay`` pops before the close iff ``when + delay <= close``
(**the tie**: arrive-at-deadline traffic is on time), and it is on the
heap by then iff the event that sent it popped before that close, i.e.
iff ``when < close`` — at equal instants a close runs before a pulse.
The rule is evaluated at the send; an on-time copy goes into its beat's
traffic at once (early arrivals included), a late one adds one to its
receiver's ``late_messages`` and is never buffered.

**A draw is asked for only when it can decide.**  No draw exceeds
:attr:`KeyedDelays.hi` and none is below ``d_min`` (float add and
multiply are monotone), so ``when + hi <= close`` is on time and
``when + d_min > close`` is late whatever the draw says; only the band
between them calls :meth:`KeyedDelays.delay`.  Draws are keyed and
stateless, so a skipped draw changes no other.

**Lanes.**  Traffic travels in shared form, as :class:`FastEngine` and
the live runtime send it, and is kept by the same in-process message
plane the lock-step engine fills: one
:class:`~repro.net.plane.BeatTraffic` per beat in flight (several are,
under drift), held with the beat's schedule in a :class:`_Lane`.  A
broadcast that is on time at the *earliest* honest close of its beat
with the *largest* possible delay is on time for everyone and goes on
the traffic's lane for its path: one record, one ``record_fanout``, one
``Envelope(sender, BROADCAST, ...)``.  The lanes are final before that
earliest close — a later pulse fails ``when < close`` — so the first
close sorts them once (pulses of one beat fire in any id order under
drift), before any read, and every receiver with no traffic of its own
reads that one dict.  Crafted traffic enters **whole or not at all**: if
the adversary instant makes the edge with the largest delay, the
records go in as they are — rows stay rows, and receivers told the same
story share one merged inbox — with no draw asked; otherwise every copy
is decided on its own.  Everything decided copy by copy (point-to-point
sends, copies of a broadcast that is late for someone, crafted copies
past the edge) is its receiver's stray if on time and merged with the
lane in the plane's ``(sender, stage, order)`` order.  The engine's
``seq`` — a copy's index in its sender's per-receiver envelope list — is
what keys a draw; to the plane it is an opaque order.
:meth:`ContinuousSimulation.late_free_beats` evaluates the lane
predicate for the latest pulse against the earliest close: the number of
leading beats in which nothing can be late.

Determinism contract
--------------------

Every random choice is a *keyed* draw in the exact
:mod:`repro.net.linkmodel` discipline — clock rates are keyed by node
id, delays by ``(sender, receiver, beat, seq)``, ``seq`` being the
copy's index in its sender's per-receiver envelope list — never a shared
sequential stream, so trajectories are independent of event pop order,
campaign worker counts, and the order in which draws are first asked
for (or whether they are asked for at all).  The load-bearing
correctness argument is the **differential pin**:
at ``rho = 0`` and ``delay_bounds = (0, 0)`` every pulse coincides,
every close lands exactly one period later, and the event-driven
execution replays the lock-step engines *bit-identically*.  What makes
that so is shared code, not a convention kept in step: the system is the
one :class:`~repro.net.world.World` every path builds, the inboxes are
built by the message plane the lock-step engine uses
(:mod:`repro.net.plane`), and the rushing adversary's view order is the
engines'.  The beat-close rule of the *wire* plane (``BeatInbox`` in
:mod:`repro.net.inbox`: tag, count-and-drop late, sort by ``(sender,
seq)``) is no longer inherited; ``tests/test_event_rule.py`` holds this
engine to it, through the arrival-event loop frozen there as an oracle
(see ARCHITECTURE.md, "Shared kernel").  ``tests/test_event_engine.py``
enforces the pin against :class:`~repro.net.engine.ReferenceEngine`
across seeds and pins the outputs with drift and delay on
(``TestTimingPins``), ``tests/test_plane_pins.py`` pins what every node
is handed, and the gated ``pulse_precision`` bench pins the shared JSONL
trace digests in CI.

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
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ConfigurationError
from repro.net.component import Component
from repro.net.engine import craft_byzantine
from repro.net.message import BROADCAST, Envelope, FanoutView, FastOutbox
from repro.net.network import MessageStats
from repro.net.node import Node
from repro.net.plane import STAGE_REGULAR, BeatTraffic
from repro.net.rng import derive_seed
from repro.net.trace import (
    BeatRecord,
    TrajectoryResult,
    clock_probe,
    history_rows,
    records_from_traces,
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
    "run_continuous",
]

#: 2**64 as a float: maps a keyed 64-bit draw onto [0, 1) — the same
#: scale :mod:`repro.net.linkmodel` uses for its keyed uniforms.
_UNIFORM_SCALE = float(2**64)

# Event kinds, which are also their priorities at equal timestamps.
# Closes run before coincident pulses (a node finishes update_phase(b)
# before send_phase(b+1) — the lock-step phase order — and a copy sent
# at the very instant of a close has missed it: the ``when < close`` half
# of the rule), pulses run before the beat's rushing adversary (it sees
# the *whole* beat's coalition-bound traffic), ties broken by node id —
# which at zero drift reproduces the lock-step engines' ascending-id
# phase sweeps exactly.  Arrivals are not events: see :func:`_on_time`.
_P_CLOSE = 1
_P_PULSE = 2
_P_ADVERSARY = 3

_SENDER = itemgetter(0)


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


class _Lane:
    """One beat in flight: when each honest receiver closes it, and its
    traffic.

    Built at the beat's first pulse from every honest receiver's close
    instant; ``edge`` is the earliest of them.  The traffic's lanes only
    grow while pulses fire before ``edge``, so they are final by the
    first close of the beat, which sorts them once, before any read.
    """

    __slots__ = ("closes", "edge", "readers", "traffic")

    def __init__(self, beat: int, closes: dict[int, float]) -> None:
        #: Honest receiver -> the instant it closes this beat.
        self.closes = closes
        self.edge = min(closes.values())
        #: Closes still to come; the lane is freed at the last.
        self.readers = len(closes)
        self.traffic = BeatTraffic(beat)


class PulseSynchronizer:
    """Maps one beat-driven :class:`~repro.net.node.Node` tower onto
    pulses of a drifting clock.

    The node fires pulse ``b`` when its local clock crosses
    ``b * period``: the beat-``b`` send phase runs at that instant, and
    the beat closes — update phase over everything that arrived in time
    — at pulse ``b + 1``.  What arrived in time is in the beat's
    :class:`~repro.net.plane.BeatTraffic`, put there as it was sent; a
    copy that will not make it is counted in ``late_messages`` and never
    buffered.
    """

    __slots__ = ("clock", "late_messages", "node", "trace", "_outbox")

    def __init__(self, node: Node, clock: DriftingClock) -> None:
        self.node = node
        self.clock = clock
        self.late_messages = 0
        #: Per-beat probe values, appended at each close: ``(beat, value)``.
        self.trace: list[tuple[int, Any]] = []
        self._outbox = FastOutbox(node.n)

    def pulse_time(self, beat: int) -> float:
        """Real time of this node's pulse ``beat`` (send phase)."""
        return self.clock.pulse_time(beat)

    def close_time(self, beat: int) -> float:
        """Real time at which this node closes beat ``beat``."""
        return self.clock.pulse_time(beat + 1)

    def send(self, beat: int) -> list[tuple[str, Any, "int | None"]]:
        """Fire pulse ``beat``: run the send phase, return its records
        in shared form (:class:`~repro.net.message.FastOutbox`)."""
        return self.node.send_phase(beat, self._outbox)

    def deliver(self, traffic: BeatTraffic, seq: int, envelope: Envelope) -> None:
        """Buffer one on-time copy addressed to this node alone."""
        traffic.stray(
            self.node.node_id, (envelope.sender, STAGE_REGULAR, seq), envelope
        )

    def close(
        self, beat: int, probe: Callable[[Component], Any], traffic: BeatTraffic
    ) -> None:
        """Close beat ``beat``: update phase over this node's inboxes of
        the beat's ``traffic``, then probe the tower for the trace."""
        self.node.update_phase(beat, traffic.inboxes(self.node.node_id))
        self.trace.append((beat, probe(self.node.root)))


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
    """An event-driven continuous-time run of one protocol stack.

    Mirrors the :class:`~repro.net.simulator.Simulation` constructor,
    builds the same :class:`~repro.net.world.World` (whose keyed
    ``timing_seed`` feeds clock rates and delay draws and therefore
    cannot disturb the shared streams), then executes pulses, closes and
    the adversary phase from a deterministic event heap instead of a
    beat loop, deciding each copy's lateness as it is sent.

    Args:
        n, f: system size and fault parameter.
        root_factory: per-node root component builder.
        adversary: controls the faulty ids (``None`` = fault-free); the
            rushing power is preserved — the adversary phase for beat
            ``b`` fires once every honest pulse ``b`` has fired, sees
            the coalition-bound traffic in the engines' canonical
            ``(sender, seq, receiver)`` order (a
            :class:`~repro.net.message.FanoutView`), and its crafted
            traffic takes keyed delays like everyone else's.
        seed: master seed; equal seeds reproduce runs exactly.
        rho: clock drift bound — rates are keyed draws in
            ``[1 - rho, 1 + rho]``.
        delay_bounds: ``(d_min, d_max)`` message delay bounds in real
            time units.
        pulse_period: local-clock span between pulses (one beat each).
        probe: per-close tower snapshot for the trace (default: the
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
        self.world = world = World.build(
            n,
            f,
            root_factory,
            adversary=adversary,
            seed=seed,
            root_path=root_path,
            enforce_resilience=enforce_resilience,
        )
        self.n = n
        self.f = f
        self.seed = seed
        self.rho = rho
        d_min, d_max = delay_bounds
        self.delay_bounds = (float(d_min), float(d_max))
        self.pulse_period = pulse_period
        self.root_path = root_path
        self.probe = probe
        self.stats = MessageStats()
        self.env = world.env
        self.adversary = adversary
        #: RNG stream reserved for the adversary (the engines' seam).
        self.adversary_rng = world.adversary_rng
        self.faulty_ids = world.faulty_ids
        self._faulty = tuple(sorted(world.faulty_ids))
        self.nodes = world.nodes
        self.honest_ids = list(world.nodes)
        timing_seed = world.timing_seed
        self.delays = KeyedDelays(timing_seed, *self.delay_bounds)
        self.synchronizers = {
            i: PulseSynchronizer(
                node, DriftingClock(timing_seed, i, rho, pulse_period)
            )
            for i, node in self.nodes.items()
        }
        self.beats_run = 0

    @property
    def late_messages(self) -> int:
        """Arrivals that missed their beat's close, summed over nodes."""
        return sum(s.late_messages for s in self.synchronizers.values())

    def honest_roots(self) -> dict[int, Component]:
        """Map of honest node id to its root component."""
        return {i: node.root for i, node in self.nodes.items()}

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
        the *latest* honest pulse ``b``, with the largest delay a draw
        can return, still makes the *earliest* honest close ``b`` — the
        lane predicate of :meth:`run`, on the engine's own floats.
        Pulses are never resynchronized, so skew only grows and the
        first beat that fails is where lateness can begin."""
        synchronizers = self.synchronizers.values()
        for beat in range(horizon):
            when = max(s.pulse_time(beat) for s in synchronizers)
            edge = min(s.close_time(beat) for s in synchronizers)
            if not _on_time(when, self.delays.hi, edge):
                return beat
        return horizon

    # -- execution ---------------------------------------------------------

    def run(self, beats: int, *, k: "int | None" = None) -> ContinuousResult:
        """Execute ``beats`` pulses per node; return the trajectory.

        ``k`` enables Definition-3.2 convergence reporting on the
        records, plus the real-time convergence metric.  A simulation
        instance is single-use: the event schedule covers exactly one
        horizon.
        """
        if beats < 1:
            raise ConfigurationError(f"need at least one beat, got {beats}")
        if self.beats_run:
            raise ConfigurationError(
                "continuous simulations are single-use; build a new one "
                "to run another horizon"
            )
        self.beats_run = beats
        heap = EventHeap()
        synchronizers = self.synchronizers
        lanes: dict[int, _Lane] = {}
        # Per beat, what honest nodes addressed to the coalition, one
        # record per send: (sender, path, payload, envelope or None).
        sighted: "dict[int, list] | None" = {} if self.faulty_ids else None
        for i, sync in synchronizers.items():
            heap.push((sync.pulse_time(0), _P_PULSE, i), 0)
        if sighted is not None:
            # The rushing adversary for beat b acts once the last honest
            # pulse b has fired; the priority breaks the zero-drift tie
            # so it still sees the whole beat's coalition-bound traffic.
            for beat in range(beats):
                when = max(s.pulse_time(beat) for s in synchronizers.values())
                heap.push((when, _P_ADVERSARY, self.n), beat)

        while heap:
            (when, kind, node_id), beat = heap.pop()
            if kind == _P_CLOSE:
                lane = lanes[beat]  # final: later pulses are past its edge
                if lane.readers == len(lane.closes):
                    # Pulses of one beat fire in any id order under drift.
                    lane.traffic.sort_lanes()
                synchronizers[node_id].close(beat, self.probe, lane.traffic)
                lane.readers -= 1
                if not lane.readers:
                    del lanes[beat]
            elif kind == _P_PULSE:
                sync = synchronizers[node_id]
                lane = lanes.get(beat)
                if lane is None:
                    lane = lanes[beat] = _Lane(
                        beat,
                        {i: s.close_time(beat) for i, s in synchronizers.items()},
                    )
                self._send_honest(
                    when, lane, node_id, beat, sync.send(beat),
                    None if sighted is None else sighted.setdefault(beat, []),
                )
                heap.push((lane.closes[node_id], _P_CLOSE, node_id), beat)
                if beat + 1 < beats:
                    heap.push(
                        (sync.pulse_time(beat + 1), _P_PULSE, node_id), beat + 1
                    )
            else:  # the adversary phase
                self._send_byzantine(when, lanes[beat], beat, sighted.pop(beat))
        return self._result(k)

    def _send_honest(
        self,
        when: float,
        lane: _Lane,
        sender: int,
        beat: int,
        records: list[tuple[str, Any, "int | None"]],
        sighted: "list | None",
    ) -> None:
        """Hand one pulse's records to the network.  ``seq`` is a copy's
        index in the envelope list the per-receiver
        :class:`~repro.net.message.Outbox` would have produced — a
        broadcast's base plus the receiver's position — so a draw that is
        made is that copy's own and ``(sender, seq)`` sorts as it would."""
        n = self.n
        stats = self.stats
        nodes = self.nodes
        faulty = self.faulty_ids
        # Every receiver's close is at or after the edge: a broadcast that
        # makes the edge with the largest delay is on time for everyone.
        for_everyone = _on_time(when, self.delays.hi, lane.edge)
        seq = 0
        for path, payload, receiver in records:
            if receiver is None:  # full broadcast: one shared envelope
                stats.record_fanout(path, beat, n, honest=True)
                if sighted is not None:
                    sighted.append((sender, path, payload, None))
                if for_everyone:
                    lane.traffic.broadcast(sender, seq, path, payload)
                else:
                    envelope = Envelope(sender, BROADCAST, path, payload, beat)
                    for target in nodes:
                        self._hand(
                            when, lane, beat, seq + target, envelope, target
                        )
                seq += n
            else:
                envelope = Envelope(sender, receiver, path, payload, beat)
                stats.record(envelope, honest=True)
                if receiver in faulty:
                    sighted.append((sender, path, payload, envelope))
                elif receiver in nodes:
                    self._hand(when, lane, beat, seq, envelope, receiver)
                seq += 1

    def _send_byzantine(
        self, when: float, lane: _Lane, beat: int, sighted: list
    ) -> None:
        """The adversary phase of ``beat``: show the coalition what was
        addressed to it, hand what it crafts to the network."""
        # Pulses of one beat fire in any id order under drift; within a
        # sender the records are already in emission order.
        sighted.sort(key=_SENDER)
        view = FanoutView(beat, self._faulty)
        for sender, path, payload, envelope in sighted:
            if envelope is None:
                view.add_broadcast(sender, path, payload)
            else:
                view.add_envelope(envelope)
        crafted = craft_byzantine(self.world, beat, view)
        self.stats.record_block(crafted, honest=False)
        nodes = self.nodes
        # Whole or not at all: rows are ordered by record index, copies
        # handed off one by one by copy index, and the two do not mix for
        # one sender.  On time at the edge with the largest delay — the
        # honest broadcasts' own predicate — is on time for everyone
        # (a faulty sender is nobody's loopback), no draw asked.
        if _on_time(when, self.delays.hi, lane.edge):
            lane.traffic.crafted(crafted.records, nodes)
            return
        for seq, envelope in enumerate(crafted):
            if envelope.receiver in nodes:
                self._hand(when, lane, beat, seq, envelope, envelope.receiver)

    def _hand(
        self,
        when: float,
        lane: _Lane,
        beat: int,
        seq: int,
        envelope: Envelope,
        receiver: int,
    ) -> None:
        """Hand one copy to the network at instant ``when``: buffered at
        its receiver at once if it will be on time, counted late if not.
        The keyed draw is made only when the bounds leave it to decide."""
        sender = envelope.sender
        close = lane.closes[receiver]
        delays = self.delays
        if sender == receiver:  # loopback is always perfect, in every engine
            on_time = _on_time(when, 0.0, close)
        elif _on_time(when, delays.hi, close):
            on_time = True
        elif not _on_time(when, delays.d_min, close):
            on_time = False
        else:
            on_time = _on_time(
                when, delays.delay(sender, receiver, beat, seq), close
            )
        sync = self.synchronizers[receiver]
        if on_time:
            sync.deliver(lane.traffic, seq, envelope)
        else:
            sync.late_messages += 1

    def _result(self, k: "int | None") -> ContinuousResult:
        beats = self.beats_run
        records = records_from_traces(
            {i: sync.trace for i, sync in self.synchronizers.items()}, beats
        )
        converged = None
        converged_time = None
        if k is not None:
            from repro.core.problem import converged_at

            converged = converged_at(history_rows(records), k)
            if converged is not None:
                converged_time = max(
                    sync.close_time(converged)
                    for sync in self.synchronizers.values()
                )
        max_skew = max(self.pulse_skew(beat) for beat in range(beats + 1))
        duration = max(
            sync.close_time(beats - 1) for sync in self.synchronizers.values()
        )
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
            max_pulse_skew=max_skew,
            converged_time=converged_time,
            duration=duration,
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
