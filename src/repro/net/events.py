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
* every message takes real time: delivery is scheduled at
  ``send_time + delay`` with a keyed delay draw in ``[d_min, d_max]``
  (:class:`KeyedDelays`).  A message that reaches its receiver after the
  receiver already closed the tagged beat is **counted and dropped** —
  the same late-traffic semantics the live runtime's round barrier
  applies (:mod:`repro.runtime.sync`);
* instead of a beat loop, a deterministic min-heap of timestamped events
  (:class:`EventHeap`) interleaves pulses, closes, arrivals and the
  adversary phase in global time order.

Determinism contract
--------------------

Every random choice is a *keyed* draw in the exact
:mod:`repro.net.linkmodel` discipline — clock rates are keyed by node
id, delays by ``(sender, receiver, beat, seq)`` — never a shared
sequential stream, so trajectories are independent of event pop order,
campaign worker counts, and the order in which draws are first asked
for.  The load-bearing correctness argument is the **differential pin**:
at ``rho = 0`` and ``delay_bounds = (0, 0)`` every pulse coincides,
every close lands exactly one period later, and the event-driven
execution replays the lock-step engines *bit-identically*.  What makes
that so is shared code, not a convention kept in step: the system is the
one :class:`~repro.net.world.World` every path builds, the beat-close
rule is the :class:`~repro.net.inbox.BeatInbox` the live barrier also
drives (see ARCHITECTURE.md, "Shared kernel"), and the rushing
adversary's view order is the engines'.  ``tests/test_event_engine.py`` enforces the pin
against :class:`~repro.net.engine.ReferenceEngine` across seeds, and the
gated ``pulse_precision`` bench pins the shared JSONL trace digests in
CI.

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
from repro.net.engine import craft_byzantine
from repro.net.inbox import BeatInbox, group_by_path
from repro.net.message import Envelope
from repro.net.network import MessageStats
from repro.net.node import Node
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

# Event priorities at equal timestamps.  Arrivals land before a
# coincident close (arrive-at-deadline traffic is on time), closes run
# before coincident pulses (a node finishes update_phase(b) before
# send_phase(b+1) — the lock-step phase order), pulses run before the
# beat's rushing adversary (it sees the *whole* beat's coalition-bound
# traffic), ties broken by node id — which at zero drift reproduces the
# lock-step engines' ascending-id phase sweeps exactly.
_P_ARRIVAL = 0
_P_CLOSE = 1
_P_PULSE = 2
_P_ADVERSARY = 3


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
    """Per-message delivery delays: keyed draws in ``[d_min, d_max]``.

    Keyed by ``(sender, receiver, beat, seq)`` — one independent draw
    per emitted envelope, reproducible whatever order envelopes are
    scheduled in (the :mod:`~repro.net.linkmodel` discipline).  The
    degenerate ``(0, 0)`` bounds short-circuit to exactly ``0.0``, the
    differential-pin configuration.
    """

    __slots__ = ("d_max", "d_min", "_seed")

    def __init__(self, seed: int, d_min: float, d_max: float) -> None:
        if not 0.0 <= d_min <= d_max:
            raise ConfigurationError(
                f"delay bounds need 0 <= d_min <= d_max, got "
                f"({d_min}, {d_max})"
            )
        self._seed = seed
        self.d_min = d_min
        self.d_max = d_max

    def delay(self, sender: int, receiver: int, beat: int, seq: int) -> float:
        """The delivery delay of one envelope; always in
        ``[d_min, d_max]``."""
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


class PulseSynchronizer(BeatInbox):
    """Maps one beat-driven :class:`~repro.net.node.Node` tower onto
    pulses of a drifting clock.

    The node fires pulse ``b`` when its local clock crosses
    ``b * period``: the beat-``b`` send phase runs at that instant, and
    the beat closes — update phase over everything that arrived in time
    — at pulse ``b + 1``.  Buffering, the late count-and-drop and the
    canonical inbox order are the shared :class:`BeatInbox` rule, the
    very code the live barrier runs.
    """

    __slots__ = ("clock", "node", "trace")

    def __init__(self, node: Node, clock: DriftingClock) -> None:
        super().__init__()
        self.node = node
        self.clock = clock
        #: Per-beat probe values, appended at each close: ``(beat, value)``.
        self.trace: list[tuple[int, Any]] = []

    def pulse_time(self, beat: int) -> float:
        """Real time of this node's pulse ``beat`` (send phase)."""
        return self.clock.pulse_time(beat)

    def close_time(self, beat: int) -> float:
        """Real time at which this node closes beat ``beat``."""
        return self.clock.pulse_time(beat + 1)

    def send(self, beat: int) -> list[Envelope]:
        """Fire pulse ``beat``: run the send phase, return its envelopes."""
        return self.node.send_phase(beat)

    # Named in this class's own namespace, not merely inherited: the beat
    # ledger instruments ``PulseSynchronizer.deliver`` where it is defined.
    deliver = BeatInbox.deliver

    def close(self, beat: int, probe: Callable[[Component], Any]) -> None:
        """Close beat ``beat``: update phase over the sorted inbox, then
        probe the tower for the trace."""
        self.node.update_phase(beat, group_by_path(self.close_entries(beat)))
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
    cannot disturb the shared streams), then executes pulses, arrivals
    and the adversary phase from a deterministic event heap instead of a
    beat loop.

    Args:
        n, f: system size and fault parameter.
        root_factory: per-node root component builder.
        adversary: controls the faulty ids (``None`` = fault-free); the
            rushing power is preserved — the adversary phase for beat
            ``b`` fires once every honest pulse ``b`` has fired, sees
            the coalition-bound traffic in the engines' canonical
            ``(sender, seq, receiver)`` order, and its crafted traffic
            takes keyed delays like everyone else's.
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
        adversary_active = bool(self.faulty_ids)
        visible: dict[int, list[tuple[int, int, Envelope]]] = {}
        for i, sync in synchronizers.items():
            heap.push((sync.pulse_time(0), _P_PULSE, i), ("pulse", i, 0))
        if adversary_active:
            # The rushing adversary for beat b acts once the last honest
            # pulse b has fired; the priority breaks the zero-drift tie
            # so it still sees the whole beat's coalition-bound traffic.
            for beat in range(beats):
                when = max(s.pulse_time(beat) for s in synchronizers.values())
                heap.push((when, _P_ADVERSARY, self.n), ("adversary", beat))

        while heap:
            (when, priority, _who), event = heap.pop()
            kind = event[0]
            if kind == "arrival":
                _, receiver, beat, key, envelope = event
                synchronizers[receiver].deliver(beat, key, envelope)
            elif kind == "close":
                _, node_id, beat = event
                synchronizers[node_id].close(beat, self.probe)
            elif kind == "pulse":
                _, node_id, beat = event
                sync = synchronizers[node_id]
                envelopes = sync.send(beat)
                for seq, envelope in enumerate(envelopes):
                    self._dispatch(heap, when, beat, seq, envelope, visible)
                heap.push(
                    (sync.close_time(beat), _P_CLOSE, node_id),
                    ("close", node_id, beat),
                )
                if beat + 1 < beats:
                    heap.push(
                        (sync.pulse_time(beat + 1), _P_PULSE, node_id),
                        ("pulse", node_id, beat + 1),
                    )
            else:  # adversary
                _, beat = event
                batch = visible.pop(beat, [])
                batch.sort()  # canonical (sender, seq, receiver) view order
                crafted = craft_byzantine(
                    self.world, beat,
                    [envelope for _s, _q, envelope in batch],
                )
                for seq, envelope in enumerate(crafted):
                    self.stats.record(envelope, honest=False)
                    if envelope.receiver in self.nodes:
                        self._schedule_arrival(heap, when, beat, seq, envelope)
        return self._result(k)

    def _dispatch(
        self,
        heap: EventHeap,
        when: float,
        beat: int,
        seq: int,
        envelope: Envelope,
        visible: dict[int, list[tuple[int, int, Envelope]]],
    ) -> None:
        """Route one honest envelope: record, sight, schedule arrival."""
        self.stats.record(envelope, honest=True)
        if envelope.receiver in self.faulty_ids:
            visible.setdefault(beat, []).append((envelope.sender, seq, envelope))
        if envelope.receiver in self.nodes:
            self._schedule_arrival(heap, when, beat, seq, envelope)

    def _schedule_arrival(
        self,
        heap: EventHeap,
        when: float,
        beat: int,
        seq: int,
        envelope: Envelope,
    ) -> None:
        if envelope.sender == envelope.receiver:
            delay = 0.0  # loopback is always perfect, as in every engine
        else:
            delay = self.delays.delay(
                envelope.sender, envelope.receiver, beat, seq
            )
        heap.push(
            (when + delay, _P_ARRIVAL, envelope.receiver),
            ("arrival", envelope.receiver, beat, (envelope.sender, seq),
             envelope),
        )

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
