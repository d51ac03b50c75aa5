"""Build and drive one live run: the runtime's ``Simulation`` counterpart.

:func:`run_runtime` builds the same :class:`~repro.net.world.World` a
:class:`~repro.net.simulator.Simulation` would, then runs its nodes as
concurrent asyncio tasks over a transport instead of a lock-step beat
loop.  The world is one half of the runtime determinism contract; the
other half is the round barrier's beat-close rule
(:class:`~repro.net.inbox.BeatInbox`, driven by :mod:`repro.runtime.sync`)
— see ARCHITECTURE.md, "Shared kernel".  Together they make a zero-delay
:class:`~repro.runtime.transport.LocalTransport` run reproduce the
simulator's per-beat honest clock trajectories bit-for-bit — enforced for
seeds 0-9, with and without an adversary, by
``tests/test_runtime_differential.py``.

What deliberately stays *outside* the contract: wall-clock timing, socket
scheduling and arrival interleavings (normalized away by the barrier's
sort), and the runtime's message accounting (the simulator counts shared
fan-outs, the runtime counts wire frames).

The pieces here are shared with the multi-process orchestrator, whose
workers each host a block of the same world: :func:`host_nodes` (the one
live host), :func:`harvest` / :func:`merge_harvests` (the one counter
roll-up) and :class:`LiveResult` (the one result surface).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Iterable, Sequence

from repro.core.problem import converged_at
from repro.errors import ConfigurationError
from repro.net.component import Component
from repro.net.events import DriftingClock
from repro.net.trace import (
    BeatRecord,
    TrajectoryResult,
    clock_probe,
    history_rows,
    records_from_traces,
)
from repro.net.world import World
from repro.runtime.byzantine import ByzantineProcess
from repro.runtime.codec import Codec, DEFAULT_CODEC, resolve_codec
from repro.runtime.node import RuntimeNode
from repro.runtime.sync import BeatSynchronizer, Intake, PulseBarrier, check_sync_mode
from repro.runtime.transport import (
    DEFAULT_TRANSPORT,
    Transport,
    resolve_transport,
)

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.adversary.base import Adversary

__all__ = [
    "LiveResult",
    "RuntimeResult",
    "harvest",
    "host_nodes",
    "merge_harvests",
    "run_runtime",
]


class LiveResult(TrajectoryResult):
    """What a live run's result says about itself, single-process
    (:class:`RuntimeResult`) or merged across workers
    (:class:`~repro.runtime.orchestrator.ClusterResult`)."""

    @property
    def health(self) -> dict[str, int]:
        """The barrier drop counters as one name-keyed snapshot."""
        return {
            "late_messages": self.late_messages,
            "premature_messages": self.premature_messages,
            "malformed_frames": self.malformed_frames,
            "barrier_timeouts": self.barrier_timeouts,
        }

    def to_jsonl(self, *, health: bool = False) -> str:
        """The trajectory in the shared JSONL trace format (see
        :mod:`repro.net.trace`) — byte-identical to what a simulator-side
        :class:`~repro.net.trace.Tracer` over the same run serializes.

        ``health=True`` appends one flight-recorder ``health`` event
        line (barrier counters plus per-node frame totals); old readers
        skip it, and the default stays byte-compatible.
        """
        text = super().to_jsonl()
        if health:
            from repro.obs.recorder import TraceEvent

            frames = {
                str(node_id): count
                for node_id, count in sorted(
                    (self.frames_by_node or {}).items()
                )
            }
            event = TraceEvent(
                "health", self.beats_run,
                {**self.health, "frames_by_node": frames},
            )
            text += event.to_jsonl() + "\n"
        return text

    @property
    def beats_per_sec(self) -> float:
        return self.beats_run / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def messages_per_sec(self) -> float:
        return (
            self.messages_sent / self.elapsed_s if self.elapsed_s > 0 else 0.0
        )


@dataclass(frozen=True)
class RuntimeResult(LiveResult):
    """Outcome of one live run.

    ``records`` holds one :class:`~repro.net.trace.BeatRecord` per beat —
    the honest nodes' probe values — in the same shape a simulator-side
    :class:`~repro.net.trace.Tracer` produces, so both serialize to the
    same JSONL trace format.  ``converged_beat`` is computed from the
    records when ``k`` was supplied (else ``None``), with the simulator's
    Definition 3.2 semantics.
    """

    seed: int
    transport: str
    beats_run: int
    records: tuple[BeatRecord, ...] = field(repr=False)
    converged_beat: "int | None"
    messages_sent: int
    late_messages: int
    premature_messages: int
    barrier_timeouts: int
    elapsed_s: float
    codec: str = "json"
    frames_sent: int = 0
    malformed_frames: int = 0
    frames_by_node: "dict[int, int] | None" = None
    #: Barrier mode: ``"beat"`` (fixed timeout) or ``"pulse"`` (drifting
    #: clock pulse schedule — see :class:`~repro.runtime.sync.PulseBarrier`).
    sync: str = "beat"
    pulse_timeouts: int = 0
    #: Pulse mode only: max pairwise spread of barrier-close instants over
    #: any beat, in real seconds (the run's measured precision); ``None``
    #: with fewer than two live barriers — a spread needs a pair.
    pulse_skew_s: "float | None" = None
    #: Pulse mode only: real seconds from the run anchor to the last
    #: honest close of the convergence beat (``None`` if not converged).
    converged_time_s: "float | None" = None


async def host_nodes(
    world: World,
    transport: Transport,
    owned_ids: Sequence[int],
    beats: int,
    *,
    codec: Codec,
    beat_timeout: "float | None",
    pulse: "tuple[float, float] | None" = None,
    probe: Callable[[Component], Any] = clock_probe,
    clock: "Callable[[], float] | None" = None,
    before_start: "Callable[[], Awaitable[None]] | None" = None,
) -> "tuple[list[RuntimeNode], ByzantineProcess | None]":
    """The one live host: run ``owned_ids``' share of ``world`` for
    ``beats`` beats over ``transport``, then close the transport.

    Every owned correct id gets an endpoint, a round barrier and a
    :class:`RuntimeNode` task; the owned faulty ids (all of them or none
    — one :class:`ByzantineProcess` speaks for the whole coalition) get
    the adversary's task.  ``pulse=(rho, pulse_period)`` swaps the fixed
    ``beat_timeout`` barrier for :class:`PulseBarrier` deadlines on one
    anchor shared by every barrier hosted here, so their close offsets
    are comparable.  ``before_start`` runs once everything owned is
    bound and before the first beat — the cluster's address exchange.
    """
    all_ids = frozenset(range(world.n))
    intake = Intake(world.n)  # one for every barrier hosted here
    if pulse is None:
        def barrier(endpoint, expected, _node_id):
            return BeatSynchronizer(
                endpoint, expected, beat_timeout=beat_timeout, codec=codec,
                intake=intake,
            )
    else:
        rho, pulse_period = pulse
        timing_seed = world.timing_seed
        anchor = asyncio.get_running_loop().time()

        def barrier(endpoint, expected, node_id):
            return PulseBarrier(
                endpoint,
                expected,
                clock=DriftingClock(timing_seed, node_id, rho, pulse_period),
                anchor=anchor,
                codec=codec,
                intake=intake,
            )
    runtime_nodes: list[RuntimeNode] = []
    process: "ByzantineProcess | None" = None
    try:
        for node_id in owned_ids:
            if node_id in world.nodes:
                endpoint = await transport.open(node_id)
                runtime_nodes.append(
                    RuntimeNode(
                        world.nodes[node_id],
                        endpoint,
                        barrier(endpoint, all_ids, node_id),
                        probe=probe,
                        clock=clock,
                    )
                )
        faulty = sorted(world.faulty_ids.intersection(owned_ids))
        if faulty:
            process = ByzantineProcess(
                world,
                {node_id: await transport.open(node_id) for node_id in faulty},
                codec=codec,
                synchronizer_factory=barrier,
            )
        if before_start is not None:
            await before_start()
        tasks = [node.run(beats) for node in runtime_nodes]
        if process is not None:
            tasks.append(process.run(beats))
        await asyncio.gather(*tasks)
    finally:
        await transport.aclose()
    return runtime_nodes, process


#: Harvest keys that merge across hosts by summing.
_SUMMED = (
    "messages_sent",
    "frames_sent",
    "late_messages",
    "premature_messages",
    "barrier_timeouts",
    "malformed_frames",
    "pulse_timeouts",
)


def harvest(
    runtime_nodes: "list[RuntimeNode]",
    process: "ByzantineProcess | None",
    transport: Transport,
    beats: int,
) -> "dict[str, Any]":
    """What one host's run amounted to, as plain picklable data: the
    per-node probe ``traces`` plus the counters every result, worker
    payload and metrics export reads (:class:`LiveResult` field names).

    ``pulse_skew_s`` is the max spread of the correct nodes'
    pulse-barrier close instants (one shared anchor) over any beat;
    ``None`` with fewer than two such barriers — a spread needs a pair.
    """
    barriers = [rn.synchronizer for rn in runtime_nodes]
    speakers, listeners = list(runtime_nodes), list(barriers)
    if process is not None:
        speakers.append(process)
        listeners.extend(process.barriers)
    totals: "dict[str, Any]" = dict.fromkeys(_SUMMED, 0)
    totals["messages_sent"] = sum(s.messages_sent for s in speakers)
    totals["frames_sent"] = sum(s.frames_sent for s in speakers)
    totals["malformed_frames"] = getattr(transport, "malformed_frames", 0)
    for barrier in listeners:
        for name, count in barrier.counters.items():
            totals[name] += count
    closes = [
        barrier.pulse_closes
        for barrier in barriers
        if isinstance(barrier, PulseBarrier)
    ]
    totals["pulse_skew_s"] = None
    if len(closes) >= 2:
        totals["pulse_skew_s"] = max(
            max(c[beat] for c in closes) - min(c[beat] for c in closes)
            for beat in range(beats)
        )
    totals["traces"] = {
        rn.node.node_id: list(rn.trace) for rn in runtime_nodes
    }
    totals["frames_by_node"] = {
        rn.node.node_id: rn.frames_sent for rn in runtime_nodes
    }
    return totals


def merge_harvests(harvests: "Iterable[dict[str, Any]]") -> "dict[str, Any]":
    """Fold per-host harvests (disjoint node sets) into one.

    Clocks are not comparable across hosts, so ``pulse_skew_s`` merges
    by max over the hosts that measured one — a lower bound on the
    system-wide skew.
    """
    parts = list(harvests)
    merged: "dict[str, Any]" = {
        key: sum(part[key] for part in parts) for key in _SUMMED
    }
    merged["traces"] = {}
    merged["frames_by_node"] = {}
    for part in parts:
        merged["traces"].update(part["traces"])
        merged["frames_by_node"].update(part["frames_by_node"])
    merged["pulse_skew_s"] = max(
        (p["pulse_skew_s"] for p in parts if p["pulse_skew_s"] is not None),
        default=None,
    )
    return merged


def run_runtime(
    n: int,
    f: int,
    root_factory: Callable[[int], Component],
    *,
    adversary: "Adversary | None" = None,
    seed: int = 0,
    beats: int = 60,
    transport: "str | Transport" = DEFAULT_TRANSPORT,
    codec: "str | Codec" = DEFAULT_CODEC,
    k: "int | None" = None,
    scramble: bool = True,
    beat_timeout: "float | None" = 30.0,
    sync: str = "beat",
    pulse_period: float = 0.2,
    rho: float = 0.0,
    stall_ids: "tuple[int, ...]" = (),
    root_path: str = "root",
    probe: Callable[[Component], Any] = clock_probe,
    metrics: "object | None" = None,
    recorder: "object | None" = None,
) -> RuntimeResult:
    """Run the protocol live for ``beats`` beats; return the trajectory.

    Mirrors the :class:`~repro.net.simulator.Simulation` constructor's
    parameters and builds the same :class:`~repro.net.world.World`;
    ``beats`` is the run's duration — there is no early stopping, because no live
    node can locally know the *global* convergence beat.  ``k`` enables
    convergence reporting on the collected records.  ``codec`` picks the
    wire format (see :mod:`repro.runtime.codec`) — a run-wide choice that
    never changes the trajectory, only the bytes: the differential suite
    pins ``binary`` runs trace-identical to ``json`` runs.

    ``sync="pulse"`` swaps the fixed ``beat_timeout`` barrier for the
    continuous-time :class:`~repro.runtime.sync.PulseBarrier`: every node
    gets a :class:`~repro.net.events.DriftingClock` (rate keyed in
    ``[1 - rho, 1 + rho]`` from the run's shared ``"timing"`` seed, pulse
    every ``pulse_period`` local seconds), barriers close early on full
    marker sets but never wait past the next pulse, and the result gains
    the precision metrics ``pulse_skew_s`` / ``converged_time_s`` /
    ``pulse_timeouts``.  ``beat_timeout`` is ignored in pulse mode — the
    pulse schedule *is* the timeout.

    ``stall_ids`` injects crash faults on *honest* nodes: those node
    processes never start (no endpoint, no markers), so every live
    peer's barrier must absorb the silence — fixed timeouts in beat
    mode, pulse-deadline closes in pulse mode — and the run must still
    terminate after ``beats`` beats.  The stalled nodes contribute no
    trace records.

    Telemetry: ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) gets
    the run's counters re-homed onto ``runtime_*`` instruments after the
    run; ``recorder`` (a :class:`~repro.obs.FlightRecorder`) turns on
    per-beat timing stats on the nodes and receives the event stream via
    :meth:`~repro.obs.FlightRecorder.observe_runtime`.  Neither touches
    the trajectory — the differential suite pins instrumented runs
    trace-identical to bare ones.
    """
    if beats < 1:
        raise ConfigurationError(f"need at least one beat, got {beats}")
    check_sync_mode(sync, rho, pulse_period)
    world = World.build(
        n, f, root_factory, adversary=adversary, seed=seed,
        root_path=root_path,
    )
    stalled = frozenset(stall_ids)
    bad_stalls = sorted(i for i in stalled if i not in world.nodes)
    if bad_stalls:
        raise ConfigurationError(
            f"stall_ids {bad_stalls} are not honest node ids: only "
            "correct processes can be stalled (the adversary already "
            "speaks for the faulty ones)"
        )
    if stalled and len(stalled) >= len(world.nodes):
        raise ConfigurationError(
            "cannot stall every honest node: nobody would be left to "
            "drive the run to termination"
        )
    if scramble:
        world.scramble()

    transport_obj = resolve_transport(transport)
    codec_obj = resolve_codec(codec)
    started = time.perf_counter()
    runtime_nodes, process = asyncio.run(
        host_nodes(
            world,
            transport_obj,
            # Stalled nodes never open an endpoint, never mark a beat.
            [i for i in range(n) if i not in stalled],
            beats,
            codec=codec_obj,
            beat_timeout=beat_timeout,
            pulse=(rho, pulse_period) if sync == "pulse" else None,
            probe=probe,
            clock=getattr(recorder, "clock", None),
        )
    )
    elapsed = time.perf_counter() - started

    counters = harvest(runtime_nodes, process, transport_obj, beats)
    records = records_from_traces(counters.pop("traces"), beats)
    converged = (
        converged_at(history_rows(records), k) if k is not None else None
    )
    converged_time = None
    if sync == "pulse" and converged is not None:
        converged_time = max(
            rn.synchronizer.pulse_closes[converged] for rn in runtime_nodes
        )
    result = RuntimeResult(
        seed=seed,
        transport=transport_obj.name,
        beats_run=beats,
        records=records,
        converged_beat=converged,
        elapsed_s=elapsed,
        codec=codec_obj.name,
        sync=sync,
        converged_time_s=converged_time,
        **counters,
    )
    if metrics is not None:
        from repro.obs.metrics import record_runtime

        record_runtime(metrics, result)
    if recorder is not None:
        recorder.observe_runtime(result, runtime_nodes)
    return result
