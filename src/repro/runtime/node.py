"""A live protocol node: one asyncio task driving the component tower.

:class:`RuntimeNode` is the runtime's counterpart of the simulator's
update loop for one correct node.  It reuses :class:`repro.net.node.Node`
— and therefore the entire :mod:`repro.core` component tower — unchanged:
the node still experiences a strict send-phase / update-phase beat; only
the message plane underneath it is now a real concurrent transport plus a
:class:`~repro.runtime.sync.BeatSynchronizer` round barrier instead of a
lock-step engine.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

from repro.net.message import BROADCAST, FastOutbox
from repro.net.node import Node
from repro.runtime.sync import BeatSynchronizer
from repro.runtime.transport import Endpoint
from repro.runtime.wire import END, MSG, Frame

__all__ = ["RuntimeNode"]

_by_seq = attrgetter("seq")


class RuntimeNode:
    """One correct node running live.

    Per beat: run the tower's send phase into the engines' fan-out
    collector (:class:`~repro.net.message.FastOutbox`) and build **one**
    frame per record, tagged with the beat and the record's per-sender
    emission sequence number — a full broadcast is one frame with
    ``receiver=BROADCAST``, as the fast engine's shared envelopes are.
    Each *distinct* (link, beat) batch is then encoded once: every link
    with no point-to-point traffic this beat is handed the same encoded
    units (the broadcasts, then the beat's ``end`` marker — n sends, one
    encode), and a link that has some gets its own batch, its frames
    merged among the broadcasts in ``seq`` order ahead of the marker.
    Per-link FIFO content is what a frame-per-copy sender would ship —
    one unit per (link, beat) on a batching codec, one per frame on
    ``json`` — minus the receiver id, which no honest receiver reads
    (a node knows who it is).  A send addressed outside the system is
    counted and goes nowhere, as in the simulator.

    Then await the round barrier and drive the tower's update phase with
    the sorted inboxes.  ``probe`` is snapshotted after every update phase
    into :attr:`trace` (beat, value) pairs — the runtime's equivalent of a
    :class:`~repro.net.trace.Tracer` monitor.

    ``clock`` (usually ``time.perf_counter``, set by the runner when a
    flight recorder is attached) turns on per-beat stats: each beat
    appends ``(beat, elapsed_seconds, messages)`` to :attr:`beat_stats`.
    Timing reads only the clock — never the RNG, never node state — so
    the trajectory is identical with it on or off; ``None`` (the
    default) skips even the clock reads.
    """

    def __init__(
        self,
        node: Node,
        endpoint: Endpoint,
        synchronizer: BeatSynchronizer,
        *,
        probe: "Callable[[Any], Any] | None" = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        self.node = node
        self.endpoint = endpoint
        self.synchronizer = synchronizer
        self.probe = probe
        self.clock = clock
        self.trace: list[tuple[int, Any]] = []
        self.beat_stats: list[tuple[int, float, int]] = []
        self.messages_sent = 0
        self.frames_sent = 0
        self.beats_run = 0

    async def run(self, beats: int) -> None:
        """Execute ``beats`` consecutive beats."""
        node = self.node
        me = node.node_id
        n = node.n
        endpoint = self.endpoint
        encode = self.synchronizer.codec.encode_batch
        send_nowait = getattr(endpoint, "send_nowait", None)
        clock = self.clock
        outbox = FastOutbox(n)
        for _ in range(beats):
            beat = self.synchronizer.beat
            beat_started = clock() if clock is not None else 0.0
            records = node.send_phase(beat, outbox)
            # The record index is the emission seq (the simulator's
            # delivery sort key), global over shared and private frames.
            shared: "list[Frame]" = []
            private: "dict[int, list[Frame]]" = {}
            for seq, (path, payload, receiver) in enumerate(records):
                if receiver is None:
                    shared.append(
                        Frame(MSG, me, beat, seq, BROADCAST, path, payload)
                    )
                else:
                    private.setdefault(receiver, []).append(
                        Frame(MSG, me, beat, seq, receiver, path, payload)
                    )
            # A broadcast record is n messages, any other record one.
            messages = len(records) + (n - 1) * len(shared)
            # Every in-system link's batch closes with the beat's marker.
            marker = Frame(END, me, beat)
            shared_units = None
            for receiver in range(n):
                own = private.get(receiver)
                if own is None:
                    if shared_units is None:
                        shared_units = encode(shared + [marker])
                    units = shared_units
                else:
                    merged = sorted(shared + own, key=_by_seq)
                    units = encode(merged + [marker])
                for unit in units:
                    self.frames_sent += 1
                    if send_nowait is not None:
                        send_nowait(receiver, unit)
                    else:
                        await endpoint.send(receiver, unit)
            self.messages_sent += messages
            inboxes = await self.synchronizer.collect(beat)
            node.update_phase(beat, inboxes)
            if self.probe is not None:
                self.trace.append((beat, self.probe(node.root)))
            if clock is not None:
                self.beat_stats.append(
                    (beat, clock() - beat_started, messages)
                )
            self.beats_run += 1
