"""Byzantine behaviour as a live peer.

In the simulator the adversary is a phase of the beat loop; in the runtime
it is a *process*: :class:`ByzantineProcess` owns every faulty id's
transport endpoint and speaks for all of them at once, reusing the
:mod:`repro.adversary` strategy objects and payload machinery unchanged.

The rushing power survives the move to a live network because the process
participates in the round barrier asymmetrically: it waits until every
*honest* peer has closed its send phase for beat ``b`` (their ``end``
markers arrived at the faulty endpoints), inspects everything addressed to
faulty ids — which includes every honest broadcast — crafts the beat's
faulty traffic, sends it, and only *then* emits the faulty ids' own
markers.  Honest barriers wait for those markers, so the crafted messages
always land inside beat ``b``: same-beat rushing, exactly the §6.1 power
the lock-step adversary phase grants.

Determinism note: the visible set is canonically ordered by ``(sender,
emission seq, faulty receiver)`` before the strategy sees it, which is the
same order the simulation engines build their adversary view in — one of
the two facts (with keyed coin outcomes) that make zero-delay runtime runs
bit-identical to the simulator even under an adversary.  The faulty
receiver is the id of the endpoint an entry was collected from, stamped
here: the host's shared entries carry ``BROADCAST``, and this view is the
one reader of ``Envelope.receiver`` on the live path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.engine import craft_byzantine
from repro.net.inbox import entry_key
from repro.net.message import Envelope
from repro.runtime.codec import Codec, DEFAULT_CODEC, resolve_codec
from repro.runtime.transport import Endpoint
from repro.runtime.wire import END, Frame, frame_for_envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.world import World
    from repro.runtime.sync import BeatSynchronizer

__all__ = ["ByzantineProcess"]


class ByzantineProcess:
    """One task speaking for every faulty node over real endpoints.

    Args:
        world: the run's :class:`~repro.net.world.World` — its
            already-``setup()`` adversary, faulty set, environment and
            adversary RNG stream are the ones a lock-step run of the
            same seed uses, through the same adversary phase
            (:func:`~repro.net.engine.craft_byzantine`).
        endpoints: one transport endpoint per faulty id.
        codec: the run's wire codec — the faulty peers speak whatever the
            run speaks (a Byzantine node may *garble* frames, but that is
            modeled as malformed traffic, not a codec of its own).
        synchronizer_factory: ``(endpoint, expected, node_id) ->
            BeatSynchronizer``, the host's barrier constructor — the
            faulty endpoints get the same kind of barrier as the correct
            ones (fixed timeout, or :class:`~repro.runtime.sync.PulseBarrier`
            deadlines so a stalled *honest* peer cannot hang the
            adversary either).
    """

    def __init__(
        self,
        world: "World",
        endpoints: dict[int, Endpoint],
        *,
        codec: "str | Codec" = DEFAULT_CODEC,
        synchronizer_factory,
    ) -> None:
        self.world = world
        self.endpoints = dict(sorted(endpoints.items()))
        self.codec = resolve_codec(codec)
        self.honest_ids = list(world.nodes)
        self.messages_sent = 0
        self.frames_sent = 0
        self.dead_letters = 0
        # One barrier per faulty endpoint, each closed by the honest
        # markers alone: the faulty ids' own markers are this process's
        # output, and other faulty traffic is never part of the legal view.
        self._synchronizers = {
            node_id: synchronizer_factory(endpoint, self.honest_ids, node_id)
            for node_id, endpoint in self.endpoints.items()
        }

    @property
    def barriers(self) -> "list[BeatSynchronizer]":
        """The faulty endpoints' round barriers (their ``counters`` are
        part of the run's :func:`~repro.runtime.runner.harvest`)."""
        return list(self._synchronizers.values())

    async def run(self, beats: int) -> None:
        """Participate in ``beats`` consecutive beats."""
        faulty_ids = self.world.faulty_ids
        all_ids = range(self.world.n)
        for beat in range(beats):
            # Canonical visible order: (sender, seq) from the wire key,
            # then faulty receiver — the engines' view-building order.
            entries = []
            for node_id, synchronizer in self._synchronizers.items():
                for key, shared in await synchronizer.collect_entries(beat):
                    sender, _, path, payload, tag = shared
                    if sender not in faulty_ids:
                        stamped = Envelope(sender, node_id, path, payload, tag)
                        entries.append(((key, node_id), stamped))
            entries.sort(key=entry_key)
            visible = [envelope for _key, envelope in entries]
            crafted = craft_byzantine(self.world, beat, visible)
            # Group per (faulty sender, honest receiver) link; the seq
            # stays global over the crafted list (dead letters included)
            # so the honest barriers' sort key matches the lock-step
            # engines' delivery order exactly.
            batches: "dict[tuple[int, int], list[Frame]]" = {}
            for seq, envelope in enumerate(crafted):
                if (
                    envelope.receiver in faulty_ids
                    or envelope.receiver not in all_ids
                ):
                    # Faulty-to-faulty traffic is a dead letter in the
                    # simulator too: it exists only in the adversary's head.
                    self.dead_letters += 1
                    continue
                batches.setdefault(
                    (envelope.sender, envelope.receiver), []
                ).append(frame_for_envelope(envelope, seq))
                self.messages_sent += 1
            for node_id, endpoint in self.endpoints.items():
                marker = Frame(kind=END, sender=node_id, beat=beat)
                for receiver in self.honest_ids:
                    frames = batches.pop((node_id, receiver), [])
                    frames.append(marker)
                    for unit in self.codec.encode_batch(frames):
                        self.frames_sent += 1
                        await endpoint.send(receiver, unit)
