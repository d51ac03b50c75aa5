"""Adaptive adversaries: strategies conditioned on observed traffic.

Every strategy in :mod:`repro.adversary.strategies` is *reactive within
a beat* — it sees the current beat's visible messages (the rushing
channel) but follows the same fixed script every beat.  An *adaptive*
adversary instead carries memory across beats: it observes what the
honest nodes sent on the previous beat and chooses this beat's attack
from that history, which is the stronger model the dynamic-world
literature evaluates against (an attacker that tracks the protocol's
progress instead of spraying blind).

:class:`AdaptiveAdversary` is the seam: subclasses implement
:meth:`~AdaptiveAdversary.adapt`, a strategy callback receiving both the
current rushing view and the previous beat's visible honest traffic; the
base class maintains the memory.  :class:`AdaptiveEchoAdversary` is the
shipped concrete strategy (registry name ``"adaptive"``): it replays the
previous beat's majority payload to one half of the network and a
mutation of it to the other half — stale-but-plausible equivocation that
only an observer of real traffic could craft.

Determinism: memory updates are pure bookkeeping and all randomness
flows through the view's adversary RNG stream, so adaptive runs stay
bit-identical across engines and reproduce from the seed alone.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adversary.base import Adversary, AdversaryView
from repro.adversary.payloads import mutate_payload
from repro.net.message import Envelope

__all__ = ["AdaptiveAdversary", "AdaptiveEchoAdversary"]


class AdaptiveAdversary(Adversary):
    """Base class for strategies that condition on the previous beat.

    Subclasses override :meth:`adapt` instead of
    :meth:`~repro.adversary.base.Adversary.craft_messages`; the base
    class snapshots each beat's visible honest traffic *after* the
    strategy ran, so ``adapt`` always sees exactly one beat of history
    (empty on the first beat — there is nothing to have observed yet).
    """

    def __init__(self) -> None:
        super().__init__()
        #: The previous beat's visible honest traffic (read-only memory).
        self.observed: tuple[Envelope, ...] = ()

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        messages = self.adapt(view, list(self.observed))
        self.observed = tuple(
            envelope
            for envelope in view.visible_messages
            if envelope.sender not in self.faulty_ids
        )
        return messages

    def adapt(
        self, view: AdversaryView, previous: list[Envelope]
    ) -> Sequence[Envelope]:
        """Choose this beat's messages from the current rushing view and
        ``previous`` — the honest traffic observed one beat ago."""
        return []


class AdaptiveEchoAdversary(AdaptiveAdversary):
    """Stale-echo equivocation: replay yesterday's majority, twisted.

    For every component path that carried honest traffic on the previous
    beat, the faulty nodes send the payload the *most* honest nodes sent
    there (maximally plausible — it passed every honest filter one beat
    ago) to one half of the network, and a mutation of it to the other
    half.  Unlike :class:`~repro.adversary.strategies.EquivocatorAdversary`
    this needs cross-beat memory: the majority is computed over observed
    history, not over the current rushing view.
    """

    def adapt(
        self, view: AdversaryView, previous: list[Envelope]
    ) -> Sequence[Envelope]:
        by_path: dict[str, dict[object, int]] = {}
        for envelope in previous:
            counts = by_path.setdefault(envelope.path, {})
            counts[envelope.payload] = counts.get(envelope.payload, 0) + 1
        messages = view.traffic()
        for path in sorted(by_path):
            counts = by_path[path]
            # Deterministic plurality: ties break on the payload repr, so
            # the choice never depends on dict iteration order.
            majority = max(
                counts.items(), key=lambda item: (item[1], repr(item[0]))
            )[0]
            twisted = mutate_payload(majority, view.rng)
            row = {
                receiver: majority if receiver % 2 == 0 else twisted
                for receiver in range(view.n)
            }
            for sender in sorted(self.faulty_ids):
                messages.add_row(sender, path, row)
        return messages
