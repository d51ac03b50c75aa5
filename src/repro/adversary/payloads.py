"""Payload mutation helpers shared by adversary strategies.

Adversaries that are not protocol-specific work by *mimicry*: they observe
the payloads honest nodes broadcast on each component path and reply with
plausible-but-wrong variants.  This keeps one strategy applicable to every
protocol in the library (clocks, votes, coin rounds) while still exercising
the parsing and counting guards of honest code with type-correct garbage.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Any, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.base import AdversaryView
    from repro.net.message import CraftedTraffic

__all__ = ["mutate_payload", "observed_payloads", "push_or_junk"]


def observed_payloads(envelopes: list, path: str) -> list[Hashable]:
    """Payloads of visible messages on one path."""
    return [e.payload for e in envelopes if e.path == path]


def mutate_payload(payload: Any, rng: random.Random) -> Hashable:
    """A plausible corruption of an observed payload.

    Ints are nudged, ``None`` (the clocks' ⊥) becomes a bit, tagged tuples
    keep their tag but corrupt the value, and anything else is replaced by
    an arbitrary marker value.  Always hashable, never equal-by-construction
    to the input for ints/None.
    """
    if payload is None:
        return rng.randrange(2)
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        return payload + rng.choice((-1, 1, rng.randrange(2, 7)))
    if isinstance(payload, tuple) and payload:
        mutated = list(payload)
        index = rng.randrange(len(mutated))
        mutated[index] = mutate_payload(mutated[index], rng)
        return tuple(mutated)
    return ("garbage", rng.randrange(1 << 16))


def push_or_junk(
    view: "AdversaryView",
    senders: Iterable[int],
    path: str,
    pushed: Mapping[int, Hashable],
) -> "CraftedTraffic":
    """The 2-clock attacks' one move: every faulty sender tells each
    receiver ``pushed`` names that value, and everyone else its own junk
    — one junk object per sender, so the receivers it goes to are handed
    the same payload and share an inbox."""
    messages = view.traffic()
    for sender in sorted(senders):
        junk = ("noise", sender)
        messages.add_row(sender, path, {
            receiver: pushed.get(receiver, junk) for receiver in range(view.n)
        })
    return messages
