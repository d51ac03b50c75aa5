"""General-purpose Byzantine strategies.

These strategies are protocol-agnostic: they observe whatever honest
traffic is visible (everything addressed to a faulty node — in particular
every broadcast) and respond on the same component paths.  Protocol-aware
attacks live in :mod:`repro.adversary.anti_coin` and
:mod:`repro.adversary.dealer_attack`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.adversary.base import Adversary, AdversaryView
from repro.adversary.payloads import mutate_payload
from repro.net.message import Envelope

__all__ = [
    "CrashAdversary",
    "EquivocatorAdversary",
    "RandomNoiseAdversary",
    "ScriptedAdversary",
    "SplitWorldAdversary",
]


class CrashAdversary(Adversary):
    """Faulty nodes fall silent forever.

    The mildest Byzantine behaviour: correct nodes must reach their
    ``n - f`` thresholds from honest traffic alone.
    """

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        return []


class RandomNoiseAdversary(Adversary):
    """Faulty nodes spray mutated copies of whatever they observe.

    Every faulty node answers on every visible path, sending each honest
    node an independently mutated payload (or, with probability
    ``drop_rate``, nothing — intermittent crashes included).
    """

    def __init__(self, drop_rate: float = 0.2) -> None:
        super().__init__()
        self.drop_rate = drop_rate

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        messages = view.traffic()
        rng = view.rng
        for path in sorted(view.visible_paths()):
            samples = view.observed_payloads(path)
            for sender in sorted(self.faulty_ids):
                # Draws stay in receiver order; a dropped receiver is
                # simply absent from the sender's row.
                row = {}
                for receiver in range(view.n):
                    if rng.random() < self.drop_rate:
                        continue
                    row[receiver] = mutate_payload(rng.choice(samples), rng)
                messages.add_row(sender, path, row)
        return messages


class EquivocatorAdversary(Adversary):
    """Faulty nodes send *different, internally plausible* values to
    different receivers — the canonical Byzantine behaviour the ``n - f``
    intersection thresholds exist to defeat.

    Receivers are split in half by id; each half consistently receives one
    of two contradictory variants of the observed traffic.
    """

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        messages = view.traffic()
        for path in sorted(view.visible_paths()):
            samples = view.observed_payloads(path)
            variant_a = view.rng.choice(samples)
            variant_b = mutate_payload(variant_a, view.rng)
            # Every faulty node tells the same two stories: one row.
            row = {
                receiver: variant_a if receiver % 2 == 0 else variant_b
                for receiver in range(view.n)
            }
            for sender in sorted(self.faulty_ids):
                messages.add_row(sender, path, row)
        return messages


class SplitWorldAdversary(Adversary):
    """Tries to hold two halves of the correct nodes in different worlds.

    On every path, one half receives the plurality of what honest nodes
    sent, the other half a mutation of it; when an oracle-coin instance
    lands in the divergent event (which Definition 2.6 leaves entirely to
    the adversary) the two halves are handed opposite bits.  This is the
    worst-case shape for agreement-by-threshold protocols: it maximizes
    the chance that different correct nodes cross ``n - f`` for different
    values.
    """

    def setup(
        self, n: int, f: int, faulty_ids: frozenset[int], rng: random.Random
    ) -> None:
        super().setup(n, f, faulty_ids, rng)
        honest = self.honest_ids
        self.group_a = frozenset(honest[: len(honest) // 2])

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        messages = view.traffic()
        for path in sorted(view.visible_paths()):
            samples = view.observed_payloads(path)
            counts: dict = {}
            for sample in samples:
                counts[sample] = counts.get(sample, 0) + 1
            plurality = max(counts.items(), key=lambda item: item[1])[0]
            twisted = mutate_payload(plurality, view.rng)
            row = {
                receiver: plurality if receiver in self.group_a else twisted
                for receiver in range(view.n)
            }
            for sender in sorted(self.faulty_ids):
                messages.add_row(sender, path, row)
        return messages

    def choose_divergent_outputs(
        self, key: tuple[str, int], bits: dict[int, int]
    ) -> dict[int, int]:
        return {
            node_id: (0 if node_id in self.group_a else 1) for node_id in bits
        }


class ScriptedAdversary(Adversary):
    """Fully scripted behaviour for unit tests.

    ``script`` maps a beat number to a list of ``(sender, receiver, path,
    payload)`` tuples; anything not scripted is silence.  An entry whose
    receiver is ``None`` scripts a whole row: its payload is a mapping
    receiver -> payload, sent as one
    :meth:`~repro.net.message.CraftedTraffic.add_row`.
    """

    def __init__(
        self, script: "dict[int, list[tuple[int, int | None, str, object]]]"
    ):
        super().__init__()
        self.script = script

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        messages = view.traffic()
        for sender, receiver, path, payload in self.script.get(view.beat, []):
            if receiver is None:
                messages.add_row(sender, path, payload)
            else:
                messages.add_envelope(
                    view.make_envelope(sender, receiver, path, payload)
                )
        return messages
