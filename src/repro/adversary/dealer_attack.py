"""GVSS-level attacks on the Feldman-Micali coin.

The coin's agreement probability is the one quantity our simplified GVSS
does not inherit a worst-case proof for (see the closing paragraphs of
:mod:`repro.coin.feldman_micali`), so we attack it
directly and *measure*.  The strategy is round-aware: it recognizes the
pipeline's ``(slot, (kind, body))`` tagging and misbehaves per GVSS round:

* **share** — deal inconsistent rows: every receiver gets an independent
  random row polynomial (no symmetric bivariate exists behind them);
* **exchange** — report random cross points, framing honest dealers;
* **vote** — equivocate: half the receivers are told "everyone is fine",
  the other half "everyone cheated", maximizing grade disagreement;
* **recover** — broadcast random zero-shares for every dealer, forcing the
  error-correcting decoder to actually correct ``f`` lies.

The vote equivocation is the lever that can push a Byzantine dealer into
mixed grade-1/grade-0 acceptance and hence desynchronize the parity; the
F4 bench quantifies how far below the fault-free 1/2 the measured p0/p1
fall under it.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.adversary.base import Adversary, AdversaryView
from repro.coin.field import PrimeField
from repro.net.message import Envelope

__all__ = ["DealerAttackAdversary"]

_ROUND_KINDS = ("row", "xpt", "vote", "rshare")


class DealerAttackAdversary(Adversary):
    """Round-aware attack on every GVSS pipeline visible on the network."""

    def __init__(self, n: int | None = None) -> None:
        super().__init__()
        self._field: PrimeField | None = None

    def setup(
        self, n: int, f: int, faulty_ids: frozenset[int], rng: random.Random
    ) -> None:
        super().setup(n, f, faulty_ids, rng)
        self._field = PrimeField.for_system(n)

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        assert self._field is not None
        messages = view.traffic()
        # Group visible coin traffic by (path, slot, kind) and answer each.
        seen: set[tuple[str, int, str]] = set()
        for envelope in view.visible_messages:
            payload = envelope.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], int)
                and isinstance(payload[1], tuple)
                and payload[1]
                and payload[1][0] in _ROUND_KINDS
            ):
                continue
            seen.add((envelope.path, payload[0], payload[1][0]))
        for path, slot, kind in sorted(seen):
            # A vote round draws nothing: one row serves every sender.
            votes = self._vote_round(view, slot) if kind == "vote" else None
            for sender in sorted(self.faulty_ids):
                messages.add_row(
                    sender, path,
                    votes or self._random_round(view, slot, kind),
                )
        return messages

    @staticmethod
    def _vote_round(view: AdversaryView, slot: int) -> dict[int, tuple]:
        """The vote equivocation: "everyone is fine" to the even
        receivers, "everyone cheated" to the odd ones."""
        fine = (slot, ("vote", tuple(range(view.n))))
        cheated = (slot, ("vote", ()))
        return {
            receiver: fine if receiver % 2 == 0 else cheated
            for receiver in range(view.n)
        }

    def _random_round(
        self, view: AdversaryView, slot: int, kind: str
    ) -> dict[int, tuple]:
        """One sender's row of a drawing round: an independent random
        body per receiver, drawn in receiver order."""
        assert self._field is not None
        rng = view.rng
        modulus = self._field.modulus
        row = {}
        for receiver in range(view.n):
            if kind == "row":
                body = tuple(rng.randrange(modulus) for _ in range(view.f + 1))
            else:  # xpt, rshare
                body = tuple(
                    (dealer, rng.randrange(modulus))
                    for dealer in range(view.n)
                )
            row[receiver] = (slot, (kind, body))
        return row
