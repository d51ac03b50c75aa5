"""The mixed-dealing attack: where the simplified GVSS coin breaks.

This is the strongest attack in the repository against the
Feldman-Micali-*style* coin, and it succeeds — deliberately.  It marks the
exact boundary between our 4-round GVSS simplification and the full
Feldman-Micali construction (which spends extra machinery, e.g. graded
broadcast inside the dealing, to close this hole).  :mod:`repro.coin.gvss`
is the four rounds as implemented; ``python -m repro bench run --only
coin_quality`` (F4) measures the break.

The attack, for each coin invocation (one per beat, pipelined):

1. **share** — the corrupt dealer builds a *real* symmetric bivariate
   polynomial ``S`` with secret 1, hands correct rows to exactly
   ``n - 2f`` correct nodes, and garbage rows to the rest;
2. **exchange** — faulty nodes send cross points consistent with ``S`` so
   the good-row holders see ``(n - 2f) + f = n - f`` matches and vote OK,
   while the garbage-row holders cannot;
3. **vote** — faulty nodes vote OK; every correct node computes grade 1 or
   2 (the honest OK-count is already ``n - 2f``), so the dealer is
   *included everywhere* — inclusion stays uniform, as our grading
   guarantees for ``n > 3f``;
4. **recover** — the equivocation: to half the correct nodes the faulty
   nodes broadcast zero-shares on ``S(·, 0)`` (their decoder then finds
   ``2f + 1`` consistent points and recovers the secret 1), to the other
   half garbage (their decoder sees only ``f + 1`` consistent points,
   fails, and falls back to 0).

Half the correct nodes XOR an extra 1 into the parity: the coin output
diverges *every beat*, erasing events E0/E1 entirely — Definition 2.6 does
not hold for the simplified coin against this adversary, and consequently
ss-Byz-2-Clock over it loses its convergence guarantee (measured in the
F4 bench).  The oracle coin, which realizes Definition 2.6 by fiat, is
immune, which is exactly the separation the paper's abstraction boundary
is for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.adversary.base import Adversary, AdversaryView
from repro.coin.field import PrimeField
from repro.coin.polynomial import evaluate
from repro.coin.shamir import SymmetricBivariate, node_point
from repro.net.message import Envelope

__all__ = ["MixedDealingAdversary"]


@dataclass
class _Dealing:
    """One corrupt dealing, tracked across its four pipelined rounds."""

    start_beat: int
    polynomial: SymmetricBivariate
    good_rows: frozenset[int]  # correct nodes given consistent rows
    aligned: frozenset[int]  # correct nodes given honest recovery shares


class MixedDealingAdversary(Adversary):
    """Breaks the simplified GVSS parity coin via recovery equivocation."""

    def __init__(self) -> None:
        super().__init__()
        self._field: PrimeField | None = None
        self._dealings: dict[tuple[str, int], _Dealing] = {}

    def setup(self, n, f, faulty_ids, rng) -> None:
        super().setup(n, f, faulty_ids, rng)
        self._field = PrimeField.for_system(n)

    # -- bookkeeping -----------------------------------------------------

    def _dealer(self) -> int:
        return min(self.faulty_ids)

    def _round_one_paths(self, view: AdversaryView) -> list[str]:
        """Paths where a fresh instance started this beat (slot-1 rows),
        in the view's first-seen order: each opens a dealing that draws
        from ``view.rng``, so the order must be the seed's, not a hash's."""
        paths: dict[str, None] = {}
        for envelope in view.visible_messages:
            payload = envelope.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == 1
                and isinstance(payload[1], tuple)
                and payload[1]
                and payload[1][0] == "row"
            ):
                paths[envelope.path] = None
        return list(paths)

    def _open_dealing(self, view: AdversaryView, path: str) -> _Dealing:
        assert self._field is not None
        honest = view.honest_ids
        good = frozenset(honest[: view.n - 2 * view.f])
        aligned = frozenset(honest[: len(honest) // 2])
        polynomial = SymmetricBivariate.random(
            self._field, secret=1, degree=view.f, rng=view.rng
        )
        dealing = _Dealing(view.beat, polynomial, good, aligned)
        self._dealings[(path, view.beat)] = dealing
        return dealing

    # -- the four rounds ---------------------------------------------------

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        assert self._field is not None
        messages = view.traffic()
        for path in self._round_one_paths(view):
            self._open_dealing(view, path)
        expired = []
        for (path, start), dealing in self._dealings.items():
            round_index = view.beat - start + 1
            if round_index > 4:
                expired.append((path, start))
                continue
            slot = round_index  # lock-step pipeline: slot == round
            handler = (
                self._share,
                self._exchange,
                self._vote,
                self._recover,
            )[round_index - 1]
            handler(view, messages, path, slot, dealing)
        for key in expired:
            del self._dealings[key]
        return messages

    # Each round adds one row per sending faulty node to ``messages``.

    def _share(self, view, messages, path, slot, dealing) -> None:
        """Consistent rows to the chosen n - 2f correct nodes, garbage
        (well-formed) rows elsewhere; only the dealer deals."""
        assert self._field is not None
        dealt = {}
        for receiver in range(view.n):
            if receiver in dealing.good_rows or receiver in view.faulty_ids:
                row = dealing.polynomial.row(receiver)
            else:
                row = tuple(
                    view.rng.randrange(self._field.modulus)
                    for _ in range(view.f + 1)
                )
            dealt[receiver] = (slot, ("row", row))
        messages.add_row(self._dealer(), path, dealt)

    def _exchange(self, view, messages, path, slot, dealing) -> None:
        """Every faulty node backs the dealing with consistent cross
        points, so good-row holders count n - f matches and vote OK."""
        dealer = self._dealer()
        for faulty in sorted(self.faulty_ids):
            row = dealing.polynomial.row(faulty)
            messages.add_row(faulty, path, {
                receiver: (slot, ("xpt", ((
                    dealer, evaluate(self._field, row, node_point(receiver))
                ),)))
                for receiver in range(view.n)
            })

    def _vote(self, view, messages, path, slot, dealing) -> None:
        vote = (slot, ("vote", (self._dealer(),)))
        votes = dict.fromkeys(range(view.n), vote)
        for faulty in sorted(self.faulty_ids):
            messages.add_row(faulty, path, votes)

    def _recover(self, view, messages, path, slot, dealing) -> None:
        """The equivocation: honest shares to the aligned half (their
        decoder reaches 2f + 1 consistent points), garbage to the rest."""
        assert self._field is not None
        dealer = self._dealer()
        modulus = self._field.modulus
        for faulty in sorted(self.faulty_ids):
            row = dealing.polynomial.row(faulty)
            true_share = evaluate(self._field, row, 0)
            honest = (slot, ("rshare", ((dealer, true_share),)))
            shares = {}
            for receiver in range(view.n):
                if receiver in dealing.aligned:
                    shares[receiver] = honest
                else:
                    garbage = (true_share + 1 + view.rng.randrange(5)) % modulus
                    shares[receiver] = (slot, ("rshare", ((dealer, garbage),)))
            messages.add_row(faulty, path, shares)
