"""Turpin-Coan extension: multivalued agreement from binary agreement.

The paper's own ss-Byz-Clock-Sync schema is "similar to the algorithm of
Turpin and Coan [18] when combined with the algorithm of Rabin [17]" —
there the binary decision comes from a coin; here (as in the deterministic
comparators of Table 1) it comes from phase-king binary BA:

* round 1 — broadcast the (multivalued) input;
* round 2 — broadcast the value received ``n - f`` times (else ⊥); then
  set ``save`` to the majority non-⊥ proposal and enter the binary BA with
  input 1 iff that proposal reached ``n - f`` copies;
* rounds 3 .. 2 + 3(f+1) — binary phase-king BA; output ``save`` if it
  decides 1, else the default value 0.

If the BA decides 1, some correct node saw ``n - f`` equal proposals, so
every correct node saw at least ``n - 2f >= f + 1`` of them — a strict
plurality over anything else — hence all correct nodes agree on ``save``.
"""

from __future__ import annotations

import random
from typing import Any

from repro.baselines.cyclic import CyclicAgreementClock
from repro.baselines.phase_king import PhaseKingState, phase_king_rounds
from repro.coin.interfaces import InstanceContext
from repro.core.majority import BOTTOM, count_values, most_frequent

__all__ = ["TurpinCoanClock", "TurpinCoanInstance", "turpin_coan_rounds"]


def turpin_coan_rounds(f: int) -> int:
    """Two distribution rounds plus the binary phase-king agreement."""
    return 2 + phase_king_rounds(f)


class TurpinCoanInstance:
    """One node's state in one multivalued agreement instance."""

    def __init__(self, n: int, f: int, modulus: int, input_value: int) -> None:
        self.n = n
        self.f = f
        self.modulus = modulus
        self.input_value = input_value % modulus
        self.save = 0
        self._proposal: int | None = None
        self._ba: PhaseKingState | None = None

    @property
    def rounds(self) -> int:
        return turpin_coan_rounds(self.f)

    def send_round(self, round_index: int, ctx: InstanceContext) -> None:
        if round_index == 1:
            ctx.broadcast(("tc-val", self.input_value))
        elif round_index == 2:
            ctx.broadcast(("tc-prop", self._proposal))
        else:
            if self._ba is None:  # scrambled state: improvise a default
                self._ba = PhaseKingState(self.n, self.f, 0)
            self._ba.send_round(round_index - 2, ctx)

    def update_round(self, round_index: int, ctx: InstanceContext) -> None:
        if round_index == 1:
            values = self._values(ctx, "tc-val")
            winner, count = most_frequent(count_values(values))
            if count >= self.n - self.f and isinstance(winner, int):
                self._proposal = winner % self.modulus
            else:
                self._proposal = None
        elif round_index == 2:
            proposals = [
                value for value in self._values(ctx, "tc-prop")
                if value is not BOTTOM and isinstance(value, int)
            ]
            winner, count = most_frequent(count_values(proposals))
            bit = 0
            if winner is not BOTTOM and count >= self.n - self.f:
                bit = 1
            if winner is BOTTOM or not isinstance(winner, int):
                self.save = 0
            else:
                self.save = winner % self.modulus
            self._ba = PhaseKingState(self.n, self.f, bit)
        else:
            if self._ba is None:
                self._ba = PhaseKingState(self.n, self.f, 0)
            self._ba.update_round(round_index - 2, ctx)

    def _values(self, ctx: InstanceContext, kind: str) -> list[Any]:
        values = []
        for payload in ctx.first_per_sender().values():
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == kind
            ):
                values.append(payload[1])
        return values

    def output(self) -> int:
        """The agreed value: ``save`` on a 1-decision, the default on 0."""
        if self._ba is not None and self._ba.output() == 1:
            return self.save % self.modulus
        return 0

    def scramble(self, rng: random.Random) -> None:
        self.input_value = rng.randrange(self.modulus)
        self.save = rng.randrange(self.modulus)
        self._proposal = rng.choice((None, rng.randrange(self.modulus)))
        self._ba = PhaseKingState(self.n, self.f, rng.randrange(2))
        self._ba.scramble(rng)


class TurpinCoanClock(CyclicAgreementClock):
    """O(f)-convergence k-clock via cyclic Turpin-Coan agreement.

    The multivalued-substrate deterministic baseline: one Turpin-Coan
    instance per 2 + 3(f + 1)-beat cycle, agreeing on the full clock
    value directly (single n² exchange per beat, two distribution rounds
    of overhead per cycle — compare :class:`~repro.baselines.phase_king.
    PhaseKingClock`'s shorter cycle and wider messages).  The Table 1 row
    :class:`~repro.baselines.det_clock_sync.DeterministicClockSync` *is*
    this construction under its historical name, registered as the
    ``deterministic`` protocol.
    """

    def __init__(self, n: int, f: int, k: int) -> None:
        super().__init__(n, f, k, depth=turpin_coan_rounds(f))

    def _make_instance(self, value: int) -> TurpinCoanInstance:
        return TurpinCoanInstance(self.n, self.f, self.k, value)
