"""Phase-king binary Byzantine agreement (Berman-Garay-Perry style).

The deterministic comparator rows of Table 1 ([15], [7] — the
linear-time line descending from Daliot-Dolev-Parnas, arXiv:cs/0608096,
see PAPERS.md) synchronize clocks by (pipelined) Byzantine agreement;
deterministic BA needs f + 1 phases (the Fischer-Lynch bound the paper
cites), giving the O(f) convergence the current paper improves on.  We
use a three-round phase-king per phase:

* round 1 (*universal exchange*): broadcast the value; with ``c_b`` the
  count of ``b`` received, set ``d := b`` if ``c_b >= n - f`` else ⊥.
  Two correct nodes can never set different non-⊥ ``d`` (Observation 3.1).
* round 2 (*support*): broadcast ``d``; with ``e_b`` the count of ``b``,
  set ``w := b`` for the (unique) ``b`` with ``e_b >= f + 1``, and mark the
  value *strong* when ``e_b >= n - f``.
* round 3 (*king*): the phase's king broadcasts ``w`` (default 0); strong
  nodes keep ``w``, everyone else adopts the king's bit.

Invariants (unit-tested): once all correct nodes agree, agreement persists
through any king; after a phase whose king is correct, all correct nodes
agree.  With f + 1 phases and at most f faults, some phase has a correct
king, so 3(f + 1) rounds always decide, for any f < n/3.

Beyond the binary primitive, this module exports the substrate's clock
protocol (registered as ``phase-king`` in :mod:`repro.core.protocol`):
:class:`PhaseKingClock` runs ⌈log2 k⌉ *bit-parallel* binary phase-king
lanes per agreement cycle — one lane per bit of the clock value — inside
the :class:`~repro.baselines.cyclic.CyclicAgreementClock` scaffold.  Its
cycle is only 3(f + 1) beats (Turpin-Coan pays 2 more for multivalued
distribution) at the price of a ⌈log2 k⌉× message factor; lane-wise
validity and agreement compose to multivalued validity and agreement, so
the usual cyclic argument gives deterministic 2·3(f+1) convergence.
"""

from __future__ import annotations

import random
from typing import Any

from repro.baselines.cyclic import CyclicAgreementClock
from repro.coin.interfaces import InstanceContext

__all__ = [
    "BitwisePhaseKingAgreement",
    "PhaseKingClock",
    "PhaseKingState",
    "phase_king_rounds",
]


def phase_king_rounds(f: int) -> int:
    """Total rounds of phase-king BA: three per phase, f + 1 phases."""
    return 3 * (f + 1)


class PhaseKingState:
    """One node's state in one binary phase-king agreement instance."""

    def __init__(self, n: int, f: int, input_bit: int) -> None:
        self.n = n
        self.f = f
        self.value = 1 if input_bit == 1 else 0
        self._d: int | None = None
        self._w: int | None = None
        self._strong = False

    @property
    def rounds(self) -> int:
        return phase_king_rounds(self.f)

    def _split(self, round_index: int) -> tuple[int, int]:
        """Map a 1-based round index to (phase, subround)."""
        phase = (round_index - 1) // 3 + 1
        subround = (round_index - 1) % 3 + 1
        return phase, subround

    def king_of(self, phase: int) -> int:
        """Phases are kinged by nodes 0..f in order."""
        return phase - 1

    # -- send handlers -----------------------------------------------------

    def send_round(self, round_index: int, ctx: InstanceContext) -> None:
        phase, subround = self._split(round_index)
        if subround == 1:
            ctx.broadcast(("v", self.value))
        elif subround == 2:
            ctx.broadcast(("d", self._d))
        elif ctx.node_id == self.king_of(phase):
            king_bit = self._w if self._w in (0, 1) else 0
            ctx.broadcast(("k", king_bit))

    # -- update handlers --------------------------------------------------

    def update_round(self, round_index: int, ctx: InstanceContext) -> None:
        _, subround = self._split(round_index)
        payloads = ctx.first_per_sender()
        if subround == 1:
            counts = self._tally(payloads, "v")
            if counts[0] >= self.n - self.f:
                self._d = 0
            elif counts[1] >= self.n - self.f:
                self._d = 1
            else:
                self._d = None
        elif subround == 2:
            counts = self._tally(payloads, "d")
            # At most one bit can reach f + 1 (it needs a correct
            # supporter, and correct nodes cannot support both).
            self._w = None
            self._strong = False
            for bit in (0, 1):
                if counts[bit] >= self.f + 1 and counts[bit] >= counts[1 - bit]:
                    self._w = bit
                    self._strong = counts[bit] >= self.n - self.f
        else:
            if self._strong and self._w in (0, 1):
                self.value = self._w
            else:
                self.value = self._king_bit(payloads, round_index)

    def _king_bit(self, payloads: dict[int, Any], round_index: int) -> int:
        phase, _ = self._split(round_index)
        payload = payloads.get(self.king_of(phase))
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "k"
            and payload[1] in (0, 1)
        ):
            return payload[1]
        return 0  # silent or malformed king: deterministic default

    def _tally(self, payloads: dict[int, Any], kind: str) -> dict[int, int]:
        counts = {0: 0, 1: 0}
        for payload in payloads.values():
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == kind
                and payload[1] in (0, 1)
            ):
                counts[payload[1]] += 1
        return counts

    def output(self) -> int:
        return self.value if self.value in (0, 1) else 0

    def scramble(self, rng: random.Random) -> None:
        self.value = rng.randrange(2)
        self._d = rng.choice((0, 1, None))
        self._w = rng.choice((0, 1, None))
        self._strong = rng.random() < 0.5


def _lane_width(modulus: int) -> int:
    """Binary lanes needed to carry a value in {0, ..., modulus - 1}."""
    return max(1, (modulus - 1).bit_length())


class BitwisePhaseKingAgreement:
    """Multivalued agreement from bit-parallel binary phase-king lanes.

    One node's state in one agreement instance over the domain
    ``{0, ..., modulus - 1}``: lane ``b`` runs a :class:`PhaseKingState`
    on bit ``b`` of the input value, all lanes advance together through
    the same 3(f + 1) rounds, and lane traffic is multiplexed as
    ``(lane, payload)`` pairs — the same session-tagging discipline the
    coin pipeline uses.  Per-lane agreement makes every correct node
    assemble the same composite value; per-lane validity makes unanimous
    inputs decide themselves.  The composite may reach values up to
    ``2^lanes - 1 >= modulus - 1``; :meth:`output` reduces mod
    ``modulus``, identically at every correct node.
    """

    def __init__(self, n: int, f: int, modulus: int, input_value: int) -> None:
        self.n = n
        self.f = f
        self.modulus = modulus
        self.lanes = [
            PhaseKingState(n, f, (input_value >> bit) & 1)
            for bit in range(_lane_width(modulus))
        ]

    @property
    def rounds(self) -> int:
        return phase_king_rounds(self.f)

    def _lane_context(
        self, lane: int, ctx: InstanceContext, inbox: list[tuple[int, Any]]
    ) -> InstanceContext:
        return InstanceContext.bound(ctx, inbox, lane, "#b{}")

    def send_round(self, round_index: int, ctx: InstanceContext) -> None:
        for lane, state in enumerate(self.lanes):
            state.send_round(round_index, self._lane_context(lane, ctx, []))

    def update_round(self, round_index: int, ctx: InstanceContext) -> None:
        by_lane: dict[int, list[tuple[int, Any]]] = {}
        for sender, payload in ctx.inbox:
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], int)
            ):
                by_lane.setdefault(payload[0], []).append((sender, payload[1]))
        for lane, state in enumerate(self.lanes):
            state.update_round(
                round_index, self._lane_context(lane, ctx, by_lane.get(lane, []))
            )

    def output(self) -> int:
        value = sum(state.output() << bit for bit, state in enumerate(self.lanes))
        return value % self.modulus

    def scramble(self, rng: random.Random) -> None:
        for state in self.lanes:
            state.scramble(rng)


class PhaseKingClock(CyclicAgreementClock):
    """O(f)-convergence k-clock via cyclic bitwise phase-king agreement.

    The short-cycle deterministic baseline: 3(f + 1) beats per cycle
    against Turpin-Coan's 2 + 3(f + 1), paying ⌈log2 k⌉ parallel binary
    lanes per beat instead of one multivalued exchange.  Registered as
    the ``phase-king`` protocol (see :mod:`repro.core.protocol`).
    """

    def __init__(self, n: int, f: int, k: int) -> None:
        super().__init__(n, f, k, depth=phase_king_rounds(f))

    def _make_instance(self, value: int) -> BitwisePhaseKingAgreement:
        return BitwisePhaseKingAgreement(self.n, self.f, self.k, value)
