"""ss-Byz-4-Clock (Figure 3): a 4-clock from two interleaved 2-clocks.

``A1`` executes a beat every beat; ``A2`` executes a beat every *other*
beat, gated on ``A1``'s clock, and the composite clock is
``2 * clock(A2) + clock(A1)``.

Gating note (also in docs/protocol.md): Fig. 3 tests ``clock(A1) = 0`` *after*
``A1``'s beat, but a lock-step implementation must decide whether ``A2``
sends messages at the *start* of the beat.  We therefore gate on
``clock(A1) = 1`` at the start of the beat, which — once ``A1`` has
converged and alternates 0, 1, 0, 1 — is exactly the same set of beats, and
produces the 0, 1, 2, 3 pattern used in Theorem 3's proof.  Before ``A1``
converges nothing is guaranteed either way, which is all the theorem needs.

The paper sets Δ_node = max{Δ_A1, 2·Δ_A2}: since ``A2`` steps only every
other beat, its coin pipeline needs twice as many beats to flush.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.coin.interfaces import CoinAlgorithm
from repro.core.clock2 import SSByz2Clock
from repro.core.majority import BOTTOM
from repro.net.component import BeatContext, Component

__all__ = ["SSByz4Clock", "four_clock_value"]


def four_clock_value(c1: int | None, c2: int | None) -> int | None:
    """Figure 3 line 3: ``2 * clock(A2) + clock(A1)``, ⊥ while either
    2-clock is ⊥ (the one definition; the bulk program calls it too)."""
    if c1 in (0, 1) and c2 in (0, 1):
        return 2 * c2 + c1
    return BOTTOM


class SSByz4Clock(Component):
    """Solves the 4-Clock problem (Theorem 3).

    Args:
        coin_factory: builds one independent coin algorithm per 2-clock;
            called twice (``A1`` and ``A2`` must not share instances unless
            the caller deliberately implements Remark 4.1's optimization).
    """

    modulus = 4

    def __init__(self, coin_factory: Callable[[], CoinAlgorithm]) -> None:
        super().__init__()
        self.a1: SSByz2Clock = self.add_child("A1", SSByz2Clock(coin_factory()))
        self.a2: SSByz2Clock = self.add_child("A2", SSByz2Clock(coin_factory()))
        self.clock: int | None = 0
        self._run_a2 = False

    @property
    def clock_value(self) -> int | None:
        return self.clock

    def on_send(self, ctx: BeatContext) -> None:
        # Decide A2's beat from start-of-beat state (see module docstring);
        # the decision is replayed verbatim in the update phase.
        self._run_a2 = self.a1.clock == 1
        # Line 1 (send half): execute a single beat of A1.
        ctx.run_child("A1")
        # Line 2 (send half): conditionally execute a single beat of A2.
        if self._run_a2:
            ctx.run_child("A2")

    def on_update(self, ctx: BeatContext) -> None:
        ctx.run_child("A1")
        if self._run_a2:
            ctx.run_child("A2")
        # Line 3: u.clock := 2 * u.clock(A2) + u.clock(A1).
        self.clock = four_clock_value(self.a1.clock, self.a2.clock)

    def scramble(self, rng: random.Random) -> None:
        self.clock = rng.choice((0, 1, 2, 3, None))
        self._run_a2 = rng.random() < 0.5
