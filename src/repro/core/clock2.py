"""ss-Byz-2-Clock (Figure 2): the 2-Clock problem in expected constant time.

Each beat, every node broadcasts its clock value from {0, 1, ⊥}, advances
the self-stabilizing coin pipeline to obtain the beat's common random bit
``rand``, counts the received values with every ``⊥`` read as ``rand``, and
then either adopts ``1 - maj`` (when the majority value reached ``n - f``
occurrences) or falls back to ``⊥``.

The order of operations encodes Remark 3.1: ``rand`` of beat ``r`` is
revealed only *after* all beat-``r`` messages — including the Byzantine
ones — are committed, so the adversary's clock messages cannot depend on a
bit it has not yet seen, and the coin is independent of the clock values it
is used to break ties between (they were determined at beat ``r - 1``).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable

from repro.coin.interfaces import CoinAlgorithm
from repro.core.majority import (
    BOTTOM,
    count_values,
    first_payload_per_sender,
    from_per_sender,
    most_frequent,
)
from repro.core.pipeline import CoinFlipPipeline
from repro.net.component import BeatContext, Component

__all__ = ["SSByz2Clock", "two_clock_step"]


def two_clock_step(payloads: Iterable[Any], rand: int, threshold: int) -> int | None:
    """Figure 2 lines 3-6: the next clock, from one payload per sender.

    The one definition of the rule: :class:`SSByz2Clock` applies it to a
    node's inbox (once per inbox *object* and ``rand``, however many nodes
    hold it), the bulk engine's program to an inbox shared by a whole
    group of receivers (:mod:`repro.net.bulk`).
    """
    # Line 3: consider each message carrying ⊥ as carrying rand.
    values = [rand if payload is BOTTOM else payload for payload in payloads]
    # Line 4: maj and #maj.
    maj, maj_count = most_frequent(count_values(values))
    # Lines 5-6.  A majority of n - f >= 2f + 1 must contain a correct
    # sender, so maj ∈ {0, 1} whenever the threshold is met; the guard
    # merely keeps Byzantine junk from ever leaving the clock domain —
    # and a payload that only *equals* a bit (``True``, ``1.0``) can win
    # the tally by arriving first, so 1 - maj is spelled on its truth.
    if maj_count >= threshold and maj in (0, 1):
        return 0 if maj else 1
    return BOTTOM


class SSByz2Clock(Component):
    """Solves the 2-Clock problem (Theorem 2).

    Attributes:
        clock: the node's clock value, in {0, 1, ``BOTTOM``}.
        modulus: the k of the k-Clock problem this component solves (2).
    """

    modulus = 2

    def __init__(self, coin: CoinAlgorithm | Callable[[], CoinAlgorithm]) -> None:
        super().__init__()
        algorithm = coin() if callable(coin) else coin
        self.pipeline: CoinFlipPipeline = self.add_child(
            "coin", CoinFlipPipeline(algorithm)
        )
        self.clock: int | None = 0

    @property
    def clock_value(self) -> int | None:
        """Uniform probe interface shared by every clock component."""
        return self.clock

    def on_send(self, ctx: BeatContext) -> None:
        # Line 1: broadcast u.clock (∈ {0, 1, ⊥}).
        ctx.broadcast(self.clock)
        # Line 2 (send half): execute a single beat of C.
        ctx.run_child("coin")

    def on_update(self, ctx: BeatContext) -> None:
        # Line 2 (update half): C's beat completes; rand is now available —
        # strictly after every node's beat-r messages were committed.
        ctx.run_child("coin")
        self.clock = from_per_sender(
            first_payload_per_sender(ctx.inbox),
            two_clock_step,
            self.pipeline.rand,
            ctx.n - ctx.f,
        )

    def scramble(self, rng: random.Random) -> None:
        self.clock = rng.choice((0, 1, BOTTOM))
