"""ss-Byz-Coin-Flip (Figure 1): pipelining makes any coin self-stabilizing.

The transformation: keep Δ_A concurrent instances of a probabilistic
coin-flipping algorithm ``A``; at every beat, execute round ``i`` of the
instance in slot ``i``, output the value of the instance completing its
final round, shift every instance one slot up, and start a fresh instance
in slot 1.  Whatever garbage a transient fault leaves in the slots is
flushed within Δ_A beats, after which every completing instance has been
initialized and executed properly — Lemma 1's convergence argument — so the
pipeline becomes a *pipelined probabilistic coin-flipping algorithm*
(Definition 2.7): one common random bit per beat, unpredictable until the
beat it is used.

Traffic of concurrent instances is multiplexed over this component's path
with a slot tag — the paper's recyclable "session numbers" (§2.1).  A
message sent by the instance in slot ``i`` at beat ``r`` is consumed at
beat ``r`` by the slot-``i`` peers, after which the instance moves to slot
``i + 1`` for its next round, so tags stay aligned across correct nodes
without any unbounded counter.  The tag goes on inside the instance
context, whose sink is this component's beat context: an instance's
broadcast leaves here as one ``(slot, payload)`` fan-out record, not n.

A slot's context belongs to the *slot*, not to the instance passing
through: bound the first time the slot runs, kept on the node's context
tree (never here — that would close a cycle through this component) and
re-pointed at the beat and the slot's inbox each phase.
"""

from __future__ import annotations

import random
from typing import Any

from repro.coin.interfaces import CoinAlgorithm, CoinInstance, InstanceContext
from repro.net.component import BeatContext, Component

__all__ = ["CoinFlipPipeline"]

#: A slot's routing path under the pipeline's, by slot tag.
_SLOT = "/slot{}"


class CoinFlipPipeline(Component):
    """Self-stabilizing coin: one common random bit per beat (Fig. 1)."""

    def __init__(self, algorithm: CoinAlgorithm) -> None:
        super().__init__()
        self.algorithm = algorithm
        #: ``slots[i]`` is the paper's ``A_{i+1}``: it executes round
        #: ``i + 1`` at the current beat.
        self.slots: list[CoinInstance] = [
            algorithm.new_instance() for _ in range(algorithm.rounds)
        ]
        #: The coin output of the current beat (Fig. 1 line 2), normalized
        #: into {0, 1}.  Domain {0, 1} for scrambling purposes.
        self.rand = 0

    @property
    def convergence_beats(self) -> int:
        """Δ_ss-Byz-Coin-Flip = Δ_A (Lemma 1)."""
        return self.algorithm.rounds

    def on_send(self, ctx: BeatContext) -> None:
        # Fig. 1 line 1 (send half): the i-th round of A_i, for all i.
        for slot, instance in enumerate(self.slots, 1):
            instance.send_round(slot, InstanceContext.bound(ctx, [], slot, _SLOT))

    def on_update(self, ctx: BeatContext) -> None:
        # Inbox entries with a well-formed ``(slot, payload)`` tag, by slot.
        by_slot: dict[int, list[tuple[int, Any]]] = {}
        for envelope in ctx.inbox:
            payload = envelope.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], int)
                and 1 <= payload[0] <= len(self.slots)
            ):
                by_slot.setdefault(payload[0], []).append(
                    (envelope.sender, payload[1])
                )
        # Fig. 1 line 1 (update half).
        for slot, instance in enumerate(self.slots, 1):
            instance.update_round(
                slot, InstanceContext.bound(ctx, by_slot.get(slot, []), slot, _SLOT)
            )
        # Fig. 1 line 2: output the value of A_Δ, normalized to a bit so a
        # scrambled instance cannot leak an out-of-domain value upward.
        self.rand = 1 if self.slots[-1].output() == 1 else 0
        # Fig. 1 lines 3-4: simultaneous shift, fresh instance in slot 1.
        self.slots = [self.algorithm.new_instance()] + self.slots[:-1]

    def scramble(self, rng: random.Random) -> None:
        self.rand = rng.randrange(2)
        for instance in self.slots:
            instance.scramble(rng)
