"""ss-Byz-Clock-Sync (Figure 4): the k-Clock problem for any k.

A ss-Byz-4-Clock gives every correct node a common 4-phase schedule; the
four phases implement a Turpin-Coan-style multivalued vote on the full
clock, with Rabin-style coin fallback (the paper cites exactly that
combination):

* phase 0 — broadcast ``full_clock``;
* phase 1 — *propose* the value seen ``n - f`` times in the previous beat
  (else ⊥) and broadcast it;
* phase 2 — ``save`` := majority non-⊥ proposal; broadcast ``bit`` = 1 iff
  that proposal reached ``n - f`` copies (then ``save`` := 0 if it was ⊥);
* phase 3 — adopt ``save + 3`` on ``n - f`` ones, adopt 0 on ``n - f``
  zeros, otherwise let the beat's common coin choose between the two.

Through every beat ``full_clock`` increments mod k (line 2), so once an
agreement sticks the system is clock-synched and stays so (Lemma 6); each
4-beat cycle succeeds with constant probability (Lemma 8), giving expected
constant convergence for every k (Theorem 4) — with message size the only
k-dependence.

The coin stream: Remark 4.1 notes the construction may either run its own
coin pipeline or share one with the 4-clock's 2-clocks.  ``share_coin``
selects the optimized variant; the default runs a dedicated pipeline, the
most literal reading of the figure.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Any, Callable, Iterable

from repro.coin.interfaces import CoinAlgorithm
from repro.core.clock4 import SSByz4Clock
from repro.core.majority import (
    BOTTOM,
    count_values,
    first_payload_per_sender,
    from_per_sender,
    most_frequent,
    value_with_count_at_least,
)
from repro.core.pipeline import CoinFlipPipeline
from repro.errors import ConfigurationError
from repro.net.component import BeatContext, Component

__all__ = [
    "SSByzClockSync",
    "phase1_proposal",
    "phase2_bit_and_save",
    "phase3_agreed_bit",
    "phase3_clock",
    "tagged_values",
]

_KINDS = ("fc", "prop", "bit")


# Blocks 3.b-3.d as pure functions of the previous beat's inbox (one
# payload per sender) — the one definition of each rule.  The component
# applies them to a node's ``_previous`` — once per mapping object, which
# a whole class of receivers holds; the bulk engine's program
# (:mod:`repro.net.bulk`) to an inbox shared by a group of receivers.


def tagged_values(payloads: Iterable[Any], kind: str) -> list[Any]:
    """The values of the well-formed ``(kind, value)`` payloads, in order."""
    return [
        payload[1]
        for payload in payloads
        if isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == kind
    ]


def phase1_proposal(payloads: Iterable[Any], threshold: int) -> Any:
    """Block 3.b: the full-clock value received n-f times, else ⊥."""
    return value_with_count_at_least(tagged_values(payloads, "fc"), threshold)


def phase2_bit_and_save(
    payloads: Iterable[Any], threshold: int, k: int
) -> tuple[int, int]:
    """Block 3.c: ``save`` := the majority non-⊥ proposal (0 when there
    is none, or it is not a clock value); ``bit`` := whether it reached
    n-f copies."""
    proposals = [
        value for value in tagged_values(payloads, "prop")
        if value is not BOTTOM
    ]
    majority_value, majority_count = most_frequent(count_values(proposals))
    if majority_value is not BOTTOM and majority_count >= threshold:
        bit = 1
    else:
        bit = 0
    if majority_value is BOTTOM or not isinstance(majority_value, int):
        return bit, 0
    return bit, majority_value % k


def phase3_agreed_bit(payloads: Iterable[Any], threshold: int) -> int | None:
    """Block 3.d, the tally: the bit n-f senders broadcast, else ⊥."""
    bits = tagged_values(payloads, "bit")
    if sum(1 for bit in bits if bit == 1) >= threshold:
        return 1
    if sum(1 for bit in bits if bit == 0) >= threshold:
        return 0
    return BOTTOM


def phase3_clock(agreed: int | None, rand: int, save: int, k: int) -> int:
    """Block 3.d, the assignment: ``save + 3`` on an agreed 1, 0 on an
    agreed 0; without agreement the beat's coin chooses between the two."""
    chosen = rand if agreed is BOTTOM else agreed
    if chosen == 1:
        return (save + 3) % k
    return 0


class SSByzClockSync(Component):
    """Solves the k-Clock problem for any k (Theorem 4).

    Args:
        k: the clock modulus (any integer >= 1).
        coin_factory: builds one coin algorithm per pipeline; called three
            times by default (A1, A2, and this layer's own stream), twice
            when ``share_coin`` is set.
        share_coin: reuse A1's coin pipeline for phase 3 (Remark 4.1).
    """

    def __init__(
        self,
        k: int,
        coin_factory: Callable[[], CoinAlgorithm],
        *,
        share_coin: bool = False,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.modulus = k
        self.share_coin = share_coin
        self.a: SSByz4Clock = self.add_child("A", SSByz4Clock(coin_factory))
        if share_coin:
            self._pipeline: CoinFlipPipeline = self.a.a1.pipeline
        else:
            self._pipeline = self.add_child(
                "coin", CoinFlipPipeline(coin_factory())
            )
        #: The synchronized digital clock; domain {0, ..., k-1}.
        self.full_clock = 0
        #: Phase-2 candidate value carried into phase 3; domain {0..k-1}.
        self.save = 0
        #: clock(A) at the beginning of the current beat (the figure's
        #: footnote); None when A's clock is still ⊥.
        self._phase: int | None = None
        #: One payload per sender received in the previous beat; shared
        #: with every node handed the same inbox: replaced, never written.
        self._previous: dict[int, Any] = {}

    # Everything that observes a run — convergence monitors, tracers, and
    # the live runtime's default probe (repro.runtime.runner.run_runtime)
    # — reads this one property, which is what lets simulated and live
    # trajectories be compared record-for-record.  It is read once per
    # node per beat, so its getter is a builtin: no Python frame per read.
    clock_value = property(
        attrgetter("full_clock"),
        doc="Uniform probe interface shared by every clock component: "
        "the full clock.",
    )

    # -- beat handlers -------------------------------------------------------

    def on_send(self, ctx: BeatContext) -> None:
        # Figure 4, line 3 footnote: dispatch on clock(A) at the *beginning*
        # of the beat, captured before A's beat advances it.
        clock_a = self.a.clock
        self._phase = clock_a if clock_a in (0, 1, 2, 3) else None
        # Line 1 (send half): execute a single beat of A.
        ctx.run_child("A")
        if not self.share_coin:
            ctx.run_child("coin")
        # Line 2: the full clock ticks every beat.
        self.full_clock = (self.full_clock + 1) % self.k
        if self._phase == 0:
            # Block 3.a: broadcast the (just incremented) full clock.
            ctx.broadcast(("fc", self.full_clock))
        elif self._phase == 1:
            # Block 3.b: propose the value received n-f times last beat.
            ctx.broadcast((
                "prop",
                from_per_sender(self._previous, phase1_proposal, ctx.n - ctx.f),
            ))
        elif self._phase == 2:
            # Block 3.c: save := majority non-⊥ proposal; bit := whether it
            # reached n - f copies; then default save to 0 if it was ⊥.
            bit, self.save = from_per_sender(
                self._previous, phase2_bit_and_save, ctx.n - ctx.f, self.k
            )
            ctx.broadcast(("bit", bit))
        # Phase 3 (and an unconverged A) sends nothing at this layer.

    def on_update(self, ctx: BeatContext) -> None:
        ctx.run_child("A")
        if not self.share_coin:
            ctx.run_child("coin")
        if self._phase == 3:
            # Block 3.d: decide from the previous beat's bits; fall back to
            # the beat's coin, which was resolved only after this beat's
            # messages committed (Lemma 8's independence argument).
            self.full_clock = phase3_clock(
                from_per_sender(self._previous, phase3_agreed_bit, ctx.n - ctx.f),
                self._pipeline.rand,
                self.save,
                self.k,
            )
        self._previous = first_payload_per_sender(ctx.inbox)

    def scramble(self, rng: random.Random) -> None:
        self.full_clock = rng.randrange(self.k)
        self.save = rng.randrange(self.k)
        self._phase = rng.choice((0, 1, 2, 3, None))
        scrambled: dict[int, Any] = {}
        for sender in range(max(1, rng.randrange(16))):
            kind = rng.choice(_KINDS)
            if kind == "fc":
                scrambled[sender] = ("fc", rng.randrange(self.k))
            elif kind == "prop":
                scrambled[sender] = (
                    "prop",
                    rng.choice((BOTTOM, rng.randrange(self.k))),
                )
            else:
                scrambled[sender] = ("bit", rng.randrange(2))
        self._previous = scrambled
