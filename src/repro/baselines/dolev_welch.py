"""Randomized clock sync with *local* coins: the expected-exponential row.

Table 1's first rows ([10], Dolev-Welch) synchronize with private
randomness: broadcast the clock, adopt (majority + 1) when ``n - f`` agree,
otherwise guess a fresh random clock.  Without a common coin the correct
nodes only leave a split state when their independent guesses happen to
line up, which takes expected ``k^(n-f-1)``-flavoured time — the
exponential convergence the current paper's common-coin pipeline removes.

This is a class-representative substitution, not a line-by-line port of
[10] (Dolev & Welch, *Self-stabilizing clock synchronization in the
presence of Byzantine faults*, whose pseudo-code is not in the
reproduced paper); ``docs/baselines.md`` documents the substitution, and
the benches only rely on the *shape* — deterministic-linear vs
expected-exponential vs expected-constant.

Registered as the ``dolev-welch`` protocol (see
:mod:`repro.core.protocol`); run it through the unified CLI with
``python -m repro run --protocol dolev-welch``.
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from repro.core.majority import (
    BOTTOM,
    count_values,
    first_payload_per_sender,
    most_frequent,
)
from repro.errors import ConfigurationError
from repro.net.component import BeatContext, Component

__all__ = ["DolevWelchClock", "adopted_clock"]


def adopted_clock(payloads: Iterable[Any], threshold: int, k: int) -> int | None:
    """The adopt rule: ``winner + 1`` when n-f senders agree on a clock;
    ``None`` means "draw locally" (the one definition: the component
    and the bulk engine's program both call it, each drawing from the
    node's own RNG stream on a miss)."""
    winner, count = most_frequent(count_values(payloads))
    if winner is not BOTTOM and isinstance(winner, int) and count >= threshold:
        return (winner + 1) % k
    return None


class DolevWelchClock(Component):
    """Expected-exponential randomized k-clock (local randomness only)."""

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.modulus = k
        self.clock = 0

    @property
    def clock_value(self) -> int:
        return self.clock

    def on_send(self, ctx: BeatContext) -> None:
        ctx.broadcast(self.clock)

    def on_update(self, ctx: BeatContext) -> None:
        adopted = adopted_clock(
            first_payload_per_sender(ctx.inbox).values(), ctx.n - ctx.f, self.k
        )
        self.clock = ctx.rng.randrange(self.k) if adopted is None else adopted

    def scramble(self, rng: random.Random) -> None:
        self.clock = rng.randrange(self.k)
