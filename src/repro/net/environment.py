"""Shared "nature" for a simulation: oracle-coin outcomes.

The oracle coin (:mod:`repro.coin.oracle`) realizes Definition 2.6 exactly:
with probability ``p0`` *every* correct node outputs 0 (event E0), with
probability ``p1`` every correct node outputs 1 (event E1), and otherwise
nothing is guaranteed — outputs may differ per node and may even be chosen
by the adversary.  Those events are global, so they cannot be sampled
inside any single node; they live here, in the simulation-wide
:class:`Environment`.

Outcomes are memoized per ``(path, beat)`` key and derived from a per-key
seed, so resolution order does not affect determinism and "foresight"
queries (an ablation that peeks at future coins, §6.1) return exactly what
the future beat will see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.net.rng import derive_seed

__all__ = ["CoinOutcome", "Environment", "EVENT_E0", "EVENT_E1", "EVENT_DIVERGENT"]

EVENT_E0 = "E0"
EVENT_E1 = "E1"
EVENT_DIVERGENT = "divergent"

#: Signature for an adversary hook that picks per-node outputs when the
#: coin-flipping event is divergent (neither E0 nor E1 occurred).  Receives
#: the outcome key and the per-node default bits; returns replacement bits
#: for any subset of nodes.
DivergenceChooser = Callable[[tuple[str, int], dict[int, int]], dict[int, int]]


@dataclass(frozen=True)
class CoinOutcome:
    """Resolved outcome of one coin-flipping instance.

    ``event`` is one of :data:`EVENT_E0`, :data:`EVENT_E1`,
    :data:`EVENT_DIVERGENT`; ``bits`` maps node id to that node's output.
    """

    event: str
    bits: dict[int, int]

    def bit_for(self, node_id: int) -> int:
        return self.bits[node_id]

    @property
    def agreed(self) -> bool:
        """Whether all nodes received a common bit (E0 or E1 occurred)."""
        return self.event in (EVENT_E0, EVENT_E1)


class Environment:
    """Simulation-wide shared state: beat counter and coin outcomes."""

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self._seed = seed
        self.beat = 0
        self._outcomes: dict[tuple[str, int], CoinOutcome] = {}
        #: Optional adversary hook consulted for divergent outcomes.
        self.divergence_chooser: DivergenceChooser | None = None

    def begin_beat(self, beat: int) -> None:
        """Enter ``beat``, forgetting the outcomes for beats before
        ``beat - 1``: no lock-step beat asks for them again (a recorder has
        read them; foresight keys lie ahead), and at n bits each they were
        most of a long run's memory.  The event and live hosts never call
        this and keep every outcome."""
        self.beat = beat
        stale = [key for key in self._outcomes if key[1] < beat - 1]
        for key in stale:
            del self._outcomes[key]

    def coin_outcome(
        self, path: str, beat: int, p0: float, p1: float
    ) -> CoinOutcome:
        """Resolve (memoized) the outcome of the coin instance that
        completes at ``beat`` in the pipeline at ``path``.

        All nodes query the same key and therefore observe one consistent
        outcome; the per-key seed makes the result independent of which node
        asks first.
        """
        key = (path, beat)
        outcome = self._outcomes.get(key)
        if outcome is not None:
            return outcome
        rng = random.Random(derive_seed(self._seed, "coin", path, beat))
        roll = rng.random()
        if roll < p0:
            outcome = CoinOutcome(EVENT_E0, {i: 0 for i in range(self.n)})
        elif roll < p0 + p1:
            outcome = CoinOutcome(EVENT_E1, {i: 1 for i in range(self.n)})
        else:
            bits = {i: rng.randrange(2) for i in range(self.n)}
            if self.divergence_chooser is not None:
                overrides = self.divergence_chooser(key, dict(bits))
                for node_id, bit in overrides.items():
                    if node_id in bits and bit in (0, 1):
                        bits[node_id] = bit
            outcome = CoinOutcome(EVENT_DIVERGENT, bits)
        self._outcomes[key] = outcome
        return outcome

    def resolved_outcomes(
        self, up_to_beat: int
    ) -> dict[tuple[str, int], CoinOutcome]:
        """Outcomes already resolved for beats ``<= up_to_beat``.

        This is what a *rushing* adversary may inspect: the paper (§6.1)
        allows the adversary to see the coin of the current beat when
        sending its current-beat messages.
        """
        return {
            key: outcome
            for key, outcome in self._outcomes.items()
            if key[1] <= up_to_beat
        }
