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

A divergent outcome's n bits are drawn in blocks (:func:`_random_bits`):
the same Mersenne words ``randrange(2)`` would consume, read through
builtins instead of one interpreted draw per node.  Only the local
per-key ``Random`` sees the words drawn past the n-th accepted bit, and
it is discarded with them, so the over-draw is unobservable.
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

#: A 32-bit word's top byte -> the ``randrange(2)`` it yields: bit 30
#: when the top bit is clear; a set top bit is a rejected word (deleted).
_TOP_BYTE_TO_BIT = bytes((byte >> 6) & 1 for byte in range(256))
_REJECTED = bytes(range(128, 256))


def _random_bits(rng: random.Random, count: int) -> bytes:
    """``bytes([rng.randrange(2) for _ in range(count)])``, in blocks.

    ``randrange(2)`` takes one word per try, keeps its top two bits and
    retries when they read 2 or 3; ``getrandbits(32·m)`` is the next m
    words, least significant first.  Words past the ``count``-th accepted
    one are drawn too, so ``rng`` must be discarded afterwards.
    """
    bits = b""
    while len(bits) < count:
        words = 2 * (count - len(bits)) + 64
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        bits += top.translate(_TOP_BYTE_TO_BIT, _REJECTED)
    return bits[:count]


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
    """Simulation-wide shared state: beat counter and coin outcomes.

    Each outcome is drawn from a ``Random`` local to its key.  A divergent
    one reads its per-node bits from that generator in blocks: the same
    words, hence the same bits, as one ``randrange(2)`` per node, plus
    words no one can observe, since the generator is dropped after.
    """

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
        most of a long run's memory.  The live hosts never call this and
        keep every outcome."""
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
            outcome = CoinOutcome(EVENT_E0, dict.fromkeys(range(self.n), 0))
        elif roll < p0 + p1:
            outcome = CoinOutcome(EVENT_E1, dict.fromkeys(range(self.n), 1))
        else:
            bits = dict(enumerate(_random_bits(rng, self.n)))
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
