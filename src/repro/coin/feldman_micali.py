"""A Feldman-Micali-style common coin from graded verifiable secret sharing.

The paper (Observation 2.1) instantiates its abstract coin with the
Feldman-Micali protocol: every node deals a secret through GVSS, the last
round recovers them all at once, and the coin is a combination of the
recovered secrets — so no ``f`` nodes can predict the output before the
final round, even rushing.

Here one coin invocation is one :class:`GradedSharingState` (all ``n``
dealings in four rounds) and the output bit is the parity of the recovered
secrets of the locally accepted (grade >= 1) dealers:

* every honest dealer is accepted (grade 2) by every correct node and its
  uniformly random secret bit is recovered identically everywhere;
* a Byzantine dealer's secret is *committed* by the end of the vote round —
  the recover round's unique decoding pins the value the honest rows carry,
  whatever shares the adversary broadcasts;
* the only adversarial lever left is making the *acceptance* of a Byzantine
  dealer differ between correct nodes (grade 1 at some, grade 0 at others),
  which turns agreement events into divergence but cannot bias an agreed
  parity, since the honest secrets already randomize it uniformly.

Consequently P(E0) and P(E1) are each ``1/2 - (divergence probability)/2``;
the divergence probability is bounded by adversarial dealings being
mixed-grade, measured (not assumed) by
``python -m repro bench run --only coin_quality``.  Fault-free, the coin is a perfect common uniform bit.
"""

from __future__ import annotations

import random

from repro.coin.field import PrimeField
from repro.coin.gvss import GradedSharingState
from repro.coin.interfaces import CoinAlgorithm, CoinInstance, InstanceContext
from repro.errors import check_resilience

__all__ = ["FeldmanMicaliCoin", "FeldmanMicaliInstance"]


class FeldmanMicaliCoin(CoinAlgorithm):
    """GVSS-based common coin; Δ_A = 4 rounds, claimed p0 = p1 = 1/4.

    The claimed probabilities are deliberately conservative lower bounds
    (measured values are far higher; see ``python -m repro bench run
    --only coin_quality``).  The paper only needs them to be positive
    constants.
    """

    rounds = GradedSharingState.ROUNDS

    def __init__(self, n: int, f: int) -> None:
        check_resilience(n, f)
        self.n = n
        self.f = f
        self.field = PrimeField.for_system(n)
        self.name = f"feldman-micali(n={n},f={f},p={self.field.modulus})"
        self.p0 = 0.25
        self.p1 = 0.25

    def new_instance(self) -> "FeldmanMicaliInstance":
        return FeldmanMicaliInstance(self)


class FeldmanMicaliInstance(CoinInstance):
    """One node's participation in one four-round coin invocation."""

    def __init__(self, algorithm: FeldmanMicaliCoin) -> None:
        self.algorithm = algorithm
        self.state = GradedSharingState(
            algorithm.n, algorithm.f, algorithm.field
        )
        self._output = 0

    def send_round(self, round_index: int, ctx: InstanceContext) -> None:
        self.state.run_round(round_index, ctx, sending=True)

    def update_round(self, round_index: int, ctx: InstanceContext) -> None:
        self.state.run_round(round_index, ctx, sending=False)
        if round_index == self.algorithm.rounds:
            self._output = self.state.parity_output()

    def output(self) -> int:
        return self._output

    def scramble(self, rng: random.Random) -> None:
        self.state.scramble(rng)
        self._output = rng.randrange(2)
