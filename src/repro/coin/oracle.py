"""The oracle coin: Definition 2.6 realized exactly, as an ideal functionality.

The paper's clock algorithms treat the coin as a black box with five
properties (model, termination, binary output, events E0/E1 with constant
probabilities, unpredictability).  The oracle coin implements that contract
*exactly* — the simulation environment resolves, per completed instance,
whether E0, E1, or the unguaranteed divergent event occurred, and in the
divergent case the adversary may dictate every node's output (the worst
case Definition 2.6 permits).

Unpredictability holds by construction: the outcome is resolved lazily from
a per-key seed, the adversary may query it no earlier than the instance's
final round (rushing, §6.1), and the *foresight* ablation deliberately
violates this to demonstrate the property is necessary (see
``python -m repro bench run --only fig_foresight``).

Protocol-level theorem tests (Theorems 2-4) run against this coin so that
they verify the paper's reductions and not the luck of a particular coin
implementation.
"""

from __future__ import annotations

import random

from repro.coin.interfaces import CoinAlgorithm, CoinInstance, InstanceContext
from repro.errors import ConfigurationError

__all__ = ["OracleCoin", "OracleCoinInstance"]


class OracleCoin(CoinAlgorithm):
    """Ideal Definition-2.6 coin with configurable ``p0``, ``p1``, Δ_A."""

    def __init__(self, p0: float = 0.35, p1: float = 0.35, rounds: int = 3) -> None:
        if not (0.0 < p0 and 0.0 < p1 and p0 + p1 <= 1.0):
            raise ConfigurationError(
                f"need p0 > 0, p1 > 0, p0 + p1 <= 1; got p0={p0}, p1={p1}"
            )
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self.name = f"oracle(p0={p0},p1={p1},rounds={rounds})"
        self.rounds = rounds
        self.p0 = p0
        self.p1 = p1

    def new_instance(self) -> "OracleCoinInstance":
        return OracleCoinInstance(self)


class OracleCoinInstance(CoinInstance):
    """Per-node handle on one ideal coin invocation.

    Sends no traffic; at its final round it reads the globally consistent
    outcome from the environment.  Before the final round the output
    attribute holds the *previous* arbitrary value, matching the paper's
    requirement that the adversary (and the node itself) learn nothing
    early.
    """

    def __init__(self, algorithm: OracleCoin) -> None:
        self.algorithm = algorithm
        self._output = 0

    def send_round(self, round_index: int, ctx: InstanceContext) -> None:
        """The ideal functionality needs no messages."""

    def update_round(self, round_index: int, ctx: InstanceContext) -> None:
        if round_index == self.algorithm.rounds:
            outcome = ctx.env.coin_outcome(
                ctx.path, ctx.beat, self.algorithm.p0, self.algorithm.p1
            )
            self._output = outcome.bit_for(ctx.node_id)

    def output(self) -> int:
        return self._output

    def scramble(self, rng: random.Random) -> None:
        self._output = rng.randrange(2)
