"""The targeted attack on ss-Byz-2-Clock, with an optional illegal upgrade.

The *legal* version is the strongest adversary the paper's model allows
against Fig. 2: rushing (it reads the honest clock broadcasts of the
current beat), coin-aware (it reads the *current* beat's coin before
committing its own messages — explicitly permitted by §6.1), and targeted
(it knows the protocol and pushes the one value whose honest support of at
least ``n - 2f`` can be lifted over the ``n - f`` threshold for exactly a
minority of receivers, keeping the correct clocks split between that value
and ⊥ for as long as it can).

Lemma 4's independence argument predicts the attack still loses each beat
with probability at least ``min(p0, p1)``: whenever the new coin equals the
standing clock value, honest support alone crosses ``n - f`` everywhere and
the clocks merge no matter what the adversary sends.

``foresight > 0`` upgrades the adversary *outside the model*: it may read
the coin of future beats, which is exactly what Definition 2.6's
unpredictability forbids.  The F6 ablation bench measures how much of the
expected-constant convergence survives the upgrade.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.adversary.base import Adversary, AdversaryView
from repro.adversary.payloads import push_or_junk
from repro.coin.interfaces import CoinAlgorithm
from repro.net.message import Envelope

__all__ = ["AntiCoinClock2Adversary"]


class AntiCoinClock2Adversary(Adversary):
    """Coin-aware split-preserving attack on a 2-clock at ``clock_path``.

    Args:
        coin: the oracle coin algorithm the protocol under attack uses (the
            adversary knows the code, hence Δ_A, p0 and p1).
        clock_path: routing path of the 2-clock's own broadcasts.
        coin_path: routing path of the pipeline slot whose completion
            resolves each beat's coin (defaults to the slot under
            ``clock_path``).
        foresight: how many beats ahead the adversary may read the coin;
            0 is the paper-legal rushing adversary.
    """

    def __init__(
        self,
        coin: CoinAlgorithm,
        *,
        clock_path: str = "root",
        coin_path: str | None = None,
        foresight: int = 0,
    ) -> None:
        super().__init__()
        self.coin = coin
        self.clock_path = clock_path
        self.coin_path = coin_path or f"{clock_path}/coin/slot{coin.rounds}"
        self.foresight = foresight

    def _coin_bits(self, view: AdversaryView, beat: int) -> dict[int, int]:
        outcome = view.resolve_coin(self.coin_path, beat, self.coin.p0, self.coin.p1)
        return outcome.bits

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        clock_values = [
            e.payload
            for e in view.visible_messages
            if e.path == self.clock_path and e.receiver == min(view.faulty_ids)
        ]
        # Rushing (§6.1): the current beat's coin, legally.
        rand_now = self._coin_bits(view, view.beat)
        # The receivers' ⊥ substitution uses each receiver's own bit; in
        # E0/E1 they coincide, in the divergent event they differ.
        substituted = Counter()
        for value in clock_values:
            if value is None:
                # Use the majority of per-node bits as the planning estimate.
                ones = sum(rand_now.values())
                substituted[1 if 2 * ones >= len(rand_now) else 0] += 1
            elif isinstance(value, int):
                substituted[value] += 1
        threshold_push = view.n - 2 * view.f  # honest support needed to push
        pushable = [
            value
            for value, count in substituted.items()
            if count >= threshold_push and value in (0, 1)
        ]
        if not pushable:  # junk everywhere
            return push_or_junk(view, self.faulty_ids, self.clock_path, {})
        if self.foresight > 0:
            future = self._coin_bits(view, view.beat + self.foresight)
            target_bit = next(iter(future.values()))
            # Prefer the pushable value equal to the future coin: adopters
            # will land on 1 - coin, the value the next beat cannot merge.
            preferred = [v for v in pushable if v == target_bit]
            target = preferred[0] if preferred else pushable[0]
        else:
            target = pushable[0]
        # Push `target` over n - f for exactly n - 2f honest receivers so
        # they adopt 1 - target while the rest stay at ⊥.
        adopters = view.honest_ids[: view.n - 2 * view.f]
        return push_or_junk(
            view, self.faulty_ids, self.clock_path,
            dict.fromkeys(adopters, target),
        )

    def choose_divergent_outputs(
        self, key: tuple[str, int], bits: dict[int, int]
    ) -> dict[int, int]:
        """In the divergent event, split the correct nodes' bits in half."""
        ordered = sorted(bits)
        half = len(ordered) // 2
        return {
            node_id: (0 if index < half else 1)
            for index, node_id in enumerate(ordered)
        }
