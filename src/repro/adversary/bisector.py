"""The resilience-boundary attack: two-sided majority pushing.

Against ss-Byz-2-Clock, a correct node adopts ``1 - x`` when ``x`` reaches
``n - f`` occurrences; the adversary's ``f`` copies lift any value with
honest support of at least ``t = n - 2f`` over that threshold, *per
receiver*.  Two disjoint camps of correct nodes can therefore be held at
opposite clock values forever iff **both** values muster honest support
``t``, i.e. iff ``2(n - 2f) <= n - f`` — exactly ``n <= 3f``.

The attack is rushing and coin-aware (both legal, §6.1): a ⊥ broadcast
counts as the beat's ``rand`` at every receiver, so honest support is
computed on *effective* values.  Once the two camps hold concrete opposite
values no ⊥ remains, the coin stops mattering, and the stall is permanent.
At ``n = 3f + 1`` the pigeonhole collapses — only one value can have honest
support ``t`` among the ``n - f`` correct nodes — which is precisely the
paper's tight ``f < n/3`` resilience bound; the F3 bench measures the
boundary empirically.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.adversary.base import Adversary, AdversaryView
from repro.adversary.payloads import push_or_junk
from repro.coin.interfaces import CoinAlgorithm
from repro.net.message import Envelope

__all__ = ["BisectorAdversary"]


class BisectorAdversary(Adversary):
    """Keeps two camps of correct nodes at opposite 2-clock values.

    Args:
        coin: the protocol's coin algorithm (the adversary knows the code
            and may read the current beat's coin — §6.1).
        clock_path: routing path of the 2-clock's broadcasts.
        coin_path: routing path of the completing pipeline slot.
    """

    def __init__(
        self,
        coin: CoinAlgorithm,
        *,
        clock_path: str = "root",
        coin_path: str | None = None,
    ) -> None:
        super().__init__()
        self.coin = coin
        self.clock_path = clock_path
        self.coin_path = coin_path or f"{clock_path}/coin/slot{coin.rounds}"

    def _rand_estimate(self, view: AdversaryView) -> int:
        outcome = view.resolve_coin(
            self.coin_path, view.beat, self.coin.p0, self.coin.p1
        )
        ones = sum(outcome.bits.values())
        return 1 if 2 * ones >= len(outcome.bits) else 0

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        observer = min(view.faulty_ids)
        rand = self._rand_estimate(view)
        effective: dict[int, int] = {}
        for envelope in view.visible_messages:
            if envelope.path != self.clock_path or envelope.receiver != observer:
                continue
            if envelope.payload in (0, 1):
                effective[envelope.sender] = envelope.payload
            elif envelope.payload is None:
                effective[envelope.sender] = rand
        support = Counter(effective.values())
        threshold = view.n - 2 * view.f
        if support[0] >= threshold and support[1] >= threshold:
            # Two-sided stall: each camp re-adopts its current effective
            # value because the opposite value is pushed past n - f at it.
            pushed = {
                receiver: 1 - camp for receiver, camp in effective.items()
            }
        else:
            # One-sided fallback: push the single pushable value at half
            # the correct nodes, hoping to re-create a mixed state next
            # beat.
            pushable = [bit for bit in (0, 1) if support[bit] >= threshold]
            if not pushable:
                return []
            half = view.honest_ids[: len(view.honest_ids) // 2]
            pushed = dict.fromkeys(half, pushable[0])
        return push_or_junk(view, self.faulty_ids, self.clock_path, pushed)

    def choose_divergent_outputs(
        self, key: tuple[str, int], bits: dict[int, int]
    ) -> dict[int, int]:
        """Split the coin bits whenever Definition 2.6 lets us."""
        ordered = sorted(bits)
        half = len(ordered) // 2
        return {
            node_id: (0 if index < half else 1)
            for index, node_id in enumerate(ordered)
        }
