"""Byzantine adversary framework.

The paper assumes an *information-theoretic adversary with private
channels*: it coordinates all faulty nodes, it sees every message addressed
to a faulty node (hence every broadcast, since "broadcast" means "send to
all nodes"), but it cannot read traffic between two correct nodes and it
cannot use computational tricks.  It is also *rushing*: within a beat it
may inspect the correct nodes' messages — and, per §6.1, the current beat's
coin — before choosing the faulty nodes' messages.

Faulty nodes have no :class:`~repro.net.node.Node` object; an
:class:`Adversary` speaks for all of them at once through
:meth:`craft_messages`, which is strictly more powerful than running
corrupted per-node code.

Strategies run unchanged in both execution worlds: the lock-step
simulator invokes them as a phase of the beat loop
(:func:`repro.net.engine.craft_byzantine`), and the live runtime wraps
them in a real misbehaving peer
(:class:`repro.runtime.byzantine.ByzantineProcess`) that receives the
same legal view over actual transports.  Either way
:attr:`AdversaryView.visible_messages` is a read-only sequence in the
engines' canonical order (sender, then the sender's emission order, then
faulty receiver); the fast and bulk engines pass a
:class:`~repro.net.message.FanoutView`, which builds a faulty receiver's
copy of an honest broadcast only when a strategy asks for it.

The output has the same shape.  :meth:`Adversary.craft_messages` returns
a read-only ``Sequence[Envelope]``: the shipped strategies fill the
:class:`~repro.net.message.CraftedTraffic` that
:meth:`AdversaryView.traffic` hands out — one
:meth:`~repro.net.message.CraftedTraffic.add_row` per (faulty sender,
path) holding every receiver's payload, one ``add_envelope`` per
genuinely point-to-point message — and a strategy that returns a plain
list of envelopes runs unchanged.  The strategy's output *is* the
materialized list (record by record, a row's receivers in its mapping's
order); shared form only lets the fast and bulk engines see that many
receivers were handed the same payload *object* — which is what they
share work on, so build each distinct payload once.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import cached_property
from typing import TYPE_CHECKING, Hashable

from repro.net.message import CraftedTraffic, Envelope, FanoutView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.environment import CoinOutcome, Environment

__all__ = ["Adversary", "AdversaryView", "NullAdversary"]


class AdversaryView:
    """Everything the adversary may look at during one beat.

    ``visible_messages`` is a read-only sequence (a list, or a
    :class:`~repro.net.message.FanoutView`) in canonical order.  The
    per-path questions — :meth:`visible_paths`, :meth:`visible_by_path`,
    :meth:`observed_payloads` — are answered from one index built on
    first use, not from a scan of the sequence each.
    """

    def __init__(
        self,
        *,
        beat: int,
        n: int,
        f: int,
        faulty_ids: frozenset[int],
        visible_messages: Sequence[Envelope],
        env: "Environment",
        rng: random.Random,
    ) -> None:
        self.beat = beat
        self.n = n
        self.f = f
        self.faulty_ids = faulty_ids
        #: Messages addressed to faulty nodes this beat (private channels:
        #: honest-to-honest point-to-point traffic is *not* included).
        self.visible_messages = visible_messages
        self._env = env
        self.rng = rng

    @cached_property
    def honest_ids(self) -> list[int]:
        """The correct nodes' ids, ascending."""
        return [i for i in range(self.n) if i not in self.faulty_ids]

    @cached_property
    def _by_path(self) -> dict[str, tuple[list, Sequence[Envelope]]]:
        """``path -> (payloads, messages)``, both in view order."""
        visible = self.visible_messages
        if isinstance(visible, FanoutView):
            return visible.by_path()
        index: dict[str, tuple[list, list]] = {}
        for envelope in visible:
            entry = index.get(envelope.path)
            if entry is None:
                entry = index[envelope.path] = ([], [])
            entry[0].append(envelope.payload)
            entry[1].append(envelope)
        return index

    def visible_by_path(self, path: str) -> list[Envelope]:
        """Visible messages addressed to one component path."""
        entry = self._by_path.get(path)
        return [] if entry is None else list(entry[1])

    def visible_paths(self) -> set[str]:
        """All component paths with visible traffic this beat."""
        return set(self._by_path)

    def observed_payloads(self, path: str) -> list[Hashable]:
        """Payloads of the visible messages on one path, in view order."""
        entry = self._by_path.get(path)
        return [] if entry is None else list(entry[0])

    def coin_outcomes(self) -> dict[tuple[str, int], "CoinOutcome"]:
        """Coin outcomes resolved up to and including the current beat."""
        return self._env.resolved_outcomes(self.beat)

    def resolve_coin(
        self, path: str, beat: int, p0: float, p1: float
    ) -> "CoinOutcome":
        """Force-resolve a coin outcome (the rushing / foresight channel).

        With ``beat == self.beat`` this models §6.1's rushing adversary,
        which legitimately sees the current beat's coin before its messages
        commit.  With ``beat > self.beat`` it models the *illegal* foresight
        adversary used by the ablation benches to show why unpredictability
        (Definition 2.6) is necessary.
        """
        return self._env.coin_outcome(path, beat, p0, p1)

    def traffic(self) -> CraftedTraffic:
        """A fresh, empty collector for this beat's crafted messages."""
        return CraftedTraffic(self.beat)

    def make_envelope(
        self, sender: int, receiver: int, path: str, payload: Hashable
    ) -> Envelope:
        """Build a well-stamped point-to-point envelope from a faulty
        sender."""
        return Envelope(sender, receiver, path, payload, self.beat)


class Adversary:
    """Base adversary: controls up to ``f`` nodes, sends nothing.

    Subclasses override :meth:`craft_messages`; they may also override
    :meth:`select_faulty` (default: the ``f`` highest node ids) and
    :meth:`choose_divergent_outputs` (consulted by the environment when an
    oracle-coin instance lands in the unguaranteed divergent event, letting
    worst-case adversaries pick the per-node outputs Definition 2.6 leaves
    unconstrained).
    """

    def __init__(self) -> None:
        self.n = 0
        self.f = 0
        self.faulty_ids: frozenset[int] = frozenset()
        #: The correct nodes' ids, ascending (fixed by :meth:`setup`).
        self.honest_ids: list[int] = []
        self.rng = random.Random(0)

    def select_faulty(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        """Pick which nodes this adversary corrupts (at most ``f``)."""
        return frozenset(range(n - f, n))

    def setup(
        self, n: int, f: int, faulty_ids: frozenset[int], rng: random.Random
    ) -> None:
        """Called once by the simulation before the first beat."""
        self.n = n
        self.f = f
        self.faulty_ids = faulty_ids
        self.honest_ids = [i for i in range(n) if i not in faulty_ids]
        self.rng = rng

    def craft_messages(self, view: AdversaryView) -> Sequence[Envelope]:
        """Return this beat's messages from all faulty nodes: a filled
        :meth:`AdversaryView.traffic`, or any sequence of envelopes."""
        return []

    def choose_divergent_outputs(
        self, key: tuple[str, int], bits: dict[int, int]
    ) -> dict[int, int]:
        """Override per-node coin outputs in the divergent event.

        The default keeps the environment's random per-node bits, which is
        already outside E0/E1; worst-case adversaries (e.g.
        :class:`~repro.adversary.split_world.SplitWorldAdversary`) override
        this to hand different halves of the network different bits.
        """
        return {}


class NullAdversary(Adversary):
    """An adversary that corrupts no nodes at all (fault-free runs)."""

    def select_faulty(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        return frozenset()
