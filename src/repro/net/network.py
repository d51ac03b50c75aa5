"""Message routing and accounting for the global-beat-system network.

A non-faulty network (Definition 2.2) guarantees: (1) same-beat delivery,
(2) untampered sender identity and content, (3) no phantom messages.  The
router below enforces (2) structurally — envelopes are stamped by the
framework, and the adversary can only inject envelopes whose sender is one
of the faulty ids.  Phantom messages (stale traffic from a faulty period)
are modelled explicitly with :meth:`Router.inject_phantoms`, used by the
fault-injection machinery to exercise convergence from incoherent network
states.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import ProtocolViolationError
from repro.net.message import CraftedTraffic, Envelope

__all__ = ["MessageStats", "Router", "ensure_faulty_senders"]

_SENDER = attrgetter("sender")
_BEAT = attrgetter("beat")
_PATH = attrgetter("path")


def ensure_faulty_senders(
    faulty_ids: frozenset[int], envelopes: Sequence[Envelope]
) -> Sequence[Envelope]:
    """Reject adversary envelopes that forge an honest sender identity.

    Definition 2.2 item 2: a non-faulty network does not tamper with sender
    identity, so the adversary can speak only for faulty nodes.  Forgeries
    indicate a buggy adversary implementation and raise, since silently
    dropping them would make attacks look weaker than written.
    """
    # Shared form is checked record by record (a row names its sender
    # once).  The sender *column* is checked as a set; the walk runs only
    # to name the first forger.
    records = (
        envelopes.records if isinstance(envelopes, CraftedTraffic)
        else envelopes
    )
    if not faulty_ids.issuperset(map(_SENDER, records)):
        for record in records:
            if record.sender not in faulty_ids:
                raise ProtocolViolationError(
                    f"adversary forged sender {record.sender}, faulty ids "
                    f"are {sorted(faulty_ids)}"
                )
    return envelopes


@dataclass
class MessageStats:
    """Running totals of network traffic, for message-complexity benches.

    ``total_messages`` counts *sent* copies (keyed to the send beat in
    ``per_beat``), exactly as under a perfect network; link conditions
    (:mod:`repro.net.linkmodel`) additionally account their casualties in
    ``dropped_messages`` and ``delayed_messages``, so
    :attr:`delivered_messages` reports what actually reached an inbox.
    Both stay zero under perfect links, keeping perfect-link stats
    bit-identical to pre-link-layer runs.
    """

    total_messages: int = 0
    honest_messages: int = 0
    byzantine_messages: int = 0
    dropped_messages: int = 0
    delayed_messages: int = 0
    per_beat: Counter = field(default_factory=Counter)
    per_path_prefix: Counter = field(default_factory=Counter)
    dropped_per_beat: Counter = field(default_factory=Counter)
    # Paths repeat every beat; splitting them each time churns strings, so
    # the two-level prefix is computed once per distinct path.
    _prefix_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def prefix_of(self, path: str) -> str:
        """The top-two-level accounting prefix of ``path``, e.g. "root/A"."""
        prefix = self._prefix_cache.get(path)
        if prefix is None:
            prefix = "/".join(path.split("/", 2)[:2])
            self._prefix_cache[path] = prefix
        return prefix

    def record(self, envelope: Envelope, honest: bool) -> None:
        self.total_messages += 1
        if honest:
            self.honest_messages += 1
        else:
            self.byzantine_messages += 1
        self.per_beat[envelope.beat] += 1
        self.per_path_prefix[self.prefix_of(envelope.path)] += 1

    def record_block(self, envelopes: Sequence[Envelope], honest: bool) -> None:
        """Exactly :meth:`record` for each envelope, tallied column-wise:
        one :meth:`record_fanout` per distinct (path, beat).  Shared form
        is tallied per record — a row adds its length."""
        if isinstance(envelopes, CraftedTraffic):
            tally = envelopes.copies_per_path()
        else:
            tally = Counter(zip(map(_PATH, envelopes), map(_BEAT, envelopes)))
        for (path, beat), copies in tally.items():
            self.record_fanout(path, beat, copies, honest)

    def record_fanout(
        self, path: str, beat: int, count: int, honest: bool = True
    ) -> None:
        """Account for ``count`` copies of one broadcast in O(1)."""
        self.total_messages += count
        if honest:
            self.honest_messages += count
        else:
            self.byzantine_messages += count
        self.per_beat[beat] += count
        self.per_path_prefix[self.prefix_of(path)] += count

    def record_dropped(self, envelope: Envelope) -> None:
        """Account one envelope the link model refused to deliver."""
        self.dropped_messages += 1
        self.dropped_per_beat[envelope.beat] += 1

    def record_dropped_block(self, beat: int, count: int) -> None:
        """Account ``count`` same-beat link casualties in O(1).

        Equivalent to ``count`` :meth:`record_dropped` calls for envelopes
        of one beat; the bulk engine uses it to charge a whole broadcast
        lane's cross-partition losses without materializing the copies.
        """
        self.dropped_messages += count
        self.dropped_per_beat[beat] += count

    def record_delayed(self, envelope: Envelope) -> None:
        """Account one envelope deferred past its send beat."""
        self.delayed_messages += 1

    @property
    def delivered_messages(self) -> int:
        """Sent copies that were (or will be) delivered to an inbox."""
        return self.total_messages - self.dropped_messages

    def messages_at_beat(self, beat: int) -> int:
        return self.per_beat.get(beat, 0)

    def as_dict(self) -> dict[str, int]:
        """The scalar totals as one name-keyed snapshot — what engine
        parity tests compare and metrics collectors read."""
        return {
            "total_messages": self.total_messages,
            "honest_messages": self.honest_messages,
            "byzantine_messages": self.byzantine_messages,
            "dropped_messages": self.dropped_messages,
            "delayed_messages": self.delayed_messages,
        }


class Router:
    """Collects one beat's messages and routes them into per-node inboxes."""

    def __init__(
        self,
        n: int,
        faulty_ids: frozenset[int],
        stats: MessageStats | None = None,
    ) -> None:
        self.n = n
        self.faulty_ids = faulty_ids
        self.stats = stats if stats is not None else MessageStats()
        self._pending_phantoms: list[Envelope] = []

    def inject_phantoms(self, envelopes: list[Envelope]) -> None:
        """Queue phantom messages for delivery with the next beat.

        Phantoms model Definition 2.2 item 3 being violated *before* the
        network becomes non-faulty: leftover buffered traffic that no
        currently-correct node recently sent.  Self-stabilizing protocols
        must converge once phantoms stop; tests inject a burst and then run
        a clean coherent interval.
        """
        self._pending_phantoms.extend(envelopes)

    def drain_phantoms(self) -> list[Envelope]:
        """Return and clear the queued phantom burst."""
        phantoms, self._pending_phantoms = self._pending_phantoms, []
        return phantoms

    def validate_byzantine(self, envelopes: list[Envelope]) -> list[Envelope]:
        """Reject adversary envelopes that forge an honest sender identity:
        :func:`ensure_faulty_senders` over this router's faulty ids, which
        raises :class:`~repro.errors.ProtocolViolationError` on the first
        forgery and otherwise returns ``envelopes`` unchanged."""
        return ensure_faulty_senders(self.faulty_ids, envelopes)

    def route(
        self,
        honest_envelopes: list[Envelope],
        byzantine_envelopes: list[Envelope],
    ) -> dict[int, dict[str, list[Envelope]]]:
        """Route one beat of traffic into ``{receiver: {path: [env...]}}``.

        Delivery order within an inbox is sender-sorted, so no protocol can
        accidentally depend on network arrival order (the paper's model has
        no such order).
        """
        delivered: dict[int, dict[str, list[Envelope]]] = defaultdict(
            lambda: defaultdict(list)
        )
        phantoms = self.drain_phantoms()
        for envelope in honest_envelopes:
            self.stats.record(envelope, honest=True)
            self._deliver(delivered, envelope)
        for envelope in self.validate_byzantine(byzantine_envelopes):
            self.stats.record(envelope, honest=False)
            self._deliver(delivered, envelope)
        for envelope in phantoms:
            self.stats.record(envelope, honest=False)
            self._deliver(delivered, envelope)
        for inboxes in delivered.values():
            for inbox in inboxes.values():
                inbox.sort(key=lambda e: e.sender)
        return delivered

    def _deliver(
        self,
        delivered: dict[int, dict[str, list[Envelope]]],
        envelope: Envelope,
    ) -> None:
        if 0 <= envelope.receiver < self.n:
            delivered[envelope.receiver][envelope.path].append(envelope)
