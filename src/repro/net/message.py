"""Message and envelope types for the global-beat-system network.

All protocol traffic is modelled as :class:`Envelope` values: an immutable
record of sender, receiver, the *component path* the message is addressed
to, the payload, and the beat at which it was sent.  The component path is
what lets many protocol instances (two 2-clocks, a coin pipeline with
``Δ_A`` slots, ...) share one physical network without confusing each
other's traffic — it plays the role of the paper's "session numbers"
(Section 2.1).

Payloads are plain data (ints, strings, tuples...).  Honest code only sends
values from its declared domains; Byzantine senders may put *anything*
hashable in a payload, and all receiving code is written to tolerate that.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from itertools import islice
from typing import Hashable, NamedTuple

__all__ = [
    "BROADCAST",
    "CraftedTraffic",
    "Envelope",
    "FanoutView",
    "FastOutbox",
    "Inbox",
    "Outbox",
    "Row",
]

#: Pseudo-destination meaning "send one copy to every node (including self)".
BROADCAST = -1


class Envelope(NamedTuple):
    """One delivered message.

    A named tuple: immutable, hashable and picklable like the frozen
    dataclass it replaced, at under half the construction cost — and
    every Byzantine message of every beat is one construction.

    Attributes:
        sender: node id of the (claimed and network-verified) sender.
        receiver: node id of the destination.  Honest broadcast copies
            delivered by the fast engine carry :data:`BROADCAST` here — the
            copy is shared between all receivers; honest protocol code never
            reads this field (a node knows who it is).
        path: component path, e.g. ``"clock_sync/A/A1/coin/slot2"``.
        payload: arbitrary hashable application data.
        beat: global beat index at which the message was sent.
    """

    sender: int
    receiver: int
    path: str
    payload: Hashable
    beat: int

    def __repr__(self) -> str:  # compact form: traces get long otherwise
        return (
            f"Envelope({self.sender}->{self.receiver} @{self.beat} "
            f"{self.path}: {self.payload!r})"
        )


class Inbox(list):
    """One delivered inbox — envelopes in delivery order — that also
    carries what was read off it: :attr:`per_sender`, its collapse to one
    payload per sender (:func:`repro.core.majority.first_payload_per_sender`).
    The sharing paths hand every receiver of a class the same object, so
    the first reader's work serves the rest.  The memo lives *here*, never
    in a table keyed on the list, and an inbox is never written after its
    first read: the in-process plane (:mod:`repro.net.plane`) builds a
    fresh one per (path, beat, class); whoever does reuse one as a buffer
    empties it with :meth:`clear`, memo included.  A plain ``list`` is as
    good an inbox; it just remembers nothing."""

    per_sender = None

    def clear(self) -> None:
        super().clear()
        self.per_sender = None


class _SharedForm(Sequence):
    """A read-only ``Sequence[Envelope]`` held as records, one per
    logical send.

    A record stands for zero or more copies and builds one only when it
    is asked for; ``len``, indexing, slicing and iteration yield exactly
    the envelopes, in exactly the order, of the materialized list.
    Subclasses say what a record is (:meth:`_copy`, ``__iter__``); the
    index arithmetic lives here, once.
    """

    __slots__ = ("_beat", "_records", "_starts", "_length")

    def __init__(self, beat: int) -> None:
        self._beat = beat
        self._records: list = []
        #: Position of each record's first envelope.
        self._starts: list[int] = []
        self._length = 0

    def _append(self, record, copies: int) -> None:
        self._records.append(record)
        self._starts.append(self._length)
        self._length += copies

    def _copy(self, record, offset: int) -> Envelope:
        """The ``offset``-th envelope ``record`` stands for."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("index out of range")
        record = bisect_right(self._starts, index) - 1
        return self._copy(self._records[record], index - self._starts[record])


class FanoutView(_SharedForm):
    """One beat's legal adversary view, in shared form.

    The view is every copy addressed to a faulty node, in the engines'
    canonical order: sender ascending, then the sender's emission order,
    then faulty receiver ascending.  An honest full broadcast is held as
    one ``(sender, path, payload)`` record standing for one copy per
    faulty id; a point-to-point send to a faulty node is held as its
    envelope, in emission position.  Either way the record is ``(sender,
    path, payload, envelope)``, ``envelope`` being ``None`` for a full
    broadcast and the message itself otherwise.
    """

    __slots__ = ("_faulty",)

    def __init__(self, beat: int, faulty: tuple[int, ...]) -> None:
        super().__init__(beat)
        #: The faulty ids, ascending.
        self._faulty = faulty

    def add_broadcast(self, sender: int, path: str, payload: Hashable) -> None:
        """Record one honest full broadcast (one copy per faulty id)."""
        # ``_append``, inlined: every honest broadcast of every beat.
        self._records.append((sender, path, payload, None))
        self._starts.append(self._length)
        self._length += len(self._faulty)

    def add_envelope(self, envelope: Envelope) -> None:
        """Record one point-to-point message to a faulty receiver."""
        self._append(
            (envelope.sender, envelope.path, envelope.payload, envelope), 1
        )

    def __iter__(self):
        beat = self._beat
        faulty = self._faulty
        for sender, path, payload, envelope in self._records:
            if envelope is None:
                for receiver in faulty:
                    yield Envelope(sender, receiver, path, payload, beat)
            else:
                yield envelope

    def _copy(self, record, offset: int) -> Envelope:
        sender, path, payload, envelope = record
        if envelope is None:
            return Envelope(
                sender, self._faulty[offset], path, payload, self._beat
            )
        return envelope

    def by_path(self) -> dict[str, tuple[list[Hashable], "FanoutView"]]:
        """``path -> (payloads, messages)`` of the view restricted to each
        path, both in view order; paths in first-appearance order."""
        width = len(self._faulty)
        index: dict[str, tuple[list[Hashable], FanoutView]] = {}
        for sender, path, payload, envelope in self._records:
            entry = index.get(path)
            if entry is None:
                entry = index[path] = ([], FanoutView(self._beat, self._faulty))
            payloads, messages = entry
            if envelope is None:
                payloads.extend([payload] * width)
                messages.add_broadcast(sender, path, payload)
            else:
                payloads.append(payload)
                messages.add_envelope(envelope)
        return index


class Row(NamedTuple):
    """One faulty sender's traffic on one path: ``payloads`` maps
    receiver -> payload, one copy per entry, in the mapping's own order
    (ascending receiver, as the loop over ``range(n)`` it replaces).
    One mapping may be handed to many senders; it is never written."""

    sender: int
    path: str
    payloads: Mapping[int, Hashable]


class CraftedTraffic(_SharedForm):
    """One beat's Byzantine traffic, in shared form — the output twin of
    :class:`FanoutView`.

    Records, in emission order, are :class:`Row` values (one sender, one
    path, every receiver's payload) and point-to-point envelopes.  The
    materialized order is record by record, a row's copies in its
    mapping's order; that list *is* the strategy's output — shared form
    changes what a beat costs, never its content or order.  Engines that
    share work read :attr:`records`; everything else iterates.
    """

    __slots__ = ()

    @classmethod
    def of(cls, beat: int, crafted: "Sequence[Envelope]") -> "CraftedTraffic":
        """``crafted`` itself when it is already in shared form, else
        its envelopes as point-to-point records."""
        if isinstance(crafted, cls):
            return crafted
        traffic = cls(beat)
        traffic._records = list(crafted)
        traffic._starts = list(range(len(traffic._records)))
        traffic._length = len(traffic._records)
        return traffic

    @property
    def records(self) -> "list[Row | Envelope]":
        """The records, in emission order (read-only)."""
        return self._records

    @property
    def starts(self) -> list[int]:
        """Each record's first copy's index in the materialized list
        (read-only)."""
        return self._starts

    def add_row(
        self, sender: int, path: str, payloads: Mapping[int, Hashable]
    ) -> None:
        """Record ``sender``'s copies on ``path``: one per entry of
        ``payloads``.  An empty mapping sends nothing and records nothing."""
        if payloads:
            self._append(Row(sender, path, payloads), len(payloads))

    def add_envelope(self, envelope: Envelope) -> None:
        """Record one point-to-point message."""
        self._append(envelope, 1)

    def __iter__(self):
        beat = self._beat
        for record in self._records:
            if type(record) is Row:
                sender, path, payloads = record
                for receiver, payload in payloads.items():
                    yield Envelope(sender, receiver, path, payload, beat)
            else:
                yield record

    def _copy(self, record, offset: int) -> Envelope:
        if type(record) is Row:
            receiver, payload = next(
                islice(record.payloads.items(), offset, None)
            )
            return Envelope(
                record.sender, receiver, record.path, payload, self._beat
            )
        return record

    def copies_per_path(self) -> "dict[tuple[str, int], int]":
        """``(path, send beat) -> copies``, tallied per record."""
        beat = self._beat
        copies: dict[tuple[str, int], int] = {}
        for record in self._records:
            if type(record) is Row:
                key = (record.path, beat)
                count = len(record.payloads)
            else:
                key = (record.path, record.beat)
                count = 1
            copies[key] = copies.get(key, 0) + count
        return copies


class Outbox:
    """Collector for messages emitted by one node during a send phase.

    The network, not the component, stamps the sender id and beat: a correct
    node cannot mis-identify itself (Definition 2.2 item 2 — sender identity
    is not tampered with).
    """

    def __init__(self, sender: int, beat: int) -> None:
        self._sender = sender
        self._beat = beat
        self._messages: list[Envelope] = []

    def send(self, receiver: int, path: str, payload: Hashable) -> None:
        """Queue a point-to-point message."""
        self._messages.append(
            Envelope(self._sender, int(receiver), path, payload, self._beat)
        )

    def broadcast(
        self, node_ids: Sequence[int], path: str, payload: Hashable
    ) -> None:
        """Queue one copy of ``payload`` to every node in ``node_ids``.

        The paper's footnote: "broadcast" means "send the message to all
        nodes" — there are no broadcast channels, so a faulty node may send
        *different* values to different nodes (equivocation).  For honest
        nodes this helper sends identical copies.
        """
        for receiver in node_ids:
            self.send(receiver, path, payload)

    def drain(self) -> list[Envelope]:
        """Return and clear all queued messages."""
        messages, self._messages = self._messages, []
        return messages

    def __len__(self) -> int:
        return len(self._messages)


class FastOutbox:
    """Send-phase collector recording fan-outs instead of envelopes.

    A full broadcast becomes one ``(path, payload, None)`` record; a
    point-to-point send becomes ``(path, payload, receiver)``.  The
    consumer expands records — an engine at delivery time, the live
    runtime into one wire frame each — so an honest broadcast costs O(1)
    here instead of n envelope allocations.
    """

    __slots__ = ("_n", "_records")

    def __init__(self, n: int) -> None:
        self._n = n
        self._records: list[tuple[str, Hashable, int | None]] = []

    def send(self, receiver: int, path: str, payload: Hashable) -> None:
        """Queue a point-to-point message."""
        self._records.append((path, payload, int(receiver)))

    def broadcast(
        self, node_ids: Sequence[int], path: str, payload: Hashable
    ) -> None:
        """Queue one copy of ``payload`` to every node in ``node_ids``."""
        if len(node_ids) == self._n:
            self._records.append((path, payload, None))
        else:  # partial broadcast: no fan-out sharing possible
            for receiver in node_ids:
                self._records.append((path, payload, int(receiver)))

    def drain(self) -> list[tuple[str, Hashable, int | None]]:
        """Return and clear all queued records."""
        records, self._records = self._records, []
        return records

    def __len__(self) -> int:
        return len(self._records)
