"""The in-process message plane: one beat's traffic, in shared form.

Definition 2.2's non-faulty network delivers a beat's messages within
the beat, with the sender's identity intact; Observation 3.1 adds that
the views of two correct nodes differ in at most the f entries the
adversary owns.  So one beat's traffic is mostly *one* inbox per
component path, and :class:`BeatTraffic` holds it that way:

* an honest full broadcast is one ``Envelope(sender, BROADCAST, ...)`` on
  its path's **lane** — an :class:`~repro.net.message.Inbox` every
  receiver reads as it is (honest code never looks at ``receiver`` and
  never writes an inbox);
* a crafted :class:`~repro.net.message.Row` stays a **row**: it is
  expanded once per *class* of receivers, never once per receiver — and
  so is a broadcast a link model held some copies of (dropped or
  delayed), as the row of the receivers it still reaches this beat;
* everything addressed to one node — point-to-point sends, crafted
  envelopes, phantoms, delayed copies arriving — is that receiver's
  **stray**.

:meth:`BeatTraffic.inboxes` answers with the lanes dict itself for a
receiver that got nothing of its own.  Otherwise each path it was handed
something on is replaced by a merged inbox in the reference router's
order — sender ascending and, within a sender, stage (``STAGE_*``) then
the filler's order key — built once per class: receivers with no strays
on a path whom every row of the path hands the same payload *objects*
(identity, never equality: ``1 == True == 1.0``) share one ``Inbox``, so
whatever the protocol tower reads off it is read once; a receiver with
strays on the path reads a plain list of its own.

The plane knows nothing of *when*: a lock-step engine fills one per beat
— honest senders in ascending id order, so the lanes come out sorted —
and reads it at once (a continuous-time run is a lock-step run behind a
link model, :mod:`repro.net.events`).  Two rules bind every filler.  **An
inbox is never written after its first read** — fill, then read.
**Classes are per path**, never per receiver across paths: a receiver
the adversary singled out on one path still shares every other.
"""

from __future__ import annotations

from collections.abc import Container, Hashable, Iterable, Mapping
from operator import itemgetter

from repro.net.message import BROADCAST, Envelope, Inbox, Row

__all__ = ["BeatTraffic", "STAGE_DELAYED", "STAGE_PHANTOM", "STAGE_REGULAR"]

#: Merge stages, mirroring the reference router's stable-sort insertion
#: order for one sender: delayed arrivals (older traffic a link model
#: deferred) first, then the beat's regular traffic (honest and Byzantine
#: — their sender sets are disjoint), then phantoms claiming that sender.
STAGE_DELAYED = -1
STAGE_REGULAR = 0
STAGE_PHANTOM = 1

#: ``(sender, stage, order)``: the position of one envelope in an inbox.
Key = tuple[int, int, int]

#: A receiver a row does not name.
_ABSENT = object()

_KEY = itemgetter(0)


class BeatTraffic:
    """Everything correct nodes are handed for one beat."""

    __slots__ = ("beat", "lanes", "strays", "_keys", "_rows", "_classes")

    def __init__(self, beat: int) -> None:
        self.beat = beat
        #: path -> the honest broadcasts on it, one shared envelope each.
        self.lanes: dict[str, Inbox] = {}
        #: path -> the keys of its lane's envelopes, position by position.
        self._keys: dict[str, list[Key]] = {}
        #: path -> [(key, receiver -> payload)], in emission order.
        self._rows: dict[str, list[tuple[Key, Mapping[int, Hashable]]]] = {}
        #: receiver -> path -> [(key, envelope)]: what :meth:`stray` files.
        self.strays: dict[int, dict[str, list[tuple[Key, Envelope]]]] = {}
        #: path -> (its distinct row mappings, class key -> merged inbox).
        self._classes: dict[str, tuple[list[Mapping], dict[tuple, Inbox]]] = {}

    # -- filling -------------------------------------------------------------

    def broadcast(
        self, sender: int, order: int, path: str, payload: Hashable
    ) -> None:
        """One honest full broadcast: one envelope, on ``path``'s lane."""
        lane = self.lanes.get(path)
        if lane is None:
            lane = self.lanes[path] = Inbox()
            self._keys[path] = []
        lane.append(Envelope(sender, BROADCAST, path, payload, self.beat))
        self._keys[path].append((sender, STAGE_REGULAR, order))

    def stray(self, receiver: int, key: Key, envelope: Envelope) -> None:
        """One envelope for ``receiver`` alone, at position ``key``."""
        self.strays.setdefault(receiver, {}).setdefault(
            envelope.path, []
        ).append((key, envelope))

    def row(
        self, sender: int, order: int, path: str,
        payloads: Mapping[int, Hashable],
    ) -> None:
        """One record's copies, receiver -> payload, as a row on ``path``
        — for a broadcast that reaches some receivers only."""
        self._rows.setdefault(path, []).append(
            ((sender, STAGE_REGULAR, order), payloads)
        )

    def crafted(
        self, records: "Iterable[Row | Envelope]", receivers: Container[int]
    ) -> None:
        """One beat's crafted records, whole: a row stays a row, an
        envelope for one of ``receivers`` is its stray, the rest are dead
        letters.  The order key is the record's index, which orders one
        sender's copies at one receiver exactly as their positions in the
        materialized list would."""
        for order, record in enumerate(records):
            if type(record) is Row:
                self.row(record.sender, order, record.path, record.payloads)
            elif record.receiver in receivers:
                self.stray(
                    record.receiver,
                    (record.sender, STAGE_REGULAR, order),
                    record,
                )

    # -- reading -------------------------------------------------------------

    def inboxes(self, receiver: int) -> dict[str, list[Envelope]]:
        """``receiver``'s inbox per path: the lanes dict itself if it was
        handed nothing else, else the lanes with each path it has strays
        or rows on replaced by that path's merged inbox — its class's
        one ``Inbox``, or a list of its own if it has strays there."""
        strays = self.strays.get(receiver)
        rows = self._rows
        if strays is None and not rows:
            return self.lanes
        inboxes = dict(self.lanes)
        if strays is not None:
            for path, entries in strays.items():
                if path not in rows:
                    inboxes[path] = self._merge(path, entries)
        for path, path_rows in rows.items():
            classes = self._classes.get(path)
            if classes is None:
                classes = self._classes[path] = (
                    list({id(row[1]): row[1] for row in path_rows}.values()),
                    {},
                )
            distinct, by_key = classes
            own = None if strays is None else strays.get(path)
            if own is not None:
                inbox = self._merge(path, self._copies(path, receiver) + own)
            else:
                key = tuple(
                    [id(payloads.get(receiver, _ABSENT)) for payloads in distinct]
                )
                inbox = by_key.get(key)
                if inbox is None:
                    inbox = by_key[key] = Inbox(
                        self._merge(path, self._copies(path, receiver))
                    )
            inboxes[path] = inbox
        return inboxes

    def _copies(self, path: str, receiver: int) -> list[tuple[Key, Envelope]]:
        """``receiver``'s copy of every row on ``path`` that names it.
        They carry BROADCAST as receiver, as the lane's envelopes do: a
        whole class reads them."""
        beat = self.beat
        return [
            (key, Envelope(key[0], BROADCAST, path, payloads[receiver], beat))
            for key, payloads in self._rows[path]
            if receiver in payloads
        ]

    def _merge(
        self, path: str, entries: list[tuple[Key, Envelope]]
    ) -> list[Envelope]:
        """What whoever was handed ``entries`` beside the lane reads on
        ``path``: the reference router's sender-sorted, stage-ordered
        delivery.  A plain list — only what is shared is worth an
        :class:`~repro.net.message.Inbox`'s memo."""
        lane = self.lanes.get(path)
        if lane is not None:
            entries = [*zip(self._keys[path], lane), *entries]
        if len(entries) > 1:
            entries.sort(key=_KEY)  # in place: sorting twice changes nothing
        return [envelope for _, envelope in entries]
