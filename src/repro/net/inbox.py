"""The beat-close rule of the *wire* plane: one sans-IO inbox per live
barrier.

A lock-step engine hands each node the synchronous round for free.  The
live round barrier (:class:`~repro.runtime.sync.BeatSynchronizer`, and
the pulse barrier built on it) rebuilds it per node, from units that
arrive off a transport when they arrive, with four steps written here
once:

* every arrival is **tagged** with the beat its sender emitted it at and
  buffered under that beat — as a :class:`Run`, the entries that arrived
  together: a wire unit's worth, shared by its co-hosted receivers;
* an arrival tagged for a beat that already closed is **counted and
  dropped** (``late_messages``) — it never leaks into a later beat;
* at close the beat's traffic is **sorted by** ``(sender, seq)``, the
  per-sender emission sequence: emission order within a sender, ascending
  id across senders — exactly the stable sender sort the lock-step
  engines deliver, which is what makes a zero-delay run bit-identical to
  them;
* the sorted traffic is **grouped per component path** — once per class
  of receivers that buffered the same runs (:class:`InboxClasses`).

What decides *when* a beat closes (markers, deadlines, the next pulse)
stays with the driver.  Simulated continuous time
(:mod:`repro.net.events`) does not drive this class: its link model
decides each copy's lateness at the send and the lock-step engine keeps
a beat's traffic in the in-process plane (:mod:`repro.net.plane`).  It
is still *held* to the rule — ``tests/test_event_rule.py`` replays it
against an arrival-event loop built on :class:`BeatInbox`.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import NamedTuple, Sequence

from repro.net.message import Envelope, Inbox

__all__ = [
    "BeatInbox", "Entry", "InboxClasses", "Run", "entry_key",
    "group_by_path", "merge_runs",
]

#: Canonical ``(sender, seq)`` sort key + envelope, as buffered per beat.
Entry = tuple[tuple[int, int], Envelope]

#: The canonical order of a beat's entries: sort by this key.
entry_key = itemgetter(0)


class Run(NamedTuple):
    """Entries that arrived together for one beat, read-only.  The live
    intake adds their one verified ``sender``, the end ``markers`` that
    rode along, and a host-unique ``serial`` (see :class:`InboxClasses`)."""

    beat: int
    entries: Sequence[Entry]
    sender: int = -1
    markers: int = 0
    serial: int = -1


_run_sender = attrgetter("sender")


def merge_runs(runs: Sequence[Run]) -> list[Entry]:
    """The entries of one beat's runs in canonical order."""
    entries = [entry for run in runs for entry in run.entries]
    entries.sort(key=entry_key)
    return entries


def group_by_path(entries: list[Entry]) -> dict[str, list[Envelope]]:
    """Per-path inboxes of one closed beat, preserving entry order."""
    inboxes: dict[str, list[Envelope]] = {}
    for _key, envelope in entries:
        inbox = inboxes.get(envelope.path)
        if inbox is None:
            inbox = inboxes[envelope.path] = Inbox()
        inbox.append(envelope)
    return inboxes


class InboxClasses:
    """One merged inbox per class of co-hosted receivers: those that
    closed a beat over the same runs, in the same arrival order within
    each sender.  The first to close merges and groups; the rest read
    its dict (honest code never mutates an inbox).  Across senders the
    canonical sort erases arrival order, so the class key is the runs'
    serials in stable sender order.  One table serves every beat — a run
    has one — and is emptied when a newer beat is first closed."""

    def __init__(self) -> None:
        self._beat = -1
        self._table: dict[tuple, dict[str, list[Envelope]]] = {}

    def inboxes(self, beat: int, runs: list[Run]) -> dict[str, list[Envelope]]:
        """Per-path inboxes of ``beat`` closed over ``runs`` (serialled)."""
        if beat > self._beat:
            self._beat, self._table = beat, {}
        runs.sort(key=_run_sender)
        key = tuple([run.serial for run in runs])
        inboxes = self._table.get(key)
        if inboxes is None:
            inboxes = self._table[key] = group_by_path(merge_runs(runs))
        return inboxes


class BeatInbox:
    """Per-beat buffers of one receiver; beats close strictly in order."""

    __slots__ = ("beat", "late_messages", "_pending")

    def __init__(self) -> None:
        #: The lowest beat still open.
        self.beat = 0
        self.late_messages = 0
        self._pending: dict[int, list[Run]] = {}

    def deliver(
        self, beat: int, key: tuple[int, int], envelope: Envelope
    ) -> bool:
        """Buffer one arrival for ``beat``; False (and counted) if late."""
        return self.deliver_run(Run(beat, ((key, envelope),)))

    def deliver_run(self, run: Run) -> bool:
        """Buffer ``run``; False (every entry counted) if its beat closed."""
        if run.beat < self.beat:
            self.late_messages += len(run.entries)
            return False
        self._pending.setdefault(run.beat, []).append(run)
        return True

    def close_runs(self, beat: int) -> list[Run]:
        """Close ``beat``: its runs, in arrival order."""
        self.beat = beat + 1
        return self._pending.pop(beat, [])

    def close_entries(self, beat: int) -> list[Entry]:
        """Close ``beat``: its traffic in canonical order."""
        return merge_runs(self.close_runs(beat))
