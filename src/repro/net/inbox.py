"""The beat-close rule: one sans-IO inbox every bounded-delay path drives.

A lock-step engine hands each node the synchronous round for free.  The
paths that do not — the live round barrier
(:class:`~repro.runtime.sync.BeatSynchronizer`) and the event engine's
:class:`~repro.net.events.PulseSynchronizer` — rebuild it per node with
the same four steps, written here once:

* every arrival is **tagged** with the beat its sender emitted it at and
  buffered under that beat;
* an arrival tagged for a beat that already closed is **counted and
  dropped** (``late_messages``) — it never leaks into a later beat;
* at close the beat's traffic is **sorted by** ``(sender, seq)``, the
  per-sender emission sequence: emission order within a sender, ascending
  id across senders — exactly the stable sender sort the lock-step
  engines deliver, which is what makes a zero-delay run bit-identical to
  them;
* the sorted traffic is **grouped per component path**.

What decides *when* a beat closes (markers, deadlines, the next pulse)
stays with the driver.
"""

from __future__ import annotations

from operator import itemgetter

from repro.net.message import Envelope

__all__ = ["BeatInbox", "Entry", "entry_key", "group_by_path"]

#: Canonical ``(sender, seq)`` sort key + envelope, as buffered per beat.
Entry = tuple[tuple[int, int], Envelope]

#: The canonical order of a beat's entries: sort by this key.
entry_key = itemgetter(0)


def group_by_path(entries: list[Entry]) -> dict[str, list[Envelope]]:
    """Per-path inboxes of one closed beat, preserving entry order."""
    inboxes: dict[str, list[Envelope]] = {}
    for _key, envelope in entries:
        inboxes.setdefault(envelope.path, []).append(envelope)
    return inboxes


class BeatInbox:
    """Per-beat buffers of one receiver; beats close strictly in order."""

    __slots__ = ("beat", "late_messages", "_pending")

    def __init__(self) -> None:
        #: The lowest beat still open.
        self.beat = 0
        self.late_messages = 0
        self._pending: dict[int, list[Entry]] = {}

    def deliver(
        self, beat: int, key: tuple[int, int], envelope: Envelope
    ) -> bool:
        """Buffer one arrival for ``beat``; False (and counted) if late."""
        if beat < self.beat:
            self.late_messages += 1
            return False
        self._pending.setdefault(beat, []).append((key, envelope))
        return True

    def close_entries(self, beat: int) -> list[Entry]:
        """Close ``beat``: its traffic in canonical order."""
        entries = self._pending.pop(beat, [])
        entries.sort(key=entry_key)
        self.beat = beat + 1
        return entries
