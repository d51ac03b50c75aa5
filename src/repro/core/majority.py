"""Counting helpers shared by the clock algorithms.

The paper's algorithms repeatedly take majorities over one value per
sender, with the convention that ``⊥`` (represented as ``None``) may be
substituted by the beat's random bit, and with the standing fact
(Observation 3.1) that two correct nodes' views differ in at most ``f``
entries, so a value reaching ``n - f`` occurrences is unique.

**Counted once.**  Here the views usually do not differ at all: the
sharing engines hand a class of receivers one :class:`~repro.net.message.Inbox`
*object*, and Figures 2 and 4 are pure in (one payload per sender,
``rand``, n − f[, k]).  So an inbox is collapsed once and a rule runs once
per mapping object and arguments (:func:`first_payload_per_sender`,
:func:`from_per_sender`: the answers live on the objects).  Sharing is by
identity, never by value — ``True == 1``, and a tally names a value by
its first arrival — and honest code writes to neither an inbox nor a
mapping it was handed.  A plain list or dict carries no answers and is
computed on every time, by the same code.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Hashable, Iterable

from repro.net.message import Envelope, Inbox

__all__ = [
    "BOTTOM",
    "count_values",
    "first_payload_per_sender",
    "from_per_sender",
    "most_frequent",
    "value_with_count_at_least",
]

#: The paper's ``⊥``; ``None`` travels fine inside message payloads.
BOTTOM = None


class _PerSender(dict):
    """One payload per sender — the dict it reprs and compares as — plus
    the answers already computed from it, by ``(rule, *args)``."""

    __slots__ = ("answers",)


def first_payload_per_sender(inbox: Iterable[Envelope]) -> dict[int, Any]:
    """Collapse an inbox to one payload per sender (first wins).

    Inboxes are delivered sender-sorted; a Byzantine node sending several
    conflicting messages on one path contributes only its first, which is a
    deterministic rule every correct node applies identically.  An
    :class:`~repro.net.message.Inbox` is collapsed once, for all readers.
    """
    collapsed = getattr(inbox, "per_sender", None)
    if collapsed is None:
        collapsed = _PerSender()
        collapsed.answers = {}
        for envelope in inbox:
            if envelope.sender not in collapsed:
                collapsed[envelope.sender] = envelope.payload
        if isinstance(inbox, Inbox):
            inbox.per_sender = collapsed
    return collapsed


def from_per_sender(per_sender: dict[int, Any], rule: Callable, *args: Any) -> Any:
    """``rule(per_sender.values(), *args)``, a pure rule with an immutable
    answer: run once per mapping *object* and ``args`` if the mapping is
    :func:`first_payload_per_sender`'s; a plain dict just computes."""
    answers = getattr(per_sender, "answers", {})  # a plain dict's: thrown away
    key = (rule, *args)
    if key not in answers:
        answers[key] = rule(per_sender.values(), *args)
    return answers[key]


def count_values(values: Iterable[Hashable]) -> Counter:
    """Tally hashable values (unhashable Byzantine junk is dropped).

    One C-level pass (``Counter``'s own), with the loop's keys, first-key
    identity and insertion order; a tally that meets an unhashable value
    is redone value by value from a fresh counter.
    """
    if iter(values) is values:  # one pass only: keep what it yields
        values = list(values)
    try:
        return Counter(iter(values))
    except TypeError:
        pass
    counter: Counter = Counter()
    for value in values:
        try:
            counter[value] += 1
        except TypeError:
            continue
    return counter


def most_frequent(counter: Counter) -> tuple[Any, int]:
    """The most frequent value and its count, with a deterministic
    tie-break (lexicographic on ``repr``) so all correct nodes agree.

    Returns ``(BOTTOM, 0)`` for an empty tally.  Note that whenever the
    winning count reaches ``n - f`` the winner is unique regardless of the
    tie-break (two values cannot both appear ``n - f > n/2`` times).
    """
    if not counter:
        return BOTTOM, 0
    best = max(counter.items(), key=lambda item: (item[1], _tie_key(item[0])))
    return best[0], best[1]


def _tie_key(value: Any) -> str:
    # Ties go to the lexicographically smallest repr, compared on its
    # first 64 characters: most_frequent() takes a max(), so each
    # character is complemented to reverse the order.  Complementing does
    # not reverse length, so where one repr is a prefix of the other the
    # longer wins: 10 beats 1.
    return "".join(chr(0x10FFFF - ord(c)) for c in repr(value)[:64])


def value_with_count_at_least(
    values: Iterable[Hashable], threshold: int
) -> Any:
    """The unique value appearing at least ``threshold`` times, or BOTTOM.

    Callers pass ``threshold = n - f``; with at most ``f`` of ``n`` entries
    differing between correct nodes (Observation 3.1), such a value is
    unique when it exists.
    """
    value, count = most_frequent(count_values(values))
    if count >= threshold:
        return value
    return BOTTOM
