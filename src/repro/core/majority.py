"""Counting helpers shared by the clock algorithms.

The paper's algorithms repeatedly take majorities over one value per
sender, with the convention that ``⊥`` (represented as ``None``) may be
substituted by the beat's random bit, and with the standing fact
(Observation 3.1) that two correct nodes' views differ in at most ``f``
entries, so a value reaching ``n - f`` occurrences is unique.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable, Iterable

from repro.net.message import Envelope

__all__ = [
    "BOTTOM",
    "count_values",
    "first_payload_per_sender",
    "most_frequent",
    "value_with_count_at_least",
]

#: The paper's ``⊥``; ``None`` travels fine inside message payloads.
BOTTOM = None


def first_payload_per_sender(inbox: Iterable[Envelope]) -> dict[int, Any]:
    """Collapse an inbox to one payload per sender (first wins).

    Inboxes are delivered sender-sorted; a Byzantine node sending several
    conflicting messages on one path contributes only its first, which is a
    deterministic rule every correct node applies identically.
    """
    collapsed: dict[int, Any] = {}
    for envelope in inbox:
        if envelope.sender not in collapsed:
            collapsed[envelope.sender] = envelope.payload
    return collapsed


def count_values(values: Iterable[Hashable]) -> Counter:
    """Tally hashable values (unhashable Byzantine junk is dropped)."""
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
