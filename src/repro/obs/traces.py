"""Trace analysis: the logic behind the ``repro trace`` CLI family.

Two operations cover most post-mortems:

* :func:`summarize_trace` (``repro trace inspect``) — beats, nodes, the
  stabilization beat under Definition 3.2 (when ``k`` is known), and a
  tally of flight-recorder events.
* :func:`diff_records` (``repro trace diff``) — the first-divergent-beat
  report the differential test suites have always computed inline,
  packaged as a reusable tool.  Only :class:`~repro.net.trace.BeatRecord`
  probe rows participate; flight-recorder event lines carry wall-clock
  timings and are deliberately ignored, so an instrumented trace still
  diffs clean against a bare one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.net.trace import BeatRecord, history_rows

from repro.obs.recorder import Trace

__all__ = ["TraceDiff", "TraceSummary", "diff_records", "summarize_trace"]


@dataclass(frozen=True)
class TraceSummary:
    """What ``repro trace inspect`` reports about one trace."""

    beats: int
    first_beat: "int | None"
    last_beat: "int | None"
    node_ids: tuple[int, ...]
    converged_beat: "int | None"
    events_by_kind: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """Render the summary as the CLI's plain-text block."""
        lines = [
            f"  beats     : {self.beats}"
            + (
                f" ({self.first_beat}..{self.last_beat})"
                if self.first_beat is not None
                else ""
            ),
            f"  nodes     : {len(self.node_ids)} "
            f"{list(self.node_ids)}",
            "  converged : "
            + (
                f"beat {self.converged_beat}"
                if self.converged_beat is not None
                else "no (or k not given)"
            ),
        ]
        if self.events_by_kind:
            tally = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.events_by_kind.items())
            )
            lines.append(f"  events    : {tally}")
        return "\n".join(lines)


def summarize_trace(trace: Trace, *, k: "int | None" = None) -> TraceSummary:
    """Summarize a parsed trace; ``k`` enables convergence detection."""
    records = trace.records
    node_ids = sorted({i for record in records for i in record.values})
    converged: "int | None" = None
    if k is not None and records:
        from repro.core.problem import converged_at

        converged = converged_at(history_rows(records), k)
    return TraceSummary(
        beats=len(records),
        first_beat=records[0].beat if records else None,
        last_beat=records[-1].beat if records else None,
        node_ids=tuple(node_ids),
        converged_beat=converged,
        events_by_kind=dict(
            Counter(event.kind for event in trace.events)
        ),
    )


@dataclass(frozen=True)
class TraceDiff:
    """The first point where two traces disagree.

    ``beat`` is the first divergent beat (``None`` when the divergence
    is purely structural — one trace is a prefix of the other);
    ``differing`` lists ``(node_id, left_value, right_value)`` for every
    node whose probe value differs at that beat, with ``None`` standing
    in for a node absent from one side.
    """

    reason: str
    beat: "int | None" = None
    differing: tuple = ()

    def describe(self) -> str:
        """Render the divergence as the CLI's plain-text report."""
        lines = [f"  traces diverge: {self.reason}"]
        if self.beat is not None:
            lines[0] = f"  traces diverge at beat {self.beat}: {self.reason}"
        for node_id, left, right in self.differing:
            lines.append(f"    node {node_id}: {left!r} != {right!r}")
        return "\n".join(lines)


def _differing_values(
    left: "dict[int, Any]", right: "dict[int, Any]"
) -> "tuple[tuple[int, Any, Any], ...]":
    node_ids = sorted(set(left) | set(right))
    return tuple(
        (node_id, left.get(node_id), right.get(node_id))
        for node_id in node_ids
        if left.get(node_id) != right.get(node_id)
        or (node_id in left) != (node_id in right)
    )


def diff_records(
    left: "list[BeatRecord]", right: "list[BeatRecord]"
) -> "TraceDiff | None":
    """First-divergent-beat comparison; ``None`` means identical.

    Records are compared positionally on ``(beat, values)``; the first
    mismatch wins.  A pure length mismatch (one trace is a prefix of the
    other) reports the number of extra records instead of a beat.
    """
    for index, (a, b) in enumerate(zip(left, right)):
        if a.beat != b.beat:
            return TraceDiff(
                reason=(
                    f"record {index} is beat {a.beat} on the left but "
                    f"beat {b.beat} on the right"
                ),
                beat=a.beat,
            )
        if a.values != b.values:
            return TraceDiff(
                reason="probe values differ",
                beat=a.beat,
                differing=_differing_values(a.values, b.values),
            )
    if len(left) != len(right):
        longer = "left" if len(left) > len(right) else "right"
        return TraceDiff(
            reason=(
                f"lengths differ: left has {len(left)} records, right "
                f"has {len(right)} (the {longer} trace continues past "
                "the common prefix)"
            ),
        )
    return None
