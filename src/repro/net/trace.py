"""Lightweight structured tracing for simulations and live runs.

A :class:`Tracer` is a monitor that snapshots a user-supplied probe at every
beat; examples use it to print per-beat clock tables, and tests use it to
assert whole-run trajectories (e.g. Lemma 6's closure pattern).

Traces also have one on-disk format — JSONL, one :class:`BeatRecord` per
line — shared between the lock-step simulator and the live runtime
(:mod:`repro.runtime`), which is what lets the differential harness compare
a simulated and a live run of the same seed byte-for-byte, and lets
``python -m repro runtime --trace`` write files any trace tooling can read
back with :func:`records_from_jsonl`.  Probe values must be JSON scalars
(the clock probes emit ``int`` or ``None``); richer probes need their own
serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.simulator import Simulation

__all__ = [
    "BeatRecord",
    "Tracer",
    "TrajectoryResult",
    "clock_probe",
    "format_clock_row",
    "history_rows",
    "records_from_jsonl",
    "records_from_traces",
    "records_to_jsonl",
]


def clock_probe(root: Any) -> Any:
    """Snapshot the tower's clock value (every clock tower exposes one):
    the default probe of every runner."""
    return getattr(root, "clock_value", None)


@dataclass(frozen=True)
class BeatRecord:
    """One beat's probe snapshot."""

    beat: int
    values: dict[int, Any]

    def to_jsonl(self) -> str:
        """This record as one JSONL line (no trailing newline).

        Node ids become string keys (JSON objects demand it), emitted in
        ascending id order so equal records serialize to equal bytes.
        """
        return json.dumps(
            {
                "beat": self.beat,
                "values": {
                    str(node_id): self.values[node_id]
                    for node_id in sorted(self.values)
                },
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_jsonl(cls, line: str) -> "BeatRecord":
        """Parse one JSONL line back into a record (int node ids)."""
        record = json.loads(line)
        return cls(
            beat=int(record["beat"]),
            values={
                int(node_id): value
                for node_id, value in record["values"].items()
            },
        )


class Tracer:
    """Monitor that records ``probe(root_component)`` per honest node."""

    def __init__(
        self,
        probe: Callable[[Any], Any],
        *,
        printer: Callable[[str], None] | None = None,
    ) -> None:
        self.probe = probe
        self.printer = printer
        self.records: list[BeatRecord] = []

    def __call__(self, simulation: "Simulation", beat: int) -> None:
        # Snapshot the *active* roots: under churn a crashed tower's
        # frozen clock is not part of the system's state.  Without churn
        # active == honest, so static-membership traces are unchanged.
        # Either map is in ascending id order.
        roots = getattr(
            simulation, "active_roots", simulation.honest_roots
        )()
        values = dict(zip(roots, map(self.probe, roots.values())))
        record = BeatRecord(beat, values)
        self.records.append(record)
        if self.printer is not None:
            self.printer(format_clock_row(record, simulation.faulty_ids))

    def series(self, node_id: int) -> list[Any]:
        """The probe's trajectory at one node.

        Total under membership churn: beats where the node was inactive
        (crashed, departed, or not yet joined) yield ``None`` instead of
        raising, so a series always has one entry per recorded beat.
        """
        return [record.values.get(node_id) for record in self.records]

    def to_jsonl(self) -> str:
        """The whole trace in the shared JSONL format."""
        return records_to_jsonl(self.records)


def records_from_traces(
    traces: "dict[int, list[tuple[int, Any]]]", beats: int
) -> "tuple[BeatRecord, ...]":
    """Per-node ``(beat, value)`` probe traces (one entry per beat the
    node closed, in beat order) folded into one record per beat; a node
    whose trace ends early is simply absent from the later records."""
    return tuple(
        BeatRecord(
            beat,
            {
                node_id: trace[beat][1]
                for node_id, trace in sorted(traces.items())
                if beat < len(trace)
            },
        )
        for beat in range(beats)
    )


def history_rows(records: "Iterable[BeatRecord]") -> tuple[tuple, ...]:
    """Per-beat honest values, node-id-sorted — the monitors' shape
    (what :func:`~repro.core.problem.converged_at` reads)."""
    return tuple(
        tuple(record.values[i] for i in sorted(record.values))
        for record in records
    )


class TrajectoryResult:
    """What every runner's result says about its trajectory, given
    ``records`` and ``converged_beat`` fields."""

    @property
    def converged(self) -> bool:
        return self.converged_beat is not None

    @property
    def history(self) -> tuple[tuple, ...]:
        """Per-beat honest values, node-id-sorted — the monitors' shape."""
        return history_rows(self.records)

    def to_jsonl(self) -> str:
        """The trajectory in the shared JSONL trace format — byte-identical
        to what a :class:`Tracer` over the same run serializes."""
        return records_to_jsonl(self.records)


def records_to_jsonl(records: Iterable[BeatRecord]) -> str:
    """Serialize records to JSONL: one line per beat, trailing newline."""
    return "".join(record.to_jsonl() + "\n" for record in records)


def records_from_jsonl(text: str) -> list[BeatRecord]:
    """Parse a JSONL trace (blank lines ignored) back into records.

    Flight-recorder event lines (:mod:`repro.obs.recorder` — objects
    carrying an ``"event"`` key) are skipped, so traces written with
    telemetry enabled read back to the same records as bare ones; use
    :func:`repro.obs.read_trace` to get the events too.
    """
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if '"event"' in line and "event" in json.loads(line):
            continue
        records.append(BeatRecord.from_jsonl(line))
    return records


def format_clock_row(record: BeatRecord, faulty_ids: frozenset[int]) -> str:
    """Render one beat's clock values as a fixed-width table row."""
    cells = []
    for node_id, value in sorted(record.values.items()):
        text = "⊥" if value is None else str(value)
        cells.append(f"{text:>4}")
    for node_id in sorted(faulty_ids):
        cells.append("   ☠")
    return f"beat {record.beat:>4} | " + " ".join(cells)
