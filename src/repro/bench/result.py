"""The standardized benchmark result schema (``repro-bench-result/2``).

Every benchmark in the registry emits a flat list of :class:`BenchResult`
records — one per measured metric per scenario cell — instead of bespoke
JSON shapes.  The harness (:mod:`repro.bench.harness`) wraps them in a
:class:`BenchReport` envelope carrying run metadata (tier, parameters,
git commit, elapsed wall time) and writes one ``benchmarks/results/
<name>.json`` per benchmark plus the aggregated repo-root
``BENCH_summary.json``.  The gate (:mod:`repro.bench.gate`) keys
baselines off :func:`result_key`, so the schema here is the contract the
whole perf trajectory hangs off.

Schema notes:

* ``scenario`` is the sorted tuple of axis ``(name, value)`` pairs that
  identify one cell of the benchmark's grid (``n``, ``engine``,
  ``protocol``, ``condition``, ...) — whatever distinguishes the number
  from its siblings.  Axis values are ints, floats, strings or bools.
* Every value is simulation-deterministic (beats, messages, counts,
  probabilities, digest matches), so the gate pins each one exactly and
  a record needs no "better" direction nor an opt-out flag.  Time is the
  beat ledger's business (``benchmarks/ledger/``), not a record's.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping

RESULT_SCHEMA = "repro-bench-result/2"
REPORT_SCHEMA = "repro-bench-report/1"
SUMMARY_SCHEMA = "repro-bench-summary/1"
BASELINE_SCHEMA = "repro-bench-baselines/2"

Axes = "tuple[tuple[str, object], ...]"


def normalize_axes(scenario: "Mapping[str, object] | Iterable" ) -> Axes:
    """Normalize scenario axes to a sorted, hashable pair-tuple."""
    items = scenario.items() if isinstance(scenario, Mapping) else scenario
    axes = tuple(sorted((str(name), value) for name, value in items))
    for name, value in axes:
        if not isinstance(value, (int, float, str, bool)):
            raise ValueError(
                f"scenario axis {name}={value!r} is not a JSON scalar"
            )
    return axes


@dataclass(frozen=True)
class BenchResult:
    """One measured metric at one scenario cell of one benchmark."""

    benchmark: str
    metric: str
    value: float
    unit: str
    scenario: Axes = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", normalize_axes(self.scenario))
        object.__setattr__(self, "value", float(self.value))

    @property
    def key(self) -> str:
        return result_key(self)

    def to_json(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "benchmark": self.benchmark,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "scenario": {name: value for name, value in self.scenario},
        }

    @classmethod
    def from_json(cls, record: Mapping) -> "BenchResult":
        validate_result_record(record)
        return cls(
            benchmark=record["benchmark"],
            metric=record["metric"],
            value=record["value"],
            unit=record["unit"],
            scenario=normalize_axes(record.get("scenario", {})),
        )


def result_key(result: BenchResult) -> str:
    """Stable baseline key: ``benchmark/metric{axis=value,...}``."""
    axes = ",".join(f"{name}={_render_axis(value)}"
                    for name, value in result.scenario)
    return f"{result.benchmark}/{result.metric}{{{axes}}}"


def _render_axis(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def validate_result_record(record: object) -> None:
    """Hand-rolled schema check (no third-party dependency) — raises
    ``ValueError`` with the first violation found."""
    if not isinstance(record, Mapping):
        raise ValueError(f"result record must be an object, got {type(record)}")
    schema = record.get("schema", RESULT_SCHEMA)
    if schema != RESULT_SCHEMA:
        raise ValueError(f"unknown result schema {schema!r}")
    for key in ("benchmark", "metric", "unit"):
        if not isinstance(record.get(key), str) or not record.get(key):
            raise ValueError(f"result field {key!r} must be a non-empty string")
    value = record.get("value")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"result value {value!r} must be a number")
    scenario = record.get("scenario", {})
    if not isinstance(scenario, Mapping):
        raise ValueError("scenario must be an object of axis: value pairs")
    for name, axis_value in scenario.items():
        if not isinstance(axis_value, (int, float, str, bool)):
            raise ValueError(f"scenario axis {name}={axis_value!r} must be "
                             "a JSON scalar")


@dataclass(frozen=True)
class BenchOutcome:
    """What one benchmark run produces.

    ``failures`` carries the benchmark's own qualitative-claim checks
    (the paper's shapes: who wins, by what factor) — non-empty means the
    run itself failed regardless of any baseline.  ``tables`` are
    human-readable blocks written to ``benchmarks/results/<table>.txt``
    so the docs keep quoting real output.
    """

    results: tuple[BenchResult, ...]
    failures: tuple[str, ...] = ()
    tables: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class BenchReport:
    """The per-benchmark run envelope serialized to ``results/<name>.json``."""

    benchmark: str
    tier: str
    params: Mapping[str, object]
    outcome: BenchOutcome
    elapsed_s: float
    git: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "benchmark": self.benchmark,
            "tier": self.tier,
            "params": dict(self.params),
            "python": sys.version.split()[0],
            "git": dict(self.git),
            "elapsed_s": round(self.elapsed_s, 3),
            "failures": list(self.outcome.failures),
            "results": [result.to_json() for result in self.outcome.results],
        }


def git_metadata(cwd: str | None = None) -> dict:
    """Best-effort commit/branch/dirty metadata; empty outside a repo."""
    def _run(*argv: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *argv], capture_output=True, text=True,
                timeout=10, cwd=cwd,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = _run("rev-parse", "HEAD")
    if commit is None:
        return {}
    status = _run("status", "--porcelain")
    return {
        "commit": commit,
        "branch": _run("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": bool(status),
    }
