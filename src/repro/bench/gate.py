"""Baseline comparison and exact gating for benchmark summaries.

``benchmarks/baselines.json`` pins the value of every metric, per tier
(smoke-tier runs use reduced parameter grids, so their numbers live
under their own tier section and never collide with full-tier cells).
Every metric is simulation-deterministic, so the gate checks the current
``BENCH_summary.json`` against the matching tier section for exact
equality:

* a result whose value differs from its baseline, in either direction,
  is a **change** and fails;
* a baselined key that a re-run of the same benchmark no longer produces
  is a **missing metric** (coverage silently shrank) and fails;
* a result with no baseline entry is reported as *new* — not fatal, so
  adding benchmarks doesn't break CI before the baseline refresh.

Intentional changes refresh the pinned numbers with
``python -m repro bench gate --baseline ... --update-baseline``, which
replaces every entry belonging to a benchmark that ran in the current
summary (within its tier section) and leaves the rest untouched.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Mapping

from repro.bench.result import BASELINE_SCHEMA, BenchResult, result_key
from repro.bench.registry import TIERS
from repro.errors import ConfigurationError


def empty_baselines() -> dict:
    return {"schema": BASELINE_SCHEMA, "tiers": {}}


def load_baselines(path: "pathlib.Path | str") -> dict:
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(f"baseline file {path} does not exist")
    baselines = json.loads(path.read_text(encoding="utf-8"))
    validate_baselines(baselines)
    return baselines


def validate_baselines(baselines: object) -> None:
    if not isinstance(baselines, dict):
        raise ValueError("baselines must be a JSON object")
    if baselines.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"unknown baseline schema {baselines.get('schema')!r}")
    tiers = baselines.get("tiers")
    if not isinstance(tiers, dict):
        raise ValueError("baselines.tiers must be an object")
    for tier, entries in tiers.items():
        if tier not in TIERS:
            raise ValueError(f"baselines pin unknown tier {tier!r}")
        for key, entry in entries.items():
            if not isinstance(entry, dict) or "value" not in entry:
                raise ValueError(f"baseline entry {key!r} needs a value")


def write_baselines(baselines: dict, path: "pathlib.Path | str") -> None:
    validate_baselines(baselines)
    pathlib.Path(path).write_text(
        json.dumps(baselines, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _results(summary: Mapping) -> list[BenchResult]:
    return [BenchResult.from_json(r) for r in summary["results"]]


@dataclass(frozen=True)
class Delta:
    """One key whose value differs from its baseline."""

    key: str
    old: float
    new: float
    unit: str


@dataclass(frozen=True)
class GateReport:
    """Everything the gate decided, ready for rendering and exit codes."""

    tier: str
    changed: tuple[Delta, ...]
    missing: tuple[str, ...]
    new_keys: tuple[str, ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.changed and not self.missing


def compare_to_baselines(summary: Mapping, baselines: Mapping) -> GateReport:
    """Gate one summary against the baseline file's matching tier."""
    tier = summary["tier"]
    entries = baselines.get("tiers", {}).get(tier, {})
    current = {result_key(r): r for r in _results(summary)}
    ran = set(summary["benchmarks"])
    changed, new_keys = [], []
    for key, result in sorted(current.items()):
        entry = entries.get(key)
        if entry is None:
            new_keys.append(key)
        elif entry["value"] != result.value:
            changed.append(Delta(key, entry["value"], result.value, result.unit))
    missing = [
        key
        for key in sorted(entries)
        if key.split("/", 1)[0] in ran and key not in current
    ]
    return GateReport(
        tier=tier,
        changed=tuple(changed),
        missing=tuple(missing),
        new_keys=tuple(new_keys),
        checked=len(current) - len(new_keys),
    )


def compare_summaries(old: Mapping, new: Mapping) -> GateReport:
    """Diff two summaries (old as the reference) — ``bench compare``."""
    if old.get("tier") != new.get("tier"):
        # Tiers run different parameter grids under colliding keys, so a
        # cross-tier diff would compare incomparable cells (or nothing)
        # while still reporting success.
        raise ConfigurationError(
            f"cannot compare a {old.get('tier')!r}-tier summary against a "
            f"{new.get('tier')!r}-tier one: tiers use different parameter "
            "grids"
        )
    reference = {
        result_key(r): {"value": r.value} for r in _results(old)
    }
    return compare_to_baselines(new, {"tiers": {new["tier"]: reference}})


def update_baselines(baselines: dict, summary: Mapping) -> dict:
    """Refresh the summary's tier section from its results.

    Every entry belonging to a benchmark that ran in this summary is
    replaced (so metrics that disappeared are pruned); entries from
    benchmarks that did not run — and other tiers — are preserved.
    """
    updated = {
        "schema": BASELINE_SCHEMA,
        "tiers": {t: dict(e) for t, e in baselines.get("tiers", {}).items()},
    }
    tier = summary["tier"]
    ran = set(summary["benchmarks"])
    entries = {
        key: entry
        for key, entry in updated["tiers"].get(tier, {}).items()
        if key.split("/", 1)[0] not in ran
    }
    for result in _results(summary):
        entries[result_key(result)] = {
            "value": result.value,
            "unit": result.unit,
        }
    updated["tiers"][tier] = entries
    return updated
