"""Benchmark execution harness: run registrations, persist the outcome.

One :func:`run_benchmark` call executes a single registration at a tier
and writes its :class:`~repro.bench.result.BenchReport` to
``benchmarks/results/<name>.json`` (plus the benchmark's human-readable
``.txt`` tables, which the docs quote).  :func:`run_tier` drives a whole
tier selection and aggregates everything into the repo-root
``BENCH_summary.json`` — the file the gate reads.

The reports and the summary are stamped with a wall-clock ``elapsed_s``
and a git commit, so they are run output, not sources: both are
gitignored (CI uploads them as workflow artifacts).  The full-tier
``.txt`` tables are deterministic and tracked; smoke runs suffix their
per-benchmark files with ``.smoke`` so those tables stay stable.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Callable, Iterable

from repro.bench.registry import Benchmark, select_tier
from repro.bench.result import (
    SUMMARY_SCHEMA,
    BenchReport,
    git_metadata,
    validate_result_record,
)

def _find_repo_root() -> pathlib.Path:
    """The checkout the default artifact paths live in.

    From the source tree, three levels up from this module; when the
    package is pip-installed (module under site-packages), fall back to
    the working directory so defaults stay inside the user's checkout.
    """
    candidate = pathlib.Path(__file__).resolve().parents[3]
    if (candidate / "benchmarks").is_dir():
        return candidate
    return pathlib.Path.cwd()


REPO_ROOT = _find_repo_root()
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
SUMMARY_PATH = REPO_ROOT / "BENCH_summary.json"


def run_benchmark(
    benchmark: Benchmark,
    tier: str = "full",
    *,
    results_dir: "pathlib.Path | str | None" = RESULTS_DIR,
    profile: bool = False,
) -> BenchReport:
    """Execute one benchmark at ``tier``; persist its report and tables.

    Pass ``results_dir=None`` to skip writing (pure in-memory run).
    With ``profile``, the runner executes under :mod:`cProfile` and the
    stats land in ``<results_dir>/<name>[.smoke].prof`` (load them with
    ``python -m pstats``), so hot-path work starts from data.
    """
    params = benchmark.params_for(tier)
    started = time.perf_counter()
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        outcome = profiler.runcall(benchmark.runner, **params)
        if results_dir is not None:
            profile_dir = pathlib.Path(results_dir)
            profile_dir.mkdir(parents=True, exist_ok=True)
            suffix = ".smoke" if tier == "smoke" else ""
            profiler.dump_stats(
                profile_dir / f"{benchmark.name}{suffix}.prof"
            )
    else:
        outcome = benchmark.runner(**params)
    report = BenchReport(
        benchmark=benchmark.name,
        tier=tier,
        params=params,
        outcome=outcome,
        elapsed_s=time.perf_counter() - started,
        git=git_metadata(str(REPO_ROOT)),
    )
    if results_dir is not None:
        write_report(report, pathlib.Path(results_dir))
    return report


def write_report(report: BenchReport, results_dir: pathlib.Path) -> pathlib.Path:
    """Write ``<name>[.smoke].json`` and the outcome's ``.txt`` tables."""
    results_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".smoke" if report.tier == "smoke" else ""
    path = results_dir / f"{report.benchmark}{suffix}.json"
    path.write_text(
        json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
    )
    for table_name, text in report.outcome.tables:
        table_path = results_dir / f"{table_name}{suffix}.txt"
        table_path.write_text(text + "\n", encoding="utf-8")
    return path


def run_tier(
    tier: str,
    *,
    only: Iterable[str] | None = None,
    results_dir: "pathlib.Path | str | None" = RESULTS_DIR,
    summary_path: "pathlib.Path | str | None" = SUMMARY_PATH,
    progress: Callable[[str], None] | None = None,
    benchmarks: "list[Benchmark] | None" = None,
    profile: bool = False,
) -> dict:
    """Run a tier selection and write the aggregated summary.

    ``only`` names specific benchmarks (overriding the tier selection —
    the tier still picks their parameter set); ``benchmarks`` overrides
    the selection outright (tests inject toys this way); ``profile``
    wraps every selected runner in cProfile (see :func:`run_benchmark`).
    Returns the summary record.
    """
    if benchmarks is None:
        if only is not None:
            # Explicit names override the tier *selection* (the tier still
            # chooses the parameter set they execute with).
            from repro.bench.registry import get_benchmark

            benchmarks = [get_benchmark(name) for name in dict.fromkeys(only)]
        else:
            benchmarks = select_tier(tier)
    elif only is not None:
        benchmarks = [b for b in benchmarks if b.name in set(only)]
    started = time.perf_counter()
    reports = []
    for benchmark in benchmarks:
        if progress is not None:
            progress(benchmark.name)
        reports.append(
            run_benchmark(
                benchmark, tier, results_dir=results_dir, profile=profile
            )
        )
    summary = summarize(reports, tier, elapsed_s=time.perf_counter() - started)
    if summary_path is not None:
        write_summary(summary, pathlib.Path(summary_path))
    return summary


def summarize(
    reports: Iterable[BenchReport], tier: str, *, elapsed_s: float = 0.0
) -> dict:
    """Aggregate per-benchmark reports into the summary record."""
    reports = list(reports)
    return {
        "schema": SUMMARY_SCHEMA,
        "tier": tier,
        "python": sys.version.split()[0],
        "git": git_metadata(str(REPO_ROOT)),
        "elapsed_s": round(elapsed_s, 3),
        "benchmarks": {
            report.benchmark: {
                "tier": report.tier,
                "elapsed_s": round(report.elapsed_s, 3),
                "failures": list(report.outcome.failures),
                "results": len(report.outcome.results),
            }
            for report in reports
        },
        "results": [
            result.to_json()
            for report in reports
            for result in report.outcome.results
        ],
    }


def write_summary(summary: dict, path: pathlib.Path) -> pathlib.Path:
    validate_summary(summary)
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return path


def load_summary(path: "pathlib.Path | str") -> dict:
    summary = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    validate_summary(summary)
    return summary


def validate_summary(summary: object) -> None:
    """Schema check for the aggregated summary; raises ``ValueError``."""
    if not isinstance(summary, dict):
        raise ValueError("summary must be a JSON object")
    if summary.get("schema") != SUMMARY_SCHEMA:
        raise ValueError(f"unknown summary schema {summary.get('schema')!r}")
    if not isinstance(summary.get("tier"), str):
        raise ValueError("summary.tier must be a string")
    if not isinstance(summary.get("benchmarks"), dict):
        raise ValueError("summary.benchmarks must be an object")
    results = summary.get("results")
    if not isinstance(results, list):
        raise ValueError("summary.results must be a list")
    for record in results:
        validate_result_record(record)


def outcome_failures(summary: dict) -> list[str]:
    """Every qualitative-claim failure across the summary's benchmarks."""
    return [
        f"{name}: {failure}"
        for name, entry in sorted(summary["benchmarks"].items())
        for failure in entry.get("failures", ())
    ]

