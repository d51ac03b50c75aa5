"""Unified benchmark subsystem: registry, result schema, harness, gate.

One stack for every experiment that produces a number:

* :mod:`repro.bench.registry` — :class:`Benchmark` registrations with
  tiers (``smoke`` ⊂ ``full`` ⊂ ``nightly``) and per-tier parameters;
* :mod:`repro.bench.result` — the ``repro-bench-result/2`` JSON schema
  every benchmark emits (:class:`BenchResult`);
* :mod:`repro.bench.suites` — the benchmark definitions;
* :mod:`repro.bench.harness` — execution + persistence
  (``benchmarks/results/*.json``, repo-root ``BENCH_summary.json``, both
  untracked run output; the ``.txt`` tables the docs quote are tracked);
* :mod:`repro.bench.gate` — exact comparison against
  ``benchmarks/baselines.json``.

Every metric here is simulation-deterministic (beats, messages, counts,
probabilities, digests) and pinned exactly; speed is measured by the
beat ledger (``benchmarks/ledger/``, declared by ``BENCHMARK.json``).

CLI front-end: ``python -m repro bench list|run|compare|gate``.
"""

from repro.bench.gate import (
    GateReport,
    compare_summaries,
    compare_to_baselines,
    load_baselines,
    update_baselines,
    write_baselines,
)
from repro.bench.harness import (
    RESULTS_DIR,
    SUMMARY_PATH,
    load_summary,
    outcome_failures,
    run_benchmark,
    run_tier,
    summarize,
    validate_summary,
    write_summary,
)
from repro.bench.registry import (
    REGISTRY,
    TIERS,
    Benchmark,
    all_benchmarks,
    get_benchmark,
    register,
    select_tier,
)
from repro.bench.result import (
    BASELINE_SCHEMA,
    REPORT_SCHEMA,
    RESULT_SCHEMA,
    SUMMARY_SCHEMA,
    BenchOutcome,
    BenchReport,
    BenchResult,
    git_metadata,
    result_key,
    validate_result_record,
)

__all__ = [
    "BASELINE_SCHEMA",
    "Benchmark",
    "BenchOutcome",
    "BenchReport",
    "BenchResult",
    "GateReport",
    "REGISTRY",
    "REPORT_SCHEMA",
    "RESULTS_DIR",
    "RESULT_SCHEMA",
    "SUMMARY_PATH",
    "SUMMARY_SCHEMA",
    "TIERS",
    "all_benchmarks",
    "compare_summaries",
    "compare_to_baselines",
    "get_benchmark",
    "git_metadata",
    "load_baselines",
    "load_summary",
    "outcome_failures",
    "register",
    "result_key",
    "run_benchmark",
    "run_tier",
    "select_tier",
    "summarize",
    "update_baselines",
    "validate_result_record",
    "validate_summary",
    "write_baselines",
    "write_summary",
]
