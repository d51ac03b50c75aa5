"""``python -m repro bench`` — the benchmark subsystem's front-end.

Subcommands:

* ``list`` — registry contents (name, tier, description);
* ``run`` — execute a tier selection (or ``--only`` named benchmarks),
  writing the tracked ``benchmarks/results/*.txt`` tables, the
  untracked ``benchmarks/results/*.json`` reports and the untracked
  repo-root ``BENCH_summary.json``; exits 1 if any benchmark's own
  qualitative checks fail;
* ``compare`` — diff two summary files (old as reference); exits 1 when
  any metric's value changed or a metric vanished;
* ``gate`` — check the current summary against
  ``benchmarks/baselines.json`` for exact equality; exits 1 on a changed
  value (either direction) or a vanished baselined metric, 2 when the
  baseline file is missing.  With ``--update-baseline`` it refreshes the
  summary's tier section instead (the documented path for intentional
  changes).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench import gate as gating
from repro.bench import harness
from repro.bench.registry import TIERS, all_benchmarks, select_tier
from repro.errors import ConfigurationError


def configure_parser(commands) -> None:
    """Attach the ``bench`` subcommand tree to the main CLI parser."""
    bench = commands.add_parser(
        "bench", help="run, compare and gate the benchmark registry"
    )
    actions = bench.add_subparsers(dest="bench_command", required=True)

    listing = actions.add_parser("list", help="list registered benchmarks")
    listing.add_argument(
        "--tier", choices=TIERS, default=None,
        help="only the selection executed at this tier",
    )

    run = actions.add_parser(
        "run", help="execute a tier selection and write result JSONs"
    )
    run.add_argument(
        "--tier", choices=TIERS, default="full",
        help="tier selection to execute (default: full)",
    )
    run.add_argument(
        "--only", nargs="+", default=None, metavar="NAME",
        help="run only these benchmarks (tier still picks their params)",
    )
    run.add_argument(
        "--results-dir", default=str(harness.RESULTS_DIR),
        help="directory for per-benchmark JSON/txt artifacts",
    )
    run.add_argument(
        "--summary", default=str(harness.SUMMARY_PATH),
        help="aggregated summary path (default: repo-root "
             "BENCH_summary.json)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="wrap each selected benchmark in cProfile and write "
             "<results-dir>/<name>.prof",
    )

    compare = actions.add_parser(
        "compare", help="diff two BENCH_summary.json files"
    )
    compare.add_argument("old", help="reference summary JSON")
    compare.add_argument("new", help="candidate summary JSON")

    check = actions.add_parser(
        "gate", help="gate the current summary against pinned baselines"
    )
    check.add_argument(
        "--baseline", default="benchmarks/baselines.json",
        help="baseline file (default: benchmarks/baselines.json)",
    )
    check.add_argument(
        "--summary", default=str(harness.SUMMARY_PATH),
        help="summary to gate (default: repo-root BENCH_summary.json)",
    )
    check.add_argument(
        "--update-baseline", action="store_true",
        help="refresh the summary's tier section of the baseline file "
             "instead of gating (for intentional changes)",
    )


def handle(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "gate": _cmd_gate,
    }
    try:
        return handlers[args.bench_command](args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table

    benchmarks = (
        select_tier(args.tier) if args.tier else all_benchmarks()
    )
    rows = [
        [b.name, b.tier, b.description]
        for b in benchmarks
    ]
    print(render_table(["benchmark", "tier", "description"], rows))
    scope = f"the {args.tier} tier" if args.tier else "the registry"
    print(f"\n{len(benchmarks)} benchmarks in {scope}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    selection = (
        args.only
        if args.only
        else [b.name for b in select_tier(args.tier)]
    )
    print(f"bench run: tier={args.tier}, {len(selection)} benchmarks")
    summary = harness.run_tier(
        args.tier,
        only=args.only,
        results_dir=pathlib.Path(args.results_dir),
        summary_path=pathlib.Path(args.summary),
        progress=lambda name: print(f"  running {name} ..."),
        profile=args.profile,
    )
    for name, entry in sorted(summary["benchmarks"].items()):
        status = "ok" if not entry["failures"] else "FAIL"
        print(
            f"  {name:<16} {entry['results']:>3} results in "
            f"{entry['elapsed_s']:>7.2f}s  {status}"
        )
    failures = harness.outcome_failures(summary)
    for failure in failures:
        print(f"FAIL: {failure}")
    print(
        f"wrote {args.summary} "
        f"({len(summary['results'])} results, {summary['elapsed_s']:.1f}s)"
    )
    return 1 if failures else 0


def _load_summary(path: str) -> dict:
    try:
        return harness.load_summary(path)
    except FileNotFoundError:
        raise ConfigurationError(f"summary file {path} does not exist") from None
    except ValueError as error:
        raise ConfigurationError(f"summary file {path}: {error}") from None


def _render_report(report: "gating.GateReport") -> None:
    for delta in report.changed:
        print(f"CHANGED: {delta.key}: baseline {delta.old!r}, "
              f"current {delta.new!r} {delta.unit}")
    for key in report.missing:
        print(f"MISSING: baselined metric {key} was not produced")
    if report.new_keys:
        print(f"({len(report.new_keys)} metrics have no baseline yet; "
              "run gate --update-baseline to pin them)")


def _verdict(report: "gating.GateReport") -> str:
    return (
        f"{report.checked} metrics checked exactly, "
        f"{len(report.changed)} changed, {len(report.missing)} missing "
        f"-> {'ok' if report.ok else 'FAIL'}"
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    report = gating.compare_summaries(
        _load_summary(args.old), _load_summary(args.new)
    )
    _render_report(report)
    print(f"\ncompare[{report.tier}]: {_verdict(report)}")
    return 0 if report.ok else 1


def _cmd_gate(args: argparse.Namespace) -> int:
    summary = _load_summary(args.summary)
    baseline_path = pathlib.Path(args.baseline)
    if args.update_baseline:
        baselines = (
            gating.load_baselines(baseline_path)
            if baseline_path.exists()
            else gating.empty_baselines()
        )
        updated = gating.update_baselines(baselines, summary)
        gating.write_baselines(updated, baseline_path)
        entries = updated["tiers"][summary["tier"]]
        print(
            f"pinned {len(entries)} {summary['tier']}-tier baselines "
            f"to {baseline_path}"
        )
        return 0
    try:
        baselines = gating.load_baselines(baseline_path)
    except FileNotFoundError:
        print(
            f"error: baseline file {baseline_path} does not exist "
            "(seed it with bench gate --update-baseline)",
            file=sys.stderr,
        )
        return 2
    report = gating.compare_to_baselines(summary, baselines)
    _render_report(report)
    print(f"\ngate[{report.tier}]: {_verdict(report)}")
    return 0 if report.ok else 1
