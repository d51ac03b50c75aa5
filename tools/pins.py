"""PYTHONPATH=src python tools/pins.py smoke|full|nightly [--write]

Runs every suite of one tier (:mod:`repro.bench.suites`) and compares
what the tier pins with its section of ``benchmarks/baselines.json``.
The comparison is ``==`` on the whole ``{key: {"unit", "value"}}`` dict,
so a changed value (one ulp is enough), a changed unit, a vanished key
and a new, unpinned key all fail; so does any suite's own qualitative
check.  The ``benchmarks/results/*.txt`` tables the docs quote are kept
at each suite's first tier past ``smoke``: there they must equal the
suite's text byte for byte, and at ``nightly``, where every suite runs,
a table no suite prints fails too.

``--write`` rewrites the tier's section and its tables instead of
comparing: the path for an intended change.  A qualitative failure still
fails it, and then nothing is written.

Exit code 0 when everything matches (or was written), 1 otherwise.
``tests/test_pins.py`` runs the smoke tier through this module.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = ROOT / "benchmarks" / "baselines.json"
RESULTS = ROOT / "benchmarks" / "results"
TIERS = ("smoke", "full", "nightly")


def run_suite(suite, tier: str) -> tuple:
    """``(pins, failures, tables)`` of one suite at ``tier``."""
    return suite.run(**suite.TIERS[tier])


def pinned(tier: str) -> dict:
    """The tier's section of the baselines: ``{key: {"unit", "value"}}``."""
    return json.loads(BASELINES.read_text(encoding="utf-8"))["tiers"][tier]


def mismatches(expected: dict, pins: dict, failures: list) -> list:
    """Why ``pins`` and ``failures`` do not pass against ``expected``."""
    problems = [f"FAIL: {failure}" for failure in failures]
    if pins != expected:
        problems += [
            f"{key}: pinned {expected.get(key)}, now {pins.get(key)}"
            for key in sorted(expected.keys() | pins.keys())
            if expected.get(key) != pins.get(key)
        ]
    return problems


def table_mismatches(tables: dict, printed: "set | None") -> list:
    """``tables`` that differ from their files; given ``printed``, every
    table name the suites print, also the files outside it."""
    on_disk = {path.stem: path.read_text(encoding="utf-8")
               for path in RESULTS.glob("*.txt")}
    problems = [
        f"benchmarks/results/{name}.txt is not what its suite prints"
        for name, text in sorted(tables.items())
        if on_disk.get(name) != text + "\n"
    ]
    if printed is not None:
        problems += [
            f"benchmarks/results/{name}.txt: no suite prints it"
            for name in sorted(on_disk.keys() - printed)
        ]
    return problems


def main(argv: "list[str] | None" = None) -> int:
    from repro.bench.suites import SUITES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tier", choices=TIERS)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the pins and tables instead of comparing")
    args = parser.parse_args(argv)
    pins, failures, tables, printed = {}, [], {}, set()
    for suite in SUITES:
        if args.tier in suite.TIERS:
            name = suite.__name__.rsplit(".", 1)[-1]
            print(f"running {name}", flush=True)
            suite_pins, suite_failures, suite_tables = run_suite(suite, args.tier)
            pins.update(suite_pins)
            failures += [f"{name}: {failure}" for failure in suite_failures]
            printed.update(suite_tables)
            if args.tier == next(t for t in suite.TIERS if t != "smoke"):
                tables.update(suite_tables)
    if args.write and not failures:
        baselines = json.loads(BASELINES.read_text(encoding="utf-8"))
        baselines["tiers"][args.tier] = pins
        BASELINES.write_text(json.dumps(baselines, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
        for name, text in tables.items():
            (RESULTS / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"{args.tier}: wrote {len(pins)} pins, {len(tables)} tables")
        return 0
    problems = mismatches(pinned(args.tier), pins, failures)
    problems += table_mismatches(
        tables, printed if args.tier == TIERS[-1] else None
    )
    for problem in problems:
        print(problem)
    print(f"{args.tier}: {len(pins)} values compared exactly -> "
          f"{'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
