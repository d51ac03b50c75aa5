"""The beat ledger: one benchmark over every execution path.

    python benchmarks/ledger/run.py [--workload W] [--seed S]
        [--seconds T] [--trace 0|1 | --traced] [--smoke] [--out F]
    python benchmarks/ledger/run.py --agree A.json B.json

With ``--workload`` it runs that workload once and ends with the one-line
JSON result ``BENCHMARK.json``'s contract asks for (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  Without, it
runs all eight (untraced, and traced too under ``--traced``), prints
every metric by name and unit, and writes the result set to ``--out``.
Either way each workload runs in a fresh child process under
``PYTHONHASHSEED=0``; this process only launches children and reports.

``--agree`` compares two result sets against the bounds in
``BENCHMARK.json`` and exits non-zero naming each (metric, workload)
pair that disagrees.

The metric names, units and bounds live in ``BENCHMARK.json`` alone; the
workloads in ``workloads.py``; what a child does in ``measure.py``; the
drivers in ``paths.py``; the machine-speed gauge in ``gauge.py``; the
traced run's wrappers in ``spans.py``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = ROOT / "BENCHMARK.json"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text(encoding="utf-8"))



def run_child(name: str, args: argparse.Namespace, traced: bool) -> dict:
    """One workload in a fresh interpreter; its result, parsed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(traced)),
    ]
    if args.smoke:
        command.append("--smoke")
    environment = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=environment, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {name} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def metric_block(result: dict, declared: "list[dict]") -> dict:
    """The declared metrics of one result, by name, with their units.  A
    layer that did no work on this workload reads zero."""
    return {
        metric["name"]: {
            "value": result["values"].get(metric["name"], 0),
            "unit": metric["unit"],
        }
        for metric in declared
    }


def report(result: dict, declared: "list[dict]") -> None:
    kind = "traced" if result["traced"] else "untraced"
    print(
        f"== {result['workload']} ({kind}) seed={result['seed']} "
        f"ops={result['ops']} failed_ops={result['failed_ops']} "
        f"correct={'yes' if result['correct'] else 'NO'} "
        f"digest={result['digest'][:16]}"
    )
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for name, entry in metric_block(result, declared).items():
        print(f"   {name:<36} {entry['value']:>14.6g} {entry['unit']}")


def agree(path_a: str, path_b: str) -> int:
    """Compare two result sets; 0 when every pair agrees."""
    contract = load_contract()
    sets = [
        json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        for path in (path_a, path_b)
    ]
    disagreements = []
    for name in sets[0]["workloads"]:
        if name not in sets[1]["workloads"]:
            disagreements.append(("(missing)", name, "absent from second set"))
            continue
        first, second = (s["workloads"][name]["untraced"] for s in sets)
        for key in ("ops", "digest", "counts", "correct"):
            if first[key] != second[key]:
                disagreements.append((key, name, "must repeat exactly"))
        for exact in ("ledger.stabilize_beats",):
            if first["values"].get(exact) != second["values"].get(exact):
                disagreements.append((exact, name, "must repeat exactly"))
        for metric in contract["end_to_end"]:
            a, b = (r["values"][metric["name"]] for r in (first, second))
            spread = max(a, b) / min(a, b) - 1.0
            if spread > metric["bound"]:
                disagreements.append(
                    (
                        metric["name"], name,
                        f"{a:.6g} vs {b:.6g}: {100 * spread:.1f}% apart, "
                        f"bound {100 * metric['bound']:.0f}%",
                    )
                )
    for metric, name, why in disagreements:
        print(f"DISAGREE ({metric}, {name}): {why}")
    if not disagreements:
        print(f"agree: {len(sets[0]['workloads'])} workloads within bounds")
    return 1 if disagreements else 0


def main(argv: "list[str] | None" = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in contract["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.agree:
        return agree(*args.agree)
    traced = bool(args.trace) or args.traced
    if args.child:
        from measure import measure

        print(json.dumps(measure(
            args.workload, args.seed, args.seconds, args.smoke, traced
        )))
        return 0
    if args.workload:
        # Contract mode: one workload, one result line.
        result = run_child(args.workload, args, traced)
        declared = contract["per_layer" if traced else "end_to_end"]
        report(result, declared)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["ops"],
            "failed": result["failed_ops"],
            "metrics": metric_block(result, declared),
        }))
        return 0

    results: dict = {}
    for entry in contract["workloads"]:
        name = entry["name"]
        results[name] = {"untraced": run_child(name, args, False)}
        report(results[name]["untraced"], contract["end_to_end"])
        if traced:
            results[name]["traced"] = run_child(name, args, True)
            report(results[name]["traced"], contract["per_layer"])
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(
                {
                    "schema": "beat-ledger/1",
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "workloads": results,
                },
                indent=1,
            ),
            encoding="utf-8",
        )
    return 0 if all(
        run["correct"] for runs in results.values() for run in runs.values()
    ) else 1


if __name__ == "__main__":
    raise SystemExit(main())
