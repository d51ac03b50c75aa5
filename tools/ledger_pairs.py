"""Alternating parent/change pairs of the beat ledger, as one table.

    python tools/ledger_pairs.py --parent REV|DIR [--workloads W ...]
        [--pairs 10] [--seed S] [--traced]

Checks ``REV`` out into a temporary ``git worktree`` — or, when the
argument names a directory, takes that directory (a ``git clone`` or
``git archive`` of the parent) as the parent tree and touches no
worktree — then runs ``benchmarks/ledger/run.py`` on that tree and on
this one (the working tree, uncommitted edits included) ``--pairs``
times per workload, alternating which side goes first.  Each side runs
its *own* copy of the ledger, so the comparison holds only while
``benchmarks/ledger/`` and ``BENCHMARK.json`` are the same on both —
which a change that claims a gain must leave them.

Per (metric, workload) it prints both medians, the parent's
interquartile range, the pairs the change won (ties count for neither)
and the verdict of the ledger's own ``--agree`` over the two sets of
medians.  ``--agree`` is symmetric — it names a pair that moved beyond
its bound in either direction — so a claimed gain reads ``DISAGREE``
beside a high win count, and a regression reads ``DISAGREE`` beside a
low one.  Every run made is in the table; nothing is discarded.

``--traced`` also runs one traced child (``--trace 1``) per side per
pair and prints, below the end-to-end table, both medians of every
per-layer metric ``BENCHMARK.json`` declares that either side's traced
runs report as non-zero — so a PR quotes ``engine.self_ms_per_beat`` or
``linkmodel.classify_ms_per_trial`` from the same pairs as its
``beats_per_s``.  Without it the output is what it always was.

Exit code 0 when every run on both sides reported ``correct``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import operator
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = pathlib.Path("benchmarks") / "ledger" / "run.py"

_DISAGREE = re.compile(r"^DISAGREE \((?P<metric>[^,]+), (?P<workload>[^)]+)\)")


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float,
             traced: bool = False) -> dict:
    """One run of ``workload`` by ``tree``'s ledger, untraced unless
    ``traced``: the child's full result (values, digest, counts), as
    ``run.py`` itself reads it."""
    done = subprocess.run(
        [
            sys.executable, str(tree / LEDGER), "--child",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)),
        ],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: "list[float]") -> "tuple[float, float]":
    if len(values) < 2:
        return values[0], values[0]
    first, _median, third = statistics.quantiles(values, n=4)
    return first, third


def result_set(runs: "dict[str, list[dict]]", metrics: "list[dict]", seed: int,
               seconds: float) -> dict:
    """One side's runs folded into the shape ``run.py --agree`` reads:
    the first run's exact fields, every end-to-end value its median."""
    workloads = {}
    for name, results in runs.items():
        folded = dict(results[0])
        folded["values"] = dict(folded["values"])
        for metric in metrics:
            folded["values"][metric["name"]] = statistics.median(
                result["values"][metric["name"]] for result in results
            )
        folded["correct"] = all(result["correct"] for result in results)
        workloads[name] = {"untraced": folded}
    return {
        "schema": "beat-ledger/1", "seed": seed, "seconds": seconds,
        "smoke": False, "workloads": workloads,
    }


def agree_verdicts(sets: "list[dict]", scratch: pathlib.Path) -> "tuple[set, str]":
    """The (metric, workload) pairs ``run.py --agree`` names, and its text."""
    files = []
    for side, document in zip(("parent", "change"), sets):
        files.append(scratch / f"{side}.json")
        files[-1].write_text(json.dumps(document), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / LEDGER), "--agree", *map(str, files)],
        stdout=subprocess.PIPE, text=True,
    )
    named = set()
    for line in done.stdout.splitlines():
        match = _DISAGREE.match(line)
        if match:
            named.add((match["metric"], match["workload"]))
    return named, done.stdout


def print_layers(traced: "dict[str, dict[str, list[dict]]]",
                 declared: "list[dict]", workloads: "list[str]") -> None:
    """Both sides' medians of each declared per-layer metric that either
    side's traced runs report as non-zero (a layer idle on a workload
    reads zero on both)."""
    print("per-layer medians, one traced child per side per pair:")
    print(f"{'workload':<16} {'metric':<36} {'parent':>10} {'change':>10} "
          f"{'change/parent':>13}")
    for name in workloads:
        for metric in declared:
            key = metric["name"]
            parent, change = (
                statistics.median(r["values"].get(key, 0) for r in traced[side][name])
                for side in ("parent", "change")
            )
            if parent or change:
                ratio = f"{change / parent:>12.3f}x" if parent else f"{'-':>13}"
                print(f"{name:<16} {key:<36} {parent:>10.6g} {change:>10.6g} "
                      f"{ratio} {metric['unit']}")


@contextlib.contextmanager
def parent_tree(parent: str, scratch: pathlib.Path):
    """The tree the parent side runs: ``parent`` itself when it names a
    directory, else revision ``parent`` checked out into a ``git
    worktree`` under ``scratch`` that is removed on the way out."""
    if os.path.isdir(parent):
        yield pathlib.Path(parent).resolve()
        return
    tree = scratch / "parent"
    git = ["git", "-C", str(REPO_ROOT), "worktree"]
    subprocess.run(
        [*git, "add", "--detach", str(tree), parent],
        check=True, stdout=subprocess.DEVNULL,
    )
    try:
        yield tree
    finally:
        subprocess.run([*git, "remove", "--force", str(tree)], check=True)


def main(argv: "list[str] | None" = None) -> int:
    contract = json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--parent", required=True, metavar="REV|DIR",
        help="a revision (run from a temporary git worktree) or an "
        "existing checkout of it (run in place)",
    )
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--traced", action="store_true",
        help="also run one traced child per side per pair and print the "
        "per-layer medians",
    )
    args = parser.parse_args(argv)
    seconds = contract["run_seconds"]
    metrics = contract["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as scratch_name:
        scratch = pathlib.Path(scratch_name)
        with parent_tree(args.parent, scratch) as tree:
            trees = {"parent": tree, "change": REPO_ROOT}
            runs = {side: {name: [] for name in args.workloads} for side in trees}
            traced = {side: {name: [] for name in args.workloads} for side in trees}
            for pair in range(args.pairs):
                order = ("parent", "change")
                if pair % 2:
                    order = order[::-1]
                for name in args.workloads:
                    for side in order:
                        runs[side][name].append(
                            run_once(trees[side], name, args.seed, seconds)
                        )
                    if args.traced:
                        for side in order:
                            traced[side][name].append(run_once(
                                trees[side], name, args.seed, seconds,
                                traced=True,
                            ))
                    print(
                        f"pair {pair + 1}/{args.pairs} {name}: " + ", ".join(
                            f"{side} {runs[side][name][-1]['values']['beats_per_s']:.4g}"
                            for side in order
                        ) + " beats/s",
                        file=sys.stderr,
                    )
            named, agree_text = agree_verdicts(
                [
                    result_set(runs[side], metrics, args.seed, seconds)
                    for side in ("parent", "change")
                ],
                scratch,
            )

    print(
        f"parent {args.parent} vs working tree: {args.pairs} alternating pairs, "
        f"seed {args.seed}, run_seconds {seconds}"
    )
    print(
        f"{'workload':<16} {'metric':<16} {'parent':>10} {'change':>10} "
        f"{'change/parent':>13} {'parent IQR':>10} {'won':>6}  agree"
    )
    for name in args.workloads:
        for metric in metrics:
            key = metric["name"]
            parent, change = (
                [result["values"][key] for result in runs[side][name]]
                for side in ("parent", "change")
            )
            better = operator.gt if metric["better"] == "higher" else operator.lt
            won = sum(map(better, change, parent))
            first, third = quartiles(parent)
            parent_median = statistics.median(parent)
            change_median = statistics.median(change)
            print(
                f"{name:<16} {key:<16} {parent_median:>10.4g} "
                f"{change_median:>10.4g} "
                f"{change_median / parent_median:>12.3f}x "
                f"{third - first:>10.3g} {won:>3}/{args.pairs:<2}  "
                + ("DISAGREE" if (key, name) in named else "agree")
            )
    if args.traced:
        print_layers(traced, contract["per_layer"], args.workloads)
    print(agree_text, end="")
    failed = [
        (side, name)
        for kind in (runs, traced) for side in kind
        for name, results in kind[side].items()
        if not all(r["correct"] and not r["failed_ops"] for r in results)
    ]
    for side, name in failed:
        print(f"FAILED OPS: {side} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
