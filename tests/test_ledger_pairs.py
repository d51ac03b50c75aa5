"""``tools/ledger_pairs.py``: which tree the parent side runs."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "ledger_pairs", REPO_ROOT / "tools" / "ledger_pairs.py"
)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)


def _worktrees() -> str:
    """``git worktree list`` (empty when the tree is an export with no
    repository behind it: then there is nothing to leave unchanged)."""
    return subprocess.run(
        ["git", "-C", str(REPO_ROOT), "worktree", "list"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout


def test_a_directory_parent_runs_in_place_and_adds_no_worktree(
    tmp_path, monkeypatch, capsys
):
    """``--parent DIR`` (a clone of the parent, where worktrees are off
    limits) runs both sides, alternating, and leaves ``git worktree
    list`` as it found it."""
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((pathlib.Path(tree), workload, seed))
        speed = 2.0 if tree == REPO_ROOT else 1.0
        return {
            "values": {
                metric["name"]: speed for metric in contract["end_to_end"]
            },
            "ops": 3, "digest": "d", "counts": {}, "correct": True,
            "failed_ops": 0,
        }

    monkeypatch.setattr(ledger_pairs, "run_once", run_once)
    before = _worktrees()
    code = ledger_pairs.main([
        "--parent", str(tmp_path), "--workloads", "sim-bulk-byz",
        "--pairs", "2", "--seed", "7",
    ])
    assert code == 0
    parent, change = tmp_path.resolve(), REPO_ROOT
    assert calls == [
        (parent, "sim-bulk-byz", 7), (change, "sim-bulk-byz", 7),
        (change, "sim-bulk-byz", 7), (parent, "sim-bulk-byz", 7),
    ]
    assert _worktrees() == before
    table = capsys.readouterr().out
    assert "sim-bulk-byz     beats_per_s" in table and "2/2" in table
    assert "per-layer" not in table


def test_traced_adds_one_traced_child_per_side_per_pair(tmp_path, monkeypatch,
                                                        capsys):
    """``--traced`` runs a traced child after each side's untraced one and
    prints both medians of every per-layer metric some side reports."""
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run_once(tree, workload, seed, seconds, traced=False):
        calls.append((pathlib.Path(tree) == REPO_ROOT, traced))
        speed = 2.0 if tree == REPO_ROOT else 1.0
        values = {metric["name"]: speed for metric in contract["end_to_end"]}
        if traced:
            values = {"engine.self_ms_per_beat": 4.0 / speed}
        return {
            "values": values, "ops": 3, "digest": "d", "counts": {},
            "correct": True, "failed_ops": 0,
        }

    monkeypatch.setattr(ledger_pairs, "run_once", run_once)
    code = ledger_pairs.main([
        "--parent", str(tmp_path), "--workloads", "campaign-short",
        "--pairs", "2", "--traced",
    ])
    assert code == 0
    assert calls == [
        (False, False), (True, False), (False, True), (True, True),
        (True, False), (False, False), (True, True), (False, True),
    ]
    table = capsys.readouterr().out
    assert "per-layer medians" in table
    layer = [line for line in table.splitlines()
             if line.startswith("campaign-short   engine.self_ms_per_beat")]
    assert len(layer) == 1 and "0.500x" in layer[0]
    assert "linkmodel.classify_ms_per_trial" not in table  # zero on both
