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
