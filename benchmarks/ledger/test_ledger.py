"""Self-checks of the beat ledger, at smoke sizes (~1 minute).

Not part of the tier-1 ``testpaths``; run it by name::

    python -m pytest benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def result_sets(tmp_path_factory) -> list[dict]:
    """Two smoke runs of everything at seed 0; the first also traced."""
    sets = []
    for index, extra in enumerate((["--traced"], [])):
        out = tmp_path_factory.mktemp("ledger") / f"set{index}.json"
        done = run("--smoke", "--out", str(out), *extra)
        assert done.returncode == 0, done.stdout + done.stderr
        sets.append(json.loads(out.read_text(encoding="utf-8")))
    return sets


def test_contract_names_every_workload_and_metric_once():
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert names == list(WORKLOADS)
    metrics = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(set(metrics)) == len(metrics)
    for name in names + metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert CONTRACT["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_exactly_the_declared_metrics(trace, declared):
    done = run("--workload", "sim-gvss", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT[declared]]
    for metric in CONTRACT[declared]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_every_run_is_correct_with_no_failed_ops(result_sets):
    for results in result_sets:
        for name, runs in results["workloads"].items():
            for run_ in runs.values():
                assert run_["correct"], (name, run_["failures"])
                assert run_["ops"] >= 1 and run_["failed_ops"] == 0


def test_end_to_end_metrics_are_never_zero(result_sets):
    for name, runs in result_sets[0]["workloads"].items():
        for metric in CONTRACT["end_to_end"]:
            assert runs["untraced"]["values"][metric["name"]] > 0, (name, metric)


def test_working_layers_report_and_dormant_layers_read_zero(result_sets):
    """The layer -> workload table, as measured: a layer has a non-zero
    metric exactly on the workloads whose definition names it."""
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    for name, runs in result_sets[0]["workloads"].items():
        values = runs["traced"]["values"]
        at_work = {
            metric.split(".")[0]
            for metric, value in values.items()
            if metric in declared and value
        }
        assert at_work == set(WORKLOADS[name].layers), name


def test_digests_counts_and_stabilize_beats_repeat_exactly(result_sets):
    first, second = (results["workloads"] for results in result_sets)
    for name in WORKLOADS:
        a, b = first[name]["untraced"], second[name]["untraced"]
        assert a["digest"] == b["digest"], name
        assert a["pin_digest"] == b["pin_digest"], name
        assert a["counts"] == b["counts"], name
        assert (
            a["values"]["ledger.stabilize_beats"]
            == b["values"]["ledger.stabilize_beats"]
        ), name
        # Tracing must not perturb the run: the traced child's untraced
        # and traced legs already compared traces; its digest also
        # matches a separate process's at the same size.
        assert first[name]["traced"]["correct"], name


def test_agree_names_the_pair_that_disagrees(result_sets, tmp_path):
    same = tmp_path / "same.json"
    same.write_text(json.dumps(result_sets[0]), encoding="utf-8")
    assert run("--agree", str(same), str(same)).returncode == 0

    tampered = json.loads(json.dumps(result_sets[0]))
    run_ = tampered["workloads"]["rt-local"]["untraced"]
    run_["digest"] = "0" * 64
    run_["values"]["beats_per_s"] *= 2
    other = tmp_path / "other.json"
    other.write_text(json.dumps(tampered), encoding="utf-8")
    done = run("--agree", str(same), str(other))
    assert done.returncode == 1
    assert "DISAGREE (digest, rt-local)" in done.stdout
    assert "DISAGREE (beats_per_s, rt-local)" in done.stdout
    assert "sim-gvss" not in done.stdout
