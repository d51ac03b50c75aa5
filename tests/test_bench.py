"""The benchmark subsystem: registry, result schema, harness, gate.

Covers registry completeness (every suite module registered exactly
once), ``BenchResult`` schema round-trips, the exact gate (a changed
value fails in either direction, a missing key fails, a new key is
reported), its exit codes, and the ``bench list/run/compare`` CLI smoke
(see also ``tests/test_cli.py``).
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.bench import (
    REPORT_SCHEMA,
    RESULT_SCHEMA,
    SUMMARY_SCHEMA,
    Benchmark,
    BenchOutcome,
    BenchResult,
    REGISTRY,
    all_benchmarks,
    get_benchmark,
    register,
    result_key,
    run_benchmark,
    run_tier,
    select_tier,
    validate_result_record,
    validate_summary,
)
from repro.bench.gate import (
    compare_summaries,
    compare_to_baselines,
    empty_baselines,
    update_baselines,
)
from repro.errors import ConfigurationError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"


def _toy_runner(value: float = 1.0, fail: bool = False) -> BenchOutcome:
    result = BenchResult(
        benchmark="toy",
        metric="latency",
        value=value,
        unit="beats",
        scenario={"n": 4},
    )
    return BenchOutcome(
        results=(result,),
        failures=("toy check failed",) if fail else (),
        tables=(("toy_table", "toy output"),),
    )


@pytest.fixture
def toy_benchmark():
    bench = register(
        Benchmark(
            name="toy",
            tier="smoke",
            runner=_toy_runner,
            params={"value": 1.0},
            tier_params={"smoke": {"value": 2.0}},
            description="toy benchmark for tests",
        )
    )
    yield bench
    REGISTRY.pop("toy", None)


class TestRegistry:
    def test_every_suite_module_registered_exactly_once(self):
        """bench/suites/<name>.py modules <-> registry names, 1:1."""
        file_names = {
            path.stem
            for path in (REPO_ROOT / "src/repro/bench/suites").glob("[!_]*.py")
        }
        registered = {b.name for b in all_benchmarks()}
        assert file_names == registered
        assert len(all_benchmarks()) == len(registered)  # no duplicates

    def test_registration_count(self):
        # Twelve ported legacy entry points + the live-runtime benchmark
        # + the cross-protocol comparison over the Protocol seam
        # + the continuous-time pulse precision suite.
        assert len({b.name for b in all_benchmarks()}) == 16

    def test_double_registration_rejected(self, toy_benchmark):
        with pytest.raises(ConfigurationError, match="already registered"):
            register(toy_benchmark)

    def test_tiers_are_cumulative(self):
        smoke = {b.name for b in select_tier("smoke")}
        full = {b.name for b in select_tier("full")}
        nightly = {b.name for b in select_tier("nightly")}
        assert smoke < full < nightly
        assert nightly == {b.name for b in all_benchmarks()}
        assert "engines" in smoke and "link_conditions" in smoke
        # The algebraic-substrate canary only gates if CI's tier runs it.
        assert "gvss_stack" in smoke
        assert "fig_logk" in nightly - full

    def test_unknown_tier_and_name_rejected(self):
        with pytest.raises(ConfigurationError):
            select_tier("hourly")
        with pytest.raises(ConfigurationError):
            get_benchmark("no-such-benchmark")
        with pytest.raises(ConfigurationError):
            Benchmark(name="x", tier="hourly", runner=_toy_runner)

    def test_params_for_merges_tier_overrides(self, toy_benchmark):
        assert toy_benchmark.params_for("full") == {"value": 1.0}
        assert toy_benchmark.params_for("smoke") == {"value": 2.0}
        assert toy_benchmark.params_for("nightly") == {"value": 1.0}


class TestResultSchema:
    def test_round_trip(self):
        result = BenchResult(
            benchmark="toy",
            metric="latency",
            value=4,
            unit="beats",
            scenario={"n": 7, "loss": 0.1, "protocol": "clock-sync"},
        )
        record = result.to_json()
        assert record["schema"] == RESULT_SCHEMA
        assert BenchResult.from_json(record) == result
        assert BenchResult.from_json(json.loads(json.dumps(record))) == result

    def test_axes_normalized_and_value_coerced(self):
        a = BenchResult("b", "m", 1, "u", scenario={"x": 1, "a": 2})
        b = BenchResult("b", "m", 1.0, "u", scenario=(("a", 2), ("x", 1)))
        assert a == b
        assert isinstance(a.value, float)

    def test_result_key_format(self):
        result = BenchResult(
            "link_conditions", "success_rate", 1.0, "fraction",
            scenario={"protocol": "clock-sync", "loss": 0.1},
        )
        assert result_key(result) == (
            "link_conditions/success_rate{loss=0.1,protocol=clock-sync}"
        )

    def test_invalid_records_rejected(self):
        good = BenchResult("b", "m", 1, "u").to_json()
        for corruption in (
            {"schema": "bogus/9"},
            {"schema": "repro-bench-result/1"},
            {"metric": ""},
            {"value": "fast"},
            {"value": True},
            {"scenario": {"axis": [1, 2]}},
        ):
            record = dict(good, **corruption)
            with pytest.raises(ValueError):
                validate_result_record(record)

    def test_schema_valid_against_jsonschema_if_available(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = {
            "type": "object",
            "required": ["schema", "benchmark", "metric", "value", "unit",
                         "scenario"],
            "additionalProperties": False,
            "properties": {
                "schema": {"const": RESULT_SCHEMA},
                "benchmark": {"type": "string", "minLength": 1},
                "metric": {"type": "string", "minLength": 1},
                "value": {"type": "number"},
                "unit": {"type": "string"},
                "scenario": {
                    "type": "object",
                    "additionalProperties": {
                        "type": ["number", "string", "boolean"]
                    },
                },
            },
        }
        record = BenchResult(
            "toy", "latency", 1.5, "beats", scenario={"n": 4}
        ).to_json()
        jsonschema.validate(record, schema)


class TestHarness:
    """What ``run_benchmark`` / ``run_tier`` write, round-tripped through
    a temporary directory: the reports and the summary are run output
    (gitignored), so their schema is pinned here, not by snapshots."""

    def test_run_benchmark_writes_report_and_tables(
        self, toy_benchmark, tmp_path
    ):
        report = run_benchmark(toy_benchmark, "full", results_dir=tmp_path)
        assert report.outcome.ok
        assert report.params == {"value": 1.0}
        written = json.loads((tmp_path / "toy.json").read_text())
        assert written["schema"] == REPORT_SCHEMA  # envelope, not record
        assert written["benchmark"] == "toy"
        assert written["tier"] == "full"
        for record in written["results"]:
            validate_result_record(record)
        assert (tmp_path / "toy_table.txt").read_text() == "toy output\n"

    def test_smoke_artifacts_get_their_own_suffix(
        self, toy_benchmark, tmp_path
    ):
        report = run_benchmark(toy_benchmark, "smoke", results_dir=tmp_path)
        assert report.params == {"value": 2.0}
        assert (tmp_path / "toy.smoke.json").exists()
        assert (tmp_path / "toy_table.smoke.txt").exists()
        assert not (tmp_path / "toy.json").exists()

    def test_run_tier_summary_round_trip(self, toy_benchmark, tmp_path):
        summary_path = tmp_path / "BENCH_summary.json"
        summary = run_tier(
            "smoke",
            benchmarks=[toy_benchmark],
            results_dir=tmp_path,
            summary_path=summary_path,
        )
        validate_summary(summary)
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["tier"] == "smoke"
        assert summary["benchmarks"]["toy"]["results"] == 1
        reloaded = json.loads(summary_path.read_text())
        assert reloaded["results"] == summary["results"]

    def test_profile_writes_pstats_artifact(self, toy_benchmark, tmp_path):
        import pstats

        report = run_benchmark(
            toy_benchmark, "full", results_dir=tmp_path, profile=True
        )
        assert report.outcome.ok  # profiling must not change the outcome
        stats = pstats.Stats(str(tmp_path / "toy.prof"))
        assert stats.total_calls > 0
        run_benchmark(toy_benchmark, "smoke", results_dir=tmp_path,
                      profile=True)
        assert (tmp_path / "toy.smoke.prof").exists()

    def test_profile_in_memory_run_skips_artifact(self, toy_benchmark):
        report = run_benchmark(
            toy_benchmark, "full", results_dir=None, profile=True
        )
        assert report.outcome.ok

    def test_validate_summary_rejects_junk(self):
        with pytest.raises(ValueError):
            validate_summary([])
        with pytest.raises(ValueError):
            validate_summary({"schema": SUMMARY_SCHEMA, "tier": "smoke",
                              "benchmarks": {}, "results": [{"bad": 1}]})


def _summary(value=10.0, *, tier="smoke", metric="latency", benchmark="toy"):
    return {
        "schema": SUMMARY_SCHEMA,
        "tier": tier,
        "python": "3",
        "git": {},
        "elapsed_s": 0.0,
        "benchmarks": {
            benchmark: {"tier": tier, "elapsed_s": 0.0, "failures": [],
                        "results": 1},
        },
        "results": [
            {
                "schema": RESULT_SCHEMA,
                "benchmark": benchmark,
                "metric": metric,
                "value": value,
                "unit": "beats",
                "scenario": {"n": 4},
            }
        ],
    }


#: The one baselined key every ``_summary`` produces.
KEY = "toy/latency{n=4}"


class TestGateLogic:
    def test_update_then_gate_pass_and_change(self):
        baselines = update_baselines(empty_baselines(), _summary(10.0))
        same = compare_to_baselines(_summary(10.0), baselines)
        assert same.ok and same.checked == 1 and same.changed == ()
        moved = compare_to_baselines(_summary(11.0), baselines)
        assert not moved.ok
        (delta,) = moved.changed
        assert (delta.key, delta.old, delta.new) == (KEY, 10.0, 11.0)

    @pytest.mark.parametrize("toward", [-math.inf, math.inf])
    def test_one_ulp_either_direction_fails(self, toward):
        baselines = update_baselines(empty_baselines(), _summary(10.0))
        report = compare_to_baselines(
            _summary(math.nextafter(10.0, toward)), baselines
        )
        assert not report.ok and [d.key for d in report.changed] == [KEY]

    def test_int_baseline_equals_float_result_of_the_same_value(self):
        baselines = update_baselines(empty_baselines(), _summary(10.0))
        baselines["tiers"]["smoke"][KEY]["value"] = 10
        report = compare_to_baselines(_summary(10.0), baselines)
        assert report.ok and report.checked == 1

    def test_baseline_entries_pin_value_and_unit_only(self):
        baselines = update_baselines(empty_baselines(), _summary(10.0))
        assert baselines == {
            "schema": "repro-bench-baselines/2",
            "tiers": {"smoke": {KEY: {"value": 10.0, "unit": "beats"}}},
        }

    def test_missing_metric_fails_only_for_benchmarks_that_ran(self):
        baselines = update_baselines(empty_baselines(), _summary(10.0))
        renamed = _summary(10.0, metric="other_latency")
        report = compare_to_baselines(renamed, baselines)
        assert report.missing == ("toy/latency{n=4}",)
        assert not report.ok
        other_bench = _summary(10.0, benchmark="unrelated")
        assert compare_to_baselines(other_bench, baselines).ok

    def test_new_key_is_reported_not_fatal(self):
        baselines = update_baselines(empty_baselines(), _summary(10.0))
        report = compare_to_baselines(
            _summary(10.0, benchmark="newcomer"), baselines
        )
        assert report.ok and report.checked == 0
        assert report.new_keys == ("newcomer/latency{n=4}",)

    def test_update_preserves_other_tiers_and_benchmarks(self):
        baselines = update_baselines(empty_baselines(), _summary(10.0))
        baselines = update_baselines(
            baselines, _summary(20.0, tier="full")
        )
        baselines = update_baselines(
            baselines, _summary(5.0, benchmark="other")
        )
        smoke = baselines["tiers"]["smoke"]
        assert smoke["toy/latency{n=4}"]["value"] == 10.0
        assert smoke["other/latency{n=4}"]["value"] == 5.0
        assert baselines["tiers"]["full"]["toy/latency{n=4}"]["value"] == 20.0
        # Re-running a benchmark prunes its vanished metrics.
        baselines = update_baselines(
            baselines, _summary(9.0, metric="other_latency")
        )
        assert "toy/latency{n=4}" not in baselines["tiers"]["smoke"]
        assert "toy/other_latency{n=4}" in baselines["tiers"]["smoke"]

    def test_compare_summaries(self):
        assert compare_summaries(_summary(10.0), _summary(10.0)).ok
        report = compare_summaries(_summary(10.0), _summary(9.5))
        assert [(d.old, d.new) for d in report.changed] == [(10.0, 9.5)]

    def test_compare_rejects_cross_tier_summaries(self):
        with pytest.raises(ConfigurationError, match="tier"):
            compare_summaries(_summary(10.0, tier="full"), _summary(10.0))


class TestBenchCLI:
    """Exit-code contract of ``python -m repro bench gate/compare/run``."""

    def _write(self, path, payload):
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return str(path)

    def test_gate_exit_codes_pass_change_missing_baseline(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        good = self._write(tmp_path / "good.json", _summary(10.0))
        baseline = tmp_path / "baselines.json"
        # missing baseline file -> exit 2
        assert main(["bench", "gate", "--summary", good,
                     "--baseline", str(baseline)]) == 2
        assert "does not exist" in capsys.readouterr().err
        # seed it -> exit 0
        assert main(["bench", "gate", "--summary", good,
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        # unchanged run passes -> exit 0
        assert main(["bench", "gate", "--summary", good,
                     "--baseline", str(baseline)]) == 0
        assert "-> ok" in capsys.readouterr().out
        # any changed value -> exit 1
        changed = self._write(tmp_path / "changed.json", _summary(13.0))
        assert main(["bench", "gate", "--summary", changed,
                     "--baseline", str(baseline)]) == 1
        assert "-> FAIL" in capsys.readouterr().out
        # a vanished baselined metric -> exit 1
        renamed = self._write(
            tmp_path / "renamed.json", _summary(10.0, metric="other")
        )
        assert main(["bench", "gate", "--summary", renamed,
                     "--baseline", str(baseline)]) == 1
        assert f"MISSING: baselined metric {KEY}" in capsys.readouterr().out

    def test_one_ulp_better_fails_gate_and_compare(self, tmp_path, capsys):
        """Lower latency is *better*; one ulp of it is still a change."""
        from repro.cli import main

        better = math.nextafter(10.0, 0.0)
        old = self._write(tmp_path / "old.json", _summary(10.0))
        new = self._write(tmp_path / "new.json", _summary(better))
        baseline = tmp_path / "baselines.json"
        assert main(["bench", "gate", "--summary", old,
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        named = f"CHANGED: {KEY}: baseline 10.0, current {better!r}"
        assert main(["bench", "gate", "--summary", new,
                     "--baseline", str(baseline)]) == 1
        assert named in capsys.readouterr().out
        assert main(["bench", "compare", old, new]) == 1
        assert named in capsys.readouterr().out

    def test_gate_reports_new_keys_without_failing(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baselines.json"
        seeded = self._write(tmp_path / "seed.json", _summary(10.0))
        assert main(["bench", "gate", "--summary", seeded,
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        newcomer = self._write(
            tmp_path / "new.json", _summary(10.0, benchmark="newcomer")
        )
        assert main(["bench", "gate", "--summary", newcomer,
                     "--baseline", str(baseline)]) == 0
        assert "1 metrics have no baseline yet" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["gate", "compare"])
    def test_tolerance_flag_is_gone(self, tmp_path, command, capsys):
        from repro.cli import main

        good = self._write(tmp_path / "good.json", _summary(10.0))
        argv = (
            ["bench", "gate", "--summary", good]
            if command == "gate" else ["bench", "compare", good, good]
        )
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--tolerance", "20%"])
        assert excinfo.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_compare_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        old = self._write(tmp_path / "old.json", _summary(10.0))
        same = self._write(tmp_path / "same.json", _summary(10.0))
        moved = self._write(tmp_path / "moved.json", _summary(10.5))
        assert main(["bench", "compare", old, same]) == 0
        assert main(["bench", "compare", old, moved]) == 1
        assert "1 changed" in capsys.readouterr().out

    def test_compare_cross_tier_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        smoke = self._write(tmp_path / "smoke.json", _summary(10.0))
        full = self._write(
            tmp_path / "full.json", _summary(10.0, tier="full")
        )
        assert main(["bench", "compare", full, smoke]) == 2
        assert "tier" in capsys.readouterr().err

    def test_run_cli_with_toy_benchmark(self, toy_benchmark, tmp_path, capsys):
        from repro.cli import main

        summary_path = tmp_path / "summary.json"
        code = main([
            "bench", "run", "--only", "toy", "--tier", "smoke",
            "--results-dir", str(tmp_path), "--summary", str(summary_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "toy" in out and "ok" in out
        summary = json.loads(summary_path.read_text())
        validate_summary(summary)
        assert summary["tier"] == "smoke"
        assert (tmp_path / "toy.smoke.json").exists()

    def test_run_cli_reports_qualitative_failures(self, tmp_path, capsys):
        from repro.cli import main

        bench = register(
            Benchmark(
                name="toy-failing",
                tier="smoke",
                runner=_toy_runner,
                params={"value": 1.0, "fail": True},
            )
        )
        try:
            code = main([
                "bench", "run", "--only", "toy-failing",
                "--results-dir", str(tmp_path),
                "--summary", str(tmp_path / "s.json"),
            ])
        finally:
            REGISTRY.pop(bench.name, None)
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: toy-failing: toy check failed" in out

    def test_run_cli_unknown_benchmark_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "bench", "run", "--only", "no-such-bench",
            "--results-dir", str(tmp_path),
            "--summary", str(tmp_path / "s.json"),
        ])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestCheckedInArtifacts:
    """The repo's pinned perf trajectory stays coherent."""

    def test_baselines_file_is_valid_and_covers_tiers(self):
        from repro.bench.gate import load_baselines

        baselines = load_baselines(BENCH_DIR / "baselines.json")
        assert set(baselines["tiers"]) == {"smoke", "full", "nightly"}
        smoke_benchmarks = {
            key.split("/", 1)[0]
            for key in baselines["tiers"]["smoke"]
        }
        # Every smoke-tier benchmark pins rows at every tier: digests,
        # counts, beats and probabilities, all simulation-deterministic.
        assert smoke_benchmarks == {
            "engines", "gvss_stack", "link_conditions",
            "protocol_comparison", "pulse_precision", "runtime_throughput",
            "stabilization_under_churn",
        }
        for tier in ("smoke", "full", "nightly"):
            engine_keys = [
                key for key in baselines["tiers"][tier]
                if key.startswith("engines/trajectory_match")
            ]
            assert len(engine_keys) == 6  # 3 engines x 2 digest cases
