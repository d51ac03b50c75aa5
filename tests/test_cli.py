"""CLI behaviour: every command runs, is deterministic, and exits cleanly."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    COIN_REGISTRY,
    PROTOCOL_REGISTRY,
)
from repro.cli import build_parser, main


class TestRun:
    def test_run_converges(self, capsys):
        code = main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged at beat" in out

    def test_run_with_adversary(self, capsys):
        code = main(
            [
                "run",
                "--n", "4", "--f", "1", "--k", "8",
                "--adversary", "equivocator",
                "--seed", "2",
            ]
        )
        assert code == 0

    def test_run_gvss_coin(self, capsys):
        code = main(
            ["run", "--n", "4", "--f", "1", "--k", "8", "--coin", "gvss",
             "--seed", "3", "--beats", "80"]
        )
        assert code == 0

    def test_run_nonconvergence_exit_code(self, capsys):
        # The local coin at a hard size within a tiny budget: must report
        # failure through the exit code rather than pretending.
        code = main(
            ["run", "--n", "10", "--f", "3", "--k", "8", "--coin", "local",
             "--seed", "1", "--beats", "10"]
        )
        assert code == 1
        assert "did not converge" in capsys.readouterr().out

    def test_run_deterministic(self, capsys):
        main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "7"])
        first = capsys.readouterr().out
        main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second


class TestLinkFlags:
    def test_run_with_lossy_link(self, capsys):
        code = main(
            ["run", "--n", "4", "--f", "1", "--k", "8", "--seed", "1",
             "--link", "lossy", "--link-param", "loss=0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "link=lossy" in out
        assert "dropped" in out

    def test_run_perfect_link_matches_default(self, capsys):
        main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "7"])
        default = capsys.readouterr().out
        main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "7",
              "--link", "perfect"])
        explicit = capsys.readouterr().out
        assert default == explicit

    def test_links_listing(self, capsys):
        code = main(["links"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("perfect", "delay", "lossy", "partition"):
            assert name in out

    def test_bad_link_param_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--link", "lossy", "--link-param", "loss"])
        with pytest.raises(SystemExit):
            main(["run", "--link", "lossy", "--link-param", "loss=high"])

    def test_out_of_range_link_param_clean_exit(self, capsys):
        """A well-formed but invalid value exits 2, not a traceback."""
        code = main(
            ["run", "--n", "4", "--f", "1", "--k", "8",
             "--link", "lossy", "--link-param", "loss=2.0"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "loss" in err

    def test_nonconvergence_message_keeps_separator(self, capsys):
        code = main(
            ["run", "--n", "4", "--f", "1", "--k", "8", "--seed", "1",
             "--beats", "6", "--link", "lossy", "--link-param", "loss=0.4"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "beats, " in out and "dropped" in out

    def test_campaign_params_routed_per_model(self, capsys):
        """One --link-param pool parameterizes every model on the axis."""
        code = main(
            ["campaign", "--n", "4", "--k", "6", "--seeds", "1",
             "--beats", "40", "--workers", "1",
             "--link", "delay", "lossy",
             "--link-param", "max_delay=1", "--link-param", "loss=0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delay(d=1)" in out and "lossy(p=0.05)" in out

    def test_campaign_link_axis(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--k", "6", "--seeds", "1",
             "--beats", "60", "--workers", "1",
             "--link", "perfect", "lossy", "--link-param", "loss=0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 2 scenarios x 1 seeds" in out
        assert "lossy(p=0.05)" in out

    def test_campaign_bad_link_params_exit_code(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--seeds", "1", "--workers", "1",
             "--link", "delay", "--link-param", "warp=2"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "delay" in err

    def test_campaign_timing_axis(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--k", "6", "--seeds", "1",
             "--beats", "30", "--workers", "1",
             "--timing", "0.005:0:0.1:1", "0:0:0:1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 2 scenarios x 1 seeds" in out
        assert "timing[rho=0.005,d=0.0-0.1,period=1.0]" in out
        assert "timing[rho=0.0,d=0.0-0.0,period=1.0]" in out

    def test_campaign_malformed_timing_exit_code(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--seeds", "1", "--workers", "1",
             "--timing", "0.005:0"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "RHO:DMIN:DMAX:PERIOD" in err

    def test_campaign_timing_rejects_link_axis(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--seeds", "1", "--workers", "1",
             "--timing", "0.005:0:0.1:1", "--link", "delay"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "does not support ['link']" in err

    def test_run_timing_runs_continuous_time(self, capsys):
        code = main(
            ["run", "--n", "4", "--f", "1", "--k", "6", "--seed", "0",
             "--beats", "40", "--timing", "0.005:0:0.1:1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "timing[rho=0.005,d=0.0-0.1,period=1.0]" in out
        assert "continuous time: max pulse skew" in out

    def test_run_malformed_timing_exit_code(self, capsys):
        code = main(["run", "--n", "4", "--f", "1", "--timing", "0.005:0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "RHO:DMIN:DMAX:PERIOD" in err

    @pytest.mark.parametrize("flag,value", [
        ("--drift", "0.005"), ("--delay-bounds", "0:0.1"),
        ("--pulse-period", "1"),
    ])
    def test_run_takes_timing_only_through_timing_flag(self, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--n", "4", "--f", "1", flag, value])
        assert excinfo.value.code == 2


class TestProtocolFlags:
    def test_protocols_listing(self, capsys):
        code = main(["protocols"])
        out = capsys.readouterr().out
        assert code == 0
        for name in PROTOCOL_REGISTRY:
            assert name in out
        assert "(default)" in out

    @pytest.mark.parametrize(
        "protocol", ["deterministic", "phase-king"]
    )
    def test_run_protocol_converges(self, protocol, capsys):
        code = main(
            ["run", "--n", "4", "--f", "1", "--k", "8", "--seed", "1",
             "--protocol", protocol]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged at beat" in out
        assert protocol in out

    def test_run_default_protocol_unchanged(self, capsys):
        main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "7"])
        implicit = capsys.readouterr().out
        main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "7",
              "--protocol", "clock-sync"])
        explicit = capsys.readouterr().out
        assert implicit == explicit

    def test_unknown_protocol_clean_exit_2(self, capsys):
        """Registry error path: argparse rejects the name with exit 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--protocol", "quantum"])
        assert excinfo.value.code == 2
        assert "quantum" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--protocol", "quantum"])
        assert excinfo.value.code == 2

    def test_runtime_protocol_flag(self, capsys):
        code = main(
            ["runtime", "--n", "4", "--f", "1", "--k", "6",
             "--protocol", "phase-king", "--seed", "0", "--beats", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "live phase-king" in out
        assert "converged at beat" in out

    def test_campaign_protocol_axis(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--k", "6", "--seeds", "1",
             "--beats", "150", "--workers", "1",
             "--protocol", "clock-sync", "deterministic"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 2 scenarios x 1 seeds" in out
        assert "deterministic" in out


class TestScenarioFlagBlock:
    """The scenario flags are declared once and read the registries."""

    def test_registered_names_reach_every_subcommand(self, monkeypatch):
        monkeypatch.setitem(COIN_REGISTRY, "mine", COIN_REGISTRY["oracle"])
        monkeypatch.setitem(
            PROTOCOL_REGISTRY, "mine", PROTOCOL_REGISTRY["clock-sync"]
        )
        monkeypatch.setitem(ADVERSARY_REGISTRY, "mine", None)
        parser = build_parser()
        for command in ("run", "runtime", "campaign"):
            args = parser.parse_args(
                [command, "--coin", "mine", "--protocol", "mine",
                 "--adversary", "mine"]
            )
            assert args.coin == "mine"
        args = parser.parse_args(["coin", "--coin", "mine", "--adversary", "mine"])
        assert (args.coin, args.adversary) == ("mine", "mine")

    @pytest.mark.parametrize("argv", [
        ["demo"],
        ["run", "--mobility"],
        ["run", "--adaptive"],
        ["campaign", "--mobility"],
        ["runtime", "--engine", "bulk"],
    ])
    def test_removed_second_spellings_are_argparse_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestEngineFlags:
    def test_engines_listing_prints_descriptions(self, capsys):
        from repro.net.engine import ENGINES

        code = main(["engines"])
        out = capsys.readouterr().out
        assert code == 0
        assert set(ENGINES) == {"reference", "fast", "bulk"}
        for name, engine_cls in ENGINES.items():
            assert name in out
            assert engine_cls.description in out
        assert "(default)" in out

    def test_run_engine_flag_bit_identical_to_default(self, capsys):
        main(["run", "--n", "4", "--f", "1", "--k", "10", "--seed", "7"])
        default = capsys.readouterr().out
        code = main(["run", "--n", "4", "--f", "1", "--k", "10",
                     "--seed", "7", "--engine", "bulk"])
        bulk = capsys.readouterr().out
        assert code == 0
        assert default == bulk

    def test_run_reference_engine_selectable(self, capsys):
        code = main(["run", "--n", "4", "--f", "1", "--k", "10",
                     "--seed", "7", "--engine", "reference"])
        assert code == 0
        assert "converged at beat" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "campaign"])
    def test_unknown_engine_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--engine", "warp"])
        assert excinfo.value.code == 2
        assert "warp" in capsys.readouterr().err


class TestOtherCommands:
    def test_table1(self, capsys):
        code = main(
            ["table1", "--n", "4", "--f", "1", "--k", "4", "--seeds", "2",
             "--beats", "300"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "current paper" in out
        assert "deterministic" in out

    def test_coin_stream(self, capsys):
        code = main(["coin", "--n", "4", "--f", "1", "--beats", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement: 10/10" in out

    def test_coin_stream_under_mixed_dealing_reports_divergence(self, capsys):
        code = main(
            ["coin", "--n", "4", "--f", "1", "--beats", "10",
             "--adversary", "mixed-dealing", "--seed", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "divergent" in out

    def test_adversaries_listing(self, capsys):
        code = main(["adversaries"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ADVERSARY_REGISTRY:
            assert name in out

    def test_engines_listing(self, capsys):
        code = main(["engines"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fast" in out and "reference" in out
        assert "(default)" in out

    def test_transports_listing(self, capsys):
        code = main(["transports"])
        out = capsys.readouterr().out
        assert code == 0
        assert "local" in out and "tcp" in out
        assert "(default)" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRuntimeCommand:
    def test_runtime_converges_and_writes_trace(self, tmp_path, capsys):
        from repro.net.trace import records_from_jsonl

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "runtime",
                "--n", "4", "--f", "1", "--k", "6",
                "--adversary", "equivocator",
                "--seed", "0", "--beats", "30",
                "--trace", str(trace_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged at beat" in out
        assert "transport=local" in out
        records = records_from_jsonl(trace_path.read_text(encoding="utf-8"))
        assert [r.beat for r in records] == list(range(30))

    def test_runtime_deterministic(self, capsys):
        def run_once():
            code = main(
                ["runtime", "--n", "4", "--f", "1", "--k", "6",
                 "--seed", "3", "--beats", "12", "--show", "12"]
            )
            out = capsys.readouterr().out
            assert code in (0, 1)
            # Strip the wall-clock rate tail; beats are what determinism pins.
            return [line for line in out.splitlines() if line.startswith("  beat")]

        assert run_once() == run_once()

    def test_runtime_tcp_transport(self, capsys):
        code = main(
            ["runtime", "--n", "4", "--f", "1", "--k", "6",
             "--seed", "0", "--beats", "25", "--transport", "tcp"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "transport=tcp" in out

    def test_runtime_bad_sizes_clean_exit(self, capsys):
        code = main(["runtime", "--n", "3", "--f", "1", "--beats", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_runtime_nonconvergence_exit_code(self, capsys):
        # Two beats cannot witness convergence-plus-closure from scramble.
        code = main(
            ["runtime", "--n", "4", "--f", "1", "--k", "6",
             "--seed", "0", "--beats", "2"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "did not converge" in out

    def test_runtime_codec_flag_changes_bytes_not_beats(self, capsys):
        def beats(codec):
            code = main(
                ["runtime", "--n", "4", "--f", "1", "--k", "6",
                 "--seed", "0", "--beats", "25", "--codec", codec,
                 "--show", "12"]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert f"codec={codec}" in out
            return [line for line in out.splitlines()
                    if line.startswith("  beat")]

        assert beats("binary") == beats("json")

    def test_runtime_unknown_codec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["runtime", "--n", "4", "--f", "1", "--codec", "morse"])
        assert excinfo.value.code == 2
        assert "--codec" in capsys.readouterr().err


class TestCodecsCommand:
    def test_codecs_lists_registry_with_default(self, capsys):
        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        assert "json" in out
        assert "binary" in out
        assert "(default)" in out


class TestClusterCommand:
    def test_cluster_run_smoke_spec(self, tmp_path, capsys):
        from repro.net.trace import records_from_jsonl

        code = main(
            ["cluster", "run", "examples/cluster_smoke.py",
             "--trace-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster smoke-n4:" in out
        assert "converged at beat" in out
        trace = (tmp_path / "smoke-n4.jsonl").read_text(encoding="utf-8")
        assert [r.beat for r in records_from_jsonl(trace)] == list(range(12))

    def test_cluster_codec_override_and_only_filter(self, capsys):
        code = main(
            ["cluster", "run", "examples/cluster_smoke.py",
             "--only", "smoke-n4", "--codec", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "codec=json" in out

    def test_cluster_unknown_experiment_exits_2(self, capsys):
        code = main(
            ["cluster", "run", "examples/cluster_smoke.py",
             "--only", "no-such-experiment"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cluster_bad_spec_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("experiments = []\n", encoding="utf-8")
        code = main(["cluster", "run", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cluster_unknown_codec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "run", "examples/cluster_smoke.py",
                  "--codec", "morse"])
        assert excinfo.value.code == 2
        assert "--codec" in capsys.readouterr().err


class TestBenchIsGone:
    """The pinned experiments run through ``tools/pins.py``, not the CLI."""

    @pytest.mark.parametrize("argv", [["bench", "list"], ["bench", "run"]])
    def test_bench_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestTraceCommand:
    """`repro trace` — the differential discipline as a shell command."""

    def _write_pair(self, tmp_path, protocol, capsys, beats=10):
        sim = tmp_path / f"{protocol}.sim.jsonl"
        live = tmp_path / f"{protocol}.rt.jsonl"
        code = main(
            ["run", "--n", "4", "--f", "1", "--k", "6",
             "--protocol", protocol, "--seed", "0",
             "--beats", str(beats), "--no-early-stop",
             "--trace", str(sim)]
        )
        assert code in (0, 1)
        code = main(
            ["runtime", "--n", "4", "--f", "1", "--k", "6",
             "--protocol", protocol, "--seed", "0",
             "--beats", str(beats), "--trace", str(live)]
        )
        assert code in (0, 1)
        capsys.readouterr()
        return sim, live

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_diff_simulator_vs_runtime_matches_per_protocol(
        self, protocol, tmp_path, capsys
    ):
        sim, live = self._write_pair(tmp_path, protocol, capsys)
        code = main(["trace", "diff", str(sim), str(live)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "traces match: 10 records" in out

    @pytest.mark.parametrize("adversary", ["none", "equivocator"])
    def test_diff_lock_step_vs_zero_timing_matches(
        self, adversary, tmp_path, capsys
    ):
        """Zero drift and delay: the event engine replays lock-step."""
        traces = []
        for extra in ([], ["--timing", "0:0:0:1"]):
            path = tmp_path / f"{len(traces)}.jsonl"
            code = main(
                ["run", "--n", "4", "--f", "1", "--k", "6", "--seed", "0",
                 "--adversary", adversary, "--beats", "20",
                 "--no-early-stop", "--trace", str(path), *extra]
            )
            assert code in (0, 1)
            traces.append(str(path))
        capsys.readouterr()
        code = main(["trace", "diff", *traces])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "traces match: 20 records" in out

    def test_diff_reports_first_divergent_beat(self, tmp_path, capsys):
        sim, live = self._write_pair(tmp_path, "clock-sync", capsys)
        lines = sim.read_text(encoding="utf-8").splitlines()
        import json as _json

        record = _json.loads(lines[5])
        node = sorted(record["values"])[0]
        record["values"][node] = 99
        lines[5] = _json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["trace", "diff", str(sim), str(corrupted)])
        out = capsys.readouterr().out
        assert code == 1
        assert "traces diverge at beat 5" in out
        assert f"node {node}:" in out

    def test_diff_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["trace", "diff", str(tmp_path / "a.jsonl"),
             str(tmp_path / "b.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_summarizes_trace(self, tmp_path, capsys):
        sim, _live = self._write_pair(tmp_path, "clock-sync", capsys, beats=20)
        code = main(["trace", "inspect", str(sim), "--k", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace {sim}" in out
        assert "beats" in out
        assert "converged" in out

    def test_inspect_series_prints_node_trajectory(self, tmp_path, capsys):
        sim, _live = self._write_pair(tmp_path, "clock-sync", capsys)
        code = main(
            ["trace", "inspect", str(sim), "--k", "6", "--series", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "node 0 :" in out

    def test_inspect_garbage_exits_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n", encoding="utf-8")
        code = main(["trace", "inspect", str(garbage)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMetricsExport:
    def _metrics_file(self, tmp_path, capsys, fmt="json"):
        path = tmp_path / ("metrics.json" if fmt == "json" else "metrics.prom")
        code = main(
            ["runtime", "--n", "4", "--f", "1", "--k", "6",
             "--seed", "0", "--beats", "20",
             "--metrics-out", str(path), "--metrics-format", fmt]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote {fmt} metrics to {path}" in out
        return path, out

    def test_runtime_metrics_out_writes_valid_document(self, tmp_path, capsys):
        import json as _json

        from repro.obs import validate_metrics_json

        path, out = self._metrics_file(tmp_path, capsys)
        document = _json.loads(path.read_text(encoding="utf-8"))
        validate_metrics_json(document)
        names = {metric["name"] for metric in document["metrics"]}
        assert "runtime_messages_sent_total" in names
        assert "runtime_frames_sent_total" in names
        assert "runtime_beats_total" in names
        # The summary now also surfaces barrier health and frame counts.
        assert "health" in out
        assert "frames" in out

    def test_runtime_metrics_prometheus_format(self, tmp_path, capsys):
        path, _out = self._metrics_file(tmp_path, capsys, fmt="prometheus")
        text = path.read_text(encoding="utf-8")
        assert "# TYPE runtime_messages_sent_total counter" in text

    def test_trace_metrics_renders_prometheus(self, tmp_path, capsys):
        path, _out = self._metrics_file(tmp_path, capsys)
        code = main(["trace", "metrics", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE runtime_messages_sent_total counter" in out
        assert "runtime_messages_sent_total " in out

    def test_trace_metrics_json_round_trip(self, tmp_path, capsys):
        import json as _json

        path, _out = self._metrics_file(tmp_path, capsys)
        code = main(["trace", "metrics", str(path), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert _json.loads(out) == _json.loads(
            path.read_text(encoding="utf-8")
        )

    def test_trace_metrics_rejects_non_metrics_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "other/1"}\n', encoding="utf-8")
        code = main(["trace", "metrics", str(bogus)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cluster_metrics_dir(self, tmp_path, capsys):
        import json as _json

        from repro.obs import validate_metrics_json

        code = main(
            ["cluster", "run", "examples/cluster_smoke.py",
             "--only", "smoke-n4", "--metrics-out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "health" in out
        document = _json.loads(
            (tmp_path / "smoke-n4.metrics.json").read_text(encoding="utf-8")
        )
        validate_metrics_json(document)
        names = {metric["name"] for metric in document["metrics"]}
        assert "runtime_frames_sent_total" in names


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--n", "4", "--f", "1",
             "--k", "6", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-1500:]
        assert "converged" in result.stdout
