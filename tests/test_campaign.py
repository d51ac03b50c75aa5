"""Campaign subsystem: picklable specs, parallel sweeps, determinism."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    PROTOCOL_REGISTRY,
    ScenarioSpec,
    campaign_to_json,
    iter_campaign,
    run_campaign,
    scenario_grid,
)
from repro.analysis import campaign
from repro.analysis.experiments import run_sweep, run_trial
from repro.cli import main
from repro.errors import ConfigurationError, ResilienceError

FAST_SPEC = ScenarioSpec(
    n=4, f=1, k=6, max_beats=150, coin_p0=0.4, coin_p1=0.4, coin_rounds=2
)


class TestScenarioSpec:
    def test_picklable(self):
        spec = FAST_SPEC
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    @pytest.mark.parametrize("name", sorted(ADVERSARY_REGISTRY))
    def test_build_adversary_is_fresh_per_call(self, name):
        spec = ScenarioSpec(n=4, f=1, k=6, adversary=name)
        first, second = spec.build_adversary(), spec.build_adversary()
        if ADVERSARY_REGISTRY[name] is None:
            assert first is None and second is None
            return
        assert first is not second  # a fresh instance per trial
        assert type(first) is ADVERSARY_REGISTRY[name]

    @pytest.mark.parametrize("name", sorted(PROTOCOL_REGISTRY))
    def test_root_factory_builds_one_root_per_node(self, name):
        factory = ScenarioSpec(n=4, f=1, k=6, protocol=name).root_factory()
        roots = [factory(node) for node in range(4)]
        assert len({id(root) for root in roots}) == 4
        assert {type(root) for root in roots} == {type(roots[0])}

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=4, f=1, k=6, protocol="quantum").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=4, f=1, k=6, coin="quantum").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=4, f=1, k=6, adversary="nobody").validate()

    @pytest.mark.parametrize("coin", ["gvss", "local"])
    @pytest.mark.parametrize("tuning", [
        {"coin_p0": 0.3}, {"coin_p1": 0.3}, {"coin_rounds": 3},
    ])
    def test_tuning_another_coin_rejected(self, coin, tuning):
        """Oracle tuning on another coin would be silently ignored."""
        spec = ScenarioSpec(n=4, f=1, k=6, coin=coin, **tuning)
        with pytest.raises(ConfigurationError, match="oracle"):
            spec.validate()
        with pytest.raises(ConfigurationError, match="oracle"):
            run_trial(spec, 0)

    def test_label_mentions_grid_point(self):
        label = ScenarioSpec(n=7, f=2, k=8, adversary="crash").label
        assert "n=7" in label and "k=8" in label and "crash" in label

    def test_label_names_the_oracle_tuning(self):
        """Specs differing only in tuning get different campaign rows."""
        assert FAST_SPEC.label.startswith(
            "clock-sync oracle[p0=0.4,p1=0.4,rounds=2] n=4"
        )

    @pytest.mark.parametrize("field", ["coin_p0", "coin_p1", "coin_rounds"])
    def test_label_separates_each_tuning_field(self, field):
        bumped = {"coin_p0": 0.3, "coin_p1": 0.3, "coin_rounds": 3}[field]
        other = dataclasses.replace(FAST_SPEC, **{field: bumped})
        assert other.label != FAST_SPEC.label
        untuned = dataclasses.replace(FAST_SPEC, **{field: None})
        assert untuned.label != FAST_SPEC.label

    def test_registries_cover_cli_surface(self):
        assert "none" in ADVERSARY_REGISTRY
        assert "clock-sync" in PROTOCOL_REGISTRY

    def test_baseline_protocols_build(self):
        for protocol in ("deterministic", "dolev-welch"):
            spec = ScenarioSpec(n=4, f=1, k=6, protocol=protocol)
            root = spec.root_factory()(0)
            assert root.modulus == 6


class TestScenarioGrid:
    def test_derives_optimal_f(self):
        specs = scenario_grid([4, 7, 10], ks=[8])
        assert [(s.n, s.f) for s in specs] == [(4, 1), (7, 2), (10, 3)]

    def test_full_matrix(self):
        specs = scenario_grid([4, 7], ks=[4, 8], adversaries=["none", "crash"])
        assert len(specs) == 8

    def test_pinned_f(self):
        specs = scenario_grid([6, 9], fs=[2, 3], ks=[2])
        assert [(s.n, s.f) for s in specs] == [(6, 2), (9, 3)]

    def test_f_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_grid([4, 7], fs=[1])

    def test_one_shot_iterables_fully_expanded(self):
        specs = scenario_grid(
            iter([4, 7]), ks=iter([4, 8]), adversaries=iter(["none", "crash"])
        )
        assert len(specs) == 8

    def test_common_kwargs_forwarded(self):
        (spec,) = scenario_grid([4], ks=[6], max_beats=99, engine="reference")
        assert spec.max_beats == 99 and spec.engine == "reference"


class TestRunCampaign:
    def test_matches_run_sweep(self):
        sweep = run_sweep(FAST_SPEC, seeds=range(3))
        (entry,) = run_campaign([FAST_SPEC], seeds=range(3), workers=1)
        assert entry.sweep.results == sweep.results

    def test_worker_count_does_not_change_results(self):
        serial = run_campaign([FAST_SPEC], seeds=range(4), workers=1)
        parallel = run_campaign([FAST_SPEC], seeds=range(4), workers=2)
        assert serial[0].sweep.results == parallel[0].sweep.results

    def test_entries_in_spec_order_with_streaming_iter(self):
        specs = scenario_grid([4, 7], ks=[6], max_beats=150)
        entries = run_campaign(specs, seeds=range(2), workers=2)
        assert [entry.index for entry in entries] == [0, 1]
        assert [entry.spec.n for entry in entries] == [4, 7]
        streamed = list(iter_campaign(specs, seeds=range(2), workers=1))
        assert {entry.spec.n for entry in streamed} == {4, 7}

    def test_early_exit_saves_beats(self):
        (entry,) = run_campaign([FAST_SPEC], seeds=range(3), workers=1)
        mean_beats = sum(r.beats_run for r in entry.sweep.results) / 3
        assert entry.sweep.success_rate == 1.0
        assert mean_beats < FAST_SPEC.max_beats / 2

    def test_progress_callback(self):
        calls = []
        run_campaign(
            [FAST_SPEC],
            seeds=range(2),
            workers=1,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]

    def test_empty_campaign(self):
        assert run_campaign([], seeds=range(3)) == []
        assert run_campaign([FAST_SPEC], seeds=[]) == []

    def test_duplicate_seeds_supported(self):
        for workers in (1, 2):
            (entry,) = run_campaign(
                [FAST_SPEC], seeds=[0, 0, 1], workers=workers
            )
            results = entry.sweep.results
            assert len(results) == 3
            assert results[0] == results[1]  # deterministic repeat
            assert [r.seed for r in results] == [0, 0, 1]

    def test_out_of_range_scramble_beats_rejected(self):
        spec = ScenarioSpec(n=4, f=1, k=6, max_beats=100, scramble_beats=(200,))
        with pytest.raises(ConfigurationError):
            spec.validate()
        with pytest.raises(ConfigurationError):
            list(iter_campaign([spec], seeds=range(2)))

    @pytest.mark.parametrize("overrides,error", [
        ({"n": 3, "f": 1}, ResilienceError),
        ({"engine": "warp"}, ConfigurationError),
        ({"max_beats": 0}, ConfigurationError),
    ])
    def test_unrunnable_axes_rejected_before_any_trial(
        self, overrides, error, monkeypatch
    ):
        """f >= n/3, an unknown engine and an empty budget fail in the
        driving process — not beats into a (pool) worker's trial."""
        monkeypatch.setattr(
            campaign, "run_trial", lambda *_: pytest.fail("a trial started")
        )
        spec = ScenarioSpec(**{"n": 4, "f": 1, "k": 6, **overrides})
        with pytest.raises(error):
            spec.validate()
        with pytest.raises(error):
            list(iter_campaign([spec], seeds=range(2), workers=1))

    def test_fault_schedule_measures_recovery(self):
        spec = ScenarioSpec(
            n=4, f=1, k=6, max_beats=200, scramble_beats=(30,),
            coin_p0=0.4, coin_p1=0.4, coin_rounds=2,
        )
        (entry,) = run_campaign([spec], seeds=range(2), workers=1)
        for result in entry.sweep.results:
            # Convergence is measured from the scheduled mid-run fault.
            assert result.converged
            assert result.converged_beat >= 30
            assert result.beats_run > 30


class TestCampaignJson:
    def test_records_shape(self):
        entries = run_campaign([FAST_SPEC], seeds=range(2), workers=1)
        (record,) = campaign_to_json(entries)
        assert record["trials"] == 2
        assert record["success_rate"] == 1.0
        assert record["spec"]["n"] == 4
        assert len(record["latencies"]) == 2
        assert record["mean_beats_run"] < FAST_SPEC.max_beats

    def test_orders_by_index(self):
        specs = scenario_grid([4, 7], ks=[6], max_beats=150)
        entries = run_campaign(specs, seeds=range(1), workers=1)
        records = campaign_to_json(reversed(entries))
        assert [r["spec"]["n"] for r in records] == [4, 7]


class TestCampaignCli:
    def test_campaign_command_runs(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--k", "6", "--seeds", "2",
             "--beats", "150", "--workers", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 1 scenarios x 2 seeds" in out
        assert "success" in out

    def test_campaign_json_output(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        code = main(
            ["campaign", "--n", "4", "--k", "6", "--seeds", "2",
             "--beats", "150", "--workers", "1", "--json", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        assert path.exists()

    def test_campaign_f_mismatch_errors(self, capsys):
        code = main(
            ["campaign", "--n", "4", "7", "--f", "1", "--seeds", "1",
             "--workers", "1"]
        )
        capsys.readouterr()
        assert code == 2

    def test_campaign_bad_fault_schedule_errors(self, capsys):
        code = main(
            ["campaign", "--n", "4", "--seeds", "1", "--beats", "100",
             "--scramble-beats", "900", "--workers", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "scramble_beats" in err

    def test_campaign_deterministic(self, capsys):
        argv = ["campaign", "--n", "4", "--k", "6", "--seeds", "2",
                "--beats", "150", "--workers", "1"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        # Strip the wall-clock line; everything measured must match.
        strip = lambda text: [
            line for line in text.splitlines() if "trials in" not in line
        ]
        assert strip(first) == strip(second)
