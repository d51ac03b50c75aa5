"""Analysis toolkit: monitors, statistics, trial harness, table rendering."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary import EquivocatorAdversary
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.campaign import ScenarioSpec
from repro.analysis.experiments import run_sweep, run_trial
from repro.analysis.stats import (
    geometric_tail_rate,
    mean,
    median,
    quantile,
    summarize,
)
from repro.analysis.tables import render_table, table1_comparison
from repro.errors import ConfigurationError


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_median_odd_even(self):
        assert median([1, 9, 5]) == 5
        assert median([1, 3]) == 2

    def test_quantile_bounds(self):
        values = list(range(11))
        assert quantile(values, 0.0) == 0
        assert quantile(values, 1.0) == 10
        assert quantile(values, 0.5) == 5

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            quantile([1], 1.5)
        with pytest.raises(ValueError):
            quantile([], 0.5)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_quantile_monotone(self, values):
        assert quantile(values, 0.2) <= quantile(values, 0.8)

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.maximum == 4.0
        assert "mean=2.50" in str(summary)

    def test_geometric_tail_rate(self):
        # Latency constantly 4 -> per-beat success ~ 1/4.
        assert geometric_tail_rate([4, 4, 4, 4]) == pytest.approx(0.25)

    def test_geometric_tail_rate_clamps_zero(self):
        assert geometric_tail_rate([0, 0]) == 1.0

    def test_geometric_tail_rate_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_tail_rate([])


class TestMonitorQueries:
    def _monitor_with(self, history, k=10):
        monitor = ClockConvergenceMonitor(k=k)
        monitor.history = [tuple(h) for h in history]
        return monitor

    def test_synched_now(self):
        assert self._monitor_with([(1, 1)]).synched_now()
        assert not self._monitor_with([(1, 2)]).synched_now()
        assert not self._monitor_with([]).synched_now()

    def test_convergence_beat_with_offset(self):
        history = [(0, 1), (5, 5), (6, 6), (7, 7)]
        monitor = self._monitor_with(history)
        assert monitor.convergence_beat() == 1
        assert monitor.convergence_beat(from_beat=2) == 2
        assert monitor.beats_to_converge(from_beat=2) == 0

    def test_stayed_in_closure(self):
        history = [(5, 5), (6, 6), (7, 7)]
        assert self._monitor_with(history).stayed_in_closure(0)
        assert not self._monitor_with([(5, 5), (5, 5)]).stayed_in_closure(0)


class TestTrialHarness:
    def _spec(self, **overrides):
        base = dict(
            n=4, f=1, k=6, coin_p0=0.4, coin_p1=0.4, coin_rounds=2,
            max_beats=150,
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_run_trial_converges(self):
        result = run_trial(self._spec(), seed=0)
        assert result.converged
        assert result.converged_beat is not None
        # Early stop: convergence + the closure window, not the full budget.
        assert result.converged_beat < result.beats_run < 150
        assert result.total_messages > 0
        assert len(result.history) == result.beats_run

    def test_early_stop_disabled_burns_full_budget(self):
        result = run_trial(self._spec(early_stop=False), seed=0)
        assert result.converged
        assert result.beats_run == 150
        assert len(result.history) == 150

    def test_early_stop_observes_closure_window(self):
        for window in (5, 20):
            result = run_trial(self._spec(closure_window=window), seed=0)
            assert result.converged
            # At least `window` closure beats follow the convergence beat.
            assert result.beats_run >= result.converged_beat + window

    def test_unconverged_trial_runs_full_budget(self):
        # The local-coin row does not converge at n=10 in 40 beats, so
        # nothing early-stops.
        spec = ScenarioSpec(n=10, f=3, k=6, protocol="dolev-welch",
                            max_beats=40)
        result = run_trial(spec, seed=0)
        assert not result.converged
        assert result.beats_run == 40

    def test_out_of_range_fault_schedule_rejected(self):
        spec = self._spec(scramble_beats=(150,))
        with pytest.raises(ConfigurationError):
            run_trial(spec, seed=0)

    def test_mid_run_fault_schedule_measured_from_last_fault(self):
        result = run_trial(self._spec(scramble_beats=(40,)), seed=0)
        assert result.converged
        assert result.converged_beat >= 40

    def test_trial_deterministic_per_seed(self):
        a = run_trial(self._spec(), seed=7)
        b = run_trial(self._spec(), seed=7)
        assert a.history == b.history

    def test_messages_per_beat(self):
        result = run_trial(self._spec(), seed=1)
        assert result.messages_per_beat == pytest.approx(
            result.total_messages / result.beats_run
        )

    def test_sweep_aggregates(self):
        sweep = run_sweep(self._spec(), seeds=range(4))
        assert len(sweep.results) == 4
        assert sweep.success_rate == 1.0
        assert sweep.failure_count == 0
        summary = sweep.latency_summary()
        assert summary.count == 4
        assert sweep.mean_messages_per_beat > 0

    def test_no_scramble_option(self):
        result = run_trial(self._spec(scramble=False), seed=2)
        # From the clean initial state the system is synched almost at once.
        assert result.converged_beat is not None
        assert result.converged_beat <= 10

    def test_adversary_keyword_overrides_the_named_adversary(self):
        named = run_trial(self._spec(adversary="equivocator"), seed=3)
        handed = run_trial(self._spec(), seed=3, adversary=EquivocatorAdversary())
        assert handed == named
        assert handed != run_trial(self._spec(), seed=3)

    def test_trace_keyword_keeps_per_beat_records(self):
        traced = run_trial(self._spec(), seed=0, trace=True)
        plain = run_trial(self._spec(), seed=0)
        assert len(traced.records) == traced.beats_run
        assert len(traced.to_jsonl().splitlines()) == traced.beats_run
        # Tracing observes the run; it does not change it.
        assert dataclasses.replace(traced, records=()) == plain
        with pytest.raises(ConfigurationError):
            plain.to_jsonl()

    def test_trial_validates_its_spec_once(self, monkeypatch):
        calls = []
        validate = ScenarioSpec.validate

        def counting(spec):
            calls.append(spec)
            validate(spec)

        monkeypatch.setattr(ScenarioSpec, "validate", counting)
        run_trial(self._spec(), seed=0)
        assert len(calls) == 1


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", 1], ["yyy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        assert set(lines[1]) <= {"-", "+"}

    def test_table1_comparison_smoke(self):
        rows = table1_comparison(
            n=4,
            f=1,
            k=4,
            seeds=range(2),
            max_beats=250,
            families=("deterministic", "current"),
        )
        assert len(rows) == 2
        rendered = render_table(
            ["row", "claimed", "resilience", "config", "measured", "success"],
            [row.cells() for row in rows],
        )
        assert "current paper" in rendered
        for row in rows:
            assert row.sweep.success_rate == 1.0
