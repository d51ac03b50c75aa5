"""The paper's claims as statistics (:mod:`repro.analysis.claims`).

First the bounds against their closed forms, then Theorem 4's headline
restated as a claim with a confidence: from a scrambled start, on the
bulk engine with the oracle coin, *with at least 1 − 10⁻⁶ confidence*
stabilization takes more than 20 beats with probability at most 0.2,
and its mean (capped at the horizon) is at most 25 beats — the same
bounds at every n, where the deterministic baseline's grow with f.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.campaign import ScenarioSpec
from repro.analysis.claims import (
    binomial_cdf,
    clopper_pearson_upper,
    hoeffding_upper,
)
from repro.analysis.experiments import run_trial

ALPHA = 1e-6


class TestBounds:
    @pytest.mark.parametrize("alpha", [0.05, ALPHA])
    @pytest.mark.parametrize("trials", [1, 10, 200, 5000])
    def test_zero_successes(self, trials, alpha):
        assert math.isclose(
            clopper_pearson_upper(0, trials, alpha),
            1 - alpha ** (1 / trials),
            rel_tol=1e-9,
        )

    @pytest.mark.parametrize("alpha", [0.05, ALPHA])
    @pytest.mark.parametrize("trials", [2, 10, 200])
    def test_all_but_one_success(self, trials, alpha):
        # P(X <= N - 1) = 1 - p^N = alpha.
        assert math.isclose(
            clopper_pearson_upper(trials - 1, trials, alpha),
            (1 - alpha) ** (1 / trials),
            rel_tol=1e-9,
        )

    def test_every_success_bounds_nothing(self):
        assert clopper_pearson_upper(7, 7, ALPHA) == 1.0

    @pytest.mark.parametrize("successes,trials", [(1, 300), (3, 200), (17, 40)])
    def test_the_bound_sits_on_the_tail(self, successes, trials):
        bound = clopper_pearson_upper(successes, trials, ALPHA)
        assert successes / trials < bound < 1
        assert math.isclose(
            binomial_cdf(successes, trials, bound), ALPHA, rel_tol=1e-6
        )

    @pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 0.97, 1.0])
    def test_binomial_cdf_is_the_direct_sum(self, p):
        for successes in range(13):
            direct = sum(
                math.comb(12, i) * p ** i * (1 - p) ** (12 - i)
                for i in range(successes + 1)
            )
            assert math.isclose(
                binomial_cdf(successes, 12, p), direct, abs_tol=1e-12
            )

    def test_hoeffding_margin(self):
        # exp(-2 N t² / (high - low)²) = alpha at the margin t.
        bound = hoeffding_upper(7.5, 200, ALPHA, 0, 60)
        margin = bound - 7.5
        assert math.isclose(
            math.exp(-2 * 200 * margin ** 2 / 60 ** 2), ALPHA, rel_tol=1e-9
        )


#: Beats a trial may run; one that has not converged by then counts as
#: taking the whole horizon (over the tail bound, and at the cap of the
#: mean).
HORIZON = 60
TAIL_BEATS, TAIL_PROBABILITY = 20, 0.2
MEAN_BEATS = 25


def _stabilization_beats(n: int, seeds: range) -> list[int]:
    spec = ScenarioSpec(
        n=n, f=(n - 1) // 3, k=8, engine="bulk", max_beats=HORIZON
    )
    beats = [run_trial(spec, seed).converged_beat for seed in seeds]
    return [HORIZON if beat is None else beat for beat in beats]


class TestExpectedConstantAcrossN:
    """Theorem 4, n ∈ {4, 64, 256}: the bounds do not move with n."""

    @pytest.mark.parametrize("n,seeds", [
        (4, 200),
        (64, 200),
        pytest.param(256, 100, marks=pytest.mark.slow),
    ])
    def test_stabilization_is_bounded_alike_at_every_n(self, n, seeds):
        beats = _stabilization_beats(n, range(seeds))
        over = sum(beat > TAIL_BEATS for beat in beats)
        assert clopper_pearson_upper(over, seeds, ALPHA) <= TAIL_PROBABILITY
        assert hoeffding_upper(
            sum(beats) / seeds, seeds, ALPHA, 0, HORIZON
        ) <= MEAN_BEATS
