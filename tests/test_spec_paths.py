"""One spec, every path: a drawn ``ScenarioSpec`` runs alike on each engine.

A simulated run has one description, so a property draws it once — a
system size, a registered protocol, adversary and link model (small
parameters), the oracle coin's tuning, a churn story over certainly
correct nodes — and hands it to every path.  ``run_trial`` must give
equal ``TrialResult`` values, trace records included, on the
``reference``, ``fast`` and ``bulk`` engines.  The event engine takes no
beat-model axes, so it runs the spec's perfect-link, churn-free twin: at
zero drift and delay (``timing=(0, 0, 0, 1)``) it must reproduce the
reference engine's JSONL trace bytes and convergence beat over the same
horizon.  The two engine loops this property replaced are pinned
examples.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    LINK_REGISTRY,
    ScenarioSpec,
)
from repro.analysis.experiments import run_trial
from repro.core.protocol import PROTOCOLS
from repro.net.linkmodel import normalize_link_params

#: Parameters per link model, each unlike the model's default (a path
#: that dropped them would run the default and disagree).
_LINK_PARAMS = {
    "perfect": [{}],
    "delay": [{"max_delay": 2}, {"max_delay": 3}],
    "lossy": [{"loss": 0.05}, {"loss": 0.2, "burst_enter": 0.1}],
    "partition": [{"split": 2, "heal": 8}, {"split": 3, "heal": 6, "period": 10}],
    "mobility": [{"radius": 40.0, "leg_beats": 4}, {"radius": 50.0}],
}
assert set(_LINK_PARAMS) == set(LINK_REGISTRY)


def _certainly_correct(adversary: str, n: int, f: int) -> range:
    """Ids no trial of ``adversary`` corrupts: all of them fault-free, the
    first ``n - f`` under the default rule (it takes the last ``f``)."""
    cls = ADVERSARY_REGISTRY[adversary]
    if cls is None:
        return range(n)
    return range(n - f if cls.select_faulty is Adversary.select_faulty else 0)


def _churn(draw, ids: range) -> tuple:
    node, beat = draw(st.sampled_from(ids)), draw(st.integers(1, 12))
    story = draw(st.sampled_from(["crash-recover", "join", "leave"]))
    if story == "crash-recover":
        back = beat + draw(st.integers(1, 8))
        return ((beat, "crash", (node,)), (back, "recover", (node,)))
    return ((beat, story, (node,)),)


@st.composite
def specs(draw) -> ScenarioSpec:
    n = draw(st.sampled_from([4, 7]))
    f = draw(st.integers(1, (n - 1) // 3))
    adversary = draw(st.sampled_from(sorted(ADVERSARY_REGISTRY)))
    link = draw(st.sampled_from(LINK_REGISTRY))
    # Churn is a correct-node fault: naming a faulty id is an error.
    ids = _certainly_correct(adversary, n, f)
    return ScenarioSpec(
        n=n,
        f=f,
        k=draw(st.sampled_from([4, 6, 8])),
        protocol=draw(st.sampled_from(sorted(PROTOCOLS))),
        adversary=adversary,
        link=link,
        link_params=normalize_link_params(
            draw(st.sampled_from(_LINK_PARAMS[link]))
        ),
        churn=_churn(draw, ids) if ids and draw(st.booleans()) else (),
        coin_p0=draw(st.sampled_from([None, 0.3, 0.45])),
        coin_p1=draw(st.sampled_from([None, 0.3, 0.45])),
        coin_rounds=draw(st.sampled_from([None, 1, 2])),
        max_beats=40,
    )


def _every_path_agrees(spec: ScenarioSpec, seed: int) -> None:
    results = {
        engine: run_trial(replace(spec, engine=engine), seed, trace=True)
        for engine in ("reference", "fast", "bulk")
    }
    reference = results.pop("reference")
    for engine, result in results.items():
        assert result == reference, engine
    # The event engine always runs its whole horizon, so the twin is held
    # to the twenty beats the zero-drift trace pins always compared.
    _event_engine_agrees(
        replace(spec, engine="reference", link="perfect", link_params=(),
                churn=(), early_stop=False, max_beats=min(spec.max_beats, 20)),
        seed,
    )


@lru_cache(maxsize=None)  # specs differing only in beat-model axes share a twin
def _event_engine_agrees(twin: ScenarioSpec, seed: int) -> None:
    reference = run_trial(twin, seed, trace=True)
    event = run_trial(
        replace(twin, engine="fast", timing=(0, 0, 0, 1)), seed, trace=True
    )
    assert event.to_jsonl() == reference.to_jsonl()
    assert event.converged_beat == reference.converged_beat


def _pinned(cases):
    def pin(test):
        for spec, seed in cases:
            test = example(spec=spec, seed=seed)(test)
        return test
    return pin


_TUNED = ScenarioSpec(
    n=4, f=1, k=6, coin_p0=0.4, coin_p1=0.4, coin_rounds=2, max_beats=120
)

#: The tuned coin's trial, reference vs fast (tests/test_engines.py) and
#: vs bulk (tests/test_bulk_engine.py).
_ENGINE_LOOPS = [(_TUNED, seed) for seed in range(5)]
#: Every protocol on perfect and lossy links: tests/test_protocol.py holds
#: them to fast == reference; here they meet bulk and the event engine too.
_PROTOCOL_MATRIX = [
    *((ScenarioSpec(n=4, f=1, k=8, protocol=name, max_beats=200), seed)
      for name in sorted(PROTOCOLS) for seed in range(3)),
    *((ScenarioSpec(n=4, f=1, k=8, protocol=name, max_beats=50,
                    early_stop=False, link="lossy",
                    link_params=(("loss", 0.1),)), 2)
      for name in sorted(PROTOCOLS)),
]


@_pinned(_ENGINE_LOOPS)
@settings(max_examples=5, derandomize=True)
@given(spec=specs(), seed=st.integers(0, 2**16))
def test_one_spec_runs_alike_on_every_path(spec, seed):
    _every_path_agrees(spec, seed)


@pytest.mark.slow
@_pinned(_PROTOCOL_MATRIX)
@settings(max_examples=100, derandomize=True)
@given(spec=specs(), seed=st.integers(0, 2**16))
def test_one_spec_runs_alike_on_every_path_at_depth(spec, seed):
    _every_path_agrees(spec, seed)
