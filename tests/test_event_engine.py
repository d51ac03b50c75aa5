"""Continuous-time event engine: the differential pin and its physics.

The load-bearing test is the zero-drift / zero-delay differential: the
event-driven :class:`~repro.net.events.ContinuousSimulation` must replay
the lock-step :class:`~repro.net.engine.ReferenceEngine` *bit-identically*
— same scramble, same adversary, same JSONL trace bytes — because that
is the only argument that the continuous-time machinery changes the
timing model and nothing else.  Around it: drift/delay determinism
(campaign worker counts, spec label permutations), drifting-clock
convergence, the pulse-barrier runtime (local and TCP), and the
stalled-peer pulse timeout.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

import repro
from repro.adversary.strategies import EquivocatorAdversary
from repro.analysis.campaign import ScenarioSpec, run_campaign, scenario_grid
from repro.analysis.experiments import TrialConfig, run_trial
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.errors import ConfigurationError
from repro.net.events import (
    ContinuousSimulation,
    DriftingClock,
    EventHeap,
    KeyedDelays,
    PulseSynchronizer,
    run_continuous,
)
from repro.net.simulator import Simulation
from repro.net.trace import Tracer
from repro.runtime import run_runtime

K = 8

#: The drift case every drifting-clock test shares: slow enough drift
#: that no message can miss its beat's close over the horizon
#: (slowest sender's arrival at b*1.00503 + 0.1 stays ahead of the
#: fastest receiver's close at (b+1)*0.99502 for every b < 89).
DRIFT = dict(rho=0.005, delay_bounds=(0.0, 0.1), pulse_period=1.0)
TIMING = (0.005, 0.0, 0.1, 1.0)


def _factory(_node_id):
    return SSByzClockSync(K, lambda: OracleCoin())


def _adversary(name):
    return EquivocatorAdversary() if name == "equivocator" else None


def _reference_jsonl(seed: int, beats: int, adversary: str) -> str:
    sim = Simulation(
        4, 1, _factory, adversary=_adversary(adversary), seed=seed,
        engine="reference",
    )
    tracer = Tracer(lambda root: root.clock_value)
    sim.add_monitor(tracer)
    sim.scramble()
    sim.run(beats)
    return tracer.to_jsonl()


def _event_jsonl(seed: int, beats: int, adversary: str) -> str:
    result = run_continuous(
        4, 1, _factory, adversary=_adversary(adversary), seed=seed,
        beats=beats, rho=0.0, delay_bounds=(0.0, 0.0), k=K,
    )
    return result.to_jsonl()


class TestDifferentialPin:
    """Zero drift + zero delay == the lock-step reference engine."""

    @pytest.mark.parametrize("adversary", ["none", "equivocator"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_fast_lane(self, seed, adversary):
        assert _event_jsonl(seed, 20, adversary) == (
            _reference_jsonl(seed, 20, adversary)
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("adversary", ["none", "equivocator"])
    @pytest.mark.parametrize("seed", range(3, 10))
    def test_bit_identical_remaining_seeds(self, seed, adversary):
        assert _event_jsonl(seed, 20, adversary) == (
            _reference_jsonl(seed, 20, adversary)
        )

    def test_zero_drift_pulses_and_closes_coincide(self):
        sim = ContinuousSimulation(4, 1, _factory, seed=0)
        assert sim.pulse_skew(7) == 0.0
        times = {s.close_time(3) for s in sim.synchronizers.values()}
        assert times == {4.0}


class TestDriftPhysics:
    def test_rates_stay_in_band_and_differ(self):
        clocks = [DriftingClock(1, i, 0.01) for i in range(8)]
        assert all(0.99 <= c.rate <= 1.01 for c in clocks)
        assert len({c.rate for c in clocks}) > 1  # keyed per node

    def test_zero_rho_rate_is_exactly_one(self):
        assert DriftingClock(123, 5, 0.0).rate == 1.0

    def test_drifting_run_converges_with_skew(self):
        for adversary in ("none", "equivocator"):
            result = run_continuous(
                4, 1, _factory, adversary=_adversary(adversary), seed=0,
                beats=40, k=K, **DRIFT,
            )
            assert result.converged
            assert result.late_messages == 0
            assert result.max_pulse_skew > 0.0
            assert result.converged_time is not None
            assert result.converged_time > result.converged_beat  # rate < 1+rho side

    def test_same_seed_reproduces_exactly(self):
        def run():
            return run_continuous(
                4, 1, _factory, adversary=EquivocatorAdversary(), seed=3,
                beats=30, k=K, **DRIFT,
            )

        a, b = run(), run()
        assert a.records == b.records
        assert a.max_pulse_skew == b.max_pulse_skew
        assert a.converged_time == b.converged_time

    def test_late_messages_counted_when_delay_exceeds_period(self):
        """Delays past the close budget must surface as drops, not hangs."""
        result = run_continuous(
            4, 1, _factory, seed=0, beats=10, rho=0.0,
            delay_bounds=(1.5, 1.5), pulse_period=1.0, k=K,
        )
        assert result.late_messages > 0
        assert result.beats_run == 10  # ran the full horizon regardless


class TestValidation:
    def test_bad_rho_rejected(self):
        for rho in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError, match="rho"):
                DriftingClock(0, 0, rho)

    def test_bad_period_rejected(self):
        with pytest.raises(ConfigurationError, match="period"):
            DriftingClock(0, 0, 0.0, period=0.0)

    def test_bad_delay_bounds_rejected(self):
        for bounds in ((-0.1, 0.5), (0.5, 0.1)):
            with pytest.raises(ConfigurationError, match="delay bounds"):
                KeyedDelays(0, *bounds)

    def test_single_use(self):
        sim = ContinuousSimulation(4, 1, _factory, seed=0)
        sim.run(2)
        with pytest.raises(ConfigurationError, match="single-use"):
            sim.run(2)

    def test_scramble_unknown_id_rejected(self):
        sim = ContinuousSimulation(4, 1, _factory, seed=0)
        with pytest.raises(ConfigurationError, match="scramble"):
            sim.scramble([9])

    def test_timing_axis_rejects_beat_model_machinery(self):
        import repro

        with pytest.raises(ConfigurationError, match="link"):
            repro.synchronize(
                n=4, f=1, k=K, timing=TIMING, link="lossy",
                link_params={"loss": 0.1}, max_beats=20,
            )

    def test_timing_must_have_four_fields(self):
        import repro

        with pytest.raises(ConfigurationError, match="timing"):
            repro.synchronize(n=4, f=1, k=K, timing=(0.001,), max_beats=20)

    @pytest.mark.parametrize("run", [
        lambda: repro.synchronize(
            n=4, f=1, k=K, timing=TIMING, engine="bulk", max_beats=20
        ),
        lambda: run_trial(
            TrialConfig(4, 1, K, _factory, timing=TIMING, engine="bulk",
                        max_beats=20),
            seed=0,
        ),
        lambda: ScenarioSpec(
            n=4, f=1, k=K, timing=TIMING, engine="bulk", max_beats=20
        ).validate(),
    ], ids=["synchronize", "run_trial", "spec"])
    def test_timing_rejects_a_non_default_engine(self, run):
        """The event engine replaces the beat engines: naming one under a
        timing axis is an error on every path, never silently ignored."""
        with pytest.raises(ConfigurationError, match="engine"):
            run()

    def test_cli_drift_with_engine_exits_2(self, capsys):
        from repro.cli import main

        code = main(["run", "--n", "4", "--f", "1", "--drift", "0.005",
                     "--engine", "bulk"])
        assert code == 2
        assert "engine" in capsys.readouterr().err


class TestEventHeapAndSynchronizer:
    def test_pop_order_total_and_fifo_on_ties(self):
        heap = EventHeap()
        heap.push((2.0, 0, 0), "late")
        heap.push((1.0, 0, 0), "first-pushed-tie")
        heap.push((1.0, 0, 0), "second-pushed-tie")
        heap.push((0.5, 1, 0), "earliest")
        order = [heap.pop()[1] for _ in range(len(heap))]
        assert order == [
            "earliest", "first-pushed-tie", "second-pushed-tie", "late",
        ]

    def test_late_arrival_counted_and_refused(self):
        sim = ContinuousSimulation(4, 1, _factory, seed=0)
        sync = sim.synchronizers[0]
        sync.send(0)
        sync.close(0, lambda root: None)
        from repro.net.message import Envelope

        late = Envelope(1, 0, "root", "stale", 0)
        assert sync.deliver(0, (1, 0), late) is False
        assert sync.late_messages == 1
        assert sync.deliver(1, (1, 0), late) is True


class TestTrialAndCampaignIntegration:
    def test_synchronize_timing_path(self):
        import repro

        result = repro.synchronize(
            n=4, f=1, k=K, timing=TIMING, max_beats=40, trace=True,
        )
        assert result.converged
        assert result.pulse_skew > 0.0
        assert result.converged_time is not None
        assert len(result.records) == result.beats_run == 40

    def test_spec_carries_timing_into_label_and_config(self):
        spec = ScenarioSpec(n=4, f=1, k=K, timing=TIMING, max_beats=40)
        spec.validate()
        assert "timing[rho=0.005,d=0.0-0.1,period=1.0]" in spec.label
        assert spec.build_config().timing == TIMING

    def test_spec_rejects_timing_with_beat_axes(self):
        spec = ScenarioSpec(
            n=4, f=1, k=K, timing=TIMING, link="lossy",
            link_params=(("loss", 0.1),), max_beats=40,
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_grid_crosses_timing_axis(self):
        specs = scenario_grid(
            [4], ks=[K], adversaries=["none", "equivocator"],
            timings=[(), TIMING], max_beats=40,
        )
        assert len(specs) == 4
        assert sum(1 for s in specs if s.timing == TIMING) == 2

    @pytest.mark.slow
    def test_campaign_worker_count_invariance(self):
        specs = scenario_grid(
            [4], ks=[K], adversaries=["none", "equivocator"],
            timings=[TIMING], max_beats=30,
        )
        serial = run_campaign(specs, range(2), workers=1)
        parallel = run_campaign(specs, range(2), workers=2)
        assert [e.sweep.results for e in serial] == (
            [e.sweep.results for e in parallel]
        )

    @pytest.mark.slow
    def test_label_permutation_invariance(self):
        """Spec order must not leak into per-spec trial results."""
        specs = scenario_grid(
            [4], ks=[K], adversaries=["none", "equivocator"],
            timings=[TIMING], max_beats=30,
        )
        forward = {
            e.spec.label: e.sweep.results
            for e in run_campaign(specs, range(2), workers=1)
        }
        backward = {
            e.spec.label: e.sweep.results
            for e in run_campaign(list(reversed(specs)), range(2), workers=1)
        }
        assert forward == backward


class TestPulseRuntime:
    def _run(self, transport, rho=0.01, beats=12):
        return run_runtime(
            4, 1, _factory, adversary=EquivocatorAdversary(), seed=0,
            beats=beats, transport=transport, k=K, sync="pulse",
            pulse_period=0.05, rho=rho,
        )

    def test_local_converges_and_reports_skew(self):
        result = self._run("local")
        assert result.sync == "pulse"
        assert result.converged
        assert result.pulse_skew_s is not None and result.pulse_skew_s >= 0.0
        assert result.converged_time_s is not None
        assert result.pulse_timeouts == 0
        assert result.late_messages == 0

    @pytest.mark.slow
    def test_tcp_converges_and_reports_skew(self):
        result = self._run("tcp")
        assert result.converged
        assert result.pulse_skew_s is not None
        assert result.late_messages == 0

    def test_zero_drift_pulse_trace_matches_beat_trace(self):
        """sync="pulse" changes the clock source, not the trajectory."""
        beat = run_runtime(
            4, 1, _factory, adversary=EquivocatorAdversary(), seed=0,
            beats=12, transport="local", k=K,
        )
        pulse = self._run("local", rho=0.0)
        assert hashlib.sha256(pulse.to_jsonl().encode()).hexdigest() == (
            hashlib.sha256(beat.to_jsonl().encode()).hexdigest()
        )

    def test_rho_requires_pulse_sync(self):
        with pytest.raises(ConfigurationError, match="rho"):
            run_runtime(4, 1, _factory, seed=0, beats=4, transport="local",
                        k=K, sync="beat", rho=0.01)

    def test_unknown_sync_rejected(self):
        with pytest.raises(ConfigurationError, match="sync"):
            run_runtime(4, 1, _factory, seed=0, beats=4, transport="local",
                        k=K, sync="cadence")


class TestStalledPeerPulseTimeout:
    """A dead peer must trip the pulse deadline, get counted, and let
    the run terminate — no hang (pytest-timeout is the backstop)."""

    def test_barrier_times_out_counts_and_advances(self):
        from repro.runtime.sync import PulseBarrier
        from repro.runtime.transport import LocalTransport
        from repro.runtime.wire import END, Frame, encode_frame

        async def scenario():
            transport = LocalTransport()
            endpoint = await transport.open(0)
            await transport.open(1)  # peer 1 exists but never speaks
            barrier = PulseBarrier(
                endpoint, expected=[0, 1],
                clock=DriftingClock(0, 0, 0.0, period=0.05),
            )
            await endpoint.send(0, encode_frame(
                Frame(kind=END, sender=0, beat=0)
            ))
            inbox0 = await barrier.collect(0)
            await endpoint.send(0, encode_frame(
                Frame(kind=END, sender=0, beat=1)
            ))
            inbox1 = await barrier.collect(1)
            await transport.aclose()
            return barrier, inbox0, inbox1

        barrier, inbox0, inbox1 = asyncio.run(scenario())
        assert inbox0 == {} and inbox1 == {}
        assert barrier.pulse_timeouts == 2
        assert barrier.barrier_timeouts == 2  # flows into existing health
        assert barrier.counters["pulse_timeouts"] == 2
        assert barrier.beat == 2  # the run moved on cleanly
        assert len(barrier.pulse_closes) == 2

    def test_healthy_peer_closes_before_the_deadline(self):
        from repro.runtime.sync import PulseBarrier
        from repro.runtime.transport import LocalTransport
        from repro.runtime.wire import END, Frame, encode_frame

        async def scenario():
            transport = LocalTransport()
            a = await transport.open(0)
            b = await transport.open(1)
            barrier = PulseBarrier(
                a, expected=[0, 1],
                clock=DriftingClock(0, 0, 0.0, period=30.0),
            )
            await a.send(0, encode_frame(Frame(kind=END, sender=0, beat=0)))
            await b.send(0, encode_frame(Frame(kind=END, sender=1, beat=0)))
            loop = asyncio.get_running_loop()
            start = loop.time()
            await barrier.collect(0)
            elapsed = loop.time() - start
            await transport.aclose()
            return barrier, elapsed

        barrier, elapsed = asyncio.run(scenario())
        assert barrier.pulse_timeouts == 0
        assert elapsed < 5.0  # full marker set closes early, not at 30s

    def test_stalled_node_end_to_end_run_terminates(self):
        """Whole-run integration: one synchronizer joins no beats; the
        other three honest nodes still finish every beat on deadline
        closes and the result surfaces the timeouts."""
        result = run_runtime(
            4, 1, _factory, adversary=EquivocatorAdversary(), seed=0,
            beats=3, transport="local", k=K, sync="pulse",
            pulse_period=0.02, rho=0.0, stall_ids=(2,),
        )
        assert result.beats_run == 3
        assert result.pulse_timeouts > 0
        assert result.health["barrier_timeouts"] > 0
