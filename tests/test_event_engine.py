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
from repro.analysis.experiments import run_trial
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
#: that no message can miss its beat's close over the horizon — which
#: ``TestDriftPhysics::test_drift_case_stays_inside_its_late_free_horizon``
#: asserts rather than derives.
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

    def test_drift_case_stays_inside_its_late_free_horizon(self):
        """The slowest sender's latest arrival stays ahead of the fastest
        receiver's close for 90 beats at the worst rates ``DRIFT``
        admits, so for at least that long at any keyed rates."""
        for seed, adversary in ((0, None), (0, "equivocator"), (3, "equivocator")):
            sim = ContinuousSimulation(
                4, 1, _factory, adversary=_adversary(adversary), seed=seed,
                **DRIFT,
            )
            assert sim.late_free_beats(1000) >= 90
        slowest, *others = sim.synchronizers.values()
        slowest.clock.rate = 1.0 - DRIFT["rho"]
        for sync in others:
            sync.clock.rate = 1.0 + DRIFT["rho"]
        assert sim.late_free_beats(1000) == 90

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
            ScenarioSpec(n=4, f=1, k=K, timing=TIMING, engine="bulk",
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

        code = main(["run", "--n", "4", "--f", "1", "--timing", "0.005:0:0:1",
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
        """Count-and-refuse at the door is the wire plane's rule
        (``BeatInbox``, under the live barrier); the event engine decides
        lateness at the send, counts the copy and never buffers it."""
        from repro.net.events import _Lane
        from repro.net.inbox import BeatInbox
        from repro.net.message import Envelope

        late = Envelope(1, 0, "root", "stale", 0)
        box = BeatInbox()
        box.close_entries(0)
        assert box.deliver(0, (1, 0), late) is False
        assert box.late_messages == 1
        assert box.deliver(1, (1, 0), late) is True

        sim = ContinuousSimulation(4, 1, _factory, seed=0,
                                   delay_bounds=(0.5, 0.5))
        sync = sim.synchronizers[0]
        lane = _Lane(0, {i: s.close_time(0) for i, s in sim.synchronizers.items()})
        sim._hand(0.75, lane, 0, 0, late, 0)  # arrives at 1.25, close is 1.0
        assert sync.late_messages == 1
        assert lane.traffic.inboxes(0) == {}
        sim._hand(0.5, lane, 0, 0, late, 0)  # arrives on the close: on time
        assert sync.late_messages == 1
        assert lane.traffic.inboxes(0) == {"root": [late]}


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

    def test_spec_carries_timing_into_label_and_trial(self):
        spec = ScenarioSpec(n=4, f=1, k=K, timing=TIMING, max_beats=40)
        spec.validate()
        assert "timing[rho=0.005,d=0.0-0.1,period=1.0]" in spec.label
        assert run_trial(spec, 0).pulse_skew > 0.0

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


# -- timing pins -------------------------------------------------------------

#: (rho, delay bounds) at period 1, from everyone-on-time through
#: the-draw-decides to everyone-late.
_REGIMES = (
    (0.0, (0.0, 0.0)),
    (0.02, (0.0, 0.1)),
    (0.05, (0.2, 0.9)),
    (0.0, (0.9, 1.1)),
    (0.1, (0.5, 1.5)),
    (0.0, (1.0, 1.0)),
    (0.3, (0.0, 0.0)),
)
_PIN_ADVERSARIES = ("none", "equivocator", "noise", "split-world")


def _timed_run(n, coin, adversary, seed, rho, delay_bounds, beats):
    """One scrambled event-engine run of a named scenario: the
    simulation (for its stats) and its result."""
    spec = ScenarioSpec(n=n, f=(n - 1) // 3, k=K, coin=coin, adversary=adversary)
    sim = ContinuousSimulation(
        n, spec.f, spec.root_factory(),
        adversary=spec.build_adversary(), seed=seed, rho=rho,
        delay_bounds=delay_bounds,
    )
    sim.scramble()
    return sim, sim.run(beats, k=K)


def _timing_digest(n, coin, adversary, seed, regime):
    sim, result = _timed_run(
        n, coin, adversary, seed, *_REGIMES[regime],
        beats=25 if coin == "gvss" else 40,
    )
    stats = sim.stats
    observed = (
        result.records,
        result.late_messages,
        result.total_messages,
        stats.as_dict(),
        sorted(stats.per_beat.items()),
        result.converged_beat,
        result.max_pulse_skew,
        result.converged_time,
        result.duration,
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


def _pin_cases():
    for n in (4, 7):
        for coin in ("oracle", "gvss"):
            for adversary in _PIN_ADVERSARIES:
                for seed in (0, 1):
                    fast = coin == "oracle" and seed == 0 and (
                        n == 4 or adversary in ("none", "equivocator")
                    )
                    for regime in range(len(_REGIMES)):
                        yield pytest.param(
                            n, coin, adversary, seed, regime,
                            id=f"n{n}-{coin}-{adversary}-s{seed}-r{regime}",
                            marks=() if fast else pytest.mark.slow,
                        )


class TestTimingPins:
    """What the event engine computes with drift and delay *on*, pinned.
    Only ``rho = 0`` / zero delay has a second engine to disagree with;
    everywhere else a wrong lateness rule would pass every differential
    suite.  The digests below were computed at the commit before the
    arrival-event message plane was replaced (one heap event and one
    keyed draw per copy), over traces, late and message counts, the
    per-beat tallies and the real-time metrics."""

    PINS = {
        "n4-oracle-none-s0": [
            "d733dfcf3d082b76cf1c4583b2decc026dffa646942de71fe3e1d81fb42de92f",
            "319a071c95a54a734b38c333bcb2492dc64469ee8da18a99d6d1ded32dfa5ff5",
            "dd9e298f7c5bf2c19c7c9468deb9b1dbae039fa5d1bddccb8b7fd9e68b778c09",
            "1d7ee1f4e9526e57f6ac3102aebe55aa05646c03a4f06bca44d2e9d550483405",
            "b88d02a999fa1845aa25e93de4e2ce9778fb1c4a5e8367ab55f7b07a66840fcc",
            "d733dfcf3d082b76cf1c4583b2decc026dffa646942de71fe3e1d81fb42de92f",
            "0b75b2b033a5c6d955817e0365d8f308dd6a926a3673e5ac8367eb38b80a85e9",
        ],
        "n4-oracle-none-s1": [
            "6b15c3da5fd9f078320fe8aa6fea4278b181cc284e1c5fc0cc702936ae6baed6",
            "d53eef57736032c0722709440496df387df1ae47e752c56fbbb9c1c4dcc9c8ca",
            "4ff33786c5dabee52c3507378ef79e5855a554dcbd7d7fec66d3143789cdf5e9",
            "e9309295849fceca9a368e6ffa8128c1312001b937dbe525008b68afb792397b",
            "f647ba359f1f9fd383e3b120e7a6f1eba65bc9f0cc8388c5bf7c27dc32e2079b",
            "6b15c3da5fd9f078320fe8aa6fea4278b181cc284e1c5fc0cc702936ae6baed6",
            "e7dc2909cef60290af61fcf4068e372b377f69b801214c2d9a3e49e99889c986",
        ],
        "n4-oracle-equivocator-s0": [
            "17e5bd3ba6ea855e7fa485fe07fe73f9b7a6b318d5814a83ae0c903f98fe9aab",
            "e0736b8b2c0556e8ad37a592a6128930649c0216f8d75f8de790a7dd5b9b8559",
            "a5a2d1229201948f464beedaacc3192a89fdd538113e81b16f903285a581d03f",
            "a0a029319129a1edc8b1939e36684c92eafb75bd4474acb6d16c2131cdc02b8a",
            "e874b831cbed55a908698d9a7f0b1d9bc15c0f556fb47bc744511f3606a307e8",
            "17e5bd3ba6ea855e7fa485fe07fe73f9b7a6b318d5814a83ae0c903f98fe9aab",
            "6d0676eb683154fb832ded509db1cba5e5923817ab638c50a382511f4bf9c42e",
        ],
        "n4-oracle-equivocator-s1": [
            "c70a564f151f73725c4bcb42b354fb54b7c80db0df89fe4b08e37533a89da7a3",
            "26ace833c31020b5eccc97a9ae40bd632551b8ee234acf4042bbdf5824970e99",
            "7ad46be86bcebf95301b5d127cbc429846b58b0b4aec11a7803bf0e3e4203ff5",
            "39c48ae80b4b53283ef9eb3ee1205b19d587b99cf19f350868ec58dce48dc0bd",
            "c5d7d1dbb4c2c2ed81ca5c6abdcce16c718c29a984606bcc71fc6addda5d1f59",
            "c70a564f151f73725c4bcb42b354fb54b7c80db0df89fe4b08e37533a89da7a3",
            "878fbbbb6f6bb9c03f98cc924ea17fc7ff4bd8c63389c0061b39b0bc98bb192b",
        ],
        "n4-oracle-noise-s0": [
            "ef69e47cdf851b244235002c2139f16f73ab62a51a3ca595f934a75199f85cde",
            "073d7897a2040375406d64f39fcf56ece318f2c5dcbfc30f77c01162aa916c61",
            "c4beef85d1b1a0af584d091c59f31fe18a995609767f9bad3e7c9ba0e6ca937b",
            "fec1d61b71e4c51160e07eda4f1858e67fb652a3effbd8fbd463cc5e4e14a6c7",
            "2b737997d8885e5583d8ffc848f6630fc08e9f0fc66eb53fb8e18770bcbeec0b",
            "ef69e47cdf851b244235002c2139f16f73ab62a51a3ca595f934a75199f85cde",
            "5c045eee3048a17550197773a463f9f4cf8c4c7457253e8d03193e40967a82a4",
        ],
        "n4-oracle-noise-s1": [
            "57c19e71d15ed98d965dca45ee31f1ef1b23ccc13718edbd935b369c6c267c2f",
            "30f769d53be118d63f3bdb1c3b7ac274e3d0e082e03fa63269ec228d2236a56c",
            "3311695e1b0426cf92109e65e4540da909d6df350f8a98bd323753ab442f1ab2",
            "d6497959a6ce90d07b44125a5f3893dd203e4430af34426aa09b33d54927d10c",
            "506b6c3c31a07dcfc3ee1cffb432dd953ec4d885120aadbf12e90c391207a0aa",
            "57c19e71d15ed98d965dca45ee31f1ef1b23ccc13718edbd935b369c6c267c2f",
            "98e91310e393d6a35b178c12132d9553086c9e014ec04bd4bae95cd95c593e17",
        ],
        "n4-oracle-split-world-s0": [
            "4ea6f44df2f91e2c8c569962f24aee767f2799b283deaed41ce43bd128e265e5",
            "6e24e96cc6e61fc865b6e6f21c3e64ff7c1d8101e83a28e16a72329042c113b4",
            "4942323c612a10864d0622cad60b95234d6953028381770cd722ea4deab03e6d",
            "fc5ec2a13f3447acd73c686fe69e7266a36426ce006d1eda3bbd40bc4d93bf93",
            "810f1d4bf0142cc99d39d9f4a289a5297bc930439226ac13979ab9d7df39e33c",
            "4ea6f44df2f91e2c8c569962f24aee767f2799b283deaed41ce43bd128e265e5",
            "73827b11daed3c98342549eb800b04562eb04427259baf0e5b15260fc34d6009",
        ],
        "n4-oracle-split-world-s1": [
            "16db28168c54f671bc30f90d59fd09059f6fd70ab70d3399eca370a9b9105fd6",
            "c2143ea35bb2d650b8e6919c41bb2f0f0a57c788968dfba9ed05213092cfdff3",
            "a4e6354f1a6433f47c7ff325c43372bc346fcfd51c87fb965456223f0344f8d0",
            "ab1f5b8e5d9857c01a9e1c021958811e129b9691a2bc25ab7f30ae127ac8258e",
            "cb7b8271c5c723c71769ce708e36df080b96abfe39c1bcba518da19a32f2c90a",
            "16db28168c54f671bc30f90d59fd09059f6fd70ab70d3399eca370a9b9105fd6",
            "16fbc46bac757aaab2625b4148b7113395af5483961a9e22803eea508e98ec42",
        ],
        "n4-gvss-none-s0": [
            "1fe023d4e98a242036f6062422069d428ae6f95e75e033cc89c50c8ce557c5f1",
            "cb382784239317cb5fea83042c2ecb3311247956845915570080538c915e0f87",
            "ca7d693d9c52b1e40430317b72d14c3d556ed85b6dffea3fd01aabb6073dbe80",
            "c8a8de430993441b0549b68d0bad6617001dfeec1669ae836a3cfc886926ce8f",
            "144ebd0ff23293723007ab6f2830c14a290e81870863a83e5f901706e45db95a",
            "1fe023d4e98a242036f6062422069d428ae6f95e75e033cc89c50c8ce557c5f1",
            "3813815201c05125d4682c18af56cd87030b4b338e3c822fbe532554fc59fe99",
        ],
        "n4-gvss-none-s1": [
            "4e780b7a51ecbd133242b7b89d0edaa6744177d43d2273f7a95085c3dd2b2900",
            "3ab49d32c04f241e1c761a2292398ebca0a7496a65ef85b53fa3240fcef6a094",
            "3d554d832bed5fc5f6b1f4a523e73373f3bca30f7fe6784914e58251d6496356",
            "56f8694bb4bc0400aef183cf69aa1e4b1951ba603fe489509c449a45f3a1083c",
            "d91aa55f24eb6f5955ff3536a54deb45fca2e7efd22995dfb36fd2307f99f3a4",
            "4e780b7a51ecbd133242b7b89d0edaa6744177d43d2273f7a95085c3dd2b2900",
            "d4ea64cd54b11fbacd737669cbd5bca27af21684d46a0dfd0b31c42e1f19ce03",
        ],
        "n4-gvss-equivocator-s0": [
            "7ad85b278eb2e244690639048e63390cfc70bb0ea10d25b9ee84d00d62eb43bb",
            "64655e5629c93bc6d5a394f648cf0e6f1f734a8cf247a294ce66b1c32cc99105",
            "aec33448fbc76897b2dec8834c2d13c4344ce66410524f68a1f3c5afab60e513",
            "bc4de6a27af52ef50459433da77a9f6fa2482ea77a03f8d83d816f3ba1f5e5d9",
            "f05bf8ea4af4bd0d696e7b80189833318b0b936275daa7dfe3bd1e1c4aae8106",
            "7ad85b278eb2e244690639048e63390cfc70bb0ea10d25b9ee84d00d62eb43bb",
            "205bf25d7e84fcfb8185d3357b758230ad933c4541e4a6a9552334659a1ecc5e",
        ],
        "n4-gvss-equivocator-s1": [
            "5dfe5107a5840f0ebd173f78ae194c03aa2ece4a59a6ac81fd2119a46d383b16",
            "00ce8a19c8d097f2eb4a8449419a3cda3f68c3d00c498c25e458ceade2a4df95",
            "a5091e6d1b15762ac9ec261a6c652639058b3fc67c651fc62edd54a740446087",
            "b8128e3e7d37ee7759f374618c12b97f732f9824572878d6331a4531c3b21e3c",
            "230a3c3961747be9e4eb263020d1d276f9f077a5a09c9e14537966f4d283cd58",
            "5dfe5107a5840f0ebd173f78ae194c03aa2ece4a59a6ac81fd2119a46d383b16",
            "51154c7076b9680801f8a309a2a5b17739240548571e8c2695293612fcd46278",
        ],
        "n4-gvss-noise-s0": [
            "925b7290115bd0a3efda3fc3e410ed046b3567f5c9a6d2dbdec619856abd3205",
            "70bb6c576c8e76747f266239a3d631ed54be9592ddc82c1fb4a61b42853aa8b6",
            "bb8e8803725ea4a5d748c0eaf0e7117563ee5a3c1e77346efc1d1a62df631437",
            "b25b302b3ee2e4406180e7a613c34e56b08044698414f6bdac0b75da3095eb4d",
            "ceac58281cf7b7fc533cc7c343799f0d06d7d777a50ec72577c2c2c99e03bfa0",
            "925b7290115bd0a3efda3fc3e410ed046b3567f5c9a6d2dbdec619856abd3205",
            "113b623d5344753a60eda7d7fd3ce6182566f4b8f95d81b77a448b73adc74dd6",
        ],
        "n4-gvss-noise-s1": [
            "1021f74b376c83dd47cfd06363bd34e527bb59465123c63d4533afef4597de6d",
            "ebc9a81a25085a7a55008e2e8a5a0881e10f40afc3c60b6cb3d14b6f599fa362",
            "8e0f469235155744814f6749ac9c56e77a049c104400caf3daa2a1bcd38f6e0e",
            "dd9e8d5af3a4b4c673b2efaee2bdc0e9767367db5300b78d4665b64a45005763",
            "c8f386238514a15b7919f073aaf498294a6775c7bdfb85012847f3b53c38cc4c",
            "1021f74b376c83dd47cfd06363bd34e527bb59465123c63d4533afef4597de6d",
            "ca27385e6ff67f235098dea44e91e5e8bc1ad4cd3052a37684f3f85b4e11c8ea",
        ],
        "n4-gvss-split-world-s0": [
            "493af4522e3a4c28cc437f509986c16c94be14719f65c13a64b1614f10b34f48",
            "cbbbfc2c66d7be008320b03336474e18cd70f92827f8c28167794c72bca5e131",
            "37294c3c1fe65f2bf83b46c9444df76c9f3f99a3429989d084d2fe2a72d45ef3",
            "294a73a11860b2c3959f8bb3c81b4095efe2e2f87c33725034600c39433932f5",
            "9b2652cf2e6196e653eda33f9982efa6edb43e542803bee813069ae94d1dc346",
            "493af4522e3a4c28cc437f509986c16c94be14719f65c13a64b1614f10b34f48",
            "c8027e0e48a911cd4e3d13e316fd49baaee29d948383123e26d5d53fcb7e2bd2",
        ],
        "n4-gvss-split-world-s1": [
            "462be2bd68b7c5e6389b02beab8bb4217414382b69d39dcc6ca76943b57372ff",
            "724764a55df4001e647c19a31807e31c04c22940a7b5362d686081d6795ca2db",
            "ceb0ab9e413132a4d873c191169f77ae66c6ad5f5eb1ee5ce4c792eb6c8c6f0c",
            "a3395576c28056b208978dc3fdb6614474f61405e7f40d569633d9e010810dc6",
            "807f5c763fbb6a057c83b6a918ea374178b658fc9d9b15508c2a60b4a0e47c82",
            "462be2bd68b7c5e6389b02beab8bb4217414382b69d39dcc6ca76943b57372ff",
            "030d8313535f99ed6f8f45936d78250c371a7429aea8246ea051d24b4306a91a",
        ],
        "n7-oracle-none-s0": [
            "3ce0819734fc58bd24fe56a636c9c33fe6e067f97c7054328bceffd3ba684dda",
            "740761058d1c6c972dcfe92735e5391dcff3dd9c2b3d78f5fd08633ca6f2156e",
            "bd8c8237c0d6356297824f34ac9a10aaf98985e4e7469414a0bf4fd82e71df85",
            "d6bfff53f0f206aac89a44bbd0172c0927f173286815bb786c8de0be27df0b5b",
            "e5b235c187eb609bfd3d786c1107f95d6cedec2b8c471411af2d43b5aaa79165",
            "3ce0819734fc58bd24fe56a636c9c33fe6e067f97c7054328bceffd3ba684dda",
            "90447ce720b8f39502e56b4a04f72db36c08871fb312f8ad47b64289a513c007",
        ],
        "n7-oracle-none-s1": [
            "b5e1669c37c75816f4185aeb2b165a991c17ccf9755348bec8cb20a822903575",
            "aa9d605c00fee0748d142f268a774d722a967464da5cf665186fab584c8bd0b7",
            "d2a79e5b25ff7996aeaf0a26b469ae7e64a265beada1260197eacf9b70cdcf35",
            "50f471db08169aaa2be1aac7e6401f88689cfabb3ee500c59289bb3329cc4934",
            "d3f09861866d5d5b5eada8ade7e1962cccd7f44684c02490ed47dc4cd573a52f",
            "b5e1669c37c75816f4185aeb2b165a991c17ccf9755348bec8cb20a822903575",
            "a6f2846a5124893c5de0240a058569f1befafdf120be192e745fe58f8fc7fe67",
        ],
        "n7-oracle-equivocator-s0": [
            "d193cfa807a5625a0c8cca8fec9a0d5f7d490d4d705e5ffeab2413e32401fedc",
            "f7ec8d7842a8269c7c7ff138208a141027e107e1788593a6d1d4b869b273a176",
            "670e11221cb2cb374c3dc08744ca66a450e2e41cabeeac4246031d3ff3f284a1",
            "68777e9a7a7ec83d688217bd60dc67fb988b191cc06100cb12cf32a53a01cfa8",
            "5f4fb399a218f00a074aee099d34155cfccd9d24c8e892826ca9500ceb98ad0a",
            "d193cfa807a5625a0c8cca8fec9a0d5f7d490d4d705e5ffeab2413e32401fedc",
            "f118bed43b4088b931d26b16e8e1216ebdd75d6f772fa140de3a2d5a8554ad30",
        ],
        "n7-oracle-equivocator-s1": [
            "9545cb93d7202d5a7a8dd68a3ad8c2a4b3db314db715e25376685bfcfc8e132d",
            "64cf914505ea4a0e26a361a2693ede3cffb6e9780dda663d9aeaee613caf7895",
            "8b0f22cf49354e878357ba8bd053da63b7d244517f396c47148abdf6d71c8078",
            "cb57d58b0fa038c4e78addb03d9ea3ebee216b4a212000b50d646ae6408040ee",
            "d319e40eb649f2f9c358c27302cb5c5c6d4f76f84495a03253cfc3589c3d62dc",
            "9545cb93d7202d5a7a8dd68a3ad8c2a4b3db314db715e25376685bfcfc8e132d",
            "4792ca02341e9f74f209ee1c523a9d583b1a218f7578ac90fe7c508ea9d6e5a6",
        ],
        "n7-oracle-noise-s0": [
            "5ba9c2fb7cac08fbefcaeb4026996858a0236a2aecc3a48ac7a94f80cc24320a",
            "c078fdedeecc52ae4d8c0712e7dede205f899ef798005eef3c345d25674c31bf",
            "5257226c27117efe1c5942b094908a0a7be4e79f38f12e339c9321d73de5621b",
            "47e8898f3b0aec4cc88ff2ef79794799b80fbaec44884111b9abc692f1f6572f",
            "569b9102d502968a314192f1cb6a2fef1e12dff35ed1b56578fe4080c49ba6f2",
            "5ba9c2fb7cac08fbefcaeb4026996858a0236a2aecc3a48ac7a94f80cc24320a",
            "12cb64858913378347940f427d2c153c89b5204a2877a64d6cb6fe94665309f6",
        ],
        "n7-oracle-noise-s1": [
            "e3dd0dc44a69406c6bfa848d2228d684b813f4a6da0afb60c8182a7faf3fa2f3",
            "449d61f6413788024947b3c352a78a1e0f272cbc4d3b9dbc9a93d5ed5b74c356",
            "701dd5c1814840d4225fb85ea01c022ab5c1bc0b82dffc4e974d44b8f789cb14",
            "b651f4349049a5143e6c6b4c231766daae7a067b20a879bd4a1594b09c09ac76",
            "a5fd722454b30bea0d4b13cf810962a14904df4354485d9af3788040cada968c",
            "e3dd0dc44a69406c6bfa848d2228d684b813f4a6da0afb60c8182a7faf3fa2f3",
            "88eb4c469f8cf85690d9f5fc7ad1c7ca8e7dabcc9307c6ac88ec4aaef310c514",
        ],
        "n7-oracle-split-world-s0": [
            "d313f987891384fc1785133c397144c552bd156b15aca11cf9021440ee279ea1",
            "d9c1f233ee7e928d70902f6a94736e0c5fd03fca8469ede3f4bc0708aa5c41a1",
            "86b0b1a76b7af7e6389f0fdb92b2d4c1fdaefdbc22def03d86f97da4990a75db",
            "be0dc66c59a0f4196afc4f227c58ed45f297572d8d802993c9e661e51187d041",
            "1d253e6e8a6f05c5d730699ac17d4590c1c26bfd7ba5b4f46ef21828bcecfd44",
            "d313f987891384fc1785133c397144c552bd156b15aca11cf9021440ee279ea1",
            "39a32711b091c1973090425a265a664ccb11a7300014afe8d12a6ea0c034b227",
        ],
        "n7-oracle-split-world-s1": [
            "41ec2d1e89811886b7556d069613cdb19d4e2ec663e83fd2db2aac860c855a9d",
            "91e015c0c6ab161e49053fc7e0a76595fd4084dec6e5bf122b73cd07ba5851bd",
            "71d9f1fcfbe95753d15a7a26575bbc1058cb9114a92c66c94b4b16f031588dae",
            "668942b5e8af593d2518d23b9b849eaf101d28bc8e19aa830bc0ec6dc6eaf48c",
            "dd887eba12bfe550fe40bd5ddae61de17711a7524f571227980ebd6d10c54b18",
            "41ec2d1e89811886b7556d069613cdb19d4e2ec663e83fd2db2aac860c855a9d",
            "ac9e44e95760a9a6db93affee5627d0548e35dae5110721c94fbfc3ad84afdc4",
        ],
        "n7-gvss-none-s0": [
            "2046362044a916fd3cad45a5a8d8c9e0197ff35f7da6e76666ee2f6ec6eac345",
            "4c01add0833dac3da9d1303ac676bc4a6e8cbf64745f879ed2158edd1315cead",
            "f26dcafbdcd28abb43da999ff3f5f495404d26631a76472b2097859503c44030",
            "a3bff2e0587a5308a5c19d53111212636a5ec375d7fa6fafad4269590bfd75e2",
            "9ba0bc2f49bf2f0f3bd70a73f4f779dbf2a3847673083c424bfe36ac1ebeef26",
            "2046362044a916fd3cad45a5a8d8c9e0197ff35f7da6e76666ee2f6ec6eac345",
            "4f3d08b12ac3e6ed1695a83cbb51090d994b17217078ef99bd55dc66f4577845",
        ],
        "n7-gvss-none-s1": [
            "007b848934b2c7223914b4ab4547a3e62036a8ed454a64779292891360e5f6e6",
            "18a538ddf868734716bef9a0b2e38b9877be64e8919be38860272eb3444b40b0",
            "046f81f435d964b93494e6210fd1a01fc490967bb756d820606b631e2ed095bd",
            "f3e279435c4199eea01ea8919d473998cfc7b41bf264eb6c30b6a7b917a99bbd",
            "2398df79e7f66df052d72eb2ce92a4b944aa7bfd0620bc046f5b0b509ad74a95",
            "007b848934b2c7223914b4ab4547a3e62036a8ed454a64779292891360e5f6e6",
            "5ffd3eda09b63c96ed99c447c7f236a2ceaeccf2f5582711a320cea79c87209f",
        ],
        "n7-gvss-equivocator-s0": [
            "49b8ac2d29624a34ef971a75951a3cf170b95853244a8fd57ae27f71b2c46a68",
            "bc0110547f3467f653821933d7824ba5b851100fee07d445ff307f01837acf5c",
            "9f81ecc6cd92520e101e3d4d41e7f46ece85b92eba9e19399bb2d518b1434ffc",
            "dd9c8ba9fb63c6c8239581d0cee0119349a6c09eb8e28984854d59fe7fcbcecf",
            "b5da3c406652a642907d41271fc3195220c6e532d462dc71139ebbdb24099d43",
            "49b8ac2d29624a34ef971a75951a3cf170b95853244a8fd57ae27f71b2c46a68",
            "ca498aeec27063a4f24228da388f102657062b33b23f7420bbb301cbe07e10a4",
        ],
        "n7-gvss-equivocator-s1": [
            "94f2561f256a21b50ff2a23d0c86757b9c9d879276acbeb517def05806445afa",
            "d88db005ac64ae7a2d61ba9aa2f270da0abb69e9c8349cab414953455a662d92",
            "f5f77fabb40531b7ac3bd4cb9aeaddde5b10b20b9ab91ea025189ee8264438b0",
            "6ca6bd0b9b02d9ba950372e09c2f6625159165c476b69ee99b82613c719ca6fb",
            "ce15ad9b0fba21cb12085e35b510f703dc6359cfbb47308932240c0d317bac15",
            "94f2561f256a21b50ff2a23d0c86757b9c9d879276acbeb517def05806445afa",
            "649399d12300bf8ce214fc02b9757e302a73451c483d27c0af5a9fd4707416cc",
        ],
        "n7-gvss-noise-s0": [
            "7874c9d50265754ce133f23cd21c32824530e6d847485f85e17b9b1b54aec423",
            "64d7e0976a7b545e80dda380a12902c80424d3679fa6388d5f165a9061e90302",
            "333cc0a496ca4445810ac306a4f85c53b939b7c337bbdaf8ec33936978eb9a31",
            "1f6d032d1f6cc3882cdc334487e7d2f921bc30377d3f46c3f039843094dcb523",
            "fa4196a232f53114c5050a82b561b2b8394f45eb1ec8ee2ed1d51914924ec6ce",
            "7874c9d50265754ce133f23cd21c32824530e6d847485f85e17b9b1b54aec423",
            "1f091d791c101444d4c1c56a45a5471cc3b9c2083ec247aae70fb4660d615f73",
        ],
        "n7-gvss-noise-s1": [
            "8598522c250d0b77d88b53f5fbf097cecb69c3b3c8e5a5ce780a46f400426e1e",
            "863ad5e160191f2521afeb7d799201e6faa9058e4a20cece80a5ee01783ac485",
            "d665814d3caac37347ab5c6a75a6ac8dab6ed5e1c8ccd1514e668c687d739c8f",
            "e36fb861afe5f7aed6f347a9fe402ef312c9709545b059c135f10b58810c9486",
            "d7be96fc98610e4976488a3ae2956f5d59f6e9d6e4540f704c9f0b4a442a83cc",
            "8598522c250d0b77d88b53f5fbf097cecb69c3b3c8e5a5ce780a46f400426e1e",
            "929570db016a357d105d6e1b6c7fdfb3fad32b1b0e9340586c82e5d8b044a375",
        ],
        "n7-gvss-split-world-s0": [
            "44307c288bfb4c69563704c6f2cf351a54877ee39d56b8dd26a01ea76c942673",
            "2dfda07a88a34aa053080d5525ad3f64ff3193295019dc9375f080795ec0a518",
            "eb36b9234452697d0ef9735c63047020493ecd19b04858db4adb36bd9cacf0a1",
            "225e2f831f1a39c258a588917477d3240fa241f152db27ee97444f006e842cb1",
            "dc35f77cc8d1218f824d87d04a1879a69845c83007ae41af1478ca3f5cea0c12",
            "44307c288bfb4c69563704c6f2cf351a54877ee39d56b8dd26a01ea76c942673",
            "1ac64ac1b65bbf4fd9b576beea07a7b6e41e3d05ec59ae5b1835831d67d13954",
        ],
        "n7-gvss-split-world-s1": [
            "5ff04df0f84dbd5cc854df80bdc85433029234b440f273bbbe991690c7d88dda",
            "494609d398bcb56d18b625e6a8a6a43bb79c84300c46c24712e51a34ef507ce0",
            "fc56a7099ba2474842b284b902b5d4b3f0a85ba6d9e855ba9dc6dae5255a6d58",
            "697e62d95f8496438c7da8ff46274f094463ae3f1528b0ac43407f1aefef972c",
            "03fb86080fea2f7c1c700a988b6db6dfa61d22d1ab8549ea6b4c13cb9bd1a58b",
            "5ff04df0f84dbd5cc854df80bdc85433029234b440f273bbbe991690c7d88dda",
            "aa2d077b4379a256d1beba02d5e72622c3240c0a183e6eda18180ecef0cb5af6",
        ],
    }

    @pytest.mark.parametrize("n,coin,adversary,seed,regime", _pin_cases())
    def test_outputs_unchanged(self, n, coin, adversary, seed, regime):
        assert _timing_digest(n, coin, adversary, seed, regime) == (
            self.PINS[f"n{n}-{coin}-{adversary}-s{seed}"][regime]
        )

    def test_matrix_is_not_vacuous(self):
        """Some pinned case loses part of its traffic — the regime in
        which the rule, not its degenerate ends, decides."""
        _sim, result = _timed_run(4, "oracle", "none", 0, *_REGIMES[2], beats=40)
        assert 0 < result.late_messages < result.total_messages


class TestSharedFormCounts:
    """Cost follows what can be late, checked as counts on the ledger's
    ``ev-drift`` shape: n=16 f=5, delays in (0.05, 0.3), a drift that
    spends 0.6 of a period on skew by the end of the horizon — so every
    arrival clears its close by at least 0.1 whatever the draw says."""

    N, F, BEATS = 16, 5, 60

    def _counted_run(self, monkeypatch, delay_bounds, adversary=None):
        from repro.net import plane

        counts = {"push": 0, "group": 0, "envelope": 0, "records": 0}
        draws = []

        def counting(owner, name, key, amount=lambda result: 1):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[key] += amount(result)
                return result

            monkeypatch.setattr(owner, name, counted)

        counting(EventHeap, "push", "push")
        counting(PulseSynchronizer, "send", "records", len)
        counting(plane.BeatTraffic, "sort_lanes", "group")
        counting(plane.BeatTraffic, "_merge", "group")
        counting(plane, "Envelope", "envelope")
        delay = KeyedDelays.delay
        monkeypatch.setattr(
            KeyedDelays, "delay",
            lambda self, *key: draws.append(key) or delay(self, *key),
        )
        sim = ContinuousSimulation(
            self.N, self.F, _factory, adversary=adversary, seed=0,
            rho=0.3 / self.BEATS, delay_bounds=delay_bounds,
        )
        sim.scramble()
        result = sim.run(self.BEATS, k=K)
        return sim, result, counts, draws

    def test_nothing_can_be_late_nothing_per_copy(self, monkeypatch):
        sim, result, counts, draws = self._counted_run(
            monkeypatch, (0.05, 0.3)
        )
        assert sim.late_free_beats(self.BEATS) == self.BEATS
        assert result.late_messages == 0
        # A pulse and a close per node and beat; no arrival events.
        assert counts["push"] == 2 * self.N * self.BEATS
        assert draws == []
        assert counts["group"] <= self.BEATS
        # One shared envelope per broadcast record, not one per copy.
        assert counts["envelope"] == counts["records"]
        assert result.total_messages == self.N * counts["records"]

    def test_draws_are_made_only_inside_the_undecided_band(self, monkeypatch):
        from repro.net.events import _on_time

        sim, result, counts, draws = self._counted_run(
            monkeypatch, (0.3, 1.2)
        )
        assert 0 < result.late_messages < result.total_messages
        assert 0 < len(draws) < result.total_messages
        assert counts["push"] == 2 * self.N * self.BEATS
        delays, syncs = sim.delays, sim.synchronizers
        for sender, receiver, beat, _seq in draws:
            when = syncs[sender].pulse_time(beat)
            close = syncs[receiver].close_time(beat)
            assert not _on_time(when, delays.hi, close)
            assert _on_time(when, delays.d_min, close)

    def test_the_adversary_costs_one_event_per_beat(self, monkeypatch):
        _sim, result, counts, draws = self._counted_run(
            monkeypatch, (0.05, 0.3), adversary=EquivocatorAdversary()
        )
        assert result.late_messages == 0 and draws == []
        assert counts["push"] == (2 * (self.N - self.F) + 1) * self.BEATS

    def _tallied_run(self, monkeypatch, delay_bounds):
        """(``count_values`` calls, merged inboxes per (path, beat)) of
        the drift shape under the equivocator."""
        from collections import Counter

        from repro.core import clock2, clock_sync, majority
        from repro.net.plane import BeatTraffic

        tallies = []
        count_values = majority.count_values
        for module in (majority, clock2, clock_sync):
            monkeypatch.setattr(
                module, "count_values",
                lambda values: tallies.append(1) or count_values(values),
            )
        merges: Counter = Counter()
        merged = BeatTraffic._merge

        def counted(traffic, path, entries):
            merges[path, traffic.beat] += 1
            return merged(traffic, path, entries)

        monkeypatch.setattr(BeatTraffic, "_merge", counted)
        sim = ContinuousSimulation(
            self.N, self.F, _factory, adversary=EquivocatorAdversary(), seed=0,
            rho=0.3 / self.BEATS, delay_bounds=delay_bounds,
        )
        sim.scramble()
        sim.run(self.BEATS, k=K)
        return len(tallies), merges

    def test_two_stories_cost_two_inboxes_not_one_per_receiver(
        self, monkeypatch
    ):
        """Crafted rows enter the beat's lane whole, so the event path
        shares what the lock-step engines share: one merged inbox and one
        tally per story, where every receiver used to regroup and recount
        its own (21.05 ``count_values`` calls per beat here)."""
        tallies, merges = self._tallied_run(monkeypatch, (0.05, 0.3))
        assert tallies <= 6 * self.BEATS
        assert merges and max(merges.values()) <= 2

    def test_copies_that_genuinely_diverge_cost_what_they_did(
        self, monkeypatch
    ):
        """The control: with delays of (0.3, 1.2) most copies are decided
        one by one and receivers hold different inboxes; nothing is shared
        that is not the same — 791 tallies, as before the plane."""
        tallies, merges = self._tallied_run(monkeypatch, (0.3, 1.2))
        assert tallies == 791
        assert max(merges.values()) > 2
