"""Continuous-time event engine: the differential pin and its physics.

The load-bearing test is the zero-drift / zero-delay differential: the
continuous-time :class:`~repro.net.events.ContinuousSimulation` must replay
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
    TimingLinks,
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
        """The wire plane counts and refuses a late arrival at the door
        (``BeatInbox``, under the live barrier); ``TimingLinks`` decides
        it at the send, counts it at its receiver and drops it."""
        sim = ContinuousSimulation(4, 1, _factory, seed=0,
                                   delay_bounds=(1.0, 1.0))
        links, receiver = sim.links, sim.synchronizers[0]
        # Node 1 pulses beat 1 at 1.0; the copy lands on node 0's close,
        # 2.0: on time.
        assert links.classify(1, 0, 1, 0) == 0
        sim.synchronizers[1].clock.rate = 0.8  # sent at 1.25: late
        assert links.classify(1, 0, 1, 0) is None
        assert receiver.late_messages == sim.late_messages == 1

    def test_a_faulty_sender_sends_at_the_latest_honest_pulse(self):
        sim = ContinuousSimulation(
            4, 1, _factory, adversary=EquivocatorAdversary(), seed=0,
            rho=0.1,
        )
        (faulty,) = sim.faulty_ids
        pulses = [s.pulse_time(5) for s in sim.synchronizers.values()]
        assert len(set(pulses)) == 3
        assert sim.links.sent_at(faulty, 5) == max(pulses)


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
    """What a continuous run computes with drift and delay *on*, pinned.
    Only ``rho = 0`` / zero delay has a second engine to disagree with;
    everywhere else a wrong lateness rule would pass every differential
    suite.  The digests below were computed at the commit before the
    arrival-event message plane was replaced (one heap event and one
    keyed draw per copy), over traces, late and message counts, the
    per-beat tallies and the real-time metrics; the 152 of runs with late
    copies were derived again when a late copy became a dropped one in
    ``stats`` — the heap-driven engine plus that one
    ``stats.record_dropped`` call."""

    PINS = {
        "n4-oracle-none-s0": [
            "d733dfcf3d082b76cf1c4583b2decc026dffa646942de71fe3e1d81fb42de92f",
            "02d8c8c14925d175653d48a6d139562be2bd7ba9ac0dd02f6725afd4c9c9df9e",
            "70d324ee90da8f7f0893acf8913e6aca0e9a7f1062432535779b5e9aa52db35e",
            "4c5fca6907be115d20e9b7cfd845572bb54458376dcd5a9d5261e3a083f8834e",
            "586fe86e6563095e3f6e1eef42c56fd4306cd40a7ee992a55bacf1d8cee2bf6a",
            "d733dfcf3d082b76cf1c4583b2decc026dffa646942de71fe3e1d81fb42de92f",
            "16ec03b4bb2213d2a178aed353b5b1295a9786687b56d6882b5f6528775a748f",
        ],
        "n4-oracle-none-s1": [
            "6b15c3da5fd9f078320fe8aa6fea4278b181cc284e1c5fc0cc702936ae6baed6",
            "2010fd32190b421a0cebb3da9153c3c6b50100f713a740052d600f4b86bc2110",
            "46915f6de3f33817e751c01b5d486ec7dcf58e552316b9e2db8e0f34787e31c1",
            "bc3cb8dd1bc9148bab830f47720af94ac642c947b26ab7b071ace2ad90dc2b03",
            "3153ae66350ea1d5b553633aacfdef9ed8c4d09fd66135e9e0d8f3dcad9d8a76",
            "6b15c3da5fd9f078320fe8aa6fea4278b181cc284e1c5fc0cc702936ae6baed6",
            "1508bdead482d9009d24270c1ff76bbe6a04aa709dca1950c8d6dd143a689315",
        ],
        "n4-oracle-equivocator-s0": [
            "17e5bd3ba6ea855e7fa485fe07fe73f9b7a6b318d5814a83ae0c903f98fe9aab",
            "95f648e463a7f3441f8b42420b1f88fedfcb7e1a8b7e0f1dd7b9d06990d45d67",
            "4afe576d29329019639341dd98e295e1cd2a557380389d6ab37e31f52d9b30d5",
            "04376f3a60393d0b81ae43203226b72c86f3c32d7bb0aa9ddb689472dd6f6132",
            "de066edf749a5677350cb4ee306f140fa31faf3e54fb05bee1d521ca6ed8cd82",
            "17e5bd3ba6ea855e7fa485fe07fe73f9b7a6b318d5814a83ae0c903f98fe9aab",
            "e8b20cec75215860dc82ce56e05fc3db3342f1dc982d52edb8bd6d631dda145f",
        ],
        "n4-oracle-equivocator-s1": [
            "c70a564f151f73725c4bcb42b354fb54b7c80db0df89fe4b08e37533a89da7a3",
            "a532324477f62c9d4daf70840895cdecfec3f9a54e2d0860c8e29e2951daa71b",
            "52750b152cdeb37621491176211da13f2943a6ceae8fa469bb44cf905bdadbbd",
            "c77740056c3ceb93ea8ac6c7e0c00365cd26837ddd4c3a527251b47df66316c3",
            "01b114de6bd64c0f0575afc07457fc56d3000446c27a012d3649cebd35506c89",
            "c70a564f151f73725c4bcb42b354fb54b7c80db0df89fe4b08e37533a89da7a3",
            "95d74e781e5151feb016c06423a83f4aecc7f6767bf1ccdd95662e270aa4cd85",
        ],
        "n4-oracle-noise-s0": [
            "ef69e47cdf851b244235002c2139f16f73ab62a51a3ca595f934a75199f85cde",
            "284173371ce6f0311d21d6fcc815183b2f0f275640c57ed27be50c47f46d2e9f",
            "601939e025f832dc9255b55301b3c09ddec65faf4c46b50e0db8780c39f84f99",
            "2e15dfcfd83ba53f2b75fb00f2cbb4a4de4181ea9fe42f806faa6b2118cda510",
            "07d374daabbdb1855e05b58da1e9cceba45295d57334afc7fa140797ca8d8785",
            "ef69e47cdf851b244235002c2139f16f73ab62a51a3ca595f934a75199f85cde",
            "0ec56994ef9e43c20e0ee6be8d57448628d74b5f3c746f91fbbe19ebd3dd379b",
        ],
        "n4-oracle-noise-s1": [
            "57c19e71d15ed98d965dca45ee31f1ef1b23ccc13718edbd935b369c6c267c2f",
            "84924ce141efe54e70ee01d9d73a31618dbaf3fc9ed6e5cfac1706b6097f90a6",
            "2b07742efa46a80d3ebb7fd069f7bf3fe1e3149d8fd63bb39add682cae1b487b",
            "159294afed15be42e00563d9cc493b5efde11d930c9c015349771451528f8df9",
            "386730e23d068413c6c4e078cb9bd86bdc66eac74ca8c6e8c530db27989b146d",
            "57c19e71d15ed98d965dca45ee31f1ef1b23ccc13718edbd935b369c6c267c2f",
            "8e8d69c674dd129afbbbcab7c772fd2988f98dfc66749b17fb2bc56612d28fe8",
        ],
        "n4-oracle-split-world-s0": [
            "4ea6f44df2f91e2c8c569962f24aee767f2799b283deaed41ce43bd128e265e5",
            "244bd20d1a454d74cc5419027845a43431bfa26aae3e584c6b1c887e1b814f06",
            "408554e8ab26ec25c14cadb21e0b5dfbc3b976ef3ba7106bcb46465748a7f31a",
            "f788942a9bc390fe388252635d5b72cae815216e27e4fb75926ebd2b106095fc",
            "24c3969ff139bf594d43b639e99905d6d32495cf615652e62e94764efd2aee78",
            "4ea6f44df2f91e2c8c569962f24aee767f2799b283deaed41ce43bd128e265e5",
            "e3ccd49218aae0e188cd320cea87a930edbe4229b1ac0cee5574a77a05c57f78",
        ],
        "n4-oracle-split-world-s1": [
            "16db28168c54f671bc30f90d59fd09059f6fd70ab70d3399eca370a9b9105fd6",
            "f5c7e65c8e737e0d0643eb8ee1cc6045bf7d3b1464153ae3f950a6176b5fae99",
            "69a63b94148a83723d3ada6e224dbab82b01942732085a7be0eb6e51f89bb3f7",
            "17ee067762417e024ab1002ca5e65880f115dd1a5208699cff1183870da11143",
            "623f6ae1775fb28fc32cb63a4ef7ef108209a22e73cd8c50d602916f6b89101e",
            "16db28168c54f671bc30f90d59fd09059f6fd70ab70d3399eca370a9b9105fd6",
            "2ad3ac461e191ed2cc3ac625e54b1892d4da8e5690ef6867b5adc04167ca74b8",
        ],
        "n4-gvss-none-s0": [
            "1fe023d4e98a242036f6062422069d428ae6f95e75e033cc89c50c8ce557c5f1",
            "62767c8313fd27e9be8ebbe8b0a8e45b5a49ac6ddd7469b2b32899bdb4a0a6a4",
            "695a0d104638860241ef01908f1f9c7b21febd2df27787663821673497cdb0d3",
            "44493a7215663c8f07ec6c5172f768f2247d5829e83b21ad3bd88f57393d1a2c",
            "bed2b55adc690ddc928e057c9da73f9f557dc39fe3fa4dd562a69549ce963bf1",
            "1fe023d4e98a242036f6062422069d428ae6f95e75e033cc89c50c8ce557c5f1",
            "e95aacc5a8e1000bd07f8d332283a46746b3623aec0e6101c94bf8cd4d933d50",
        ],
        "n4-gvss-none-s1": [
            "4e780b7a51ecbd133242b7b89d0edaa6744177d43d2273f7a95085c3dd2b2900",
            "3ab49d32c04f241e1c761a2292398ebca0a7496a65ef85b53fa3240fcef6a094",
            "077a001d5459200a7a968738eb7376df12879c5d682960237ddcca35cc6f0dc0",
            "1d544a71a42b415439970e09417ee1c95496608e51482ae5e1dfd1fbf9f859bf",
            "23ffe11c1f429d1ce08e3c341907b2e9a68a0baba0eefa7b70b6db23bbab7f46",
            "4e780b7a51ecbd133242b7b89d0edaa6744177d43d2273f7a95085c3dd2b2900",
            "1788aec5a9830d0a93110e55b25854916d5557b225a7a87ebf7f7d312c26f803",
        ],
        "n4-gvss-equivocator-s0": [
            "7ad85b278eb2e244690639048e63390cfc70bb0ea10d25b9ee84d00d62eb43bb",
            "cff9e3c26d14a779137b9d31e373c8ee5043b6e0abc77825f8f6fb98ace3fb0f",
            "1ff75237816f2cf6fb48626dfbf163df53f87ce8c1cc90ac8219bca13bb601d3",
            "1c71b82ab1b841bb995fe1823b738277420f6835fe058121aee3e6c7e18c38d4",
            "a7510e08d714084b32ac5dfc10956cd0930ee9c133942032185945ac8400ef50",
            "7ad85b278eb2e244690639048e63390cfc70bb0ea10d25b9ee84d00d62eb43bb",
            "e9135722e1edadcad9b42e8e1fa0f3305ed5246d6dded10be7cf10443d22064d",
        ],
        "n4-gvss-equivocator-s1": [
            "5dfe5107a5840f0ebd173f78ae194c03aa2ece4a59a6ac81fd2119a46d383b16",
            "00ce8a19c8d097f2eb4a8449419a3cda3f68c3d00c498c25e458ceade2a4df95",
            "7b1dd86bd23601e5cef64ce1288853b3a7ecb1cc4a24d6f2be9ea42263c52585",
            "8597f9709d901c2fbb243cb6138b9f232b95467c460c9954f8859dbb47d30dfd",
            "23ed1db4040ad40bd669b5f4fdfdfff11627889ef4ceb656b89eb236fe6dc911",
            "5dfe5107a5840f0ebd173f78ae194c03aa2ece4a59a6ac81fd2119a46d383b16",
            "e5f710ca10b51298994fe297d81b92f5617d1461e361ef237bab70e7f45ffa9c",
        ],
        "n4-gvss-noise-s0": [
            "925b7290115bd0a3efda3fc3e410ed046b3567f5c9a6d2dbdec619856abd3205",
            "d239b46d54857497177ebe8ee5893e1ba4b1fa2aefe021b43ac4f338b9af58ad",
            "bb0b3f7954da2340b1a37749331a7e2cfc768f8afbf1bb5ddc00f06dd314bd21",
            "3e389eea195a685f1db438ace083e5bf610ba07bff2a14964b02ab19214f8253",
            "651c32a988054f0ebbffccf875dfbeb9af10382fd6f0c5fe9619d6804f9db9a3",
            "925b7290115bd0a3efda3fc3e410ed046b3567f5c9a6d2dbdec619856abd3205",
            "839dd9e61c69da79cf757ac6fd5bd059922ef076026d8627c27190890b43f1a3",
        ],
        "n4-gvss-noise-s1": [
            "1021f74b376c83dd47cfd06363bd34e527bb59465123c63d4533afef4597de6d",
            "ebc9a81a25085a7a55008e2e8a5a0881e10f40afc3c60b6cb3d14b6f599fa362",
            "ef95fe296418f0e7e4cf37eb3d2c3d64981ec6f9ae03b31939bfcb22c0023f2c",
            "ebd636997c7fef50b61bb3cf2c3ccf4d53fb1a21502af8a9095aca117a04ac13",
            "dd66c932d12ab03fdec7f3de64bdcee940f0567f4a250db1b18d3cf287e3f397",
            "1021f74b376c83dd47cfd06363bd34e527bb59465123c63d4533afef4597de6d",
            "7b7ee87d36189e7ea11a44be7a237e7be4cdfdd4109ee13fea84fca5b7eeb88a",
        ],
        "n4-gvss-split-world-s0": [
            "493af4522e3a4c28cc437f509986c16c94be14719f65c13a64b1614f10b34f48",
            "70027be8720081a19630d0524535a367b2caa1a85cec25a37bb376946e56d2f8",
            "f26a90cfaf56e448cb39ddc1af7e92e22b95a683ec8089c83b2532681f93ea50",
            "32c8f725854c8fe25852ea2361808c2f880638c940d1493b060dde40ced637a6",
            "26617980437a0312ddeffcd4873c00a626eacabe61139e142013f4ba76ce4de5",
            "493af4522e3a4c28cc437f509986c16c94be14719f65c13a64b1614f10b34f48",
            "7049b34b6dc74ada5a39e13ac3a13bd057323a75fcaa4152cbcaa95fe0f571cb",
        ],
        "n4-gvss-split-world-s1": [
            "462be2bd68b7c5e6389b02beab8bb4217414382b69d39dcc6ca76943b57372ff",
            "724764a55df4001e647c19a31807e31c04c22940a7b5362d686081d6795ca2db",
            "4090292ac4a4c308495d29634f0194ad421736928cf795f8c34beb6b26cfe7f3",
            "68dba7e2cdf282557b28e78cbd18b370ddd1ebdc96b3e7db2f8133bf6c2dbbe0",
            "0fe02f3fcfd31afb4775493d71de5a28cc2ad749f3acd0e8170bc3fa14e08af9",
            "462be2bd68b7c5e6389b02beab8bb4217414382b69d39dcc6ca76943b57372ff",
            "967e01645d207fecf44914ee830e4ab37df3b2da74275e69ea3bb7428b7e6a49",
        ],
        "n7-oracle-none-s0": [
            "3ce0819734fc58bd24fe56a636c9c33fe6e067f97c7054328bceffd3ba684dda",
            "eecae56a57ac096def8c21cd050f5f8a44d6edcaf9784f5d6eaa3003920eda30",
            "b43046f02e620387b1a57489c8d0dd85611897e1a60e43b59f98f0853376703a",
            "8f43b662174ccc5d6d47e33e187c11970a2166682ec317ec84ca69237b3052a9",
            "3e609367da44c3e2efcc5506f5c9ddfc9bd454590bc642841c8c48f68feba52c",
            "3ce0819734fc58bd24fe56a636c9c33fe6e067f97c7054328bceffd3ba684dda",
            "23378a25aae1f6826eb4fadf12397257c75a03287409a1d087da1a8d66eed684",
        ],
        "n7-oracle-none-s1": [
            "b5e1669c37c75816f4185aeb2b165a991c17ccf9755348bec8cb20a822903575",
            "abc690c29537d5cab2ae4d3766dcde9758b26b6445576c216b731b2c5e97d705",
            "b5fc7dd1fbc38d9c6d2f0ddbe7e6b00c39bc12feba9fdc927838e5aa176c1da3",
            "151486243e82a8d098c6b4922843e5844291c29721bb1d3cca5eed81bee3f730",
            "21765888a0a7cf5c3e58b85fa577bb09878157526c63a650667ca02dd7a04dd7",
            "b5e1669c37c75816f4185aeb2b165a991c17ccf9755348bec8cb20a822903575",
            "222079b3337f4d5d34b8d8c7b438ed2946e94f2972444cfb67e858f7ed5160c1",
        ],
        "n7-oracle-equivocator-s0": [
            "d193cfa807a5625a0c8cca8fec9a0d5f7d490d4d705e5ffeab2413e32401fedc",
            "e37f3c4013c9d493380f1d416fb80fb611f3471068ecd04fe5f608c433c0e09a",
            "61c5d180a6583ca8b1a5e529134842bba4455c0b4571dd844bab7e2cddf6b6fa",
            "f05c93f3b5408f2fb6474c967228e0a26fe8727761210d0d1d601a22b35f1649",
            "243a5b82d0ee84a1ee1b15871dc759526c540ffa51f59a5999b393b1a6abb278",
            "d193cfa807a5625a0c8cca8fec9a0d5f7d490d4d705e5ffeab2413e32401fedc",
            "d34a9606275611f7709bae9bc0ab4b1a6321156b36e6b3e67a7c0be3436ca78a",
        ],
        "n7-oracle-equivocator-s1": [
            "9545cb93d7202d5a7a8dd68a3ad8c2a4b3db314db715e25376685bfcfc8e132d",
            "d7e69c5085aa1c6f961fd4a4ac6e7571324cc73aeda2833f1bd8b91eb1b41ca5",
            "9d5636ce42a4a19edfd1b78e76df4624931e0632bdcbb33a6f8be8c73bdd271d",
            "4146cb58bcaefbb2dac317e01a4c133909a9ad6d19906478141e4fb17372892a",
            "38568ebc0c13181f70b5fc2e8adcba67bd7c711a93f6500b5c3f1c2cb115a5bb",
            "9545cb93d7202d5a7a8dd68a3ad8c2a4b3db314db715e25376685bfcfc8e132d",
            "aadb34d791aff41784579e01bb4cee44631da1a2bd619866a27bf9d9a00d5857",
        ],
        "n7-oracle-noise-s0": [
            "5ba9c2fb7cac08fbefcaeb4026996858a0236a2aecc3a48ac7a94f80cc24320a",
            "5ebacb7c0f4fb5e340a1273e65f47a60181d43d04b719f34a6ec371dee0182a2",
            "79a7103cc0d8e36af8fbab752db4dcbd043750bdb16a565c0f89b7497b7f134e",
            "38b08e12da4b9f66049b76a67bcc4003433d8844b53dee5a615f9f70131e6361",
            "0280c622aee3a71bb32d34182bc435205f8344a428307758ff32e19663da2932",
            "5ba9c2fb7cac08fbefcaeb4026996858a0236a2aecc3a48ac7a94f80cc24320a",
            "b4820a567e3f16477ec12583d4fa2540a2ca9f0940217a4ca61cda4ee170a956",
        ],
        "n7-oracle-noise-s1": [
            "e3dd0dc44a69406c6bfa848d2228d684b813f4a6da0afb60c8182a7faf3fa2f3",
            "2c9703c3ea4e443197dfbdf154452a0b6398993e4f6cbdb9f00df0b898a0a94a",
            "724e4baa46efaecee8920d4cc4b515f369c03affa826da1e3f65cf791d11ed69",
            "8902ce652d440e7170a9e203d8f781eb05beec84d4228e045000bcdc61dbe9bf",
            "bae079ee41c2f1a5c6c069781e62162b63ab118f64a74daa3b505f3ac9ee9858",
            "e3dd0dc44a69406c6bfa848d2228d684b813f4a6da0afb60c8182a7faf3fa2f3",
            "19edfad8c7138f0e42449a024036470d368efa5155428663d41243458ed7f4e9",
        ],
        "n7-oracle-split-world-s0": [
            "d313f987891384fc1785133c397144c552bd156b15aca11cf9021440ee279ea1",
            "8629d8a0bdffa0d3686e14b07dd508a85af5b6140ed96af07f161919c8604dbd",
            "d9384902e0bfc00e6672d24c7195ec08c57ce5902c910824a94ca36356ab1ba1",
            "a57bc13113cf1c1932a5d9223bb071d6ec01da43268b371b4898a56c5281e714",
            "2be549e85d210d93b77c86c0f76933b8099c5d5c5a97a3dce478f8a1bea02fac",
            "d313f987891384fc1785133c397144c552bd156b15aca11cf9021440ee279ea1",
            "f731f184d81c7b9f25bbd0febdb6a1e66aadad0864c1f5c3edc9cb6f8aff2875",
        ],
        "n7-oracle-split-world-s1": [
            "41ec2d1e89811886b7556d069613cdb19d4e2ec663e83fd2db2aac860c855a9d",
            "8ae891c5e9080721a31f5b6a84540c33b14ad60e20a1a918b9f3a2aa957db544",
            "19f1b7463b31bfd61bd7c28847acb5584353732d7c52c38837fd46957f08d17b",
            "f0a1f0718a7ad2e12de880b57a45bab2f2d2f0ca50783979783282738572bf30",
            "722fbcb6f26a6956b8eacd5b6dded06284747e6859fc85df526719962d728c19",
            "41ec2d1e89811886b7556d069613cdb19d4e2ec663e83fd2db2aac860c855a9d",
            "3f58f52ef78860ade8abc66f4d038ed38a14df951640404a9125eaf73627b7a8",
        ],
        "n7-gvss-none-s0": [
            "2046362044a916fd3cad45a5a8d8c9e0197ff35f7da6e76666ee2f6ec6eac345",
            "415d9d5843a81e6aec22b2f98c8f457999337b43e5a7482eb5d24c23c58d4bc7",
            "d89938deb54941e69f309aea695ae542b3ff531277d991c718e979229bcac684",
            "45af8506d539a91d1289503fbc2e1db2822bc8b7fd5421c821c78cb6b437d6a6",
            "0652696012c2235ae056c942ffcab8e54690271cce597fe8b6b73eb7a6079a1b",
            "2046362044a916fd3cad45a5a8d8c9e0197ff35f7da6e76666ee2f6ec6eac345",
            "4f4166d34293a5b379a28ca3b5cba3685f938841aa94232523308fbb40789f5e",
        ],
        "n7-gvss-none-s1": [
            "007b848934b2c7223914b4ab4547a3e62036a8ed454a64779292891360e5f6e6",
            "18a538ddf868734716bef9a0b2e38b9877be64e8919be38860272eb3444b40b0",
            "23db6cff7d7008826c8c55370e87765d8a976245b4b818f3f95a76f4c91387b1",
            "6c79cb136c4fb18c5b4aed674548b4ae947f3a44718df0bd62936bd8220ac258",
            "c35b43ba2ca9ec447620efd74c5f59816fd9c8d09d8d2581dd8227cfc5f82847",
            "007b848934b2c7223914b4ab4547a3e62036a8ed454a64779292891360e5f6e6",
            "63fe11f4a0b69e3b63ed7b435ee8d70271ea78704c582e2c2ecc80bdd73b2735",
        ],
        "n7-gvss-equivocator-s0": [
            "49b8ac2d29624a34ef971a75951a3cf170b95853244a8fd57ae27f71b2c46a68",
            "a0dd43a158fdcb762a1367c5e03e0244c0b239c15e8ecb891884b239a6c4d79f",
            "860cfb103911806095c2c0eac116ea2d671e6ead0c2d9ecc2e8c65ee0c7127d5",
            "7bcb01ef0a57dbfdc2e57bcd275a90f61fc10c96112a3e96800f1d8b010c0400",
            "0cbf2377f11ac9edd59662771f1ab0e7eb8b6cd700b0777d69c72bb341f12f30",
            "49b8ac2d29624a34ef971a75951a3cf170b95853244a8fd57ae27f71b2c46a68",
            "a5a2a8091892c9f297e60fd6d1b795ddbb0b1ca6ca2533bf30a79556bb2b3c55",
        ],
        "n7-gvss-equivocator-s1": [
            "94f2561f256a21b50ff2a23d0c86757b9c9d879276acbeb517def05806445afa",
            "d88db005ac64ae7a2d61ba9aa2f270da0abb69e9c8349cab414953455a662d92",
            "c6f369bb1779d71630b6716b01d469b268b9000211f5975a3a139fe2e5709c22",
            "f04b13a6701cd9a07331ec7f5f20e2ffa553f02ec907e2baadfc4998f0e30c48",
            "b8a2d9407a9f8ace6ac02bbdd9d0d5889952de250822b0ac28516034f818ede0",
            "94f2561f256a21b50ff2a23d0c86757b9c9d879276acbeb517def05806445afa",
            "e9583712c686657b81373060879144988f145e7e5379d3e1d4f985332882fc79",
        ],
        "n7-gvss-noise-s0": [
            "7874c9d50265754ce133f23cd21c32824530e6d847485f85e17b9b1b54aec423",
            "5a5663a691d5907338a11d04723c3c5d13432acc709e1b729cd6b1c3cc240d12",
            "8b0998a0c42bf58bee4a1c4aa8f28fa18591f24bd159cf2067ea74bd056010e3",
            "e2077158c2a43ed6a007fa55a668fa56fa14ca1ac50ea2b4feb8ab4141841a7b",
            "b73426446e468ce21889cebdbbfb7b1ca3ed61bf02e0ea99f15ed88a339f355b",
            "7874c9d50265754ce133f23cd21c32824530e6d847485f85e17b9b1b54aec423",
            "b64ba4169112c6609bf23a84785d30afa7bf09427060b8ca434df4f6f3953707",
        ],
        "n7-gvss-noise-s1": [
            "8598522c250d0b77d88b53f5fbf097cecb69c3b3c8e5a5ce780a46f400426e1e",
            "863ad5e160191f2521afeb7d799201e6faa9058e4a20cece80a5ee01783ac485",
            "7da49f0557bc6179b91d11a5e74eded25bf19f7a8b760f48e036ad5be5835969",
            "52edca079b1a24418472cdd944a9114c7d2e97895835311bb464921ea7c3fb60",
            "6774994e0d5e89af53178c866c1c220c6e0fa56502e22546b93ff141fa8a6243",
            "8598522c250d0b77d88b53f5fbf097cecb69c3b3c8e5a5ce780a46f400426e1e",
            "0a37528b8d666d2d5b92aea2ced29ce57b15b80db2094fb3e6f9b99b0f2eca37",
        ],
        "n7-gvss-split-world-s0": [
            "44307c288bfb4c69563704c6f2cf351a54877ee39d56b8dd26a01ea76c942673",
            "4f1073c93c30772fe0bf58905db01d55edf6633fdcae26aa2f90978e5a29c83d",
            "6e409d1c2aa9904e77c913f7a60ff4bfbb2a225084ee0c009f5972260e1529f7",
            "7367ccbca4f958bc04ebe9ec15c392675f57dfd5d51a48cec718909d0a6a04a8",
            "cd713da658c577c5e4443472bdb88fc5d3cf8832c470a342116d745b3b7f3efa",
            "44307c288bfb4c69563704c6f2cf351a54877ee39d56b8dd26a01ea76c942673",
            "c3e31b763ff9473c690dda52e0dac5819a3898185d35a24ccea73042e5f5df42",
        ],
        "n7-gvss-split-world-s1": [
            "5ff04df0f84dbd5cc854df80bdc85433029234b440f273bbbe991690c7d88dda",
            "494609d398bcb56d18b625e6a8a6a43bb79c84300c46c24712e51a34ef507ce0",
            "df214d029beb92a82dddf247300371ad48a4b95370d228f373f5ed82962a56af",
            "7612b007f4b5d62df0cc5344cc87c5fbbdd67f97be9ed8ef7ee096d1e04b8960",
            "9c964a2b4f871fc94cbf8f4f523199648a83383bb4e4b51edd373a5a506c9461",
            "5ff04df0f84dbd5cc854df80bdc85433029234b440f273bbbe991690c7d88dda",
            "20570b6df3ed3909bd124e9887c8fafc42397224bf0e98dfbdefe395941f29af",
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


def _linked_run(engine, n, coin, adversary, seed, regime):
    """A pinned timing case as a plain ``Simulation`` on ``engine`` with
    ``TimingLinks``: trace bytes, late copies per receiver, stats."""
    rho, delay_bounds = _REGIMES[regime]
    spec = ScenarioSpec(n=n, f=(n - 1) // 3, k=K, coin=coin, adversary=adversary)
    links = TimingLinks(rho, delay_bounds)
    sim = Simulation(
        n, spec.f, spec.root_factory(), adversary=spec.build_adversary(),
        seed=seed, engine=engine, link=links,
    )
    tracer = Tracer(lambda root: root.clock_value)
    sim.add_monitor(tracer)
    sim.scramble()
    sim.run(40)
    stats = sim.stats
    return (
        tracer.to_jsonl(),
        {i: s.late_messages for i, s in links.synchronizers.items()},
        stats.as_dict(),
        sorted(stats.per_beat.items()),
        sorted(stats.dropped_per_beat.items()),
        sorted(stats.per_path_prefix.items()),
    )


class TestTimingLinksOnEveryEngine:
    """``TimingLinks`` rules alike whoever asks: the reference engine,
    which expands and classifies every copy, computes what the fast
    engine computes over shared form — over the fast slice of the
    ``TestTimingPins`` grid (every regime; the skewed crafted shapes are
    ``tests/test_plane_pins.py``'s)."""

    @pytest.mark.parametrize(
        "n,coin,adversary,seed,regime",
        [case for case in _pin_cases() if not case.marks],
    )
    def test_reference_equals_fast(self, n, coin, adversary, seed, regime):
        case = (n, coin, adversary, seed, regime)
        assert _linked_run("reference", *case) == _linked_run("fast", *case)

    def test_a_late_copy_is_a_dropped_one(self):
        """n=4, rho=0.05, delays (0.2, 0.9), 40 beats, seed 0: 225 of
        the 1 228 copies miss their close, and the stats say so (the
        heap-driven engine counted them late and delivered)."""
        sim, result = _timed_run(4, "oracle", "none", 0, *_REGIMES[2], beats=40)
        stats = sim.stats
        assert (result.total_messages, result.late_messages) == (1228, 225)
        assert stats.dropped_messages == result.late_messages
        assert stats.delivered_messages == (
            result.total_messages - result.late_messages
        )
        assert sum(stats.dropped_per_beat.values()) == result.late_messages


class TestSharedFormCounts:
    """Cost follows what can be late, checked as counts on the ledger's
    ``ev-drift`` shape: n=16 f=5, delays in (0.05, 0.3), a drift that
    spends 0.6 of a period on skew by the end of the horizon — so every
    arrival clears its close by at least 0.1 whatever the draw says, the
    link certifies every beat perfect and the engine runs the lock-step
    shared form."""

    N, F, BEATS = 16, 5, 60

    def _counted_run(self, monkeypatch, delay_bounds, adversary=None):
        from repro.net import plane

        counts = {"classify": 0, "merge": 0, "envelope": 0}
        draws = []

        def counting(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(TimingLinks, "classify", "classify")
        counting(plane.BeatTraffic, "_merge", "merge")
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

    @pytest.mark.parametrize("adversary", [None, EquivocatorAdversary])
    def test_nothing_can_be_late_nothing_per_copy(self, monkeypatch, adversary):
        sim, result, counts, draws = self._counted_run(
            monkeypatch, (0.05, 0.3), adversary and adversary()
        )
        assert sim.late_free_beats(self.BEATS) == self.BEATS
        assert result.late_messages == 0
        assert counts["classify"] == 0 and draws == []
        if adversary is None:
            # One shared envelope per broadcast, not one per copy, and
            # nothing to merge.
            assert result.total_messages == self.N * counts["envelope"]
            assert counts["merge"] == 0

    @pytest.mark.parametrize("adversary,calls,drawn", [
        (None, 20505, (
            18509,
            "a37d1b150cef3d481430a03b355d9fa85b2aac07381fcf2a88b65f51dd56fe24",
        )),
        (EquivocatorAdversary, 13425, (
            12710,
            "5d8a87b0abeb14be37b3ab12f566e8634fe97ec5f6d62de20862d812dfe2d578",
        )),
    ])
    def test_draws_are_made_only_inside_the_undecided_band(
        self, monkeypatch, adversary, calls, drawn
    ):
        """Delays (0.3, 1.2): a copy is asked about only in a beat the
        link cannot certify, and the keyed draws are exactly the ones the
        heap-driven plane made — their count and the sha256 of their
        sorted keys, recorded at the last commit that had it."""
        from repro.net.events import _on_time

        sim, result, counts, draws = self._counted_run(
            monkeypatch, (0.3, 1.2), adversary and adversary()
        )
        assert 0 < result.late_messages < result.total_messages
        assert counts["classify"] == calls
        digest = hashlib.sha256(repr(sorted(draws)).encode()).hexdigest()
        assert (len(draws), digest) == drawn
        delays, links = sim.delays, sim.links
        for sender, receiver, beat, _seq in draws:
            when = links.sent_at(sender, beat)
            close = sim.synchronizers[receiver].close_time(beat)
            assert not _on_time(when, delays.hi, close)
            assert _on_time(when, delays.d_min, close)

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
        """Crafted rows reach the receivers whole, so a drifting run
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
        that is not the same.  789 tallies: receivers that lost the same
        copies of a broadcast share its row (791 while late-for-someone
        broadcasts went to every receiver as strays)."""
        tallies, merges = self._tallied_run(monkeypatch, (0.3, 1.2))
        assert tallies == 789
        assert max(merges.values()) > 2
