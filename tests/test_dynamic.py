"""Dynamic-world robustness: churn, mobility, adaptive adversaries.

The tentpole contract under test: membership churn, the waypoint-mobility
link model and traffic-adaptive adversaries are *simulation-level* faults
— applied by :class:`~repro.net.simulator.Simulation`, driven by keyed
randomness — so every dynamic-world scenario is bit-identical across the
reference, fast and bulk engines, at every seed, at any campaign worker
count.  Alongside the differential matrix: the churn state machine's
validation surface, the Definition-3.2 re-convergence bound for nodes
that recover with scrambled state, the scramble-inactive regression, and
the CLI's exit-2 behavior for malformed schedules.
"""

from __future__ import annotations

import pytest

from repro.adversary import AdaptiveEchoAdversary, EquivocatorAdversary
from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    LINK_REGISTRY,
    ScenarioSpec,
    run_campaign,
    scenario_grid,
)
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.experiments import run_trial
from repro.cli import main
from repro.core.clock_sync import SSByzClockSync
from repro.coin.oracle import OracleCoin
from repro.errors import ConfigurationError
from repro.faults import (
    CHURN_EVENT_KINDS,
    ChurnSchedule,
    MobilityLinks,
    parse_churn_events,
)
from repro.net.engine import ENGINES
from repro.net.linkmodel import LINK_MODELS
from repro.net.simulator import Simulation

SEEDS = range(10)

#: Churn over nodes {0, 1, 2} only — safe both fault-free and with an
#: adversary (at n=4, f=1 every registered adversary corrupts node 3).
CHURN = (
    (5, "crash", (0,)),
    (9, "join", (2,)),
    (12, "recover", (0,)),
    (20, "leave", (1,)),
)


def _coin_factory():
    return OracleCoin(p0=0.4, p1=0.4, rounds=2)


def _factory(i):
    return SSByzClockSync(6, _coin_factory)


def _spec(*, adversary="none", link="perfect", link_params=(), churn=(),
          engine="fast", max_beats=60):
    return ScenarioSpec(
        n=4, f=1, k=6, coin_p0=0.4, coin_p1=0.4, coin_rounds=2,
        adversary=adversary,
        max_beats=max_beats,
        early_stop=False,
        engine=engine,
        link=link,
        link_params=link_params,
        churn=churn,
    )


class TestChurnSchedule:
    def test_event_kinds_frozen(self):
        assert set(CHURN_EVENT_KINDS) == {"crash", "recover", "join", "leave"}

    def test_events_sorted_and_queryable(self):
        schedule = ChurnSchedule([(12, "recover", (0,)), (5, "crash", (0,))])
        assert [event.beat for event in schedule.events] == [5, 12]
        assert schedule.last_event_beat == 12
        assert [e.kind for e in schedule.events_at(5)] == ["crash"]
        assert schedule.events_at(6) == ()
        assert schedule.touched_ids == {0}
        assert schedule.joining_ids == frozenset()

    def test_join_targets_are_initially_absent(self):
        schedule = ChurnSchedule([(3, "join", (2, 5))])
        assert schedule.joining_ids == {2, 5}

    def test_normalized_round_trips(self):
        schedule = ChurnSchedule(CHURN)
        assert schedule.normalized() == tuple(CHURN)
        assert ChurnSchedule(schedule.normalized()).describe() == (
            schedule.describe()
        )

    def test_coerce(self):
        assert ChurnSchedule.coerce(None) is None
        assert ChurnSchedule.coerce(()) is None
        schedule = ChurnSchedule(CHURN)
        assert ChurnSchedule.coerce(schedule) is schedule
        assert ChurnSchedule.coerce(CHURN).normalized() == tuple(CHURN)

    @pytest.mark.parametrize("events", [
        [(5, "explode", (0,))],           # unknown kind
        [(-1, "crash", (0,))],            # negative beat
        [(5, "crash", ())],               # no ids
        [(5, "crash", (0, 0))],           # duplicate ids
        [(5, "crash", (-2,))],            # negative id
        [],                               # empty schedule
        [(5, "recover", (0,))],           # recover without crash
        [(5, "crash", (0,)), (6, "crash", (0,))],      # crash twice
        [(5, "join", (0,)), (4, "crash", (0,))],       # act before join
        [(5, "leave", (0,)), (9, "recover", (0,))],    # return after leave
    ])
    def test_impossible_schedules_rejected(self, events):
        with pytest.raises(ConfigurationError):
            ChurnSchedule(events)

    def test_out_of_range_and_faulty_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="n=4"):
            Simulation(4, 1, _factory, churn=[(5, "crash", (7,))])
        with pytest.raises(ConfigurationError, match="faulty"):
            Simulation(
                4, 1, _factory, adversary=EquivocatorAdversary(),
                churn=[(5, "crash", (3,))],
            )

    def test_parse_churn_events(self):
        schedule = parse_churn_events(["25:crash:0,1", "40:recover:0,1"])
        assert schedule.normalized() == (
            (25, "crash", (0, 1)), (40, "recover", (0, 1)),
        )
        for bad in ("garbage", "25:crash", "x:crash:0", "25:crash:zero",
                    "25:warp:0"):
            with pytest.raises(ConfigurationError):
                parse_churn_events([bad])


class TestMembershipSemantics:
    def test_active_set_follows_schedule(self):
        sim = Simulation(4, 1, _factory, churn=CHURN)
        assert sim.active_ids == {0, 1, 3}  # 2 joins later
        expected = {
            4: {0, 1, 3}, 5: {1, 3}, 9: {1, 2, 3},
            12: {0, 1, 2, 3}, 20: {0, 2, 3},
        }
        for _ in range(25):
            beat = sim.beat
            sim.run_beat()
            if beat in expected:
                assert sim.active_ids == expected[beat], beat
        assert set(sim.active_nodes()) == {0, 2, 3}
        assert sim.is_active(0) and not sim.is_active(1)
        assert set(sim.active_roots()) == {0, 2, 3}

    def test_static_world_active_view_is_nodes(self):
        sim = Simulation(4, 1, _factory)
        assert sim.active_nodes() is sim.nodes

    def test_recovered_node_comes_back_scrambled(self, monkeypatch):
        # Recovery must redraw the rebooted node's state from the
        # "faults" stream, not thaw the frozen pre-crash tower.  Joins
        # boot pristine: no scramble for node 2.
        from repro.net.node import Node

        scrambled = []
        original = Node.scramble
        monkeypatch.setattr(
            Node,
            "scramble",
            lambda self, rng: (
                scrambled.append((self.node_id,)), original(self, rng)
            )[1],
        )
        churn = (
            (5, "crash", (0,)), (9, "join", (2,)), (12, "recover", (0,))
        )
        sim = Simulation(4, 1, _factory, seed=3, churn=churn)
        sim.run(12)
        assert scrambled == []  # crash freezes; join boots pristine
        sim.run_beat()  # recover applies at the start of beat 12
        assert scrambled == [(0,)]
        assert 0 in sim.active_ids

    def test_scramble_inactive_node_rejected(self):
        sim = Simulation(4, 1, _factory, churn=[(0, "crash", (1,))])
        sim.run_beat()
        with pytest.raises(ConfigurationError, match="inactive"):
            sim.scramble([1])

    def test_scramble_not_yet_joined_node_rejected(self):
        sim = Simulation(4, 1, _factory, churn=[(9, "join", (2,))])
        with pytest.raises(ConfigurationError, match="inactive"):
            sim.scramble([2])
        sim.scramble()  # default target set skips the pending node

    def test_scramble_unknown_id_error_unchanged(self):
        sim = Simulation(4, 1, _factory)
        with pytest.raises(ConfigurationError):
            sim.scramble([9])


class TestDifferentialBitIdentity:
    """Every dynamic-world scenario, bit-identical across all engines."""

    SCENARIOS = {
        "churn": dict(churn=CHURN),
        "churn-adversary": dict(churn=CHURN, adversary="equivocator"),
        "churn-lossy": dict(churn=CHURN, link="lossy",
                            link_params=(("loss", 0.3),)),
        "mobility": dict(link="mobility"),
        "mobility-adaptive": dict(link="mobility", adversary="adaptive"),
        "churn-mobility-adaptive": dict(churn=CHURN, link="mobility",
                                        adversary="adaptive"),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_engines_agree(self, name):
        scenario = self.SCENARIOS[name]
        for seed in SEEDS:
            results = {
                engine: run_trial(_spec(engine=engine, **scenario), seed)
                for engine in sorted(ENGINES)
            }
            reference = results.pop("reference")
            for engine, result in results.items():
                assert result == reference, (name, seed, engine)


class TestReconvergenceBound:
    def test_recovered_nodes_reconverge_within_bound(self):
        """Definition 3.2 from any state: a crash + scrambled recovery is
        just another transient fault, so re-convergence stays within the
        same band as initial convergence."""
        churn = ((20, "crash", (0, 1)), (30, "recover", (0, 1)))
        for seed in SEEDS:
            sim = Simulation(7, 2, lambda i: SSByzClockSync(8, _coin_factory),
                             seed=seed, churn=churn)
            monitor = ClockConvergenceMonitor(k=8)
            sim.add_monitor(monitor)
            sim.scramble()
            sim.run(120)
            initial = monitor.beats_to_converge(until_beat=20)
            recovery = monitor.beats_to_converge(from_beat=30)
            assert initial is not None, seed
            assert recovery is not None, seed
            assert recovery <= initial * 3 + 10, (seed, initial, recovery)

    def test_late_join_reconverges(self):
        churn = ((20, "join", (6,)),)
        sim = Simulation(7, 2, lambda i: SSByzClockSync(8, _coin_factory),
                         seed=0, churn=churn)
        monitor = ClockConvergenceMonitor(k=8)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(80)
        assert len(monitor.history[0]) == 6   # joiner absent at beat 0
        assert len(monitor.history[20]) == 7  # present from its join beat
        assert monitor.beats_to_converge(from_beat=20) is not None


class TestMobilityLinks:
    def test_registered(self):
        assert "mobility" in LINK_MODELS
        assert "mobility" in LINK_REGISTRY

    def test_positions_deterministic_and_continuous(self):
        a = MobilityLinks(world=100.0, radius=65.0, leg_beats=8)
        b = MobilityLinks(world=100.0, radius=65.0, leg_beats=8)
        a.bind(6, seed=42)
        b.bind(6, seed=42)
        for node in range(6):
            for beat in range(0, 32):
                assert a.position(node, beat) == b.position(node, beat)
        # Within one leg, motion is linear: the midpoint of the leg is
        # the mean of its endpoints.
        x0, y0 = a.position(0, 0)
        x4, y4 = a.position(0, 4)
        x8, y8 = a.position(0, 8)
        assert x4 == pytest.approx((x0 + x8) / 2)
        assert y4 == pytest.approx((y0 + y8) / 2)

    def test_connectivity_is_symmetric(self):
        link = MobilityLinks(world=100.0, radius=50.0, leg_beats=5)
        link.bind(8, seed=7)
        for beat in range(20):
            for a in range(8):
                for b in range(a + 1, 8):
                    assert link.connected(a, b, beat) == link.connected(
                        b, a, beat
                    )

    def test_huge_radius_is_effectively_perfect(self):
        spec = _spec(link="mobility",
                     link_params=(("radius", 200.0), ("world", 100.0)))
        baseline = _spec()
        for seed in range(3):
            assert run_trial(spec, seed).history == (
                run_trial(baseline, seed).history
            )

    def test_parameters_validated(self):
        for kwargs in ({"world": 0.0}, {"radius": -1.0}, {"leg_beats": 0}):
            with pytest.raises(ConfigurationError):
                MobilityLinks(**kwargs)


class TestAdaptiveAdversary:
    def test_registered(self):
        assert ADVERSARY_REGISTRY["adaptive"] is AdaptiveEchoAdversary

    def test_strategy_sees_previous_beat_traffic(self):
        observed = []

        class Probe(AdaptiveEchoAdversary):
            def adapt(self, view, previous):
                observed.append(tuple(previous))
                return super().adapt(view, previous)

        sim = Simulation(4, 1, _factory, adversary=Probe(), seed=0)
        sim.run(3)
        # Beat 0 has nothing to adapt to; later beats observe the honest
        # traffic addressed to the coalition in the *previous* beat.
        assert observed[0] == ()
        assert observed[1] != ()
        assert all(
            envelope.sender not in sim.faulty_ids
            and envelope.receiver in sim.faulty_ids
            for envelope in observed[1]
        )

    def test_crafted_traffic_is_deterministic(self):
        def run_once():
            sim = Simulation(
                4, 1, _factory, adversary=AdaptiveEchoAdversary(), seed=5
            )
            sim.run(20)
            return [n.root.clock_value for n in sim.active_nodes().values()]

        assert run_once() == run_once()


class TestCampaignIntegration:
    def test_spec_carries_churn_into_label_and_trial(self):
        spec = ScenarioSpec(n=4, f=1, k=6, coin="local", churn=CHURN,
                            max_beats=60)
        spec.validate()
        assert "churn[5:crash:0," in spec.label
        history = run_trial(spec, 0).history
        assert len(history[5]) == len(history[4]) - 1  # node 0 crashed

    def test_spec_rejects_churn_beyond_budget(self):
        spec = ScenarioSpec(n=4, f=1, k=6, churn=((70, "crash", (0,)),),
                            max_beats=60)
        with pytest.raises(ConfigurationError, match="max_beats"):
            spec.validate()

    def test_grid_broadcasts_churn_axis(self):
        specs = scenario_grid([4], ks=[6], adversaries=["none", "adaptive"],
                              links=["perfect", "mobility"], churn=CHURN)
        assert len(specs) == 4
        assert all(spec.churn == tuple(CHURN) for spec in specs)

    def test_worker_count_invariance(self):
        specs = scenario_grid([4], ks=[6], coin="local", churn=CHURN,
                              max_beats=60, closure_window=4)
        serial = run_campaign(specs, range(3), workers=1)
        parallel = run_campaign(specs, range(3), workers=2)
        assert [e.sweep.results for e in serial] == (
            [e.sweep.results for e in parallel]
        )


class TestCliChurn:
    def test_run_with_churn_converges(self, capsys):
        code = main([
            "run", "--n", "4", "--f", "1", "--k", "10", "--seed", "1",
            "--churn", "20:crash:0", "--churn", "32:recover:0",
            "--beats", "150",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "churn=20:crash:0,32:recover:0" in out
        assert "converged at beat" in out

    @pytest.mark.parametrize("spec", [
        "garbage",            # not BEAT:KIND:IDS
        "20:warp:0",          # unknown kind
        "x:crash:0",          # non-integer beat
        "20:recover:0",       # recover without a crash
        "20:crash:9",         # id out of range
        "500:crash:0",        # beyond --beats
    ])
    def test_run_invalid_churn_exits_2(self, spec, capsys):
        code = main(["run", "--n", "4", "--f", "1", "--churn", spec,
                     "--beats", "100"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_campaign_invalid_churn_exits_2(self, capsys):
        code = main(["campaign", "--n", "4", "--seeds", "1",
                     "--churn", "10:crash:9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_mobility_link_with_adaptive_adversary(self, capsys):
        code = main([
            "run", "--n", "4", "--f", "1", "--k", "10", "--seed", "0",
            "--link", "mobility", "--adversary", "adaptive", "--beats", "150",
            "--link-param", "radius=80",
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)  # mobility may legitimately slow convergence
        assert "link=mobility" in out
        assert "adversary=adaptive" in out
