"""The link-condition layer: no-op proof, delivery bounds, determinism.

Three layers of guarantees:

* **PerfectLinks is a no-op** — seeded runs under the explicit perfect
  model are bit-identical to default (pre-link-layer) runs on *both*
  engines, seeds 0-9, with and without an adversary; and the *linked*
  delivery machinery itself is an identity when the delay bound is zero.
* **Models honor their contracts** — bounded delay never exceeds the
  bound and links stay FIFO; lossy links drop roughly their configured
  rate; partitions block exactly the cross-cut traffic and heal on
  schedule.
* **Engines stay differentially equivalent under every model**, and a
  seed determines the run regardless of engine or link object identity.
"""

from __future__ import annotations

import pytest

from repro.adversary import EquivocatorAdversary
from repro.analysis.campaign import ScenarioSpec, run_campaign, scenario_grid
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.experiments import run_trial
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.errors import ConfigurationError
from repro.net.component import Component
from repro.net.linkmodel import (
    LINK_MODELS,
    BoundedDelayLinks,
    LinkModel,
    LossyLinks,
    PartitionLinks,
    PerfectLinks,
    make_link,
    normalize_link_params,
    resolve_link,
)
from repro.net.simulator import Simulation

COIN = lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)


def observe(seed, *, engine="fast", link="perfect", adversary=None, beats=40,
            n=4, f=1, k=6):
    """One scrambled clock-sync run; returns every observable."""
    sim = Simulation(
        n, f, lambda i: SSByzClockSync(k, COIN),
        adversary=adversary() if adversary else None,
        seed=seed, engine=engine, link=link,
    )
    monitor = ClockConvergenceMonitor(k)
    sim.add_monitor(monitor)
    sim.scramble()
    sim.run(beats)
    return (
        monitor.history,
        monitor.convergence_beat(),
        sim.stats.total_messages,
        sim.stats.honest_messages,
        sim.stats.byzantine_messages,
        sim.stats.dropped_messages,
        sim.stats.delayed_messages,
        dict(sim.stats.per_beat),
        dict(sim.stats.per_path_prefix),
    )


class TestPerfectLinksIsANoOp:
    """The differential no-op suite the tentpole is only allowed under."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_explicit_perfect_equals_default(self, engine, seed):
        assert observe(seed, engine=engine) == observe(
            seed, engine=engine, link="perfect"
        ) == observe(seed, engine=engine, link=PerfectLinks())

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_perfect_noop_under_adversary(self, engine, seed):
        default = observe(seed, engine=engine, adversary=EquivocatorAdversary)
        explicit = observe(
            seed, engine=engine, link="perfect", adversary=EquivocatorAdversary
        )
        assert default == explicit

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_zero_delay_linked_path_is_identity(self, engine, seed):
        """BoundedDelayLinks(0) exercises the full linked delivery path
        (per-receiver expansion, stage-keyed merge) yet must reproduce
        the perfect-path run bit-for-bit."""
        assert observe(seed, engine=engine) == observe(
            seed, engine=engine, link=BoundedDelayLinks(0)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_delay_identity_under_adversary(self, seed):
        for engine in ("fast", "reference"):
            assert observe(
                seed, engine=engine, adversary=EquivocatorAdversary
            ) == observe(
                seed, engine=engine, link=BoundedDelayLinks(0),
                adversary=EquivocatorAdversary,
            )


class TestEngineEquivalenceUnderLinks:
    """Fast and reference engines stay bit-identical under degraded links."""

    MODELS = [
        lambda: BoundedDelayLinks(1),
        lambda: BoundedDelayLinks(3),
        lambda: LossyLinks(0.15),
        lambda: LossyLinks(0.05, burst_enter=0.1, burst_exit=0.4),
        lambda: PartitionLinks(split=3, heal=12),
    ]

    @pytest.mark.parametrize("model_index", range(len(MODELS)))
    @pytest.mark.parametrize("seed", range(4))
    def test_engines_agree(self, model_index, seed):
        model = self.MODELS[model_index]
        fast = observe(seed, engine="fast", link=model())
        reference = observe(seed, engine="reference", link=model())
        assert fast == reference

    @pytest.mark.parametrize("seed", range(3))
    def test_engines_agree_under_adversary(self, seed):
        for model in (lambda: LossyLinks(0.1), lambda: BoundedDelayLinks(2)):
            fast = observe(seed, engine="fast", link=model(),
                           adversary=EquivocatorAdversary)
            reference = observe(seed, engine="reference", link=model(),
                                adversary=EquivocatorAdversary)
            assert fast == reference

    def test_link_object_identity_irrelevant(self):
        """Equal seeds give equal runs for distinct equal-config models."""
        runs = {observe(7, link=LossyLinks(0.2)) == observe(7, link=LossyLinks(0.2))}
        assert runs == {True}


class Recorder(Component):
    """Broadcasts its beat number; logs (sender, send beat) per arrival."""

    modulus = 1 << 30

    def __init__(self):
        super().__init__()
        self.value = 0
        self.arrivals: list[tuple[int, int, int]] = []  # (beat, sender, sent)

    @property
    def clock_value(self):
        return self.value

    def on_send(self, ctx):
        ctx.broadcast(("tick", ctx.beat))

    def on_update(self, ctx):
        for envelope in ctx.inbox:
            self.arrivals.append((ctx.beat, envelope.sender, envelope.beat))
        self.value += 1

    def scramble(self, rng):
        self.value = rng.randrange(100)


def recorder_run(link, *, n=4, beats=30, seed=0, engine="fast"):
    sim = Simulation(n, 1, lambda i: Recorder(), seed=seed, engine=engine,
                     link=link)
    sim.run(beats)
    return sim


class TestBoundedDelayContract:
    @pytest.mark.parametrize("max_delay", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_no_envelope_older_than_bound(self, max_delay, seed):
        sim = recorder_run(BoundedDelayLinks(max_delay), seed=seed)
        lags = [
            beat - sent
            for node in sim.nodes.values()
            for beat, _sender, sent in node.root.arrivals
        ]
        assert lags, "no traffic observed"
        assert all(0 <= lag <= max_delay for lag in lags)
        assert any(lag > 0 for lag in lags), "delay model never delayed"

    @pytest.mark.parametrize("max_delay", [1, 3])
    def test_links_are_fifo_per_sender(self, max_delay):
        """Arrivals from one sender, in inbox order, never rewind send beats."""
        sim = recorder_run(BoundedDelayLinks(max_delay), beats=40)
        for node in sim.nodes.values():
            per_sender: dict[int, list[int]] = {}
            for _beat, sender, sent in node.root.arrivals:
                per_sender.setdefault(sender, []).append(sent)
            for sender, sent_beats in per_sender.items():
                assert sent_beats == sorted(sent_beats), (sender, sent_beats)

    def test_loopback_never_delayed(self):
        sim = recorder_run(BoundedDelayLinks(4), beats=20)
        for node_id, node in sim.nodes.items():
            own = [
                (beat, sent)
                for beat, sender, sent in node.root.arrivals
                if sender == node_id
            ]
            assert own and all(beat == sent for beat, sent in own)

    def test_every_message_eventually_delivered(self):
        """Bounded delay is delay, not loss: totals line up after draining."""
        sim = recorder_run(BoundedDelayLinks(2), beats=30)
        n = sim.n
        arrivals = sum(len(node.root.arrivals) for node in sim.nodes.values())
        in_flight = sum(
            len(batch) for batch in sim.engine._in_flight.values()
        )
        assert sim.stats.dropped_messages == 0
        assert arrivals + in_flight == 30 * n * n


class MultiSender(Component):
    """Three broadcasts per beat on one path: probes per-envelope draws."""

    modulus = 1 << 30

    def __init__(self):
        super().__init__()
        self.value = 0
        self.arrivals: list[tuple[int, int, object]] = []

    @property
    def clock_value(self):
        return self.value

    def on_send(self, ctx):
        for copy in range(3):
            ctx.broadcast(("copy", copy, ctx.beat))

    def on_update(self, ctx):
        for envelope in ctx.inbox:
            self.arrivals.append((ctx.beat, envelope.sender, envelope.payload))
        self.value += 1

    def scramble(self, rng):
        self.value = rng.randrange(100)


class TestLossyContract:
    def test_per_envelope_independence(self):
        """Messages sharing one (link, beat) cell draw independently —
        loss must not wipe out or spare a link's whole beat as a block."""
        sim = Simulation(4, 1, lambda i: MultiSender(), seed=0,
                         link=LossyLinks(0.3))
        sim.run(60)
        cell_counts = []
        for node_id, node in sim.nodes.items():
            per_cell: dict[tuple[int, int], int] = {}
            for beat, sender, _payload in node.root.arrivals:
                if sender != node_id:
                    per_cell[(beat, sender)] = per_cell.get((beat, sender), 0) + 1
            cell_counts.extend(per_cell.values())
        # Expect plenty of partial cells (1 or 2 of 3 delivered); fully
        # correlated draws would only ever produce 0 or 3.
        assert any(count in (1, 2) for count in cell_counts)

    def test_iid_loss_rate_plausible(self):
        sim = recorder_run(LossyLinks(0.2), beats=50)
        n = sim.n
        eligible = 50 * n * (n - 1)  # loopback is exempt
        rate = sim.stats.dropped_messages / eligible
        assert 0.12 < rate < 0.28
        assert sim.stats.delayed_messages == 0

    def test_burst_regime_drops_runs(self):
        sim = recorder_run(
            LossyLinks(0.0, burst_enter=0.2, burst_exit=0.3), beats=60
        )
        assert sim.stats.dropped_messages > 0
        # A burst takes out consecutive beats on a link: find one such run.
        delivered = {
            (beat, sender, node_id)
            for node_id, node in sim.nodes.items()
            for beat, sender, _sent in node.root.arrivals
        }
        gaps = [
            sum(
                (beat, sender, receiver) not in delivered
                for beat in range(60)
            )
            for sender in range(4)
            for receiver in range(4)
            if sender != receiver
        ]
        assert max(gaps) >= 2, "no link ever lost 2+ messages"

    def test_zero_loss_is_identity(self):
        for seed in range(3):
            assert observe(seed, link=LossyLinks(0.0)) == observe(seed)


class TestPartitionContract:
    def test_cross_cut_traffic_blocked_then_healed(self):
        sim = recorder_run(PartitionLinks(split=5, heal=15), beats=25)
        groups = sim.link._group_of
        for node_id, node in sim.nodes.items():
            for beat, sender, sent in node.root.arrivals:
                crossing = groups[sender] != groups[node_id]
                if crossing:
                    assert not (5 <= sent < 15), (node_id, beat, sender, sent)

    def test_intra_group_traffic_unaffected(self):
        sim = recorder_run(PartitionLinks(split=0, heal=20), beats=20)
        groups = sim.link._group_of
        for node_id, node in sim.nodes.items():
            same_side = [
                (beat, sender)
                for beat, sender, _sent in node.root.arrivals
                if groups[sender] == groups[node_id]
            ]
            per_beat = {beat for beat, _ in same_side}
            assert per_beat == set(range(20))

    def test_periodic_partition_oscillates(self):
        link = PartitionLinks(split=0, heal=5, period=10)
        assert [link.partitioned_at(b) for b in (0, 4, 5, 9, 10, 14, 15)] == [
            True, True, False, False, True, True, False,
        ]

    def test_perfect_at_fast_path_is_behavior_preserving(self):
        """Post-heal beats take the engines' perfect path (perfect_at);
        forcing the slow linked path instead must not change the run."""

        class NoFastPath(PartitionLinks):
            def perfect_at(self, beat):
                return False

        for engine in ("fast", "reference"):
            gated = observe(
                5, engine=engine, link=PartitionLinks(split=2, heal=8),
            )
            forced = observe(
                5, engine=engine, link=NoFastPath(split=2, heal=8),
            )
            assert gated == forced

    def test_partition_heal_convergence_smoke(self):
        """Clock-sync stalls across the cut but converges after healing."""
        heal = 12
        sim = Simulation(
            4, 1, lambda i: SSByzClockSync(6, COIN), seed=3,
            link=PartitionLinks(split=0, heal=heal),
        )
        monitor = ClockConvergenceMonitor(6)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(120)
        converged = monitor.convergence_beat(from_beat=heal)
        assert converged is not None, "did not recover after the heal"
        assert sim.stats.dropped_messages > 0, "partition never dropped"


class TestConfiguration:
    def test_registry_names(self):
        assert set(LINK_MODELS) == {
            "perfect", "delay", "lossy", "partition", "mobility"
        }
        for name in LINK_MODELS:
            assert isinstance(resolve_link(name), LinkModel)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_link("telepathy")
        with pytest.raises(ConfigurationError):
            Simulation(4, 1, lambda i: Recorder(), link="telepathy")
        with pytest.raises(ConfigurationError):
            resolve_link(42)  # type: ignore[arg-type]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            make_link("delay", {"max_delay": -1})
        with pytest.raises(ConfigurationError):
            make_link("delay", {"warp": 9})
        with pytest.raises(ConfigurationError):
            make_link("lossy", {"loss": 1.5})
        with pytest.raises(ConfigurationError):
            make_link("partition", {"split": 10, "heal": 5})
        with pytest.raises(ConfigurationError):
            PartitionLinks(split=0, heal=5, period=3)

    def test_explicit_groups_validated(self):
        with pytest.raises(ConfigurationError):
            Simulation(
                4, 1, lambda i: Recorder(),
                link=PartitionLinks(groups=[[0, 99], [1]]),
            )
        with pytest.raises(ConfigurationError):
            Simulation(
                4, 1, lambda i: Recorder(),
                link=PartitionLinks(groups=[[0, 1], [1, 2]]),
            )

    def test_instances_are_single_use(self):
        link = LossyLinks(0.1)
        Simulation(4, 1, lambda i: Recorder(), link=link)
        with pytest.raises(ConfigurationError):
            Simulation(4, 1, lambda i: Recorder(), link=link)

    def test_normalize_link_params(self):
        assert normalize_link_params(None) == ()
        assert normalize_link_params({"b": 2, "a": 1}) == (("a", 1), ("b", 2))
        assert normalize_link_params([("x", 0.5)]) == (("x", 0.5),)


class TestCampaignIntegration:
    def test_scenario_spec_carries_link(self):
        spec = ScenarioSpec(
            n=4, f=1, k=6, link="lossy", link_params=(("loss", 0.1),),
        )
        spec.validate()
        assert run_trial(spec, 0).dropped_messages > 0
        assert "lossy(p=0.1)" in spec.label

    def test_spec_rejects_bad_link(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=4, f=1, k=6, link="telepathy").validate()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                n=4, f=1, k=6, link="delay", link_params=(("warp", 1),)
            ).validate()

    def test_grid_link_axis(self):
        specs = scenario_grid(
            [4], ks=[6],
            links=["perfect", ("delay", {"max_delay": 2}),
                   ("lossy", {"loss": 0.1})],
        )
        assert [(s.link, s.link_params) for s in specs] == [
            ("perfect", ()),
            ("delay", (("max_delay", 2),)),
            ("lossy", (("loss", 0.1),)),
        ]

    def test_campaign_runs_linked_scenarios(self):
        spec = ScenarioSpec(
            n=4, f=1, k=6, max_beats=60, link="lossy",
            link_params=(("loss", 0.1),),
            coin_p0=0.4, coin_p1=0.4, coin_rounds=2,
        )
        for workers in (1, 2):
            (entry,) = run_campaign([spec], seeds=range(3), workers=workers)
            assert all(r.dropped_messages > 0 for r in entry.sweep.results)
        serial = run_campaign([spec], seeds=range(3), workers=1)
        parallel = run_campaign([spec], seeds=range(3), workers=2)
        assert serial[0].sweep.results == parallel[0].sweep.results
