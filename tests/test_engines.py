"""Differential equivalence of the reference and fast engines.

The fast engine is only allowed to exist because it is *observationally
identical* to the reference engine: same per-beat clock values, same
message counts, same convergence beats, same RNG stream consumption — with
and without an adversary, across transient faults and phantom storms.
"""

from __future__ import annotations

import pytest

from repro.adversary import EquivocatorAdversary, SplitWorldAdversary
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.errors import ConfigurationError
from repro.faults.network_faults import inject_phantom_storm
from repro.net.component import Component
from repro.net.engine import (
    ENGINES,
    Engine,
    FastEngine,
    ReferenceEngine,
    resolve_engine,
)
from repro.net.message import FastOutbox
from repro.net.simulator import Simulation

SEEDS = range(10)


def _observe(engine: str, seed: int, adversary_factory, *, beats: int = 40,
             storm_at: int | None = None, coin: str = "oracle"):
    """Run one scrambled clock-sync run; return every observable."""
    if coin == "gvss":
        coin_factory = lambda: FeldmanMicaliCoin(4, 1)
    else:
        coin_factory = lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)
    sim = Simulation(
        4,
        1,
        lambda i: SSByzClockSync(6, coin_factory),
        adversary=adversary_factory(),
        seed=seed,
        engine=engine,
    )
    monitor = ClockConvergenceMonitor(6)
    sim.add_monitor(monitor)
    sim.scramble()
    if storm_at is None:
        sim.run(beats)
    else:
        sim.run(storm_at)
        sim.scramble()
        inject_phantom_storm(sim, ["root", "root/A/A1", "bogus/path"], count=60)
        sim.run(beats - storm_at)
    per_beat = [sim.stats.messages_at_beat(b) for b in range(beats)]
    return (
        monitor.history,
        monitor.convergence_beat(),
        sim.stats.total_messages,
        sim.stats.honest_messages,
        sim.stats.byzantine_messages,
        per_beat,
        dict(sim.stats.per_path_prefix),
    )


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_free_runs_identical(self, seed):
        reference = _observe("reference", seed, lambda: None)
        fast = _observe("fast", seed, lambda: None)
        assert reference == fast

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_runs_identical(self, seed):
        reference = _observe("reference", seed, EquivocatorAdversary)
        fast = _observe("fast", seed, EquivocatorAdversary)
        assert reference == fast

    @pytest.mark.parametrize("seed", range(4))
    def test_scramble_and_phantom_storm_identical(self, seed):
        """Mid-run transient fault + phantom burst: engines stay in lockstep."""
        for adversary_factory in (lambda: None, SplitWorldAdversary):
            reference = _observe(
                "reference", seed, adversary_factory, beats=60, storm_at=20
            )
            fast = _observe("fast", seed, adversary_factory, beats=60, storm_at=20)
            assert reference == fast

    @pytest.mark.parametrize("seed", range(3))
    def test_gvss_coin_point_to_point_traffic_identical(self, seed):
        """The GVSS coin's private dealings exercise the p2p merge path."""
        reference = _observe("reference", seed, lambda: None, coin="gvss")
        fast = _observe("fast", seed, lambda: None, coin="gvss")
        assert reference == fast


class MixedSender(Component):
    """Broadcast *and* point-to-point on one path: stresses merge order."""

    modulus = 1 << 30

    def __init__(self):
        super().__init__()
        self.value = 0
        self.log: list[tuple[int, object]] = []

    @property
    def clock_value(self):
        return self.value

    def on_send(self, ctx):
        ctx.send((ctx.node_id + 1) % ctx.n, ("direct", self.value))
        ctx.broadcast(("bcast", self.value))
        ctx.send((ctx.node_id + 2) % ctx.n, ("late", self.value))

    def on_update(self, ctx):
        self.log.append(tuple((e.sender, e.payload) for e in ctx.inbox))
        self.value = (self.value + len(ctx.inbox)) % self.modulus

    def scramble(self, rng):
        self.value = rng.randrange(100)


class TestDeliveryOrder:
    def test_mixed_broadcast_and_p2p_order_matches_reference(self):
        def logs(engine):
            sim = Simulation(4, 1, lambda i: MixedSender(), seed=3, engine=engine)
            sim.scramble()
            sim.run(6)
            return {i: node.root.log for i, node in sim.nodes.items()}

        assert logs("reference") == logs("fast")

    def test_phantoms_after_regular_traffic_for_same_sender(self):
        """A phantom claiming an honest sender sorts after the real message."""

        def logs(engine):
            sim = Simulation(4, 1, lambda i: MixedSender(), seed=0, engine=engine)
            from repro.net.message import Envelope

            sim.inject_phantoms(
                [Envelope(2, 1, "root", ("phantom", 9), 0),
                 Envelope(0, 1, "root", ("phantom", 8), 0)]
            )
            sim.run(2)
            return {i: node.root.log for i, node in sim.nodes.items()}

        assert logs("reference") == logs("fast")


class TestEngineApi:
    def test_default_engine_is_fast(self):
        sim = Simulation(4, 1, lambda i: MixedSender())
        assert sim.engine.name == "fast"

    def test_reference_engine_selectable(self):
        sim = Simulation(4, 1, lambda i: MixedSender(), engine="reference")
        assert sim.engine.name == "reference"
        assert isinstance(sim.engine, ReferenceEngine)

    def test_engine_instance_accepted(self):
        engine = FastEngine()
        sim = Simulation(4, 1, lambda i: MixedSender(), engine=engine)
        assert sim.engine is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation(4, 1, lambda i: MixedSender(), engine="warp")
        with pytest.raises(ConfigurationError):
            resolve_engine(42)  # type: ignore[arg-type]

    def test_engine_instances_are_single_use(self):
        from repro.net.bulk import BulkEngine

        for engine_factory in (FastEngine, ReferenceEngine, BulkEngine):
            engine = engine_factory()
            Simulation(4, 1, lambda i: MixedSender(), engine=engine)
            with pytest.raises(ConfigurationError):
                Simulation(4, 1, lambda i: MixedSender(), engine=engine)

    def test_registry_names(self):
        assert set(ENGINES) == {"reference", "fast", "bulk"}
        for name in ENGINES:
            engine = resolve_engine(name)
            assert isinstance(engine, Engine)
            assert isinstance(engine.description, str) and engine.description

    def test_stats_shared_identity(self):
        sim = Simulation(4, 1, lambda i: MixedSender())
        stats = sim.stats
        sim.run(2)
        assert sim.stats is stats
        assert stats.total_messages > 0


class TestFastOutbox:
    def test_full_broadcast_is_one_record(self):
        outbox = FastOutbox(4)
        outbox.broadcast([0, 1, 2, 3], "root", "x")
        assert outbox.drain() == [("root", "x", None)]

    def test_partial_broadcast_expands(self):
        outbox = FastOutbox(4)
        outbox.broadcast([1, 3], "root", "x")
        assert outbox.drain() == [("root", "x", 1), ("root", "x", 3)]

    def test_send_records_receiver(self):
        outbox = FastOutbox(4)
        outbox.send(2, "root/A", "y")
        assert len(outbox) == 1
        assert outbox.drain() == [("root/A", "y", 2)]
        assert outbox.drain() == []
