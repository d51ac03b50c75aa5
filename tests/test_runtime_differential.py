"""Differential identity: the live runtime vs the lock-step simulator.

The runtime is only allowed to exist because a zero-delay
``LocalTransport`` run is *observationally identical* to the simulator:
same per-beat honest clock trajectories, bit for bit, for seeds 0-9, with
and without an adversary — the same identity-proof discipline the engine
seam (``tests/test_engines.py``) and the link-model seam
(``tests/test_linkmodel.py``) carry.  Comparison goes through the shared
JSONL trace format (``repro.net.trace``), so the on-disk representations
are proven interchangeable at the same time.

The TCP half is a different kind of claim: over real loopback sockets no
bit-identity is promised (arrival interleavings are scheduler noise), but
the round barrier must still normalize them away — a scrambled-start
``TcpTransport`` run with n=4, f=1 under an active adversary converges
and holds Definition 3.2 agreement for a full closure window.
"""

from __future__ import annotations

import pytest

from repro.adversary import EquivocatorAdversary, SplitWorldAdversary
from repro.adversary.anti_coin import AntiCoinClock2Adversary
from repro.adversary.bisector import BisectorAdversary
from repro.coin import FeldmanMicaliCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock2 import SSByz2Clock
from repro.core.clock_sync import SSByzClockSync
from repro.net.events import run_continuous
from repro.net.simulator import Simulation
from repro.net.trace import Tracer, records_from_jsonl, records_to_jsonl
from repro.runtime import run_runtime

SEEDS = range(10)
BEATS = 40
CLOSURE_WINDOW = 12


def _factory(k: int = 6):
    return lambda i: SSByzClockSync(
        k, lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)
    )


def _simulated_trace(seed: int, adversary_factory, *, engine: str = "fast"):
    """Scrambled-start simulator run; per-beat clock values as JSONL."""
    sim = Simulation(
        4,
        1,
        _factory(),
        adversary=adversary_factory(),
        seed=seed,
        engine=engine,
    )
    tracer = Tracer(lambda root: root.clock_value)
    sim.add_monitor(tracer)
    sim.scramble()
    sim.run(BEATS)
    return tracer.to_jsonl()


def _live_trace(seed: int, adversary_factory, *, codec: str = "json"):
    """The same run, live: concurrent tasks over zero-delay local queues."""
    result = run_runtime(
        4,
        1,
        _factory(),
        adversary=adversary_factory(),
        seed=seed,
        beats=BEATS,
        transport="local",
        codec=codec,
        k=6,
    )
    # Zero-delay local delivery must never degrade the round abstraction.
    assert result.late_messages == 0
    assert result.barrier_timeouts == 0
    assert result.malformed_frames == 0
    return result.to_jsonl()


class _UnderCorruptingEquivocator(EquivocatorAdversary):
    """Corrupts only f-1 nodes; records the ``f`` each view reports."""

    def __init__(self):
        super().__init__()
        self.seen_f = set()

    def select_faulty(self, n, f, rng):
        return frozenset(range(n - f + 1, n))

    def craft_messages(self, view):
        self.seen_f.add(view.f)
        return super().craft_messages(view)


class TestLocalTransportIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_free_trajectories_identical(self, seed):
        assert _live_trace(seed, lambda: None) == _simulated_trace(
            seed, lambda: None
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_trajectories_identical(self, seed):
        """A live Byzantine *peer* reproduces the lock-step adversary
        phase exactly: same visible-message order, same RNG stream, same
        divergence choices."""
        assert _live_trace(seed, EquivocatorAdversary) == _simulated_trace(
            seed, EquivocatorAdversary
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_split_world_with_divergence_chooser_identical(self, seed):
        """The adversary's coin-divergence hook fires identically live."""
        assert _live_trace(seed, SplitWorldAdversary) == _simulated_trace(
            seed, SplitWorldAdversary
        )

    def test_identity_holds_against_both_engines(self):
        """The runtime equals *the simulator*, not one engine's quirks."""
        live = _live_trace(0, EquivocatorAdversary)
        for engine in ("fast", "reference"):
            assert live == _simulated_trace(
                0, EquivocatorAdversary, engine=engine
            )

    def test_view_reports_the_protocol_f_on_every_path(self):
        """An adversary corrupting fewer than f nodes still sees the
        protocol's ``f`` in its view — the same on the simulator, the
        event engine and the live runtime — and so acts identically."""
        n, f, beats = 7, 2, 12
        adversaries = [_UnderCorruptingEquivocator() for _ in range(3)]
        sim = Simulation(n, f, _factory(), adversary=adversaries[0], seed=0)
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        sim.scramble()
        sim.run(beats)
        event = run_continuous(
            n, f, _factory(), adversary=adversaries[1], seed=0, beats=beats
        )
        live = run_runtime(
            n, f, _factory(), adversary=adversaries[2], seed=0, beats=beats,
            transport="local",
        )
        assert [a.seen_f for a in adversaries] == [{f}] * 3
        assert live.to_jsonl() == event.to_jsonl() == tracer.to_jsonl()

    def test_jsonl_round_trips_to_equal_records(self, tmp_path):
        """The shared trace format survives the disk, both directions."""
        sim = Simulation(4, 1, _factory(), seed=2)
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        sim.scramble()
        sim.run(10)
        live = run_runtime(
            4, 1, _factory(), seed=2, beats=10, transport="local", k=6
        )
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text(live.to_jsonl(), encoding="utf-8")
        loaded = records_from_jsonl(trace_file.read_text(encoding="utf-8"))
        assert loaded == list(tracer.records)
        assert records_to_jsonl(loaded) == tracer.to_jsonl()


class TestBinaryCodecIdentity:
    """The wire format is a run-wide *spelling*, never a semantics: the
    batched binary codec must reproduce the simulator — and therefore the
    per-message json runs — bit for bit, under the same seed discipline.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_free_binary_matches_simulator(self, seed):
        assert _live_trace(
            seed, lambda: None, codec="binary"
        ) == _simulated_trace(seed, lambda: None)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_binary_matches_simulator(self, seed):
        """The Byzantine process batches its crafted traffic per link;
        per-link FIFO content — and so the trajectory — must not move."""
        assert _live_trace(
            seed, EquivocatorAdversary, codec="binary"
        ) == _simulated_trace(seed, EquivocatorAdversary)

    def test_binary_and_json_runs_identical(self):
        """Transitivity spelled out once: codec choice changes only the
        bytes (and their count), not one record of the trajectory."""
        assert _live_trace(3, SplitWorldAdversary, codec="binary") \
            == _live_trace(3, SplitWorldAdversary, codec="json")

    def test_binary_moves_fewer_wire_units(self):
        json_run = run_runtime(
            4, 1, _factory(), seed=0, beats=20, transport="local",
            codec="json", k=6,
        )
        binary_run = run_runtime(
            4, 1, _factory(), seed=0, beats=20, transport="local",
            codec="binary", k=6,
        )
        assert binary_run.records == json_run.records
        assert binary_run.frames_sent < json_run.frames_sent


class TestGvssMixedBatches:
    """The GVSS coin interleaves point-to-point shares with broadcasts,
    so every link's batch is the sender's shared broadcast frames merged
    with that link's private frames in emission order — the sender path
    the oracle-coin rows never take.  Same trajectory as the simulator,
    and the exact traffic counts a frame-per-copy sender ships (n=7,
    f=2, k=8, seed 3, 25 beats).
    """

    N, F, K, SEED, GVSS_BEATS = 7, 2, 8, 3, 25
    #: adversary -> (messages_sent, {codec: frames_sent}).
    PINNED = {
        None: (14903, {"binary": 1225, "json": 16128}),
        EquivocatorAdversary: (11732, {"binary": 1125, "json": 12857}),
    }

    def _root(self, _node_id):
        return SSByzClockSync(
            self.K, lambda: FeldmanMicaliCoin(self.N, self.F)
        )

    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize("adversary_cls", [None, EquivocatorAdversary])
    def test_trace_and_counters_match(self, adversary_cls, codec):
        def adversary():
            return adversary_cls() if adversary_cls is not None else None

        sim = Simulation(
            self.N, self.F, self._root, adversary=adversary(), seed=self.SEED
        )
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        sim.scramble()
        sim.run(self.GVSS_BEATS)
        live = run_runtime(
            self.N, self.F, self._root, adversary=adversary(),
            seed=self.SEED, beats=self.GVSS_BEATS, transport="local",
            codec=codec,
        )
        assert live.to_jsonl() == tracer.to_jsonl()
        messages, frames = self.PINNED[adversary_cls]
        assert live.messages_sent == messages
        assert live.frames_sent == frames[codec]
        assert not any(live.health.values())


class TestReceiverStampedWhereItIsRead:
    """Shared inbox entries carry no receiver; the adversary's view — the
    one place on the live path that reads ``Envelope.receiver`` — carries
    the id of the faulty endpoint each entry was collected from.  Both
    strategies below filter their view on it (``anti-coin``, ``bisector``
    against ss-Byz-2-Clock, n=7, f=2)."""

    N, F, VIEW_BEATS = 7, 2, 16

    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize(
        "adversary_cls", [AntiCoinClock2Adversary, BisectorAdversary]
    )
    def test_views_and_traces_match_the_simulator(self, adversary_cls, codec):
        coin = OracleCoin(p0=0.4, p1=0.4, rounds=2)

        class Recording(adversary_cls):
            def craft_messages(self, view):
                self.views.append([tuple(e) for e in view.visible_messages])
                return super().craft_messages(view)

        def adversary():
            recording = Recording(coin)
            recording.views = []
            return recording

        def root(_node_id):
            return SSByz2Clock(coin)

        simulated, live = adversary(), adversary()
        sim = Simulation(self.N, self.F, root, adversary=simulated, seed=1)
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        sim.scramble()
        sim.run(self.VIEW_BEATS)
        result = run_runtime(
            self.N, self.F, root, adversary=live, seed=1,
            beats=self.VIEW_BEATS, transport="local", codec=codec,
        )
        assert result.to_jsonl() == tracer.to_jsonl()
        assert live.views == simulated.views
        receivers = {e[1] for view in live.views for e in view}
        assert receivers == set(sim.faulty_ids) and len(receivers) == self.F


class TestTcpLoopback:
    def test_converges_and_holds_closure_under_adversary(self):
        """Acceptance: TCP loopback, n=4, f=1, live Byzantine peer —
        converges and holds agreement for a full closure window."""
        result = run_runtime(
            4,
            1,
            _factory(),
            adversary=EquivocatorAdversary(),
            seed=0,
            beats=BEATS,
            transport="tcp",
            k=6,
            beat_timeout=30.0,
        )
        assert result.transport == "tcp"
        assert result.converged_beat is not None
        # converged_at already demands closure through the end of the run;
        # require the synched suffix to span at least a full window.
        assert result.converged_beat <= BEATS - CLOSURE_WINDOW - 1
        assert result.barrier_timeouts == 0

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_tcp_trajectory_matches_simulator_too(self, codec):
        """Loopback sockets reorder arrivals; the barrier's canonical sort
        must erase that noise entirely — one seed checked end to end,
        on both wire formats."""
        sim = Simulation(4, 1, _factory(), seed=1, engine="fast")
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        sim.scramble()
        sim.run(20)
        result = run_runtime(
            4, 1, _factory(), seed=1, beats=20, transport="tcp", k=6,
            codec=codec,
        )
        assert result.to_jsonl() == tracer.to_jsonl()
