"""The Protocol seam: registry, engines, links, runtime, campaigns.

Every registered protocol runs through the simulator (both engines,
bit-identically), every link-condition model, the campaign grid's
``protocol`` axis and the live runtime (Local and TCP transports);
registry error paths raise ``ConfigurationError`` (the CLI layer's
exit-2 behavior is in ``tests/test_cli.py``).
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.campaign import ScenarioSpec, run_campaign, scenario_grid
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.experiments import run_trial
from repro.baselines.phase_king import (
    BitwisePhaseKingAgreement,
    PhaseKingClock,
    phase_king_rounds,
)
from repro.core.protocol import (
    DEFAULT_PROTOCOL,
    PROTOCOLS,
    Protocol,
    register_protocol,
    resolve_protocol,
)
from repro.errors import ConfigurationError
from repro.net.simulator import Simulation
from repro.runtime import run_runtime

# Full protocol × engine × link × transport matrix: deselected by the CI
# fast lane.
pytestmark = pytest.mark.slow

ALL_PROTOCOLS = sorted(PROTOCOLS)


def trial(protocol, *, n=4, f=1, k=8, seed=0, max_beats=200, **kwargs):
    spec = ScenarioSpec(
        n=n, f=f, k=k, protocol=protocol, max_beats=max_beats, **kwargs
    )
    return run_trial(spec, seed)


class TestRegistry:
    def test_catalog_names(self):
        assert ALL_PROTOCOLS == [
            "clock-sync",
            "deterministic",
            "dolev-welch",
            "phase-king",
        ]
        assert DEFAULT_PROTOCOL == "clock-sync"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            resolve_protocol("quantum")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=4, f=1, k=6, protocol="quantum").validate()
        with pytest.raises(ConfigurationError):
            repro.synchronize(n=4, f=1, k=6, protocol="quantum")

    def test_double_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_protocol(PROTOCOLS["clock-sync"])

    def test_resolve_accepts_instances(self):
        protocol = PROTOCOLS["phase-king"]
        assert resolve_protocol(protocol) is protocol

    def test_catalog_entries_described(self):
        for name, protocol in PROTOCOLS.items():
            assert protocol.name == name
            assert protocol.claimed_convergence
            assert protocol.paper
            assert "f < n" in protocol.resilience
            assert protocol.describe()

    def test_only_clock_sync_uses_the_coin(self):
        assert [n for n in ALL_PROTOCOLS if PROTOCOLS[n].uses_coin] == [
            "clock-sync"
        ]

    def test_deterministic_bounds(self):
        for name in ("deterministic", "phase-king"):
            bound = PROTOCOLS[name].convergence_bound(4, 1, 8)
            assert isinstance(bound, int) and bound > 0
        assert PROTOCOLS["clock-sync"].convergence_bound(4, 1, 8) is None
        assert PROTOCOLS["dolev-welch"].convergence_bound(4, 1, 8) is None

    def test_custom_protocol_pluggable(self):
        class ToyProtocol(Protocol):
            name = "toy"
            paper = "test"
            claimed_convergence = "O(f)"

            def factory(self, n, f, k, *, coin_factory=None, share_coin=False):
                return resolve_protocol("phase-king").factory(n, f, k)

        register_protocol(ToyProtocol())
        try:
            spec = ScenarioSpec(n=4, f=1, k=6, protocol="toy", max_beats=60)
            (entry,) = run_campaign([spec], seeds=[0], workers=1)
            assert entry.sweep.success_rate == 1.0
        finally:
            PROTOCOLS.pop("toy")


class TestEveryProtocolOnEveryEngine:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_engines_bit_identical(self, protocol):
        for seed in range(3):
            fast = trial(protocol, seed=seed, engine="fast")
            reference = trial(protocol, seed=seed, engine="reference")
            assert fast.history == reference.history
            assert fast.total_messages == reference.total_messages
            assert fast.converged_beat == reference.converged_beat

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_converges_on_perfect_links(self, protocol):
        result = trial(protocol, seed=1, max_beats=400)
        assert result.converged

    def test_deterministic_protocols_within_bound(self):
        for name in ("deterministic", "phase-king"):
            bound = PROTOCOLS[name].convergence_bound(7, 2, 8)
            for seed in range(3):
                result = trial(name, n=7, f=2, seed=seed)
                assert result.converged_beat is not None
                assert result.converged_beat <= bound


class TestEveryProtocolUnderEveryLink:
    """ISSUE-5 satellite: baselines under degraded networks."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_bounded_delay_runs_and_defers_traffic(self, protocol):
        result = trial(
            protocol, seed=0, max_beats=60, early_stop=False,
            link="delay", link_params=(("max_delay", 1),),
        )
        assert result.beats_run == 60
        assert result.delayed_messages > 0
        assert result.dropped_messages == 0

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_lossy_links_run_and_drop_traffic(self, protocol):
        result = trial(
            protocol, seed=0, max_beats=60, early_stop=False,
            link="lossy", link_params=(("loss", 0.1),),
        )
        assert result.beats_run == 60
        assert result.dropped_messages > 0

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_partition_heals_and_runs(self, protocol):
        result = trial(
            protocol, seed=0, max_beats=80, early_stop=False,
            link="partition",
            link_params=(("heal", 10), ("split", 0)),
        )
        assert result.beats_run == 80
        assert result.dropped_messages > 0

    @pytest.mark.parametrize("protocol", ["deterministic", "phase-king"])
    def test_cyclic_clocks_survive_light_loss(self, protocol):
        """A cycle with no dropped envelope re-synchronizes the system;
        at 2% loss some cycle soon comes through clean."""
        converged = sum(
            trial(
                protocol, seed=seed, max_beats=400,
                link="lossy", link_params=(("loss", 0.02),),
            ).converged
            for seed in range(4)
        )
        assert converged >= 3

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_engines_agree_under_lossy_links(self, protocol):
        fast = trial(
            protocol, seed=2, max_beats=50, early_stop=False,
            link="lossy", link_params=(("loss", 0.1),), engine="fast",
        )
        reference = trial(
            protocol, seed=2, max_beats=50, early_stop=False,
            link="lossy", link_params=(("loss", 0.1),), engine="reference",
        )
        assert fast.history == reference.history
        assert fast.dropped_messages == reference.dropped_messages


class TestPhaseKingClock:
    def test_latency_linear_in_f(self):
        latencies = {}
        for n, f in ((4, 1), (10, 3), (16, 5)):
            sim = Simulation(n, f, lambda i, n=n, f=f: PhaseKingClock(n, f, 8))
            monitor = ClockConvergenceMonitor(k=8)
            sim.add_monitor(monitor)
            sim.scramble()
            sim.run(4 * phase_king_rounds(f))
            beat = monitor.convergence_beat()
            assert beat is not None
            assert beat <= 2 * phase_king_rounds(f)
            latencies[f] = beat
        assert latencies[1] < latencies[3] < latencies[5]

    def test_shorter_cycle_than_turpin_coan(self):
        """The bitwise clock's whole point: 3(f+1) vs 2 + 3(f+1) rounds
        (``deterministic`` is the cyclic Turpin-Coan clock)."""
        for f in (1, 2, 5):
            pk = PROTOCOLS["phase-king"].convergence_bound(16, f, 8)
            tc = PROTOCOLS["deterministic"].convergence_bound(16, f, 8)
            assert pk < tc

    @pytest.mark.parametrize("k", [1, 2, 5, 6, 8, 60])
    def test_any_modulus_closure_through_wraparound(self, k):
        """Bit lanes can assemble values >= k; the mod-k reduction must
        still give a closed, ticking clock for non-power-of-two k."""
        sim = Simulation(4, 1, lambda i: PhaseKingClock(4, 1, k), seed=3)
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(40)
        beat = monitor.convergence_beat()
        assert beat is not None
        tail = [h[0] for h in monitor.history[beat:]]
        for previous, current in zip(tail, tail[1:]):
            assert current == (previous + 1) % k

    def test_latency_identical_across_seeds(self):
        beats = {
            trial("phase-king", seed=seed).converged_beat
            for seed in range(5)
        }
        assert len(beats) == 1

    def test_bitwise_agreement_validity_and_agreement(self):
        """Unanimous inputs decide themselves; mixed inputs still agree
        (lane-wise phase-king properties compose to multivalued ones)."""
        from tests.conftest import CoinHarness

        class _Algorithm:
            def __init__(self, inputs, modulus):
                self.rounds = phase_king_rounds(1)
                self.p0 = self.p1 = 0.0
                self._inputs = inputs
                self._modulus = modulus
                self._counter = 0

            def new_instance(self):
                instance = BitwisePhaseKingAgreement(
                    4, 1, self._modulus, self._inputs[self._counter]
                )
                self._counter += 1
                return instance

        outputs = CoinHarness(
            _Algorithm([5, 5, 5, 5], 6), 4, 1, faulty=frozenset({3})
        ).run()
        assert set(outputs.values()) == {5}
        outputs = CoinHarness(_Algorithm([1, 7, 3, 5], 8), 4, 1).run()
        assert len(set(outputs.values())) == 1


class TestProtocolsInTheRuntime:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_local_runtime_matches_simulator(self, protocol):
        """The runtime determinism contract extends to every protocol:
        zero-delay LocalTransport trajectories == simulator trajectories."""
        live = run_runtime(
            4, 1,
            resolve_protocol(protocol).factory(4, 1, 8),
            seed=1, beats=24, transport="local", k=8,
        )
        sim = trial(protocol, seed=1, max_beats=24, early_stop=False)
        assert live.history == sim.history[: live.beats_run]

    def test_baseline_over_tcp(self):
        result = run_runtime(
            4, 1,
            resolve_protocol("phase-king").factory(4, 1, 6),
            seed=0, beats=20, transport="tcp", k=6,
        )
        assert result.beats_run == 20
        assert result.converged


class TestProtocolCampaigns:
    def test_grid_protocol_axis(self):
        specs = scenario_grid(
            [4, 7], ks=[8], protocols=["clock-sync", "phase-king"]
        )
        assert len(specs) == 4
        assert {s.protocol for s in specs} == {"clock-sync", "phase-king"}

    def test_grid_single_protocol_kwarg_still_works(self):
        (spec,) = scenario_grid([4], ks=[6], protocol="dolev-welch")
        assert spec.protocol == "dolev-welch"

    def test_grid_rejects_both_axis_and_kwarg(self):
        with pytest.raises(ConfigurationError):
            scenario_grid(
                [4], protocols=["clock-sync"], protocol="dolev-welch"
            )

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_campaign_runs_every_protocol(self, protocol):
        spec = ScenarioSpec(n=4, f=1, k=6, protocol=protocol, max_beats=120)
        (entry,) = run_campaign([spec], seeds=range(2), workers=1)
        assert len(entry.sweep.results) == 2
        assert entry.spec.label.startswith(protocol)

    def test_campaign_worker_count_invariant_for_baselines(self):
        spec = ScenarioSpec(n=4, f=1, k=6, protocol="phase-king",
                            max_beats=120)
        serial = run_campaign([spec], seeds=range(3), workers=1)
        parallel = run_campaign([spec], seeds=range(3), workers=2)
        assert serial[0].sweep.results == parallel[0].sweep.results


class TestSynchronizeFacade:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_synchronize_accepts_every_protocol(self, protocol):
        result = repro.synchronize(
            n=4, f=1, k=8, protocol=protocol, seed=1, max_beats=400
        )
        assert result.converged

    def test_default_protocol_path_unchanged(self):
        """`synchronize()` without a protocol is the pre-seam clock-sync
        call — equal seeds must reproduce the exact same trajectory."""
        implicit = repro.synchronize(n=4, f=1, k=8, seed=1)
        explicit = repro.synchronize(n=4, f=1, k=8, seed=1,
                                     protocol="clock-sync")
        assert implicit.history == explicit.history
        assert implicit.total_messages == explicit.total_messages
