"""Block-level tests of Figure 4's four phases, with crafted histories.

These drive a single SSByzClockSync component through specific phases by
pinning its 4-clock and previous-beat inbox, checking each block's rule in
isolation — the unit-level complement to the end-to-end Theorem 4 tests.
"""

from __future__ import annotations

import pytest

from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import (
    SSByzClockSync,
    phase1_proposal,
    phase2_bit_and_save,
    phase3_agreed_bit,
    phase3_clock,
    tagged_values,
)
from repro.core.majority import BOTTOM
from repro.net.simulator import Simulation

N, F, K = 4, 1, 20


def make_sim(seed=0, p0=0.45, p1=0.45):
    coin = lambda: OracleCoin(p0=p0, p1=p1, rounds=2)
    return Simulation(N, F, lambda i: SSByzClockSync(K, coin), seed=seed)


def pin_phase(sim, phase, full_clock=None, save=None, previous=None):
    """Force every correct node to dispatch the given block next beat."""
    for node in sim.nodes.values():
        root = node.root
        root.a.clock = phase
        # Keep the 4-clock stable through the beat so the dispatch value
        # is exactly `phase`: set both 2-clocks to concrete values.
        root.a.a1.clock = phase & 1
        root.a.a2.clock = (phase >> 1) & 1
        if full_clock is not None:
            root.full_clock = full_clock
        if save is not None:
            root.save = save
        if previous is not None:
            root._previous = dict(previous)


class TestLine2Tick:
    def test_full_clock_increments_every_beat(self):
        sim = make_sim()
        values = []
        for _ in range(6):
            values.append(sim.nodes[0].root.full_clock)
            sim.run_beat()
        # Phase 3 may overwrite, but across phases 0-2 the tick is +1.
        diffs = [(b - a) % K for a, b in zip(values, values[1:])]
        assert all(d == 1 for d in diffs[:3])


class TestBlockA:
    def test_broadcasts_incremented_full_clock(self):
        sim = make_sim(seed=1)
        pin_phase(sim, 0, full_clock=7)
        sim.run_beat()
        # Every node received everyone's ("fc", 8) — stored for next beat.
        for node in sim.nodes.values():
            fc_values = [
                p[1] for p in node.root._previous.values()
                if isinstance(p, tuple) and p[0] == "fc"
            ]
            assert fc_values.count(8) >= N - F


class TestBlockB:
    def test_proposes_value_seen_n_minus_f_times(self):
        sim = make_sim(seed=2)
        previous = {i: ("fc", 9) for i in range(3)}
        pin_phase(sim, 1, previous=previous)
        sim.run_beat()
        for node in sim.nodes.values():
            proposals = [
                p[1] for p in node.root._previous.values()
                if isinstance(p, tuple) and p[0] == "prop"
            ]
            assert proposals.count(9) >= N - F

    def test_proposes_bottom_without_quorum(self):
        sim = make_sim(seed=3)
        previous = {0: ("fc", 9), 1: ("fc", 5), 2: ("fc", 3)}
        pin_phase(sim, 1, previous=previous)
        sim.run_beat()
        for node in sim.nodes.values():
            proposals = [
                p[1] for p in node.root._previous.values()
                if isinstance(p, tuple) and p[0] == "prop"
            ]
            assert proposals.count(BOTTOM) >= N - F


class TestBlockC:
    def test_save_and_bit_with_quorum(self):
        sim = make_sim(seed=4)
        previous = {i: ("prop", 11) for i in range(3)}
        pin_phase(sim, 2, previous=previous)
        sim.run_beat()
        for node in sim.nodes.values():
            assert node.root.save == 11
            bits = [
                p[1] for p in node.root._previous.values()
                if isinstance(p, tuple) and p[0] == "bit"
            ]
            assert bits.count(1) >= N - F

    def test_bit_zero_and_save_default_on_all_bottom(self):
        sim = make_sim(seed=5)
        previous = {i: ("prop", BOTTOM) for i in range(3)}
        pin_phase(sim, 2, previous=previous)
        sim.run_beat()
        for node in sim.nodes.values():
            assert node.root.save == 0
            bits = [
                p[1] for p in node.root._previous.values()
                if isinstance(p, tuple) and p[0] == "bit"
            ]
            assert bits.count(0) >= N - F

    def test_minority_proposal_sets_save_but_not_bit(self):
        """Lemma 8's subtle case: one honest proposal short of quorum —
        save adopts it (it is the unique non-⊥ value) but bit stays 0."""
        sim = make_sim(seed=6)
        previous = {0: ("prop", 13), 1: ("prop", BOTTOM), 2: ("prop", BOTTOM)}
        pin_phase(sim, 2, previous=previous)
        sim.run_beat()
        for node in sim.nodes.values():
            assert node.root.save == 13
            bits = [
                p[1] for p in node.root._previous.values()
                if isinstance(p, tuple) and p[0] == "bit"
            ]
            assert bits.count(0) >= N - F


class TestBlockD:
    @pytest.mark.parametrize(
        "bits,save,expected",
        [
            ([1, 1, 1], 11, (11 + 3) % K),  # n-f ones -> save + 3
            ([0, 0, 0], 11, 0),  # n-f zeros -> 0
        ],
    )
    def test_quorum_decisions(self, bits, save, expected):
        sim = make_sim(seed=7)
        previous = {i: ("bit", b) for i, b in enumerate(bits)}
        pin_phase(sim, 3, save=save, previous=previous)
        sim.run_beat()
        for node in sim.nodes.values():
            assert node.root.full_clock == expected

    def test_coin_fallback_on_split_bits(self):
        """Without a bit quorum the beat's coin decides — both outcomes
        must appear across seeds, and each is applied consistently."""
        outcomes = set()
        for seed in range(10):
            sim = make_sim(seed=seed, p0=0.5, p1=0.5)
            previous = {0: ("bit", 1), 1: ("bit", 0), 2: ("bit", 1)}
            pin_phase(sim, 3, save=11, previous=previous)
            sim.run_beat()
            values = {node.root.full_clock for node in sim.nodes.values()}
            assert len(values) == 1  # all correct nodes act alike
            outcomes.add(values.pop())
        assert outcomes == {0, (11 + 3) % K}


class TestRulesAsFunctions:
    """Blocks 3.b-3.d as the pure rules the component and the bulk
    program both call, over one payload per sender (threshold n - f)."""

    T = N - F

    def test_tagged_values_keeps_only_well_formed_pairs(self):
        payloads = [
            ("fc", 3), ("fc",), ("fc", 3, 3), ["fc", 3], "fc", None, 3,
            ("prop", 3), ("fc", [3]), ("fc", None),
        ]
        assert tagged_values(payloads, "fc") == [3, [3], None]
        assert tagged_values(payloads, "bit") == []

    def test_proposal_needs_exactly_n_minus_f(self):
        quorum = [("fc", 9)] * self.T + [("fc", 2)] * F
        assert phase1_proposal(quorum, self.T) == 9
        assert phase1_proposal(quorum[1:], self.T) is BOTTOM
        assert phase1_proposal([], self.T) is BOTTOM

    def test_proposal_ignores_junk_and_other_kinds(self):
        junk = [("fc", [9]), ("prop", 9), ("fc", 9, 9), 9]
        assert phase1_proposal(junk * self.T, self.T) is BOTTOM
        assert phase1_proposal(junk + [("fc", 9)] * self.T, self.T) == 9

    def test_proposal_reports_the_alias_that_arrived_first(self):
        """``True == 1``: one tally, named by its first arrival — why the
        bulk engine's inbox classes compare payloads by identity."""
        assert phase1_proposal(
            [("fc", True)] + [("fc", 1)] * (self.T - 1), self.T
        ) is True
        assert phase1_proposal(
            [("fc", 1)] * (self.T - 1) + [("fc", True)], self.T
        ) == 1

    @pytest.mark.parametrize(
        "proposals,expected",
        [
            ([11] * 3, (1, 11)),  # n - f copies: bit 1
            ([11, 11, BOTTOM], (0, 11)),  # n - f - 1: save it, bit 0
            ([BOTTOM] * 3, (0, 0)),  # a ⊥ majority saves 0
            ([K + 2] * 3, (1, 2)),  # save is reduced mod k
            (["x"] * 3, (1, 0)),  # a non-clock quorum cannot be saved
            ([[11]] * 3, (0, 0)),  # unhashable: never tallied
            ([], (0, 0)),
        ],
    )
    def test_bit_and_save(self, proposals, expected):
        payloads = [("prop", value) for value in proposals]
        assert phase2_bit_and_save(payloads, self.T, K) == expected

    def test_save_is_an_int_whatever_alias_won(self):
        bit, save = phase2_bit_and_save([("prop", True)] * 3, self.T, K)
        assert (bit, save) == (1, 1) and type(save) is int

    def test_k_equal_one_saves_zero(self):
        assert phase2_bit_and_save([("prop", 5)] * 3, self.T, 1) == (1, 0)

    @pytest.mark.parametrize(
        "bits,expected",
        [
            ([1, 1, 1, 0], 1),
            ([0, 0, 0, 1], 0),
            ([1, 1, 0, 0], BOTTOM),  # n - f - 1 of each
            ([True, 1, 1], 1),  # an alias still counts as the bit
            ([2, 2, 2], BOTTOM),
            ([[1], [1], [1]], BOTTOM),
            ([], BOTTOM),
        ],
    )
    def test_agreed_bit(self, bits, expected):
        payloads = [("bit", value) for value in bits]
        assert phase3_agreed_bit(payloads, self.T) == expected

    def test_agreed_bit_ignores_wrong_arity(self):
        assert phase3_agreed_bit([("bit", 1, 1)] * 3, self.T) is BOTTOM
        assert phase3_agreed_bit([("bit",)] * 3, self.T) is BOTTOM

    @pytest.mark.parametrize(
        "agreed,rand,expected",
        [
            (1, 0, (11 + 3) % K),  # agreement overrides the coin
            (0, 1, 0),
            (BOTTOM, 1, (11 + 3) % K),  # no agreement: the coin chooses
            (BOTTOM, 0, 0),
        ],
    )
    def test_phase3_clock(self, agreed, rand, expected):
        assert phase3_clock(agreed, rand, 11, K) == expected

    def test_phase3_clock_wraps_and_k_equal_one(self):
        assert phase3_clock(1, 0, K - 1, K) == 2
        assert phase3_clock(1, 0, 0, 1) == 0
