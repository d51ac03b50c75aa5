"""Graded VSS properties, with and without Byzantine dealers."""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.coin import reedsolomon
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.field import PrimeField
from repro.coin.gvss import GRADE_HIGH, GRADE_LOW, GRADE_NONE, GradedSharingState
from repro.coin.polynomial import evaluate
from repro.coin.shamir import SymmetricBivariate, node_point

from tests.conftest import CoinHarness


def run_gvss(n, f, *, faulty=frozenset(), byz_hook=None, seed=0):
    """Run one full coin invocation and return the per-node GVSS states."""
    algorithm = FeldmanMicaliCoin(n, f)
    harness = CoinHarness(algorithm, n, f, faulty=faulty, seed=seed)
    outputs = harness.run(byz_hook)
    states = {i: harness.instances[i].state for i in harness.instances}
    return outputs, states


class TestFaultFree:
    def test_all_dealers_grade_high_everywhere(self):
        _, states = run_gvss(4, 1)
        for state in states.values():
            assert all(g == GRADE_HIGH for g in state.grades.values())

    def test_secrets_recovered_identically(self):
        _, states = run_gvss(4, 1, seed=3)
        recovered = [tuple(sorted(s.recovered.items())) for s in states.values()]
        assert len(set(recovered)) == 1

    def test_recovered_secrets_match_dealt_bits(self):
        _, states = run_gvss(7, 2, seed=5)
        dealt = {i: s.my_secret for i, s in states.items()}
        for state in states.values():
            for dealer, secret in dealt.items():
                assert state.recovered[dealer] == secret

    def test_outputs_common(self):
        outputs, _ = run_gvss(7, 2, seed=8)
        assert len(set(outputs.values())) == 1

    def test_output_parity_of_secrets(self):
        outputs, states = run_gvss(4, 1, seed=9)
        expected = 0
        for state in states.values():
            expected ^= state.my_secret & 1
        assert set(outputs.values()) == {expected}


class TestByzantineDealers:
    def _silent(self, round_index, visible):
        return []

    def test_silent_dealer_graded_out(self):
        n, f = 4, 1
        faulty = frozenset({3})
        _, states = run_gvss(n, f, faulty=faulty, byz_hook=self._silent)
        for state in states.values():
            assert state.grades[3] == GRADE_NONE
            # Honest dealers still sail through.
            for dealer in range(3):
                assert state.grades[dealer] == GRADE_HIGH

    def test_honest_secrets_survive_lying_recovery(self):
        """A faulty node broadcasting wrong zero-shares cannot corrupt an
        honest dealer's recovered secret (Berlekamp-Welch absorbs f lies)."""
        n, f = 4, 1
        faulty = frozenset({3})
        field = PrimeField.for_system(n)

        def lie_in_recovery(round_index, visible):
            if round_index != 4:
                return []
            payload = ("rshare", tuple((d, 77 % field.modulus) for d in range(n)))
            return [(3, r, payload) for r in range(n)]

        _, states = run_gvss(n, f, faulty=faulty, byz_hook=lie_in_recovery, seed=2)
        dealt = {i: s.my_secret for i, s in states.items()}
        for state in states.values():
            for dealer, secret in dealt.items():
                assert state.recovered[dealer] == secret

    def test_grade_high_implies_grade_low_everywhere(self):
        """The graded property: grade 2 at one correct node forces grade >= 1
        at every correct node, even under vote equivocation."""
        n, f = 7, 2
        faulty = frozenset({5, 6})

        def equivocate_votes(round_index, visible):
            if round_index != 3:
                return []
            messages = []
            for sender in faulty:
                for receiver in range(n):
                    vote: Any = tuple(range(n)) if receiver % 2 else ()
                    messages.append((sender, receiver, ("vote", vote)))
            return messages

        _, states = run_gvss(
            n, f, faulty=faulty, byz_hook=equivocate_votes, seed=4
        )
        for dealer in range(n):
            grades = [state.grades[dealer] for state in states.values()]
            if GRADE_HIGH in grades:
                assert all(g >= GRADE_LOW for g in grades)

    def test_inconsistent_dealer_rows_detected(self):
        """A dealer sending unrelated random rows gathers no honest OKs."""
        n, f = 4, 1
        faulty = frozenset({3})
        field = PrimeField.for_system(n)
        rng = random.Random(0)

        def bad_dealing(round_index, visible):
            if round_index != 1:
                return []
            return [
                (
                    3,
                    receiver,
                    ("row", tuple(rng.randrange(field.modulus) for _ in range(f + 1))),
                )
                for receiver in range(n)
            ]

        _, states = run_gvss(n, f, faulty=faulty, byz_hook=bad_dealing, seed=6)
        for state in states.values():
            assert state.grades[3] <= GRADE_LOW


class TestRecoverCost:
    """The recover round eliminates only when a share actually lies."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        solve = reedsolomon._solve_linear_system

        def counting(field, matrix, rhs):
            calls.append(len(matrix))
            return solve(field, matrix, rhs)

        monkeypatch.setattr(reedsolomon, "_solve_linear_system", counting)
        return calls

    @pytest.mark.parametrize("n, f", [(4, 1), (7, 2)])
    def test_fault_free_recover_never_eliminates(self, eliminations, n, f):
        _, states = run_gvss(n, f, seed=5)
        dealt = {i: s.my_secret for i, s in states.items()}
        assert all(state.recovered == dealt for state in states.values())
        assert eliminations == []

    @pytest.mark.parametrize("n, f", [(4, 1), (7, 2)])
    def test_f_recover_liars_cost_at_most_one_elimination(self, eliminations, n, f):
        """The liars are the *lowest* ids, so their shares are inside the
        first f + 1 points the optimistic interpolant is drawn through."""
        faulty = frozenset(range(f))
        field = PrimeField.for_system(n)

        def lie_in_recovery(round_index, visible):
            if round_index != 4:
                return []
            payload = ("rshare", tuple((d, 5 % field.modulus) for d in range(n)))
            return [(s, r, payload) for s in faulty for r in range(n)]

        _, states = run_gvss(n, f, faulty=faulty, byz_hook=lie_in_recovery, seed=2)
        dealt = {i: s.my_secret for i, s in states.items()}
        for state in states.values():
            for dealer, secret in dealt.items():
                assert state.recovered[dealer] == secret
        # At the parent every (node, dealer) eliminated, liars or none.
        assert 0 < len(eliminations) <= (n - f) * n


class TestUnpredictability:
    def test_f_rows_leave_secret_information_theoretically_hidden(self):
        """Before the recover round the adversary holds f points of each
        honest zero polynomial (degree f): every secret is still possible."""
        field = PrimeField(17)
        f = 2
        dealing = SymmetricBivariate.random(field, 13, f, random.Random(7))
        # Adversary corrupted nodes 0 and 1: it knows rows 0 and 1, hence
        # two points of the degree-2 zero polynomial S(., 0).
        known = [
            (node_point(i), evaluate(field, dealing.row(i), 0)) for i in (0, 1)
        ]
        from repro.coin.polynomial import interpolate

        consistent_secrets = set()
        for candidate in range(field.modulus):
            poly = interpolate(field, known + [(0, candidate)])
            if len(poly) <= f + 1:
                consistent_secrets.add(candidate)
        assert consistent_secrets == set(range(field.modulus))


class TestScramble:
    def test_scramble_stays_in_domain(self):
        state = GradedSharingState(4, 1, PrimeField.for_system(4))
        rng = random.Random(11)
        for _ in range(20):
            state.scramble(rng)
            assert state.my_secret in (0, 1)
            for row in state.rows.values():
                assert all(0 <= c < state.field.modulus for c in row)
            for grade in state.grades.values():
                assert grade in (GRADE_NONE, GRADE_LOW, GRADE_HIGH)

    def test_scramble_covers_every_attribute(self):
        """Everything but the constants (n, f, field) is redrawn: a cache
        kept on the instance would survive a transient fault, which is
        exactly the state self-stabilization may not assume clean."""
        state = GradedSharingState(7, 2, PrimeField.for_system(7))
        harness = CoinHarness(FeldmanMicaliCoin(7, 2), 7, 2, seed=1)
        harness.run(None)
        used = harness.instances[0].state
        marker = object()
        for victim in (state, used):
            constants = {name: vars(victim)[name] for name in ("n", "f", "field")}
            for name in vars(victim).keys() - constants.keys():
                setattr(victim, name, marker)
            victim.scramble(random.Random(3))
            for name, value in vars(victim).items():
                if name in constants:
                    assert value is constants[name]
                else:
                    assert value is not marker, f"scramble() left {name} alone"
