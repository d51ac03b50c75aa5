"""Property-based tests for the continuous-time primitives.

The event engine's determinism contract rests on three total claims,
each pinned here across the whole input domain rather than at sampled
points: the event heap's pop order is a *total* order (ascending key,
FIFO on ties) no matter the insertion order; a drifting clock's
local↔global conversions are strictly monotone and inverse for every
legal rate in ``[1 - rho, 1 + rho]``; and every keyed delay draw lands
inside ``[d_min, hi]``, ``hi`` being ``d_max`` to within an ulp.  On
top of them: a run no longer than ``late_free_beats`` loses no message.
(The lateness rule itself is checked in ``tests/test_event_rule.py``.)

(When hypothesis is not installed, ``tests/conftest.py`` skips
collecting this module entirely.)
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.adversary.strategies import EquivocatorAdversary
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.net.events import (
    ContinuousSimulation,
    DriftingClock,
    EventHeap,
    KeyedDelays,
    _on_time,
    run_continuous,
)

#: Heap keys shaped like the engine's real ones: (time, priority, node).
_keys = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=64),
)


class TestEventHeapProperties:
    @given(st.lists(_keys, max_size=60), st.randoms(use_true_random=False))
    def test_pop_order_total_whatever_the_push_order(self, keys, rng):
        """Ascending-key pop order is invariant under insertion order."""
        heap = EventHeap()
        shuffled = list(enumerate(keys))
        rng.shuffle(shuffled)
        for payload, key in shuffled:
            heap.push(key, payload)
        popped = [heap.pop() for _ in range(len(heap))]
        assert [key for key, _ in popped] == sorted(keys)
        assert not heap

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                 max_size=40)
    )
    def test_equal_keys_pop_in_fifo_push_order(self, priorities):
        """Ties never reorder: payloads with one shared key come out in
        exactly the order they went in, interleaved stably by key."""
        heap = EventHeap()
        for i, priority in enumerate(priorities):
            heap.push(priority, i)
        popped = [heap.pop() for _ in range(len(heap))]
        for key in set(priorities):
            batch = [payload for k, payload in popped if k == key]
            assert batch == sorted(batch)  # push index order preserved

    @given(st.lists(_keys, min_size=1, max_size=40))
    def test_peek_agrees_with_pop(self, keys):
        heap = EventHeap()
        for key in keys:
            heap.push(key)
        assert heap.peek() == heap.pop()


class TestDriftingClockProperties:
    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=128),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )
    def test_rate_always_in_band(self, seed, node_id, rho):
        clock = DriftingClock(seed, node_id, rho)
        assert 1.0 - rho <= clock.rate <= 1.0 + rho

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=128),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
    )
    def test_local_time_strictly_monotone(self, seed, node_id, rho, t, dt):
        """More real time always means more local time — for any rate
        the band admits (rates are positive: rho < 1)."""
        clock = DriftingClock(seed, node_id, rho)
        assert clock.local_time(t + dt) > clock.local_time(t)

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=128),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_conversions_are_inverse(self, seed, node_id, rho, t):
        clock = DriftingClock(seed, node_id, rho)
        assert clock.global_time(clock.local_time(t)) == (
            pytest.approx(t, rel=1e-12, abs=1e-12)
        )

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=128),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_pulse_schedule_strictly_increasing(self, seed, node_id, rho,
                                                index):
        clock = DriftingClock(seed, node_id, rho, period=0.25)
        assert clock.pulse_time(index + 1) > clock.pulse_time(index)


class TestKeyedDelayProperties:
    @given(
        st.integers(min_value=0, max_value=2**63),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_draws_always_inside_bounds(
        self, seed, a, b, sender, receiver, beat, seq
    ):
        d_min, d_max = min(a, b), max(a, b)
        delays = KeyedDelays(seed, d_min, d_max)
        value = delays.delay(sender, receiver, beat, seq)
        assert d_min <= value <= delays.hi
        assert abs(delays.hi - d_max) <= math.ulp(d_max)

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_draws_keyed_not_sequential(self, seed, sender, receiver, beat,
                                        seq):
        """The same edge queried twice — or after any other draws —
        yields the same delay: draws are keyed, never stream state."""
        delays = KeyedDelays(seed, 0.1, 0.9)
        first = delays.delay(sender, receiver, beat, seq)
        for _ in range(3):  # interleave unrelated draws
            delays.delay(
                random.randrange(64), random.randrange(64),
                random.randrange(1000), random.randrange(1000),
            )
        assert delays.delay(sender, receiver, beat, seq) == first


def _factory(_node_id):
    return SSByzClockSync(8, lambda: OracleCoin())


class TestLateFreeBeats:
    """``late_free_beats`` is sound — a run that stops there loses no
    message, with or without a rushing adversary — and it is where the
    documented rho=0.005 example starts losing them."""

    @settings(max_examples=40)
    @given(
        n=st.sampled_from([4, 7]),
        seed=st.integers(0, 2**16),
        rho=st.floats(0.0, 0.2, allow_nan=False),
        a=st.floats(0.0, 1.2, allow_nan=False),
        b=st.floats(0.0, 1.2, allow_nan=False),
        byzantine=st.booleans(),
    )
    def test_a_run_of_that_many_beats_is_late_free(
        self, n, seed, rho, a, b, byzantine
    ):
        def sim():
            return ContinuousSimulation(
                n, (n - 1) // 3, _factory,
                adversary=EquivocatorAdversary() if byzantine else None,
                seed=seed, rho=rho, delay_bounds=(min(a, b), max(a, b)),
            )

        beats = sim().late_free_beats(30)
        assume(beats >= 1)
        run = sim()
        run.scramble()
        result = run.run(beats)
        assert result.late_messages == 0
        assert result.total_messages > 0

    def test_the_documented_example_goes_late_in_the_low_seventies(self):
        """rho=0.005, delays (0.05, 0.3), period 1, n=16: the horizon is
        73 / 71 / 72 beats at seeds 0 / 1 / 7 (70 at the worst rates),
        and the first late message falls between it and the beat whose
        latest pulse is late even with the smallest delay."""
        case = dict(rho=0.005, delay_bounds=(0.05, 0.3))
        for seed, horizon in ((0, 73), (1, 71), (7, 72)):
            sim = ContinuousSimulation(16, 5, _factory, seed=seed, **case)
            assert sim.late_free_beats(600) == horizon
        syncs = sim.synchronizers.values()
        certain = next(
            beat for beat in range(600)
            if not _on_time(
                max(s.pulse_time(beat) for s in syncs), sim.delays.d_min,
                min(s.close_time(beat) for s in syncs),
            )
        )
        # Lateness is monotone in the horizon: bisect for the first beat
        # that loses a message.
        low, high = horizon, certain + 1  # late-free, not late-free
        while high - low > 1:
            middle = (low + high) // 2
            late = run_continuous(
                16, 5, _factory, seed=7, beats=middle, **case
            ).late_messages
            low, high = (low, middle) if late else (middle, high)
        assert horizon <= high - 1 <= certain
        assert certain - horizon <= 26  # the band: (hi - d_min) / (2 rho)
