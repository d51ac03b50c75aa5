"""Counting helpers and Observation 3.1 as a tested property."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.majority import (
    BOTTOM,
    count_values,
    first_payload_per_sender,
    most_frequent,
    value_with_count_at_least,
)
from repro.net.message import Envelope


class TestFirstPerSender:
    def test_dedupes_keeping_first(self):
        inbox = [
            Envelope(1, 0, "root", "a", 0),
            Envelope(1, 0, "root", "b", 0),
            Envelope(2, 0, "root", "c", 0),
        ]
        assert first_payload_per_sender(inbox) == {1: "a", 2: "c"}

    def test_empty(self):
        assert first_payload_per_sender([]) == {}


class TestCounting:
    def test_counts_hashables(self):
        counter = count_values([1, 1, None, "x"])
        assert counter[1] == 2
        assert counter[None] == 1

    def test_drops_unhashable_byzantine_junk(self):
        counter = count_values([1, [2, 3], {"a": 1}, 1])
        assert counter == Counter({1: 2})

    def test_most_frequent_empty(self):
        assert most_frequent(Counter()) == (BOTTOM, 0)

    def test_most_frequent_basic(self):
        assert most_frequent(Counter({5: 3, 7: 1})) == (5, 3)

    def test_tie_break_deterministic(self):
        a = most_frequent(Counter({0: 2, 1: 2}))
        b = most_frequent(Counter({1: 2, 0: 2}))
        assert a == b

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=20))
    def test_most_frequent_is_argmax(self, values):
        counter = count_values(values)
        winner, count = most_frequent(counter)
        if values:
            assert count == max(counter.values())
            assert counter[winner] == count


def _loop_count_values(values):
    """``count_values`` as a value-by-value loop: the oracle its one
    ``Counter`` pass must reproduce."""
    counter = Counter()
    for value in values:
        try:
            counter[value] += 1
        except TypeError:
            continue
    return counter


def _exactly(counter):
    """A tally as its keys — type, repr and identity — counts and order."""
    return [(type(key), repr(key), id(key), count)
            for key, count in counter.items()]


#: ``1`` / ``True`` / ``1.0`` (and ``0`` / ``False`` / ``0.0``) share a
#: key, named by the first to arrive; reprs equal on their first 64
#: characters leave the tie-break to insertion order; unhashables are
#: dropped wherever they stand.
_TALLIED = st.one_of(
    st.sampled_from([0, 1, True, False, 1.0, 0.0, None, ("fc", 1), ("fc", True)]),
    st.integers(min_value=-2, max_value=3),
    st.builds(lambda tail: "x" * 70 + tail, st.sampled_from("ab")),
    st.builds(lambda tail: ("p" * 70, tail), st.sampled_from([1, True, 2])),
    st.sampled_from([[1], {"a": 1}, {2}, ["x" * 70]]),
)


class TestCountingFastPath:
    @settings(max_examples=200)
    @given(st.lists(_TALLIED, max_size=24))
    def test_one_pass_is_the_loop(self, values):
        expected = _loop_count_values(values)
        forms = (
            values, tuple(values), iter(values),
            dict(enumerate(values)).values(),
        )
        for form in forms:
            counter = count_values(form)
            assert type(counter) is Counter
            assert _exactly(counter) == _exactly(expected)
        winner, count = most_frequent(count_values(values))
        expected_winner, expected_count = most_frequent(expected)
        assert (type(winner), repr(winner), count) == (
            type(expected_winner), repr(expected_winner), expected_count
        )
        assert winner is expected_winner

    def test_unhashable_after_a_counted_prefix_counts_once(self):
        counter = count_values(iter([1, True, 2, [3], 1.0, {}]))
        assert _exactly(counter) == _exactly(Counter({1: 3, 2: 1}))

    def test_a_mapping_tallies_its_keys(self):
        assert count_values({"a": 5, "b": 7}) == Counter({"a": 1, "b": 1})


class TestThresholdValue:
    def test_finds_threshold_value(self):
        assert value_with_count_at_least([1, 1, 1, 2], 3) == 1

    def test_returns_bottom_below_threshold(self):
        assert value_with_count_at_least([1, 1, 2, 2], 3) is BOTTOM

    def test_empty(self):
        assert value_with_count_at_least([], 1) is BOTTOM


class TestObservation31:
    """Observation 3.1: if two length-n vectors differ in at most f
    entries (n > 3f) and each contains n-f copies of some value, the
    values coincide."""

    @given(st.data())
    def test_observation_3_1(self, data):
        f = data.draw(st.integers(min_value=0, max_value=3))
        n = data.draw(st.integers(min_value=3 * f + 1, max_value=3 * f + 4))
        base = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=n, max_size=n
            )
        )
        vector_a = list(base)
        vector_b = list(base)
        flips = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=2),
                ),
                max_size=f,
            )
        )
        for index, value in flips:
            vector_b[index] = value

        value_a = value_with_count_at_least(vector_a, n - f)
        value_b = value_with_count_at_least(vector_b, n - f)
        if value_a is not BOTTOM and value_b is not BOTTOM:
            assert value_a == value_b

    def test_paper_example_shape(self):
        # n=4, f=1: A has 3 copies of 0; B differs in one entry and has 3
        # copies of some value — necessarily 0 as well.
        vector_a = [0, 0, 0, 1]
        vector_b = [0, 0, 0, 2]  # differs in at most f = 1 entries
        assert value_with_count_at_least(vector_a, 3) == 0
        assert value_with_count_at_least(vector_b, 3) == 0
