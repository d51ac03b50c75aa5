"""Tests for RNG derivation, envelopes, outboxes and routing."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolViolationError
from repro.net.message import CraftedTraffic, Envelope, FanoutView, Outbox
from repro.net.network import MessageStats, Router, ensure_faulty_senders
from repro.net.rng import SeedSequence, derive_seed


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "node", 3) == derive_seed(1, "node", 3)

    def test_label_sensitivity(self):
        assert derive_seed(1, "node", 3) != derive_seed(1, "node", 4)
        assert derive_seed(1, "node") != derive_seed(1, "eden")
        assert derive_seed(1) != derive_seed(2)

    def test_no_concatenation_collision(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    @given(st.integers(), st.text(max_size=8))
    def test_range(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**64

    def test_streams_independent(self):
        seq = SeedSequence(5)
        a = seq.stream("x")
        b = seq.stream("y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_replay(self):
        seq = SeedSequence(5)
        first = [seq.stream("x").random() for _ in range(3)]
        assert first[0] == first[1] == first[2]

    def test_spawn_namespacing(self):
        seq = SeedSequence(5)
        child = seq.spawn("ns")
        assert child.seed_for("x") != seq.seed_for("x")

    def test_streams_helper(self):
        seq = SeedSequence(1)
        streams = list(seq.streams("node", 4))
        assert len(streams) == 4
        draws = {s.randrange(10**9) for s in streams}
        assert len(draws) == 4


class TestEnvelope:
    """What every layer relies on an envelope being."""

    def test_immutable_hashable_picklable(self):
        envelope = Envelope(3, 1, "root/A", ("fc", 2), 9)
        with pytest.raises(AttributeError):
            envelope.payload = "tampered"
        with pytest.raises(AttributeError):
            envelope.extra = 1
        assert hash(envelope) == hash(Envelope(3, 1, "root/A", ("fc", 2), 9))
        assert len({envelope, Envelope(3, 1, "root/A", ("fc", 2), 9)}) == 1
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone == envelope and type(clone) is Envelope

    def test_field_order_and_repr_pinned(self):
        envelope = Envelope(
            sender=3, receiver=1, path="root/A", payload=("fc", 2), beat=9
        )
        assert envelope == Envelope(3, 1, "root/A", ("fc", 2), 9)
        # The bulk engine's stash pass unpacks envelopes positionally.
        sender, receiver, path, payload, beat = envelope
        assert (sender, receiver, path, payload, beat) == (
            3, 1, "root/A", ("fc", 2), 9
        )
        assert repr(envelope) == "Envelope(3->1 @9 root/A: ('fc', 2))"


def _view_and_list(records, faulty=(5, 6, 9), beat=4):
    """One view built record by record, beside the list it stands for."""
    view = FanoutView(beat, faulty)
    expected = []
    for sender, path, payload, receiver in records:
        if receiver is None:
            view.add_broadcast(sender, path, payload)
            expected.extend(
                Envelope(sender, target, path, payload, beat)
                for target in faulty
            )
        else:
            envelope = Envelope(sender, receiver, path, payload, beat)
            view.add_envelope(envelope)
            expected.append(envelope)
    return view, expected


#: (sender, path, payload, receiver); receiver ``None`` = full broadcast.
_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["root", "root/A", "root/coin"]),
        st.integers(min_value=0, max_value=3),
        st.none() | st.sampled_from([5, 6, 9]),
    ),
    max_size=12,
)


def _assert_reads_like(shared, expected):
    """Shared form is, to every reader, the list it stands for."""
    assert len(shared) == len(expected)
    assert list(shared) == expected
    assert [shared[i] for i in range(len(shared))] == expected
    assert [shared[-i - 1] for i in range(len(shared))] == expected[::-1]
    assert shared[1:7:2] == expected[1:7:2]
    assert shared[::-1] == expected[::-1]
    with pytest.raises(IndexError):
        shared[len(expected)]
    with pytest.raises(IndexError):
        shared[-len(expected) - 1]


def _assert_same_choices(shared, expected, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert [ours.choice(shared) for _ in range(5)] == [
        theirs.choice(expected) for _ in range(5)
    ]
    assert ours.random() == theirs.random()


class TestFanoutView:
    """The lazy legal view is, to every reader, the list it replaces."""

    @given(_records)
    def test_reads_like_the_materialized_list(self, records):
        _assert_reads_like(*_view_and_list(records))

    @given(_records.filter(bool), st.integers())
    def test_choice_consumes_the_same_draws(self, records, seed):
        _assert_same_choices(*_view_and_list(records), seed)

    @given(_records)
    def test_by_path_is_the_filtered_list(self, records):
        view, expected = _view_and_list(records)
        index = view.by_path()
        paths = list(dict.fromkeys(e.path for e in expected))
        assert list(index) == paths
        for path, (payloads, messages) in index.items():
            on_path = [e for e in expected if e.path == path]
            assert list(messages) == on_path
            assert payloads == [e.payload for e in on_path]


_CRAFTED_BEAT = 4
_PATHS = st.sampled_from(["root", "root/A/x", "root/A/y", "other"])
#: Receivers of a 7-node system and beyond: 7..9 name no node at all.
#: Rows are ascending, as the ``for receiver in range(n)`` loops they
#: replace; they may skip receivers and may be empty.
_row_payloads = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.sampled_from([0, 1, True, None, ("fc", 1)]),
    max_size=6,
).map(lambda row: dict(sorted(row.items())))
_anyone = st.integers(min_value=0, max_value=6)
#: One crafted record: a row drawn from a pool (one mapping *object*
#: handed to several senders), a row of its own, or one envelope.
_crafted = st.lists(
    st.one_of(
        st.tuples(st.just("pooled"), _anyone, _PATHS, st.integers(0, 2)),
        st.tuples(st.just("own"), _anyone, _PATHS, _row_payloads),
        st.tuples(
            st.just("envelope"), _anyone, _PATHS,
            st.tuples(st.integers(min_value=0, max_value=9), st.integers(0, 3)),
        ),
    ),
    max_size=10,
)
_pools = st.lists(_row_payloads, min_size=3, max_size=3)


def _traffic_and_list(records, pool, beat=_CRAFTED_BEAT):
    """One crafted beat built record by record, beside the list of
    envelopes it stands for."""
    traffic = CraftedTraffic(beat)
    expected = []
    for kind, sender, path, what in records:
        if kind == "envelope":
            receiver, payload = what
            expected.append(Envelope(sender, receiver, path, payload, beat))
            traffic.add_envelope(expected[-1])
            continue
        row = pool[what] if kind == "pooled" else what
        traffic.add_row(sender, path, row)
        expected.extend(
            Envelope(sender, receiver, path, payload, beat)
            for receiver, payload in row.items()
        )
    return traffic, expected


class TestCraftedTraffic:
    """A crafted beat in shared form is, to every reader, the list of
    envelopes it replaces — and intake reads it as that list."""

    @given(_crafted, _pools)
    def test_reads_like_the_materialized_list(self, records, pool):
        traffic, expected = _traffic_and_list(records, pool)
        _assert_reads_like(traffic, expected)
        # Payloads are handed over, never copied: identity is what the
        # engines share on.
        for ours, theirs in zip(traffic, expected):
            assert ours.payload is theirs.payload

    @given(_crafted, _pools, st.integers())
    def test_choice_consumes_the_same_draws(self, records, pool, seed):
        traffic, expected = _traffic_and_list(records, pool)
        if expected:
            _assert_same_choices(traffic, expected, seed)

    @given(_crafted, _pools)
    def test_a_plain_list_is_wrapped_as_point_to_point_records(
        self, records, pool
    ):
        traffic, expected = _traffic_and_list(records, pool)
        assert CraftedTraffic.of(_CRAFTED_BEAT, traffic) is traffic
        wrapped = CraftedTraffic.of(_CRAFTED_BEAT, expected)
        _assert_reads_like(wrapped, expected)
        assert wrapped.records == expected

    @given(_crafted, _pools, st.booleans())
    def test_record_block_is_record_for_each_copy(self, records, pool, honest):
        traffic, expected = _traffic_and_list(records, pool)
        one_by_one, block = MessageStats(), MessageStats()
        for envelope in expected:
            one_by_one.record(envelope, honest)
        block.record_block(traffic, honest)
        assert block == one_by_one
        assert list(block.per_beat) == list(one_by_one.per_beat)
        assert list(block.per_path_prefix) == list(one_by_one.per_path_prefix)

    @given(_crafted, _pools)
    def test_sender_check_is_the_materialized_lists(self, records, pool):
        """Accepted iff the list is, and the same first forger named (an
        empty row sends nothing, so it forges nothing)."""
        faulty = frozenset({4, 5, 6})
        traffic, expected = _traffic_and_list(records, pool)
        try:
            ensure_faulty_senders(faulty, expected)
        except ProtocolViolationError as error:
            with pytest.raises(ProtocolViolationError) as ours:
                ensure_faulty_senders(faulty, traffic)
            assert str(ours.value) == str(error)
        else:
            assert ensure_faulty_senders(faulty, traffic) is traffic


class TestColumnWiseIntake:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from(["root", "root/A/x", "root/A/y", "other"]),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=20,
        ),
        st.booleans(),
    )
    def test_record_block_is_record_for_each(self, rows, honest):
        envelopes = [
            Envelope(sender, 0, path, None, beat) for sender, path, beat in rows
        ]
        one_by_one, block = MessageStats(), MessageStats()
        for envelope in envelopes:
            one_by_one.record(envelope, honest)
        block.record_block(envelopes, honest)
        assert block == one_by_one
        assert list(block.per_beat) == list(one_by_one.per_beat)
        assert list(block.per_path_prefix) == list(one_by_one.per_path_prefix)

    def test_forged_sender_named_in_the_same_exception(self):
        faulty = frozenset({5, 6})
        honest_looking = [
            Envelope(6, 0, "root", 1, 0),
            Envelope(2, 0, "root", 1, 0),
            Envelope(1, 0, "root", 1, 0),
        ]
        with pytest.raises(
            ProtocolViolationError,
            match=r"adversary forged sender 2, faulty ids are \[5, 6\]",
        ):
            ensure_faulty_senders(faulty, honest_looking)
        legal = honest_looking[:1]
        assert ensure_faulty_senders(faulty, legal) is legal


class TestOutbox:
    def test_stamps_sender_and_beat(self):
        outbox = Outbox(sender=3, beat=9)
        outbox.send(1, "root", "hello")
        (envelope,) = outbox.drain()
        assert envelope == Envelope(3, 1, "root", "hello", 9)

    def test_broadcast_reaches_everyone_including_self(self):
        outbox = Outbox(sender=0, beat=0)
        outbox.broadcast([0, 1, 2], "root", 7)
        receivers = [e.receiver for e in outbox.drain()]
        assert receivers == [0, 1, 2]

    def test_drain_clears(self):
        outbox = Outbox(sender=0, beat=0)
        outbox.send(1, "root", 1)
        assert len(outbox) == 1
        outbox.drain()
        assert len(outbox) == 0
        assert outbox.drain() == []


class TestRouter:
    def _router(self, n=4, faulty=(3,)):
        return Router(n, frozenset(faulty))

    def test_routes_by_receiver_and_path(self):
        router = self._router()
        envs = [
            Envelope(0, 1, "root", "a", 0),
            Envelope(0, 1, "root/coin", "b", 0),
            Envelope(0, 2, "root", "c", 0),
        ]
        delivered = router.route(envs, [])
        assert [e.payload for e in delivered[1]["root"]] == ["a"]
        assert [e.payload for e in delivered[1]["root/coin"]] == ["b"]
        assert [e.payload for e in delivered[2]["root"]] == ["c"]

    def test_inboxes_sender_sorted(self):
        router = self._router()
        envs = [
            Envelope(2, 1, "root", "from2", 0),
            Envelope(0, 1, "root", "from0", 0),
        ]
        delivered = router.route(envs, [])
        assert [e.sender for e in delivered[1]["root"]] == [0, 2]

    def test_byzantine_forgery_raises(self):
        router = self._router()
        with pytest.raises(ProtocolViolationError):
            router.route([], [Envelope(0, 1, "root", "forged", 0)])

    def test_byzantine_from_faulty_ok(self):
        router = self._router()
        delivered = router.route([], [Envelope(3, 1, "root", "evil", 0)])
        assert delivered[1]["root"][0].payload == "evil"

    def test_out_of_range_receiver_dropped(self):
        router = self._router()
        delivered = router.route([Envelope(0, 99, "root", "x", 0)], [])
        assert 99 not in delivered

    def test_phantoms_delivered_once(self):
        router = self._router()
        router.inject_phantoms([Envelope(2, 1, "root", "stale", 0)])
        first = router.route([], [])
        assert first[1]["root"][0].payload == "stale"
        second = router.route([], [])
        assert 1 not in second

    def test_stats_accounting(self):
        router = self._router()
        router.route(
            [Envelope(0, 1, "root", "a", 0)],
            [Envelope(3, 1, "root", "b", 0)],
        )
        assert router.stats.total_messages == 2
        assert router.stats.honest_messages == 1
        assert router.stats.byzantine_messages == 1
        assert router.stats.messages_at_beat(0) == 2
        assert router.stats.messages_at_beat(1) == 0

    def test_stats_path_prefix(self):
        router = self._router()
        router.route([Envelope(0, 1, "root/A/coin/slot1", "a", 2)], [])
        assert router.stats.per_path_prefix["root/A"] == 1
