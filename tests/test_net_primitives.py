"""Tests for RNG derivation, envelopes, outboxes and routing."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolViolationError
from repro.net.message import Envelope, FanoutView, Outbox
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


class TestFanoutView:
    """The lazy legal view is, to every reader, the list it replaces."""

    @given(_records)
    def test_reads_like_the_materialized_list(self, records):
        view, expected = _view_and_list(records)
        assert len(view) == len(expected)
        assert list(view) == expected
        assert [view[i] for i in range(len(view))] == expected
        assert [view[-i - 1] for i in range(len(view))] == expected[::-1]
        assert view[1:7:2] == expected[1:7:2]
        assert view[::-1] == expected[::-1]
        with pytest.raises(IndexError):
            view[len(expected)]
        with pytest.raises(IndexError):
            view[-len(expected) - 1]

    @given(_records.filter(bool), st.integers())
    def test_choice_consumes_the_same_draws(self, records, seed):
        view, expected = _view_and_list(records)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [ours.choice(view) for _ in range(5)] == [
            theirs.choice(expected) for _ in range(5)
        ]
        assert ours.random() == theirs.random()

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
