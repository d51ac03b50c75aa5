"""The live round barrier's intake against its definition.

:class:`~repro.runtime.sync.BeatSynchronizer` turns received wire units
into per-beat, per-path inboxes and three drop counters.  The definition
is kept here: the frame-at-a-time intake the barrier ran before this
file existed (``note → _classify → deliver → close_entries →
group_by_path``, one decode and one envelope per receiver), frozen as a
test-only reference.  Scripted unit streams go through both — units
mixing beat tags, duplicate and out-of-order ``(sender, seq)``, the same
bytes from two verified senders, the same unit twice, malformed and
oversized units, tags at and around the lookahead horizon, traffic for
closed beats, markers ahead of messages — to barriers that see them in
different orders and close at different times.

(When hypothesis is not installed, ``tests/conftest.py`` skips
collecting this module entirely.)
"""

from __future__ import annotations

import asyncio
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WireError
from repro.net import inbox
from repro.net.message import BROADCAST, Envelope
from repro.runtime.codec import CODECS
from repro.runtime.sync import MAX_LOOKAHEAD, BeatSynchronizer, Intake
from repro.runtime.wire import END, HELLO, MAX_FRAME_LEN, MSG, Frame

#: Verified senders (what the transport reports), and ids that exist
#: only as claims inside frames: neither claim may reach an envelope.
SENDERS = range(4)
CLAIMED_SENDERS = (70, 71)
CLAIMED_RECEIVERS = (90, 91, BROADCAST)

#: Units no codec decodes; the last is over the shared size cap.
GARBAGE = (b"\xff not a unit", b"RB\x01 garbage", bytes(MAX_FRAME_LEN + 1))


class _Endpoint:
    """An endpoint nothing arrives at: tests feed ``note`` directly, and
    a zero timeout closes the barrier at once, counting the close as a
    timeout exactly when the marker set was incomplete."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    async def send(self, receiver, data):  # pragma: no cover - unused
        raise AssertionError("the stub endpoint never sends")

    async def recv(self):  # pragma: no cover - unused
        raise AssertionError("the zero deadline passes before any recv")


class ParentBarrier:
    """``BeatSynchronizer`` + ``BeatInbox`` as they were while every
    receiver decoded and classified every frame for itself, frozen."""

    def __init__(self, node_id, expected, codec) -> None:
        self.node_id = node_id
        self.expected = frozenset(expected)
        self.codec = codec
        self.beat = 0
        self.counters = dict.fromkeys(
            ("late_messages", "premature_messages", "malformed_frames",
             "barrier_timeouts"), 0,
        )
        self._pending: dict = {}
        self._markers: dict = {}

    def note(self, sender: int, data: bytes) -> None:
        try:
            if len(data) > MAX_FRAME_LEN:
                raise WireError("oversized unit")
            frames = self.codec.decode_batch(data)
        except WireError:
            self.counters["malformed_frames"] += 1
            return
        for frame in frames:
            self._classify(sender, frame)

    def _classify(self, sender: int, frame: Frame) -> None:
        if frame.beat >= self.beat + MAX_LOOKAHEAD:
            self.counters["premature_messages"] += 1
        elif frame.kind == END:
            if frame.beat >= self.beat:
                self._markers.setdefault(frame.beat, set()).add(sender)
        elif frame.kind == MSG:
            if frame.beat < self.beat:
                self.counters["late_messages"] += 1
                return
            envelope = Envelope(
                sender, self.node_id, frame.path, frame.payload, frame.beat
            )
            self._pending.setdefault(frame.beat, []).append(
                ((sender, frame.seq), envelope)
            )

    async def collect(self, beat: int) -> dict:
        if not self._markers.pop(beat, set()) >= self.expected:
            self.counters["barrier_timeouts"] += 1
        entries = self._pending.pop(beat, [])
        entries.sort(key=itemgetter(0))
        self.beat = beat + 1
        inboxes: dict = {}
        for _key, envelope in entries:
            inboxes.setdefault(envelope.path, []).append(envelope)
        return inboxes


def _barriers(codec, k: int) -> list:
    """``k`` co-hosted barriers, endpoints 10, 11, ..., on one intake."""
    intake = Intake(len(SENDERS))
    return [
        BeatSynchronizer(
            _Endpoint(10 + index), SENDERS, beat_timeout=0, codec=codec,
            intake=intake,
        )
        for index in range(k)
    ]


def _parents(codec, k: int) -> list:
    return [ParentBarrier(10 + index, SENDERS, codec) for index in range(k)]


def _encode(codec, unit) -> "tuple[bytes, ...]":
    """A unit spec — a frame batch, or an index into ``GARBAGE`` — as
    the wire units one sender ships for it."""
    return (GARBAGE[unit],) if isinstance(unit, int) else codec.encode_batch(unit)


def _drive(barriers, codec, units, steps) -> list:
    """Run ``steps`` over ``barriers``; what each one observably did.

    A step is ``(kind, barrier, sender, unit)``: ``"note"`` hands one
    barrier a unit from a verified sender and ``"close"`` closes that
    barrier's current beat; ``"note-all"`` and ``"close-all"`` do so at
    every barrier, starting at ``barrier`` — so arrival orders differ.
    """
    wire = [_encode(codec, unit) for unit in units]
    k = len(barriers)
    closed: list = [[] for _ in barriers]

    async def scenario() -> None:
        for kind, index, sender, unit in steps:
            span = k if kind.endswith("-all") else 1
            for target in range(index, index + span):
                barrier = barriers[target % k]
                if kind.startswith("close"):
                    beat = barrier.beat
                    inboxes = await barrier.collect(beat)
                    closed[target % k].append((beat, [
                        (path, [tuple(envelope) for envelope in inbox])
                        for path, inbox in inboxes.items()
                    ]))
                else:
                    for data in wire[unit % len(wire)]:
                        barrier.note(sender, data)

    asyncio.run(scenario())
    return [
        {
            "closed": closed[index],
            "counters": dict(barrier.counters),
            "beat": barrier.beat,
            "buffered": sorted(barrier._pending),
            "markers": sorted(
                (beat, sorted(who)) for beat, who in barrier._markers.items()
            ),
        }
        for index, barrier in enumerate(barriers)
    ]


def _stamped(observed: list, receiver_of) -> list:
    """``observed`` with every envelope's receiver checked against
    ``receiver_of(barrier index)`` and then dropped: what is compared is
    ``(sender, path, payload, beat)``."""
    for index, barrier in enumerate(observed):
        for _beat, inboxes in barrier["closed"]:
            for position, (path, inbox) in enumerate(inboxes):
                assert {e[1] for e in inbox} == {receiver_of(index)}
                inboxes[position] = (
                    path, [(e[0], e[2], e[3], e[4]) for e in inbox]
                )
    return observed


def _both(codec_name: str, k: int, units, steps) -> "tuple[list, list]":
    """The same script through the frozen parent and the barrier."""
    codec = CODECS[codec_name]
    expected = _stamped(
        _drive(_parents(codec, k), codec, units, steps),
        lambda index: 10 + index,
    )
    actual = _stamped(
        _drive(_barriers(codec, k), codec, units, steps),
        lambda index: BROADCAST,
    )
    return expected, actual


# -- the scripts -------------------------------------------------------------

_TAGS = st.sampled_from([
    0, 0, 0, 1, 1, 1, 2, 2, 3, MAX_LOOKAHEAD - 1, MAX_LOOKAHEAD,
    MAX_LOOKAHEAD + 1, MAX_LOOKAHEAD + 3,
])
_PAYLOADS = st.sampled_from([None, 0, 1, ("fc", 1), ("vote", (1, 0)), "x"])


def _msg(beat, seq=st.integers(0, 3)):
    return st.builds(
        Frame, st.just(MSG), st.sampled_from(CLAIMED_SENDERS), beat, seq,
        st.sampled_from(CLAIMED_RECEIVERS), st.sampled_from(["root", "root/a"]),
        _PAYLOADS,
    )


def _end(beat):
    return st.builds(
        Frame, st.just(END), st.sampled_from(CLAIMED_SENDERS), beat
    )


@st.composite
def _honest_unit(draw):
    """What a correct sender ships: one beat, seqs ascending, a marker."""
    beat = draw(_TAGS)
    count = draw(st.integers(0, 3))
    frames = [draw(_msg(st.just(beat), st.just(seq))) for seq in range(count)]
    return frames + [Frame(END, CLAIMED_SENDERS[0], beat)]


_ANY_FRAME = st.one_of(
    _msg(_TAGS), _msg(_TAGS), _end(_TAGS),
    st.just(Frame(HELLO, CLAIMED_SENDERS[0])),
)
_UNITS = st.lists(
    st.one_of(
        _honest_unit(), _honest_unit(),
        st.lists(_ANY_FRAME, max_size=6), st.lists(_ANY_FRAME, max_size=6),
        st.integers(0, len(GARBAGE) - 1),
    ),
    min_size=1, max_size=6,
)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["note", "note-all", "note-all", "note-all", "close", "close-all"]
        ),
        st.integers(0, 2),
        st.sampled_from(SENDERS),
        st.integers(0, 5),
    ),
    min_size=6, max_size=40,
)


def _check(codec_name, k, units, steps):
    expected, actual = _both(codec_name, k, units, steps)
    assert actual == expected


class TestAgainstTheFrameAtATimeIntake:
    @settings(max_examples=30, derandomize=True)
    @given(
        codec_name=st.sampled_from(sorted(CODECS)),
        k=st.integers(1, 3), units=_UNITS, steps=_STEPS,
    )
    def test_inboxes_and_counters_equal(self, codec_name, k, units, steps):
        _check(codec_name, k, units, steps)

    @pytest.mark.slow
    @settings(max_examples=400, derandomize=True)
    @given(
        codec_name=st.sampled_from(sorted(CODECS)),
        k=st.integers(1, 3), units=_UNITS, steps=_STEPS,
    )
    def test_inboxes_and_counters_equal_full_budget(
        self, codec_name, k, units, steps
    ):
        _check(codec_name, k, units, steps)


def _f(beat, seq, payload, kind=MSG):
    return Frame(kind, CLAIMED_SENDERS[0], beat, seq, 90, "root", payload)


@pytest.mark.parametrize("codec_name", sorted(CODECS))
class TestByHand:
    """One script per rule the intake must keep, small enough to read;
    each is a case of the property above and names what it pins."""

    def test_same_bytes_from_two_senders_keep_their_senders(self, codec_name):
        """A peer replaying another's bytes speaks under its own id."""
        units = [[_f(0, 0, "a"), _f(0, 0, None, END)]]
        steps = [("note-all", 0, 1, 0), ("note-all", 1, 3, 0), ("close", 0, 0, 0),
                 ("close", 1, 0, 0)]
        expected, actual = _both(codec_name, 2, units, steps)
        assert actual == expected
        (_beat, ((_path, inbox),)), = actual[0]["closed"]
        assert [e[0] for e in inbox] == [1, 3]

    def test_late_and_premature_are_counted_per_frame(self, codec_name):
        units = [
            [_f(0, 0, "late"), _f(0, 1, "late"), _f(0, 2, "late")],
            [_f(MAX_LOOKAHEAD + 1, 0, "far"), _f(MAX_LOOKAHEAD + 1, 1, "far"),
             _f(MAX_LOOKAHEAD + 1, 0, None, END)],
            [_f(MAX_LOOKAHEAD, 0, "edge"), _f(MAX_LOOKAHEAD - 1, 0, "in")],
        ]
        steps = [("close", 0, 0, 0), ("note-all", 0, 1, 0), ("note-all", 0, 1, 1),
                 ("note", 1, 2, 2), ("close", 1, 0, 0), ("note", 1, 2, 2)]
        expected, actual = _both(codec_name, 2, units, steps)
        assert actual == expected
        assert actual[0]["counters"]["late_messages"] == 3
        assert actual[0]["counters"]["premature_messages"] == 3
        # Beat 0: the horizon tag is refused; one close later it buffers.
        assert actual[1]["counters"]["premature_messages"] == 3 + 1
        assert actual[1]["buffered"] == [MAX_LOOKAHEAD - 1, MAX_LOOKAHEAD]

    def test_arrival_order_within_a_sender_decides_ties(self, codec_name):
        """Two units of one sender reuse a ``(sender, seq)`` key: each
        barrier keeps them in the order *it* received them, so barriers
        holding the same units are not thereby one class."""
        units = [[_f(0, 0, "x")], [_f(0, 0, "y")]]
        steps = [("note", 0, 1, 0), ("note", 0, 1, 1), ("note", 1, 1, 1),
                 ("note", 1, 1, 0), ("close", 0, 0, 0), ("close", 1, 0, 0)]
        expected, actual = _both(codec_name, 2, units, steps)
        assert actual == expected
        payloads = [
            [e[2] for e in barrier["closed"][0][1][0][1]] for barrier in actual
        ]
        assert payloads == [["x", "y"], ["y", "x"]]

    def test_senders_merge_in_id_order_whatever_the_arrival(self, codec_name):
        units = [[_f(0, 1, "b"), _f(0, 0, "a")], [_f(0, 0, "c")]]
        steps = [("note", 0, 2, 0), ("note", 0, 1, 1), ("note", 1, 1, 1),
                 ("note", 1, 2, 0), ("close", 0, 0, 0), ("close", 1, 0, 0)]
        expected, actual = _both(codec_name, 2, units, steps)
        assert actual == expected
        for barrier in actual:
            (_path, inbox), = barrier["closed"][0][1]
            assert [(e[0], e[2]) for e in inbox] == [
                (1, "c"), (2, "a"), (2, "b"),
            ]

    def test_every_barrier_counts_a_unit_that_fails(self, codec_name):
        """...and counts it again when the same bytes arrive again."""
        units = [0, 2]
        steps = [("note-all", 0, 1, 0), ("note-all", 1, 1, 0), ("note-all", 0, 2, 1)]
        expected, actual = _both(codec_name, 3, units, steps)
        assert actual == expected
        assert [b["counters"]["malformed_frames"] for b in actual] == [3] * 3

    def test_markers_ahead_of_messages_and_for_closed_beats(self, codec_name):
        units = [
            [_f(1, 0, None, END), _f(0, 0, None, END), _f(1, 0, "early")],
            [_f(0, 0, None, END)],
        ]
        steps = [("note-all", 0, sender, 0) for sender in SENDERS]
        steps += [("close", 0, 0, 0), ("note-all", 0, 1, 1), ("close", 0, 0, 0),
                  ("close", 1, 0, 0)]
        expected, actual = _both(codec_name, 2, units, steps)
        assert actual == expected
        assert actual[0]["counters"]["barrier_timeouts"] == 0
        assert actual[0]["markers"] == []  # a closed beat's marker is dropped
        assert actual[1]["markers"] == [(1, list(SENDERS))]


class TestCostFollowsDistinctBytes:
    def test_ten_thousand_distinct_units_pin_a_bounded_intake(self):
        """A peer spraying distinct valid units, inside the horizon and
        beyond it, holds the intake to two generations of 4n units —
        and is counted and buffered exactly as before."""
        codec = CODECS["binary"]
        (barrier,), (parent,) = _barriers(codec, 1), _parents(codec, 1)
        for index in range(10_000):
            tag = index % (2 * MAX_LOOKAHEAD)
            (unit,) = codec.encode_batch([_f(tag, 0, index)])
            barrier.note(1, unit)
            parent.note(1, unit)
        intake = barrier.intake
        assert len(intake._young) + len(intake._old) <= 2 * 4 * len(SENDERS)
        assert barrier.counters == parent.counters
        assert barrier.premature_messages == 4_992  # 64 of every 128
        assert sorted(barrier._pending) == sorted(parent._pending)
        assert sorted(barrier._pending) == list(range(MAX_LOOKAHEAD))

    def test_the_size_cap_is_the_barriers_own(self):
        """...whatever the codec would have made of the bytes."""

        class Lenient(type(CODECS["binary"])):
            def decode_batch(self, data):
                return ()

        (barrier,) = _barriers(Lenient(), 1)
        barrier.note(1, GARBAGE[0])
        barrier.note(1, bytes(MAX_FRAME_LEN))
        assert barrier.malformed_frames == 0
        barrier.note(1, GARBAGE[2])
        barrier.note(1, GARBAGE[2])
        assert barrier.malformed_frames == 2

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_arrival_order_across_senders_does_not_split_a_class(
        self, codec_name, monkeypatch
    ):
        """Three barriers, three senders' units in three arrival orders:
        one decode per unit, one merge, one dict read by all."""
        codec = CODECS[codec_name]
        decodes, merges = [], []
        group_by_path = inbox.group_by_path
        monkeypatch.setattr(
            inbox, "group_by_path",
            lambda entries: merges.append(1) or group_by_path(entries),
        )

        class Counting(type(codec)):
            def decode_batch(self, data):
                decodes.append(data)
                return super().decode_batch(data)

        barriers = _barriers(Counting(), 3)
        units = [[_f(0, 0, sender), _f(0, 0, None, END)] for sender in SENDERS]
        steps = [
            ("note", barrier, sender, sender)
            for barrier in range(3)
            for sender in list(SENDERS)[barrier:] + list(SENDERS)[:barrier]
        ]

        async def close_all():
            return [await barrier.collect(0) for barrier in barriers]

        _drive(barriers, codec, units, steps)
        first, second, third = asyncio.run(close_all())
        assert first is second is third
        assert [e.payload for e in first["root"]] == list(SENDERS)
        assert len(merges) == 1
        # One per (verified sender, unit) — not per receipt, and not per
        # distinct bytes: on json every sender's marker is the same bytes.
        assert len(decodes) == sum(len(_encode(codec, unit)) for unit in units)
