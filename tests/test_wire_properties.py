"""Property-based tests for the trust-boundary serializers.

The live runtime's wire codecs cross process boundaries and therefore
must be total functions of their input bytes (:mod:`repro.runtime.wire`
and :mod:`repro.runtime.codec` — a Byzantine peer crafts arbitrary
frames).  The pins of the benchmark suites cross commits instead
(``benchmarks/baselines.json`` is re-read and compared exactly), so
their one constructor, ``repro.bench.suites._common.pin``, is held to
the same standard.  Hypothesis drives both ends: every value in the legal domain
round-trips bit-exactly, and every malformed input raises the codec's
declared error type — never an uncaught
``KeyError``/``TypeError``/``RecursionError`` from the guts.

(When hypothesis is not installed, ``tests/conftest.py`` skips
collecting this module entirely.)
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

from repro.bench.suites._common import pin
from repro.errors import WireError
from repro.runtime.codec import BinaryCodec, JsonCodec
from repro.runtime.sync import Intake
from repro.runtime.wire import (
    END,
    HELLO,
    MSG,
    MAX_FRAME_LEN,
    Frame,
    decode_frame,
    encode_frame,
    frame_for_envelope,
    length_prefixed,
)
from repro.net.message import BROADCAST, Envelope

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

#: Scalars of the wire payload domain.  NaN is excluded because it breaks
#: the equality the round-trip property asserts (NaN != NaN), not because
#: the codec rejects it; infinities round-trip fine under Python's json.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=40),
)

#: The closed payload domain: scalars and tuples thereof.  max_leaves
#: keeps generated frames far below MAX_FRAME_LEN and _MAX_DEPTH.
_payloads = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=5).map(tuple),
    max_leaves=24,
)

_ids = st.integers(min_value=-(2**31), max_value=2**31)
_paths = st.text(max_size=60)


@st.composite
def _frames(draw) -> Frame:
    """A frame as honest runtime code would build it.

    ``end`` and ``hello`` frames only carry the fields their wire form
    encodes, so a decoded frame compares equal to the original (the other
    fields sit at their dataclass defaults on both sides).
    """
    kind = draw(st.sampled_from((MSG, END, HELLO)))
    if kind == HELLO:
        return Frame(kind=HELLO, sender=draw(_ids))
    if kind == END:
        return Frame(kind=END, sender=draw(_ids), beat=draw(_ids))
    return Frame(
        kind=MSG,
        sender=draw(_ids),
        beat=draw(_ids),
        seq=draw(_ids),
        receiver=draw(_ids),
        path=draw(_paths),
        payload=draw(_payloads),
    )


#: Arbitrary JSON values (for structurally-valid-JSON / wrong-shape fuzz).
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestWireRoundTrip:
    @given(_frames())
    def test_encode_decode_is_identity(self, frame):
        data = encode_frame(frame)
        decoded = decode_frame(data)
        assert decoded == frame
        # Canonical form: re-encoding the decoded frame reproduces the
        # exact bytes, so payload types survived (1 vs 1.0 vs True would
        # compare equal above but serialize differently here).
        assert encode_frame(decoded) == data

    @given(_ids, _ids, _ids, _paths, _payloads, _ids)
    def test_envelope_frame_envelope(self, sender, receiver, beat, path,
                                     payload, seq):
        envelope = Envelope(sender, receiver, path, payload, beat)
        data = encode_frame(frame_for_envelope(envelope, seq))
        (run,) = Intake(1).runs(sender, data, JsonCodec())
        shared = envelope._replace(receiver=BROADCAST)
        assert run.entries == (((sender, seq), shared),)

    @given(_frames())
    def test_length_prefix_brackets_the_frame(self, frame):
        data = encode_frame(frame)
        framed = length_prefixed(data)
        assert framed[:4] == len(data).to_bytes(4, "big")
        assert framed[4:] == data


class TestWireMalformed:
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_never_escape_wireerror(self, data):
        """decode_frame is total: Frame out, or WireError — nothing else."""
        try:
            frame = decode_frame(data)
        except WireError:
            pass
        else:
            assert isinstance(frame, Frame)

    @given(_json_values)
    def test_arbitrary_json_never_escapes_wireerror(self, value):
        """Well-formed JSON of the wrong shape is the realistic attack."""
        data = json.dumps(value).encode("utf-8")
        try:
            frame = decode_frame(data)
        except WireError:
            pass
        else:
            assert isinstance(frame, Frame)

    @given(_frames(), st.data())
    def test_corrupted_field_types_raise_wireerror(self, frame, data):
        """Swap one required field for a value of the wrong JSON type."""
        record = json.loads(encode_frame(frame).decode("utf-8"))
        key = data.draw(st.sampled_from(sorted(record)))
        bad = {"s": "3", "b": None, "q": 1.5, "r": True, "p": 7, "k": 99,
               "v": {"x": 1}}  # objects are outside the payload domain
        record[key] = bad[key]
        with pytest.raises(WireError):
            decode_frame(json.dumps(record).encode("utf-8"))

    @given(st.one_of(
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
        st.sets(st.integers(), max_size=3),
        st.binary(max_size=8),
    ))
    def test_out_of_domain_payloads_rejected_at_encode(self, payload):
        """Honest-side guard: non-domain payloads never reach the wire."""
        frame = Frame(kind=MSG, sender=0, receiver=1, path="root",
                      payload=payload)
        with pytest.raises(WireError):
            encode_frame(frame)

    def test_depth_bomb_rejected_both_ways(self):
        deep = ()
        for _ in range(40):
            deep = (deep,)
        with pytest.raises(WireError, match="nesting"):
            encode_frame(Frame(kind=MSG, sender=0, payload=deep))
        data = b'{"k":"msg","s":0,"b":0,"q":0,"r":1,"p":"x","v":' \
            + b"[" * 40 + b"]" * 40 + b"}"
        with pytest.raises(WireError, match="nesting"):
            decode_frame(data)


# --------------------------------------------------------------------------
# Batch codecs (the binary fast path against the json reference)
# --------------------------------------------------------------------------

#: Batches as the runtime emits them: a handful of frames per (link, beat).
_batches = st.lists(_frames(), max_size=8).map(tuple)

#: Payload ints wide enough to exercise the i64 table AND the bigint
#: escape (tag 7) that values outside it take.
_wide_int_payloads = st.tuples(
    st.integers(min_value=-(2**100), max_value=2**100),
    st.integers(min_value=-(2**100), max_value=2**100),
)


class TestBinaryCodecRoundTrip:
    @given(_batches)
    def test_batch_round_trip_is_identity(self, batch):
        codec = BinaryCodec()
        units = codec.encode_batch(batch)
        assert len(units) == 1  # batched codec: one unit per batch
        decoded = codec.decode_batch(units[0])
        assert decoded == batch
        # Canonical form: tables intern in first-use order, so the
        # decoded frames re-encode to the exact same bytes.
        assert codec.encode_batch(decoded) == units

    @given(_batches)
    def test_json_and_binary_decode_the_same_frames(self, batch):
        """The two codecs are different spellings of one frame stream."""
        jcodec, bcodec = JsonCodec(), BinaryCodec()
        via_json = tuple(
            frame
            for unit in jcodec.encode_batch(batch)
            for frame in jcodec.decode_batch(unit)
        )
        (bunit,) = bcodec.encode_batch(batch)
        assert via_json == bcodec.decode_batch(bunit) == batch

    @given(_wide_int_payloads)
    def test_out_of_i64_ints_take_the_bigint_escape(self, payload):
        codec = BinaryCodec()
        (unit,) = codec.encode_batch(
            (Frame(kind=MSG, sender=0, receiver=1, path="r",
                   payload=payload),)
        )
        assert codec.decode_batch(unit)[0].payload == payload

    def test_payload_types_survive_int_bool_aliasing(self):
        """True == 1 and 1.0 == 1; the int table must not conflate them."""
        codec = BinaryCodec()
        batch = (Frame(kind=MSG, sender=1, receiver=0, path="p",
                       payload=(True, 1, False, 0, 1.0)),
                 Frame(kind=END, sender=1, beat=0))
        (unit,) = codec.encode_batch(batch)
        decoded = codec.decode_batch(unit)
        assert decoded == batch
        assert [type(v) for v in decoded[0].payload] \
            == [bool, int, bool, int, float]


class TestBinaryCodecMalformed:
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes_never_escape_wireerror(self, data):
        """decode_batch is total: frames out, or WireError — nothing else."""
        codec = BinaryCodec()
        try:
            frames = codec.decode_batch(data)
        except WireError:
            return
        # Anything accepted must be canonical (a genuine unit).
        assert codec.encode_batch(frames) == (data,)

    @given(st.binary(max_size=300))
    def test_magic_prefixed_garbage_never_escapes_wireerror(self, tail):
        """Past the magic check is where the structural parsing lives."""
        codec = BinaryCodec()
        try:
            codec.decode_batch(b"RB\x01" + tail)
        except WireError:
            pass

    @given(_batches, st.data())
    def test_truncations_raise_wireerror(self, batch, data):
        codec = BinaryCodec()
        (unit,) = codec.encode_batch(batch)
        cut = data.draw(st.integers(min_value=0, max_value=len(unit) - 1))
        with pytest.raises(WireError):
            codec.decode_batch(unit[:cut])

    @given(_batches, st.binary(min_size=1, max_size=16))
    def test_trailing_bytes_raise_wireerror(self, batch, tail):
        codec = BinaryCodec()
        (unit,) = codec.encode_batch(batch)
        with pytest.raises(WireError):
            codec.decode_batch(unit + tail)

    @given(_batches, st.data())
    def test_single_byte_corruption_never_escapes_wireerror(self, batch,
                                                            data):
        codec = BinaryCodec()
        (unit,) = codec.encode_batch(batch)
        pos = data.draw(st.integers(min_value=0, max_value=len(unit) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        corrupt = bytes(unit[:pos]) \
            + bytes((unit[pos] ^ flip,)) + bytes(unit[pos + 1:])
        try:
            frames = codec.decode_batch(corrupt)
        except WireError:
            return
        for frame in frames:
            assert isinstance(frame, Frame)

    @given(st.one_of(
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
        st.sets(st.integers(), max_size=3),
        st.binary(max_size=8),
    ))
    def test_out_of_domain_payloads_rejected_at_encode(self, payload):
        frame = Frame(kind=MSG, sender=0, receiver=1, path="root",
                      payload=payload)
        with pytest.raises(WireError):
            BinaryCodec().encode_batch((frame,))

    @pytest.mark.parametrize("field", ["sender", "beat", "seq", "receiver"])
    @pytest.mark.parametrize("value", [True, "3", 1.5, None, 1 << 70])
    def test_non_int_frame_fields_rejected_at_encode(self, field, value):
        frame = Frame(**{
            "kind": MSG, "sender": 0, "receiver": 1, "path": "r",
            field: value,
        })
        with pytest.raises(WireError):
            BinaryCodec().encode_batch((frame,))

    def test_depth_bomb_rejected_both_ways(self):
        codec = BinaryCodec()
        deep = ()
        for _ in range(40):
            deep = (deep,)
        with pytest.raises(WireError, match="nesting"):
            codec.encode_batch((Frame(kind=MSG, sender=0, payload=deep),))
        # Decode side: a hand-built unit whose payload nests 40 tuples.
        unit = (
            b"RB\x01"
            + b"\x00\x00\x00\x03"                      # 3 int-table entries
            + (0).to_bytes(8, "big") * 2 + (1).to_bytes(8, "big")
            + b"\x00\x00\x00\x01" + b"\x00\x00\x00\x01p"  # str table: "p"
            + b"\x00\x00\x00\x01"                      # one frame
            + b"\x00" + b"\x00\x00\x00\x00" * 5        # msg, all refs 0
            + b"\x06\x00\x00\x00\x01" * 40 + b"\x00"   # nested tuples
        )
        with pytest.raises(WireError, match="nesting"):
            codec.decode_batch(unit)

    def test_oversized_batch_rejected_at_encode(self):
        frame = Frame(kind=MSG, sender=0, receiver=1, path="r",
                      payload="x" * (MAX_FRAME_LEN + 1))
        with pytest.raises(WireError, match="cap"):
            BinaryCodec().encode_batch((frame,))

    def test_oversized_unit_rejected_at_decode(self):
        with pytest.raises(WireError, match="cap"):
            BinaryCodec().decode_batch(b"RB\x01" + bytes(MAX_FRAME_LEN))

    def test_forged_table_counts_cannot_balloon(self):
        """A tiny unit claiming huge tables must fail fast, not allocate."""
        codec = BinaryCodec()
        for forged in (
            b"RB\x01" + b"\xff\xff\xff\xff",                # int count
            b"RB\x01" + b"\x00\x00\x00\x00\xff\xff\xff\xff",  # str count
        ):
            with pytest.raises(WireError):
                codec.decode_batch(forged)


# --------------------------------------------------------------------------
# Pins of the benchmark suites
# --------------------------------------------------------------------------

_axis_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet=st.characters(whitelist_categories=("L", "N")),
            max_size=12),
)
_axes = st.dictionaries(
    st.from_regex(r"[a-z_]{1,10}", fullmatch=True), _axis_values, max_size=5
)


class TestPins:
    @given(_axes)
    def test_key_does_not_depend_on_axis_order(self, axes):
        forward, backward = {}, {}
        pin(forward, "toy/latency", 1.0, "beats", **axes)
        pin(backward, "toy/latency", 1.0, "beats",
            **dict(reversed(list(axes.items()))))
        assert forward == backward

    @given(st.floats(allow_nan=False, allow_infinity=False), _axes)
    def test_pins_survive_the_disk_format(self, value, axes):
        """What ``tools/pins.py --write`` dumps, it reads back ``==``."""
        pins = {}
        pin(pins, "toy/latency", value, "beats", **axes)
        text = json.dumps(pins, indent=2, sort_keys=True)
        assert json.loads(text) == pins

    @given(st.one_of(_json_values, st.floats(),
                     st.integers(min_value=2**1023, max_value=2**1100)))
    def test_any_value_is_pinned_as_a_float_or_rejected(self, value):
        pins = {}
        try:
            pin(pins, "toy/latency", value, "beats")
        except ValueError:
            return
        (entry,) = pins.values()
        assert type(entry["value"]) is float
        assert math.isfinite(entry["value"])
