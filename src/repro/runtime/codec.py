"""Pluggable wire codecs: the runtime's fast-path serialization seam.

A :class:`Codec` turns a *batch* of :class:`~repro.runtime.wire.Frame`
objects into wire units (byte strings a transport length-prefixes and
ships) and back.  The seam exists because the two jobs a wire format has
pull in opposite directions:

* being the **differential reference** — the ``json`` codec keeps the
  original one-JSON-object-per-frame format, byte-compatible with every
  pre-seam deployment, trivially inspectable, and pinned against the
  lock-step simulator by ``tests/test_runtime_differential.py``;
* being **fast** — the ``binary`` codec struct-packs a whole (link, beat)
  batch into one compact unit with interned int/str tables, which is what
  lets the runtime stop paying one frame, one queue item and one decode
  per message.

A codec never learns how many links a unit will travel: honest senders
encode each *distinct* batch once per (sender, beat) and hand the same
``bytes`` to every link whose content it is — a broadcast frame carries
``receiver=BROADCAST``, and no receiver reads the field — so a beat of
pure broadcasts costs one :meth:`Codec.encode_batch` call per sender,
not one per link (see :class:`~repro.runtime.node.RuntimeNode`), and one
:meth:`Codec.decode_batch` call per sender per receiving *host*, not one
per receiver (see :class:`~repro.runtime.sync.Intake`).

Both codecs serialize the *same* closed payload domain (``None``,
``bool``, ``int``, ``float``, ``str`` and tuples thereof — see
:mod:`repro.runtime.wire`), enforce the same shared
:data:`~repro.runtime.wire.MAX_FRAME_LEN` unit cap and
:data:`~repro.runtime.wire.MAX_PAYLOAD_DEPTH` nesting cap, and funnel
*every* malformed input — truncated, corrupted, hostile, or merely
out-of-domain — into :class:`~repro.errors.WireError`; decoding is a
total function of the input bytes and never executes anything.

The registry mirrors the protocol/engine seams: :data:`CODECS` maps
names to stateless codec instances, :func:`resolve_codec` turns a name
(or instance) into a codec and raises
:class:`~repro.errors.ConfigurationError` on unknown names (the CLI's
``--codec`` flags exit 2), and :func:`register_codec` admits new
formats.  A codec is a *run-wide* choice: every peer of one run —
honest nodes, the Byzantine process, every orchestrated worker process
— must speak the same codec, which ``run_runtime(codec=...)`` and the
cluster orchestrator guarantee.  Only the ``hello`` handshake stays
fixed-JSON (see :mod:`repro.runtime.wire`).

Binary wire unit layout (version 1, all integers big-endian)::

    magic   b"RB" + version byte 0x01
    ints    u32 count, then count * i64     (interned int table)
    strs    u32 count, then per entry u32 byte-length + UTF-8 bytes
    frames  u32 count, then per frame:
              u8 kind (0=msg, 1=end, 2=hello)
              msg:   u32 refs sender/beat/seq/receiver (int table),
                     u32 ref path (str table), payload
              end:   u32 refs sender/beat
              hello: u32 ref sender
    payload tag u8:
              0 None · 1 True · 2 False · 3 int (u32 int-table ref)
              4 float (f64) · 5 str (u32 str-table ref)
              6 tuple (u32 count, then elements)
              7 bigint (u32 byte-length + signed big-endian bytes,
                for ints outside the i64 table range)

Table entries are interned in first-use order, so encoding is canonical:
``encode_batch(decode_batch(unit)) == (unit,)`` for every unit the
encoder produced.
"""

from __future__ import annotations

import struct
from typing import Hashable, Sequence

from repro.errors import ConfigurationError, WireError
from repro.runtime.wire import (
    END,
    HELLO,
    MAX_FRAME_LEN,
    MAX_PAYLOAD_DEPTH,
    MSG,
    Frame,
    decode_frame,
    encode_frame,
)

__all__ = [
    "BinaryCodec",
    "CODECS",
    "Codec",
    "DEFAULT_CODEC",
    "JsonCodec",
    "register_codec",
    "resolve_codec",
]


class Codec:
    """One registered wire format.

    Subclasses override the class attributes, :meth:`encode_batch` and
    :meth:`decode_batch`.  Instances are stateless — one registration
    serves every run, node task and worker process concurrently.
    """

    #: Registry key, shared with every ``--codec`` CLI flag.
    name = "abstract"
    #: Whether one encoded unit may carry a whole frame batch (``True``)
    #: or every frame is its own wire unit (``False``).  Informational —
    #: senders always call :meth:`encode_batch` and ship every returned
    #: unit; receivers always decode units through :meth:`decode_batch`.
    batched = False

    def encode_batch(self, frames: Sequence[Frame]) -> "tuple[bytes, ...]":
        """Encode ``frames`` into one or more wire units, in ship order.

        Raises :class:`WireError` for frames outside the wire domain or
        units over :data:`MAX_FRAME_LEN`.
        """
        raise NotImplementedError

    def decode_batch(self, data: bytes) -> "tuple[Frame, ...]":
        """Decode one wire unit back into its frames, in emission order.

        Total on bytes: returns frames or raises :class:`WireError` —
        malformed input never escapes as any other exception type.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line catalog entry for listings and docs."""
        doc = (type(self).__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name


class JsonCodec(Codec):
    """One JSON object per frame — the differential reference format."""

    name = "json"
    batched = False

    def encode_batch(self, frames: Sequence[Frame]) -> "tuple[bytes, ...]":
        return tuple(encode_frame(frame) for frame in frames)

    def decode_batch(self, data: bytes) -> "tuple[Frame, ...]":
        return (decode_frame(data),)


# -- the binary fast path --------------------------------------------------

_MAGIC = b"RB\x01"
_KIND_MSG, _KIND_END, _KIND_HELLO = 0, 1, 2
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")
_MSG_REFS = struct.Struct("!BIIIII")
_END_REFS = struct.Struct("!BII")
_HELLO_REFS = struct.Struct("!BI")
_REFS5 = struct.Struct("!5I")
_REFS2 = struct.Struct("!2I")


def _read_payload(
    data: bytes,
    off: int,
    size: int,
    int_table: tuple,
    str_table: list,
    depth: int,
) -> "tuple[Hashable, int]":
    """Decode one payload value at ``off``; return ``(value, new_off)``.

    Raises :class:`WireError` for structural attacks (oversized counts,
    depth bombs); index/struct errors from truncation or bad table refs
    propagate for the caller's blanket translation to WireError.
    """
    if depth > MAX_PAYLOAD_DEPTH:
        raise WireError(
            f"payload nesting exceeds {MAX_PAYLOAD_DEPTH} levels"
        )
    tag = data[off]
    off += 1
    if tag == 3:
        (ref,) = _U32.unpack_from(data, off)
        return int_table[ref], off + 4
    if tag == 6:
        (count,) = _U32.unpack_from(data, off)
        off += 4
        if count > size - off:  # each element costs >= 1 byte
            raise WireError("tuple length exceeds the unit")
        items = []
        for _ in range(count):
            value, off = _read_payload(
                data, off, size, int_table, str_table, depth + 1
            )
            items.append(value)
        return tuple(items), off
    if tag == 0:
        return None, off
    if tag == 1:
        return True, off
    if tag == 2:
        return False, off
    if tag == 5:
        (ref,) = _U32.unpack_from(data, off)
        return str_table[ref], off + 4
    if tag == 4:
        return _F64.unpack_from(data, off)[0], off + 8
    if tag == 7:
        (length,) = _U32.unpack_from(data, off)
        off += 4
        if length > size - off:
            raise WireError("bigint length exceeds the unit")
        value = int.from_bytes(data[off:off + length], "big", signed=True)
        return value, off + length
    raise WireError(f"unknown payload tag {tag}")


def _intern_field(ints: "dict[int, int]", value: object) -> int:
    """Cold path: validate and intern a frame int field on table miss.

    Callers type-check before the table lookup (``True == 1``, so a bool
    key would silently alias an interned int) and only land here for
    values not yet interned — the re-check keeps this helper total.
    """
    if type(value) is not int:
        raise WireError(
            f"frame field {value!r} must be an int, "
            f"got {type(value).__name__}"
        )
    if not _I64_MIN <= value <= _I64_MAX:
        raise WireError(f"frame field {value} exceeds the i64 range")
    ref = ints[value] = len(ints)
    return ref


class BinaryCodec(Codec):
    """Struct-packed batch format with interned int/str tables."""

    name = "binary"
    batched = True

    def encode_batch(self, frames: Sequence[Frame]) -> "tuple[bytes, ...]":
        # The runtime encodes one batch per distinct (link, beat) content
        # — still among the hottest code in a live run — so interning and
        # the payload walk are inlined (helper calls only on table
        # misses) and the domain checks double as the encoding dispatch:
        # exact types via `type(x) is`, with a cold fallback that
        # normalizes legal subclasses (IntEnum and friends) and rejects
        # everything else.
        ints: "dict[int, int]" = {}
        strs: "dict[str, int]" = {}
        body = bytearray()
        append = body.append
        extend = body.extend
        pack_u32 = _U32.pack
        n_frames = 0
        for frame in frames:
            n_frames += 1
            kind = frame.kind
            if kind == MSG:
                v = frame.sender
                sr = ints.get(v) if type(v) is int else None
                if sr is None:
                    sr = _intern_field(ints, v)
                v = frame.beat
                br = ints.get(v) if type(v) is int else None
                if br is None:
                    br = _intern_field(ints, v)
                v = frame.seq
                qr = ints.get(v) if type(v) is int else None
                if qr is None:
                    qr = _intern_field(ints, v)
                v = frame.receiver
                rr = ints.get(v) if type(v) is int else None
                if rr is None:
                    rr = _intern_field(ints, v)
                path = frame.path
                pr = strs.get(path) if type(path) is str else None
                if pr is None:
                    if type(path) is not str:
                        raise WireError(
                            f"frame field {path!r} must be a string, "
                            f"got {type(path).__name__}"
                        )
                    pr = strs[path] = len(strs)
                extend(_MSG_REFS.pack(_KIND_MSG, sr, br, qr, rr, pr))
                # Iterative payload walk (children pushed reversed so
                # emission order matches the value's natural order).
                stack: "list[tuple[Hashable, int]]" = [(frame.payload, 0)]
                while stack:
                    value, depth = stack.pop()
                    if depth > MAX_PAYLOAD_DEPTH:
                        raise WireError(
                            f"payload nesting exceeds "
                            f"{MAX_PAYLOAD_DEPTH} levels"
                        )
                    tv = type(value)
                    if tv is int:
                        if _I64_MIN <= value <= _I64_MAX:
                            ref = ints.get(value)
                            if ref is None:
                                ref = ints[value] = len(ints)
                            append(3)
                            extend(pack_u32(ref))
                        else:
                            raw = value.to_bytes(
                                (value.bit_length() + 8) // 8,
                                "big", signed=True,
                            )
                            append(7)
                            extend(pack_u32(len(raw)))
                            extend(raw)
                    elif tv is tuple:
                        append(6)
                        extend(pack_u32(len(value)))
                        depth += 1
                        for item in reversed(value):
                            stack.append((item, depth))
                    elif value is None:
                        append(0)
                    elif tv is bool:
                        append(1 if value else 2)
                    elif tv is float:
                        append(4)
                        extend(_F64.pack(value))
                    elif tv is str:
                        ref = strs.get(value)
                        if ref is None:
                            ref = strs[value] = len(strs)
                        append(5)
                        extend(pack_u32(ref))
                    # Cold path: normalize legal subclasses back onto the
                    # stack as exact types; everything else is outside
                    # the wire domain.
                    elif isinstance(value, bool):  # pragma: no cover
                        append(1 if value else 2)
                    elif isinstance(value, int):
                        stack.append((int(value), depth))
                    elif isinstance(value, float):
                        stack.append((float(value), depth))
                    elif isinstance(value, str):
                        stack.append((str(value), depth))
                    elif isinstance(value, tuple):
                        stack.append((tuple(value), depth))
                    else:
                        raise WireError(
                            f"payload {value!r} of type {tv.__name__} is "
                            "outside the wire domain (None, bool, int, "
                            "float, str, and tuples thereof)"
                        )
            elif kind == END:
                v = frame.sender
                sr = ints.get(v) if type(v) is int else None
                if sr is None:
                    sr = _intern_field(ints, v)
                v = frame.beat
                br = ints.get(v) if type(v) is int else None
                if br is None:
                    br = _intern_field(ints, v)
                extend(_END_REFS.pack(_KIND_END, sr, br))
            elif kind == HELLO:
                v = frame.sender
                sr = ints.get(v) if type(v) is int else None
                if sr is None:
                    sr = _intern_field(ints, v)
                extend(_HELLO_REFS.pack(_KIND_HELLO, sr))
            else:
                raise WireError(f"unknown frame kind {kind!r}")

        parts = [_MAGIC, _U32.pack(len(ints))]
        if ints:
            parts.append(struct.pack(f"!{len(ints)}q", *ints))
        parts.append(_U32.pack(len(strs)))
        for value in strs:
            raw = value.encode("utf-8")
            parts.append(_U32.pack(len(raw)))
            parts.append(raw)
        parts.append(_U32.pack(n_frames))
        parts.append(bytes(body))
        unit = b"".join(parts)
        if len(unit) > MAX_FRAME_LEN:
            raise WireError(
                f"batch of {len(unit)} bytes exceeds the "
                f"{MAX_FRAME_LEN}-byte cap"
            )
        return (unit,)

    def decode_batch(self, data: bytes) -> "tuple[Frame, ...]":
        # Mirror of :meth:`encode_batch`'s inlining: one flat pass with
        # local offsets and direct table indexing.  Out-of-range refs,
        # short buffers, and bad UTF-8 surface as IndexError /
        # struct.error / UnicodeDecodeError and are translated to
        # :class:`WireError` by the single enclosing handler, so decode
        # stays total on bytes without per-field bound checks.
        size = len(data)
        if size > MAX_FRAME_LEN:
            raise WireError(
                f"unit of {size} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
            )
        if data[:3] != _MAGIC:
            raise WireError("not a binary-codec unit (bad magic)")
        try:
            (int_count,) = _U32.unpack_from(data, 3)
            off = 7
            # unpack_from bound-checks against the real buffer before
            # allocating anything, so a forged count cannot balloon.
            int_table = struct.unpack_from(f"!{int_count}q", data, off)
            off += int_count * 8
            (str_count,) = _U32.unpack_from(data, off)
            off += 4
            if str_count > size - off:  # each entry costs >= 4 bytes
                raise WireError("string count exceeds the unit")
            str_table = []
            for _ in range(str_count):
                (length,) = _U32.unpack_from(data, off)
                off += 4
                if length > size - off:
                    raise WireError("truncated string table")
                str_table.append(data[off:off + length].decode("utf-8"))
                off += length
            (frame_count,) = _U32.unpack_from(data, off)
            off += 4
            if frame_count > size - off:  # each frame costs >= 1 byte
                raise WireError("frame count exceeds the unit")
            frames = []
            append = frames.append
            for _ in range(frame_count):
                kind = data[off]
                off += 1
                if kind == _KIND_MSG:
                    sr, br, qr, rr, pr = _REFS5.unpack_from(data, off)
                    off += 20
                    payload, off = _read_payload(
                        data, off, size, int_table, str_table, 0
                    )
                    append(
                        Frame(
                            MSG, int_table[sr], int_table[br],
                            int_table[qr], int_table[rr], str_table[pr],
                            payload,
                        )
                    )
                elif kind == _KIND_END:
                    sr, br = _REFS2.unpack_from(data, off)
                    off += 8
                    append(Frame(END, int_table[sr], int_table[br]))
                elif kind == _KIND_HELLO:
                    (sr,) = _U32.unpack_from(data, off)
                    off += 4
                    append(Frame(HELLO, int_table[sr]))
                else:
                    raise WireError(f"unknown frame kind byte {kind}")
        except (IndexError, struct.error, UnicodeDecodeError) as error:
            raise WireError(f"undecodable binary unit: {error}") from None
        if off != size:
            raise WireError(
                f"{size - off} trailing bytes after the last frame"
            )
        return tuple(frames)


# -- registry --------------------------------------------------------------

#: Codec registry: name -> stateless codec instance.
CODECS: "dict[str, Codec]" = {}

#: The differential reference format; everything defaults to it, which is
#: what keeps pre-seam runs (and their wire captures) byte-identical.
DEFAULT_CODEC = JsonCodec.name


def register_codec(codec: Codec) -> Codec:
    """Add one codec; double registration is a configuration error."""
    if codec.name in CODECS:
        raise ConfigurationError(
            f"codec {codec.name!r} is already registered"
        )
    CODECS[codec.name] = codec
    return codec


for _codec_cls in (JsonCodec, BinaryCodec):
    register_codec(_codec_cls())


def resolve_codec(codec: "str | Codec") -> Codec:
    """A registered name (or a pre-built instance) to its codec object."""
    if isinstance(codec, Codec):
        return codec
    try:
        return CODECS[codec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown codec {codec!r}; known: {sorted(CODECS)}"
        ) from None
