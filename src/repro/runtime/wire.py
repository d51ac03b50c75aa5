"""The wire frame model and the ``json`` reference wire format.

The live runtime moves protocol messages between concurrent peers, so the
in-memory envelopes of :mod:`repro.net.message` need an on-the-wire form.
Three frame kinds exist:

* ``msg`` — one protocol envelope, tagged with the beat it was sent at and
  a per-sender emission sequence number (the runtime's round barrier sorts
  inboxes by ``(sender, seq)``, which reproduces the simulator's
  sender-sorted delivery order exactly — see :mod:`repro.runtime.sync`).
  An honest full broadcast is *one* frame with ``receiver=BROADCAST``,
  encoded once, shipped on every link and decoded once per receiving
  host; a frame's claimed receiver is ignored like its claimed sender;
* ``end`` — a beat marker: "I have emitted everything I will emit for beat
  ``b``".  Markers realize the global beat system on top of bounded-delay
  delivery;
* ``hello`` — a TCP connection preamble binding the connection to a node
  id (sender identity is per-connection, not per-frame — a frame's claimed
  sender is *ignored* by receivers, mirroring Definition 2.2 item 2).
  Hello frames are always encoded in this module's JSON form, whatever
  codec a run selects: the handshake must be readable before any codec
  negotiation can be trusted.

*How* frames become bytes is a pluggable seam: :mod:`repro.runtime.codec`
registers :class:`Codec` objects whose ``encode_batch``/``decode_batch``
turn frame batches into wire units.  This module keeps the frame model,
the shared framing limits, and the ``json`` reference format — one JSON
object per frame, length-prefixed on stream transports
(:func:`read_frame` / :func:`length_prefixed`).  JSON — not pickle —
because frames cross a trust boundary: a Byzantine peer crafts arbitrary
bytes, and decoding must never execute anything.  Payloads are therefore
restricted to the closed domain honest protocol code actually sends
(``None``, ``bool``, ``int``, ``float``, ``str`` and tuples thereof; see
:mod:`repro.net.message` — payloads are hashable plain data).  JSON arrays
decode back to *tuples*, which is a clean bijection on that domain: honest
code never sends lists (they are unhashable).  Anything outside the domain
— from either a local component or a remote peer — raises
:class:`~repro.errors.WireError`, which receivers count and drop.
"""

from __future__ import annotations

import json
from typing import Hashable, NamedTuple

from repro.errors import WireError
from repro.net.message import BROADCAST, Envelope

__all__ = [
    "END",
    "HELLO",
    "MAX_FRAME_LEN",
    "MAX_PAYLOAD_DEPTH",
    "MSG",
    "Frame",
    "check_payload",
    "decode_frame",
    "encode_frame",
    "frame_for_envelope",
    "length_prefixed",
    "read_frame",
]

MSG = "msg"
END = "end"
HELLO = "hello"

#: Hard cap on one wire unit's encoded size, shared by *every* codec and
#: enforced at the length-prefix reader before any allocation happens.
#: Generous for every protocol in the library (a whole beat's batch to one
#: receiver is O(n) small payloads; GVSS dealings are O(n) small ints); a
#: peer streaming a larger length prefix is trying a memory bomb and loses
#: its connection — the occurrence is counted in the transport's
#: ``malformed_frames`` quarantine stat.
MAX_FRAME_LEN = 1 << 20

#: Payload nesting depth cap: honest payloads nest two or three levels
#: (tagged tuples of tuples); a thousand-level tuple is an attack.  Every
#: codec enforces it on both the encode and the decode side.
MAX_PAYLOAD_DEPTH = 32


def check_payload(value: object, depth: int = 0) -> None:
    """Validate that ``value`` lies in the wire-safe payload domain."""
    if depth > MAX_PAYLOAD_DEPTH:
        raise WireError(f"payload nesting exceeds {MAX_PAYLOAD_DEPTH} levels")
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, tuple):
        for item in value:
            check_payload(item, depth + 1)
        return
    raise WireError(
        f"payload {value!r} of type {type(value).__name__} is outside the "
        "wire domain (None, bool, int, float, str, and tuples thereof)"
    )


def _untuple(value: object, depth: int = 0) -> Hashable:
    """Decode JSON values back into the payload domain (arrays -> tuples)."""
    if depth > MAX_PAYLOAD_DEPTH:
        raise WireError(f"payload nesting exceeds {MAX_PAYLOAD_DEPTH} levels")
    if isinstance(value, list):
        return tuple(_untuple(item, depth + 1) for item in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise WireError(f"payload element {value!r} is outside the wire domain")


class Frame(NamedTuple):
    """One wire frame (see the module docstring for the three kinds).

    A named tuple, like :class:`~repro.net.message.Envelope`: decoding
    builds one per message of each distinct unit a host receives.
    ``receiver`` is :data:`~repro.net.message.BROADCAST` on an honest
    full broadcast and the addressee's id on point-to-point traffic.
    Both claimed ids stop here: the host's
    :class:`~repro.runtime.sync.Intake` rebuilds the envelope from the
    *transport-verified* sender (the connection's hello, or the queue
    registration — the runtime analogue of
    :func:`~repro.net.network.ensure_faulty_senders`) and ``BROADCAST``,
    so a faulty peer can neither forge an honest sender nor plant an
    envelope "addressed" to another node in an honest inbox.
    """

    kind: str
    sender: int
    beat: int = 0
    seq: int = 0
    receiver: int = BROADCAST
    path: str = ""
    payload: Hashable = None


def frame_for_envelope(envelope: Envelope, seq: int) -> Frame:
    """Wrap one outgoing envelope; ``seq`` is its per-sender emission index."""
    return Frame(
        kind=MSG,
        sender=envelope.sender,
        beat=envelope.beat,
        seq=seq,
        receiver=envelope.receiver,
        path=envelope.path,
        payload=envelope.payload,
    )


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame to its JSON wire form (no length prefix)."""
    if frame.kind == MSG:
        check_payload(frame.payload)
        record = {
            "k": MSG,
            "s": frame.sender,
            "b": frame.beat,
            "q": frame.seq,
            "r": frame.receiver,
            "p": frame.path,
            "v": frame.payload,
        }
    elif frame.kind == END:
        record = {"k": END, "s": frame.sender, "b": frame.beat}
    elif frame.kind == HELLO:
        record = {"k": HELLO, "s": frame.sender}
    else:
        raise WireError(f"unknown frame kind {frame.kind!r}")
    data = json.dumps(record, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_LEN:
        raise WireError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )
    return data


def decode_frame(data: bytes) -> Frame:
    """Parse one wire frame; malformed bytes raise :class:`WireError`."""
    if len(data) > MAX_FRAME_LEN:
        raise WireError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )
    try:
        record = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable frame: {error}") from None
    if not isinstance(record, dict):
        raise WireError(f"frame must be a JSON object, got {type(record).__name__}")
    kind = record.get("k")
    if kind == MSG:
        return Frame(
            kind=MSG,
            sender=_int_field(record, "s"),
            beat=_int_field(record, "b"),
            seq=_int_field(record, "q"),
            receiver=_int_field(record, "r"),
            path=_str_field(record, "p"),
            payload=_untuple(record.get("v")),
        )
    if kind == END:
        return Frame(
            kind=END,
            sender=_int_field(record, "s"),
            beat=_int_field(record, "b"),
        )
    if kind == HELLO:
        return Frame(kind=HELLO, sender=_int_field(record, "s"))
    raise WireError(f"unknown frame kind {kind!r}")


def _int_field(record: dict, key: str) -> int:
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"frame field {key!r} must be an int, got {value!r}")
    return value


def _str_field(record: dict, key: str) -> str:
    value = record.get(key)
    if not isinstance(value, str):
        raise WireError(f"frame field {key!r} must be a string, got {value!r}")
    return value


def length_prefixed(data: bytes) -> bytes:
    """Prepend the 4-byte big-endian length used on stream transports."""
    return len(data).to_bytes(4, "big") + data


async def read_frame(reader) -> bytes:
    """Read one length-prefixed frame from an ``asyncio.StreamReader``.

    Raises :class:`WireError` on an oversized length prefix (the caller
    should drop the connection — the stream cannot be resynchronized) and
    ``asyncio.IncompleteReadError`` on EOF.
    """
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_LEN:
        raise WireError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_LEN})"
        )
    return await reader.readexactly(length)
