"""Unit tests for the live runtime's layers: wire codec, transports,
round barrier (late-message accounting), and runner plumbing.

The flagship guarantee — zero-delay LocalTransport runs reproduce the
lock-step simulator bit-for-bit — lives in
``tests/test_runtime_differential.py``; here each layer is exercised in
isolation.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, TransportError, WireError
from repro.net.message import BROADCAST, Envelope
from repro.runtime import (
    CODECS,
    DEFAULT_CODEC,
    TRANSPORTS,
    BeatSynchronizer,
    BinaryCodec,
    Codec,
    Frame,
    JsonCodec,
    LocalTransport,
    TcpTransport,
    Transport,
    decode_frame,
    encode_frame,
    frame_for_envelope,
    register_codec,
    resolve_codec,
    resolve_transport,
    run_runtime,
)
from repro.runtime.sync import Intake
from repro.runtime.wire import END, HELLO, MSG, MAX_FRAME_LEN


class TestWireCodec:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            "fc",
            ("fc", 3),
            ("vote", (1, 0, 1, 1)),
            ("nested", ("deep", (None, 2.0, "x"))),
            (),
        ],
    )
    def test_msg_round_trip(self, payload):
        envelope = Envelope(2, 1, "root/A/A1", payload, 7)
        frame = frame_for_envelope(envelope, seq=5)
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert (decoded.path, decoded.payload, decoded.beat) == envelope[2:]

    def test_end_and_hello_round_trip(self):
        for frame in (Frame(kind=END, sender=3, beat=9),
                      Frame(kind=HELLO, sender=1)):
            assert decode_frame(encode_frame(frame)) == frame

    def test_claimed_sender_is_discarded_on_rebuild(self):
        """Envelope identity comes from the transport, not the frame."""
        data = encode_frame(Frame(kind=MSG, sender=999, beat=0, seq=0,
                                  receiver=1, path="root", payload=0))
        (run,) = Intake(1).runs(2, data, JsonCodec())
        ((key, rebuilt),) = run.entries
        assert (key, rebuilt.sender, run.sender) == ((2, 0), 2, 2)
        assert 999 not in rebuilt and 1 not in rebuilt

    @pytest.mark.parametrize(
        "payload", [[1, 2], {"a": 1}, {1, 2}, b"bytes", object()]
    )
    def test_out_of_domain_payloads_rejected_at_encode(self, payload):
        frame = Frame(kind=MSG, sender=0, beat=0, seq=0, receiver=1,
                      path="root", payload=payload)
        with pytest.raises(WireError):
            encode_frame(frame)

    def test_depth_bomb_rejected(self):
        nested = 0
        for _ in range(64):
            nested = (nested,)
        frame = Frame(kind=MSG, sender=0, beat=0, seq=0, receiver=1,
                      path="root", payload=nested)
        with pytest.raises(WireError):
            encode_frame(frame)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"garbage",
            b"\xff\xfe",
            b"[1,2,3]",
            b'{"k":"warp"}',
            b'{"k":"msg","s":"zero","b":0,"q":0,"r":1,"p":"root","v":0}',
            b'{"k":"msg","s":0,"b":0,"q":0,"r":1,"p":7,"v":0}',
            b'{"k":"end","s":0}',  # end without a beat
        ],
    )
    def test_malformed_frames_rejected_at_decode(self, data):
        with pytest.raises(WireError):
            decode_frame(data)

    def test_unknown_kind_rejected_at_encode(self):
        with pytest.raises(WireError):
            encode_frame(Frame(kind="warp", sender=0))

    def test_arrays_decode_to_tuples(self):
        """The hashable-payload contract survives the wire."""
        frame = decode_frame(
            b'{"k":"msg","s":0,"b":0,"q":0,"r":1,"p":"root","v":[1,[2,3]]}'
        )
        assert frame.payload == (1, (2, 3))
        assert hash(frame.payload) is not None


def _stub_endpoint():
    """A minimal endpoint: an asyncio queue the test feeds directly."""

    class StubEndpoint:
        node_id = 0

        def __init__(self) -> None:
            self.queue: asyncio.Queue = asyncio.Queue()

        async def send(self, receiver, data):  # pragma: no cover - unused
            raise AssertionError("stub endpoint never sends")

        async def recv(self):
            return await self.queue.get()

    return StubEndpoint()


def _msg(sender: int, beat: int, seq: int, payload, path="root") -> bytes:
    return encode_frame(
        frame_for_envelope(Envelope(sender, 0, path, payload, beat), seq)
    )


def _end(sender: int, beat: int) -> bytes:
    return encode_frame(Frame(kind=END, sender=sender, beat=beat))


class TestBeatSynchronizer:
    def test_late_message_counted_dropped_and_quarantined(self):
        """A message tagged for beat b arriving after b's barrier closed is
        counted, dropped, and never corrupts beat b+1 (ISSUE-4 check)."""

        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[0, 1])
            endpoint.queue.put_nowait((1, _msg(1, 0, 0, "on-time")))
            endpoint.queue.put_nowait((0, _end(0, 0)))
            endpoint.queue.put_nowait((1, _end(1, 0)))
            beat0 = await sync.collect(0)
            # The straggler: tagged beat 0, arrives once beat 0 is closed.
            endpoint.queue.put_nowait((1, _msg(1, 0, 1, "late")))
            endpoint.queue.put_nowait((1, _msg(1, 1, 0, "fresh")))
            endpoint.queue.put_nowait((0, _end(0, 1)))
            endpoint.queue.put_nowait((1, _end(1, 1)))
            beat1 = await sync.collect(1)
            return sync, beat0, beat1

        sync, beat0, beat1 = asyncio.run(scenario())
        assert [e.payload for e in beat0["root"]] == ["on-time"]
        assert sync.late_messages == 1
        assert [e.payload for e in beat1["root"]] == ["fresh"]

    def test_far_future_traffic_refused_not_buffered(self):
        """A Byzantine peer streaming far-future tags cannot pin
        unbounded memory: frames beyond the lookahead horizon are
        counted and discarded, frames just inside it still buffer."""
        from repro.runtime.sync import MAX_LOOKAHEAD

        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[0, 1])
            endpoint.queue.put_nowait((1, _msg(1, MAX_LOOKAHEAD, 0, "bomb")))
            endpoint.queue.put_nowait((1, _end(1, MAX_LOOKAHEAD + 7)))
            endpoint.queue.put_nowait((1, _msg(1, MAX_LOOKAHEAD - 1, 0, "ok")))
            endpoint.queue.put_nowait((0, _end(0, 0)))
            endpoint.queue.put_nowait((1, _end(1, 0)))
            await sync.collect(0)
            return sync

        sync = asyncio.run(scenario())
        assert sync.premature_messages == 2
        assert list(sync._pending) == [MAX_LOOKAHEAD - 1]

    def test_future_traffic_buffers_until_its_beat(self):
        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[0, 1])
            # A fast peer is already at beat 1 before we close beat 0.
            endpoint.queue.put_nowait((1, _msg(1, 1, 0, "early")))
            endpoint.queue.put_nowait((1, _end(1, 1)))
            endpoint.queue.put_nowait((1, _end(1, 0)))
            endpoint.queue.put_nowait((0, _end(0, 0)))
            beat0 = await sync.collect(0)
            endpoint.queue.put_nowait((0, _end(0, 1)))
            beat1 = await sync.collect(1)
            return beat0, beat1

        beat0, beat1 = asyncio.run(scenario())
        assert beat0 == {}
        assert [e.payload for e in beat1["root"]] == ["early"]

    def test_inboxes_sorted_by_sender_then_emission_seq(self):
        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[0, 1, 2])
            # Arrival order scrambled on purpose; delivery order must not be.
            endpoint.queue.put_nowait((2, _msg(2, 0, 0, "c")))
            endpoint.queue.put_nowait((1, _msg(1, 0, 1, "b2")))
            endpoint.queue.put_nowait((1, _msg(1, 0, 0, "b1")))
            endpoint.queue.put_nowait((0, _msg(0, 0, 0, "a")))
            for sender in (0, 1, 2):
                endpoint.queue.put_nowait((sender, _end(sender, 0)))
            return await sync.collect(0)

        inbox = asyncio.run(scenario())
        assert [e.payload for e in inbox["root"]] == ["a", "b1", "b2", "c"]

    def test_verified_sender_overrides_frame_claim(self):
        """A forged sender field cannot impersonate an honest peer."""

        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[0, 3])
            endpoint.queue.put_nowait((3, _msg(0, 0, 0, "forged")))
            endpoint.queue.put_nowait((0, _end(0, 0)))
            endpoint.queue.put_nowait((3, _end(3, 0)))
            return await sync.collect(0)

        inbox = asyncio.run(scenario())
        assert [e.sender for e in inbox["root"]] == [3]

    def test_malformed_frames_counted_and_dropped(self):
        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[0])
            endpoint.queue.put_nowait((0, b"\xff not a frame"))
            endpoint.queue.put_nowait((0, _end(0, 0)))
            inbox = await sync.collect(0)
            return sync, inbox

        sync, inbox = asyncio.run(scenario())
        assert sync.malformed_frames == 1
        assert inbox == {}

    def test_barrier_timeout_counted_and_run_continues(self):
        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(
                endpoint, expected=[0, 1], beat_timeout=0.02
            )
            endpoint.queue.put_nowait((0, _end(0, 0)))  # peer 1 never marks
            inbox = await sync.collect(0)
            return sync, inbox

        sync, inbox = asyncio.run(scenario())
        assert sync.barrier_timeouts == 1
        assert inbox == {}
        assert sync.beat == 1  # the run moved on

    def test_beats_close_strictly_in_order(self):
        async def scenario():
            sync = BeatSynchronizer(_stub_endpoint(), expected=[0])
            await sync.collect(3)

        with pytest.raises(ConfigurationError):
            asyncio.run(scenario())


class TestLocalTransport:
    def test_unregistered_receiver_is_a_counted_dead_letter(self):
        async def scenario():
            transport = LocalTransport()
            endpoint = await transport.open(0)
            await endpoint.send(9, b"x")
            return transport.dead_letters

        assert asyncio.run(scenario()) == 1

    def test_duplicate_registration_rejected(self):
        async def scenario():
            transport = LocalTransport()
            await transport.open(0)
            await transport.open(0)

        with pytest.raises(TransportError):
            asyncio.run(scenario())

    def test_jittered_delivery_arrives(self):
        async def scenario():
            transport = LocalTransport(seed=7, jitter_s=0.01, fifo=False)
            a = await transport.open(0)
            b = await transport.open(1)
            await a.send(1, b"one")
            await a.send(1, b"two")
            got = {await b.recv(), await b.recv()}
            await transport.aclose()
            return got

        assert asyncio.run(scenario()) == {(0, b"one"), (0, b"two")}

    def test_negative_jitter_rejected(self):
        with pytest.raises(TransportError):
            LocalTransport(jitter_s=-1.0)


class TestTcpTransport:
    def test_send_recv_stamps_connection_identity(self):
        async def scenario():
            transport = TcpTransport()
            a = await transport.open(0)
            b = await transport.open(1)
            # The frame *claims* sender 999; identity must come from the
            # connection hello (node 0), not the frame contents.
            await a.send(1, _msg(999, 0, 0, "hi"))
            sender, data = await b.recv()
            await transport.aclose()
            return sender, decode_frame(data).payload

        assert asyncio.run(scenario()) == (0, "hi")

    def test_loopback_send_to_self(self):
        async def scenario():
            transport = TcpTransport()
            a = await transport.open(0)
            await a.send(0, _msg(0, 0, 0, "self"))
            sender, _data = await a.recv()
            await transport.aclose()
            return sender

        assert asyncio.run(scenario()) == 0

    def test_unknown_peer_address_rejected(self):
        async def scenario():
            transport = TcpTransport()
            endpoint = await transport.open(0)
            try:
                await endpoint.send(5, b"x")
            finally:
                await transport.aclose()

        with pytest.raises(TransportError):
            asyncio.run(scenario())


class TestCodecRegistry:
    def test_registry_names_and_default(self):
        assert set(CODECS) == {"json", "binary"}
        assert DEFAULT_CODEC == "json"
        for name in CODECS:
            codec = resolve_codec(name)
            assert isinstance(codec, Codec)
            assert codec.name == name
            assert codec.describe()

    def test_batched_flags(self):
        """json stays per-message (the differential reference); binary
        packs whole batches."""
        assert resolve_codec("json").batched is False
        assert resolve_codec("binary").batched is True

    def test_instance_passes_through(self):
        codec = BinaryCodec()
        assert resolve_codec(codec) is codec

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown codec"):
            resolve_codec("morse")
        with pytest.raises(ConfigurationError):
            resolve_codec(42)  # type: ignore[arg-type]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_codec(JsonCodec())

    def test_json_codec_wraps_the_reference_wire(self):
        """One frame per unit, byte-identical to the pre-seam format."""
        frame = frame_for_envelope(Envelope(2, 1, "root", "hi", 7), seq=0)
        marker = Frame(kind=END, sender=2, beat=7)
        units = JsonCodec().encode_batch((frame, marker))
        assert units == (encode_frame(frame), encode_frame(marker))
        assert JsonCodec().decode_batch(units[0]) == (frame,)


class TestBatchedSynchronizer:
    def _batch(self, codec, *frames) -> bytes:
        (unit,) = codec.encode_batch(frames)
        return unit

    def test_binary_batch_delivers_whole_beat(self):
        async def scenario():
            codec = BinaryCodec()
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[1], codec=codec)
            unit = self._batch(
                codec,
                frame_for_envelope(Envelope(1, 0, "root", "a", 0), seq=0),
                frame_for_envelope(Envelope(1, 0, "root", "b", 0), seq=1),
                Frame(kind=END, sender=1, beat=0),
            )
            endpoint.queue.put_nowait((1, unit))
            return sync, await sync.collect(0)

        sync, inbox = asyncio.run(scenario())
        assert [e.payload for e in inbox["root"]] == ["a", "b"]
        assert sync.malformed_frames == 0

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_claimed_receiver_is_discarded_at_the_barrier(self, codec_name):
        """No envelope carries an id read off the wire: the sender is the
        transport-verified one, and the claimed receiver appears nowhere
        — a faulty peer cannot make an honest inbox hold envelopes
        "addressed" to another node."""
        codec = CODECS[codec_name]

        async def scenario():
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[1], codec=codec)
            forged = Frame(kind=MSG, sender=2, beat=0, seq=0, receiver=3,
                           path="root", payload="x")
            marker = Frame(kind=END, sender=1, beat=0)
            for unit in codec.encode_batch((forged, marker)):
                endpoint.queue.put_nowait((1, unit))
            return await sync.collect(0)

        (envelope,) = asyncio.run(scenario())["root"]
        assert envelope == Envelope(1, BROADCAST, "root", "x", 0)
        assert 3 not in envelope and 2 not in envelope

    def test_malformed_binary_unit_counted_and_dropped(self):
        async def scenario():
            codec = BinaryCodec()
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[1], codec=codec)
            endpoint.queue.put_nowait((1, b"RB\x01 garbage"))
            endpoint.queue.put_nowait(
                (1, self._batch(codec, Frame(kind=END, sender=1, beat=0)))
            )
            return sync, await sync.collect(0)

        sync, inbox = asyncio.run(scenario())
        assert sync.malformed_frames == 1
        assert inbox == {}

    def test_oversized_unit_counted_as_malformed(self):
        """The shared MAX_FRAME_LEN bound holds for queue-fed units too
        (TCP enforces it at the length-prefix reader before the codec)."""
        async def scenario():
            codec = BinaryCodec()
            endpoint = _stub_endpoint()
            sync = BeatSynchronizer(endpoint, expected=[1], codec=codec)
            endpoint.queue.put_nowait((1, bytes(MAX_FRAME_LEN + 1)))
            endpoint.queue.put_nowait(
                (1, self._batch(codec, Frame(kind=END, sender=1, beat=0)))
            )
            return sync, await sync.collect(0)

        sync, inbox = asyncio.run(scenario())
        assert sync.malformed_frames == 1
        assert inbox == {}


class TestTransportRegistry:
    def test_registry_names(self):
        assert set(TRANSPORTS) == {"local", "tcp"}
        for name in TRANSPORTS:
            assert isinstance(resolve_transport(name), Transport)

    def test_instance_passes_through(self):
        transport = LocalTransport()
        assert resolve_transport(transport) is transport

    def test_unknown_transport_rejected(self):
        with pytest.raises(TransportError):
            resolve_transport("carrier-pigeon")
        with pytest.raises(TransportError):
            resolve_transport(42)  # type: ignore[arg-type]


class TestRunner:
    def _factory(self):
        from repro.coin.oracle import OracleCoin
        from repro.core.clock_sync import SSByzClockSync

        return lambda i: SSByzClockSync(
            6, lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)
        )

    def test_repeat_runs_are_deterministic(self):
        first = run_runtime(
            4, 1, self._factory(), seed=3, beats=12, k=6
        )
        second = run_runtime(
            4, 1, self._factory(), seed=3, beats=12, k=6
        )
        assert first.records == second.records
        assert first.to_jsonl() == second.to_jsonl()

    def test_resilience_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            run_runtime(3, 1, self._factory(), beats=1)

    def test_at_least_one_beat(self):
        with pytest.raises(ConfigurationError):
            run_runtime(4, 1, self._factory(), beats=0)

    def test_result_shape(self):
        result = run_runtime(4, 1, self._factory(), seed=0, beats=8, k=6)
        assert result.beats_run == 8
        assert len(result.records) == 8
        assert len(result.history) == 8
        assert all(len(row) == 4 for row in result.history)
        assert result.messages_sent > 0
        assert result.late_messages == 0
        assert result.barrier_timeouts == 0
        assert result.codec == "json"
        assert result.malformed_frames == 0

    def test_binary_codec_batches_the_wire(self):
        """Same trajectory, far fewer wire units: one per (link, beat)."""
        json_run = run_runtime(
            4, 1, self._factory(), seed=0, beats=8, k=6, codec="json"
        )
        binary_run = run_runtime(
            4, 1, self._factory(), seed=0, beats=8, k=6, codec="binary"
        )
        assert binary_run.codec == "binary"
        assert binary_run.records == json_run.records
        assert binary_run.messages_sent == json_run.messages_sent
        # json: one unit per message plus one per end marker; binary:
        # exactly one unit per (sender, receiver, beat).
        assert binary_run.frames_sent == 4 * 4 * 8
        assert json_run.frames_sent == json_run.messages_sent + 4 * 4 * 8

    def _counting_codec(self):
        class CountingCodec(BinaryCodec):
            encodes = decodes = 0

            def encode_batch(self, frames):
                self.encodes += 1
                return super().encode_batch(frames)

            def decode_batch(self, data):
                self.decodes += 1
                return super().decode_batch(data)

        return CountingCodec()

    def test_one_encode_per_sender_per_beat(self):
        """A beat of pure broadcasts is encoded once per sender and the
        same units shipped on all n links — n encodes per beat, not n²."""
        codec = self._counting_codec()
        result = run_runtime(
            4, 1, self._factory(), seed=0, beats=8, k=6, codec=codec
        )
        assert codec.encodes == 4 * 8
        assert result.frames_sent == 4 * 4 * 8

    def test_one_decode_per_sender_and_one_merge_per_beat(self, monkeypatch):
        """...and read once: co-hosted receivers are handed the same
        bytes, so a host decodes n units per beat, not n², and merges
        one inbox per beat for all n nodes."""
        from repro.net import inbox

        merges = []
        group_by_path = inbox.group_by_path
        monkeypatch.setattr(
            inbox, "group_by_path",
            lambda entries: merges.append(1) or group_by_path(entries),
        )
        codec = self._counting_codec()
        result = run_runtime(
            4, 1, self._factory(), seed=0, beats=8, k=6, codec=codec
        )
        assert result.frames_sent == 4 * 4 * 8  # units received
        assert codec.decodes == 4 * 8
        assert len(merges) == 8

    def test_byzantine_copies_are_read_per_receiver_honest_units_once(self):
        """Under the equivocator (n=7, f=2) every honest unit is decoded
        once for all seven endpoints and every crafted copy once for its
        receiver; the run is the parent's, to the byte and the count."""
        import hashlib

        from repro.adversary import EquivocatorAdversary

        codec = self._counting_codec()
        result = run_runtime(
            7, 2, self._factory(), adversary=EquivocatorAdversary(), seed=0,
            beats=12, k=6, codec=codec,
        )
        assert codec.decodes <= ((7 - 2) + 2 * (7 - 2)) * 12  # 540 receipts
        assert hashlib.sha256(result.to_jsonl().encode()).hexdigest() == (
            "3cb7603af37d63e114582d915db522777343a016f374c29d61154570e4200e01"
        )
        assert (result.messages_sent, result.frames_sent) == (1034, 540)
        assert not any(result.health.values())

    def test_link_specific_units_are_each_decoded(self):
        """The side without the property: every GVSS beat carries
        dealings, so every unit is one link's own — decodes = receipts."""
        from repro.coin import FeldmanMicaliCoin
        from repro.core.clock_sync import SSByzClockSync

        codec = self._counting_codec()
        result = run_runtime(
            7, 2,
            lambda i: SSByzClockSync(8, lambda: FeldmanMicaliCoin(7, 2)),
            seed=3, beats=6, codec=codec,
        )
        assert codec.decodes == result.frames_sent == 7 * 7 * 6

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown codec"):
            run_runtime(4, 1, self._factory(), beats=1, codec="morse")

    def test_pulse_skew_needs_a_pair_of_live_barriers(self):
        """A spread needs a pair: with every honest node but one stalled
        the run reports no skew (not 0.0); with two live, a number."""
        runs = {
            stalled: run_runtime(
                4, 1, self._factory(), seed=0, beats=3, sync="pulse",
                pulse_period=0.02, stall_ids=stalled,
            )
            for stalled in ((1, 2, 3), (2, 3))
        }
        assert runs[(1, 2, 3)].pulse_skew_s is None
        assert runs[(2, 3)].pulse_skew_s >= 0.0
        assert all(run.pulse_timeouts > 0 for run in runs.values())
