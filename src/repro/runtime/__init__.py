"""Live async runtime: the protocol as a real concurrent networked system.

Everything else in this repository executes inside a single-process
lock-step beat loop; this package *runs* the protocol — every node an
asyncio task, every message a wire frame over a pluggable transport, the
synchronous-round abstraction rebuilt from bounded-delay delivery by a
per-node round barrier, and Byzantine behaviour injected by a real
misbehaving peer.

Layers (bottom up):

* :mod:`~repro.runtime.wire` — the frame model, the shared framing limits
  and the ``json`` reference wire format for
  :class:`~repro.net.message.Envelope` traffic (msg / end-marker / hello
  frames; Byzantine-safe, no pickle);
* :mod:`~repro.runtime.codec` — the :class:`Codec` registry: ``json``
  (one frame per wire unit, the differential reference) and ``binary``
  (struct-packed per-link batches, the fast path);
* :mod:`~repro.runtime.transport` — the :class:`Transport` seam:
  :class:`LocalTransport` (in-process queues, deterministic when seeded)
  and :class:`TcpTransport` (length-prefixed wire units, one listener per
  node, codec-agnostic byte mover);
* :mod:`~repro.runtime.sync` — :class:`BeatSynchronizer`, the round
  barrier (per-beat tagging, late messages counted and dropped), over
  one ``Intake`` per host: each distinct wire unit decoded once through
  the run's codec, one merged inbox per class of co-hosted receivers;
* :mod:`~repro.runtime.node` / :mod:`~repro.runtime.byzantine` —
  :class:`RuntimeNode` drives the existing :mod:`repro.core` component
  tower unchanged; :class:`ByzantineProcess` speaks for the faulty ids
  with the existing :mod:`repro.adversary` strategies; both batch each
  beat's traffic per link, and an honest node encodes each distinct
  batch once (a pure-broadcast beat is one encode, shipped n times);
* :mod:`~repro.runtime.runner` — :func:`run_runtime` runs the
  simulator's exact :class:`~repro.net.world.World` live and reports
  the trajectory;
* :mod:`~repro.runtime.orchestrator` — :func:`run_cluster` launches a
  multi-process TCP cluster from a declarative :class:`ClusterSpec`.

Determinism contract: a zero-delay :class:`LocalTransport` run reproduces
the lock-step simulator's per-beat honest clock trajectories bit-for-bit
(seeds 0-9, with and without an adversary, on *either* codec —
``tests/test_runtime_differential.py``), the same identity-proof
discipline the engine and link-model seams carry.
"""

from repro.runtime.byzantine import ByzantineProcess
from repro.runtime.codec import (
    CODECS,
    DEFAULT_CODEC,
    BinaryCodec,
    Codec,
    JsonCodec,
    register_codec,
    resolve_codec,
)
from repro.runtime.node import RuntimeNode
from repro.runtime.orchestrator import (
    ClusterResult,
    ClusterSpec,
    load_specs,
    run_cluster,
)
from repro.runtime.runner import RuntimeResult, run_runtime
from repro.runtime.sync import BeatSynchronizer, PulseBarrier
from repro.runtime.transport import (
    DEFAULT_TRANSPORT,
    TRANSPORTS,
    Endpoint,
    LocalTransport,
    TcpTransport,
    Transport,
    resolve_transport,
)
from repro.runtime.wire import (
    END,
    HELLO,
    MSG,
    Frame,
    decode_frame,
    encode_frame,
    frame_for_envelope,
)

__all__ = [
    "BinaryCodec",
    "ByzantineProcess",
    "BeatSynchronizer",
    "CODECS",
    "Codec",
    "ClusterResult",
    "ClusterSpec",
    "DEFAULT_CODEC",
    "DEFAULT_TRANSPORT",
    "END",
    "Endpoint",
    "Frame",
    "HELLO",
    "JsonCodec",
    "LocalTransport",
    "MSG",
    "PulseBarrier",
    "RuntimeNode",
    "RuntimeResult",
    "TRANSPORTS",
    "TcpTransport",
    "Transport",
    "decode_frame",
    "encode_frame",
    "frame_for_envelope",
    "load_specs",
    "register_codec",
    "resolve_codec",
    "resolve_transport",
    "run_cluster",
    "run_runtime",
]
