"""The round barrier: synchronous beats on top of bounded-delay delivery.

The simulator hands every node the synchronous-round abstraction for free;
a live network does not.  :class:`BeatSynchronizer` rebuilds it per node:

* every frame is tagged with the beat its sender emitted it at; a unit
  is decoded once per host (:class:`Intake`) into one run per beat tag,
  and each barrier it reaches judges the run against its own beat;
* after its send phase a peer emits an ``end`` marker for the beat; the
  barrier for beat ``b`` closes when markers for ``b`` from *every*
  expected peer have arrived — or, if a ``beat_timeout`` is set, when the
  timeout expires (a peer withholding markers can slow each beat to the
  timeout, never halt the run);
* traffic tagged for a *near-future* beat (a faster peer is ahead) is
  buffered until that beat opens — under FIFO links honest peers drift
  by less than one full beat, so the buffering horizon
  (:data:`MAX_LOOKAHEAD` beats) is generous for every correct peer while
  bounding what a Byzantine peer streaming far-future tags can pin in
  memory (the same threat model :mod:`repro.runtime.wire` caps frame
  sizes for); frames beyond the horizon are counted in
  ``premature_messages`` and dropped;
* per-beat buffering, the late count-and-drop and the canonical
  ``(sender, seq)`` inbox order at close are the wire plane's beat-close
  rule, :class:`~repro.net.inbox.BeatInbox` — the rule the simulated
  continuous time is held to by ``tests/test_event_rule.py`` (its link
  model decides lateness at the send), and the order
  the lock-step engines deliver, which is what makes a zero-delay
  runtime bit-identical to the simulator
  (``tests/test_runtime_differential.py``); co-hosted barriers that
  close a beat over the same runs share one merged inbox.
"""

from __future__ import annotations

import asyncio
from itertools import count
from typing import Iterable

from repro.errors import ConfigurationError
from repro.net.events import DriftingClock
from repro.net.inbox import BeatInbox, Entry, InboxClasses, Run, merge_runs
from repro.net.message import BROADCAST, Envelope
from repro.runtime.codec import Codec, DEFAULT_CODEC, resolve_codec
from repro.runtime.transport import Endpoint
from repro.runtime.wire import END, MSG, MAX_FRAME_LEN, WireError

__all__ = [
    "MAX_LOOKAHEAD",
    "BeatSynchronizer",
    "Intake",
    "PulseBarrier",
    "check_sync_mode",
]

#: Buffering horizon, in beats: frames tagged this far past the current
#: beat are discarded rather than parked.  Honest peers drift by less
#: than one beat under FIFO links; the slack covers pathological-but-
#: correct schedules while denying a Byzantine peer unbounded buffers.
MAX_LOOKAHEAD = 64


def check_sync_mode(sync: str, rho: float, pulse_period: float) -> None:
    """Validate a run's barrier mode: ``"beat"`` (fixed timeout, no
    drift) or ``"pulse"`` (drifting-clock pulse schedule, whose ``rho``
    and ``pulse_period`` must satisfy :class:`DriftingClock`'s rules)."""
    if sync not in ("beat", "pulse"):
        raise ConfigurationError(
            f"unknown sync mode {sync!r}: expected 'beat' or 'pulse'"
        )
    if sync == "pulse":
        DriftingClock(0, 0, rho, pulse_period)
    elif rho:
        raise ConfigurationError(
            "clock drift (rho) only applies to the pulse barrier; "
            "use sync='pulse'"
        )


class Intake:
    """One host's receive side, shared by every barrier it hosts.

    A broadcasting sender hands co-hosted receivers byte-identical
    units, so a unit is decoded once per ``(verified sender, bytes)`` —
    by value (a shared object costs a hash, TCP's equal buffers a
    ``memcmp``), by sender (replayed bytes speak under the replayer's
    id) — into runs every receiver buffers as they are.  Envelopes carry
    ``BROADCAST``: a frame's claimed receiver, like its claimed sender,
    is never read.  A miss is always correct, so the cache is two
    generations of ``4n`` units whatever a peer sprays, and a unit that
    fails is never cached: each barrier it reaches counts it.
    """

    def __init__(self, n: int) -> None:
        self.classes = InboxClasses()
        self._limit = 4 * n
        self._young: dict[tuple[int, bytes], tuple[Run, ...]] = {}
        self._old: dict[tuple[int, bytes], tuple[Run, ...]] = {}
        self._serial = count()

    def runs(self, sender: int, data: bytes, codec: Codec) -> "tuple[Run, ...]":
        """The unit's content, one run per beat tag; :class:`WireError`
        for an oversized or undecodable unit."""
        key = (sender, data)
        runs = self._young.get(key)
        if runs is None:
            runs = self._old.get(key)
            if runs is None:
                runs = self._decode(sender, data, codec)
            if len(self._young) >= self._limit:
                self._old, self._young = self._young, {}
            self._young[key] = runs
        return runs

    def _decode(self, sender: int, data: bytes, codec: Codec) -> "tuple[Run, ...]":
        if len(data) > MAX_FRAME_LEN:
            raise WireError(f"unit of {len(data)} bytes exceeds the cap")
        found: dict[int, list] = {}  # beat tag -> [entries, markers]
        for frame in codec.decode_batch(data):
            if frame.kind in (MSG, END):  # hello frames stop at the transport
                beat = frame.beat
                run = found.get(beat) or found.setdefault(beat, [[], 0])
                if frame.kind == END:
                    run[1] += 1
                else:
                    envelope = Envelope(
                        sender, BROADCAST, frame.path, frame.payload, beat
                    )
                    run[0].append(((sender, frame.seq), envelope))
        return tuple(
            Run(beat, tuple(entries), sender, markers, next(self._serial))
            for beat, (entries, markers) in found.items()
        )


class BeatSynchronizer(BeatInbox):
    """Per-node round barrier over one transport endpoint: markers,
    lookahead and deadlines on top of the shared
    :class:`~repro.net.inbox.BeatInbox`.

    Args:
        endpoint: the node's transport attachment; the synchronizer is its
            sole reader.
        expected: peer ids whose ``end`` markers close each barrier —
            normally every node id in the system, including this node's
            own (its loopback marker) and the faulty ids (the Byzantine
            process emits markers after injecting its traffic, which is
            what lets a *rushing* adversary act within the beat).
        beat_timeout: seconds to wait for the barrier before closing it
            anyway (counted in ``barrier_timeouts``); ``None`` waits
            forever, which is only safe when every expected peer is
            guaranteed live (e.g. the differential harness).
        codec: the run's wire codec (name or instance); every wire unit
            the endpoint yields is decoded through it, and a unit that is
            oversized or fails to decode is counted in
            ``malformed_frames`` and dropped whole.
        intake: the host's shared :class:`Intake`; a barrier built on its
            own gets a private one and behaves exactly the same.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        expected: Iterable[int],
        *,
        beat_timeout: "float | None" = None,
        codec: "str | Codec" = DEFAULT_CODEC,
        intake: "Intake | None" = None,
    ) -> None:
        super().__init__()
        self.endpoint = endpoint
        self.expected = frozenset(expected)
        self.beat_timeout = beat_timeout
        self.codec = resolve_codec(codec)
        self.intake = Intake(len(self.expected)) if intake is None else intake
        self.premature_messages = 0
        self.malformed_frames = 0
        self.barrier_timeouts = 0
        self._markers: dict[int, set[int]] = {}
        # Transport fast path: endpoints backed by an in-process queue
        # expose a non-blocking drain, which lets one await service a
        # whole burst of queued wire units.
        self._recv_nowait = getattr(endpoint, "recv_nowait", None)

    @property
    def counters(self) -> dict[str, int]:
        """The barrier's health counters, as one name-keyed snapshot —
        what :func:`~repro.runtime.runner.harvest` sums into the run's
        result."""
        return {
            "late_messages": self.late_messages,
            "premature_messages": self.premature_messages,
            "malformed_frames": self.malformed_frames,
            "barrier_timeouts": self.barrier_timeouts,
        }

    # -- frame intake ------------------------------------------------------

    def note(self, sender: int, data: bytes) -> None:
        """Classify one received wire unit (tests may call this directly)."""
        try:
            runs = self.intake.runs(sender, data, self.codec)
        except WireError:
            self.malformed_frames += 1
            return
        for run in runs:
            beat, entries, _sender, markers, _serial = run
            if beat >= self.beat + MAX_LOOKAHEAD:
                # Far beyond any correct peer's possible drift: refuse to
                # buffer (a faulty peer could otherwise pin unbounded memory).
                self.premature_messages += len(entries) + markers
            else:
                if markers and beat >= self.beat:
                    self._markers.setdefault(beat, set()).add(sender)
                if entries:
                    self.deliver_run(run)

    # -- the barrier -------------------------------------------------------

    def _deadline(self, loop: asyncio.AbstractEventLoop) -> "float | None":
        """Loop time at which the current barrier gives up waiting.

        The base barrier waits a fixed ``beat_timeout`` from the moment
        the barrier is requested; :class:`PulseBarrier` overrides this
        with its drifting clock's pulse schedule.
        """
        return (
            None if self.beat_timeout is None
            else loop.time() + self.beat_timeout
        )

    def _note_timeout(self) -> None:
        """Account one barrier closed by its deadline rather than markers."""
        self.barrier_timeouts += 1

    def _note_close(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hook invoked at every barrier close (timeout or markers)."""

    async def _close(self, beat: int) -> list[Run]:
        """Wait out beat ``beat``'s barrier; return its buffered runs."""
        if beat != self.beat:
            raise ConfigurationError(
                f"barrier for beat {beat} requested, but the synchronizer "
                f"is at beat {self.beat}; beats close strictly in order"
            )
        loop = asyncio.get_running_loop()
        deadline = self._deadline(loop)
        drain = self._recv_nowait
        markers = self._markers.setdefault(beat, set())
        while not markers >= self.expected:
            if drain is not None:
                # Service everything already queued without suspending;
                # the await below then only pays for genuinely absent
                # traffic.
                item = drain()
                if item is not None:
                    self.note(*item)
                    continue
            if deadline is None:
                sender, data = await self.endpoint.recv()
            else:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    self._note_timeout()
                    break
                try:
                    sender, data = await asyncio.wait_for(
                        self.endpoint.recv(), remaining
                    )
                except asyncio.TimeoutError:
                    # asyncio.TimeoutError: distinct from the builtin
                    # until 3.11, and this package supports 3.10.
                    self._note_timeout()
                    break
            self.note(sender, data)
        self._markers.pop(beat, None)
        runs = self.close_runs(beat)
        self._note_close(loop)
        return runs

    async def collect_entries(self, beat: int) -> list[Entry]:
        """Close beat ``beat``'s barrier; return its sorted traffic."""
        return merge_runs(await self._close(beat))

    async def collect(self, beat: int) -> dict[str, list[Envelope]]:
        """Close the barrier; the beat's per-path inboxes (read-only)."""
        return self.intake.classes.inboxes(beat, await self._close(beat))


class PulseBarrier(BeatSynchronizer):
    """The timeout-based pulse barrier: the continuous-time mode's round
    barrier for live transports (``repro runtime --sync pulse``).

    Instead of a fixed per-beat timeout, the barrier's deadline follows a
    :class:`~repro.net.events.DriftingClock`'s pulse schedule: the
    barrier for beat ``b`` gives up when the node's local clock crosses
    pulse ``b + 1`` — the wall-clock realization of the simulated
    close rule (:class:`~repro.net.events.TimingLinks`).  A healthy barrier still closes *early* on the full
    marker set (so fault-free runs move at network speed, not at the
    pulse period), while a stalled or Byzantine-silent peer can delay a
    beat only until the pulse fires: the run always terminates in at most
    ``beats × period / (1 - rho)`` real seconds.

    Deadline closes are accounted twice: in the new ``pulse_timeouts``
    counter and in the inherited ``barrier_timeouts``, so every existing
    health surface (CLI summary lines, :attr:`RuntimeResult.health`,
    cluster JSONL, the obs collectors) sees pulse-mode trouble without
    modification.  Per-beat close offsets (real seconds since the run
    anchor) accumulate in :attr:`pulse_closes`; the runner turns them
    into the max-pairwise-skew and real-time-convergence metrics.

    Args:
        endpoint, expected, codec, intake: as :class:`BeatSynchronizer`.
        clock: this node's drifting clock — built from the run's shared
            ``"timing"`` seed so rates match the simulated run's.
        anchor: loop time of the run's pulse 0.  Pass one shared reading
            so co-located nodes' deadlines (and close offsets) are
            comparable; ``None`` self-anchors at the first barrier.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        expected: Iterable[int],
        *,
        clock,
        anchor: "float | None" = None,
        codec: "str | Codec" = DEFAULT_CODEC,
        intake: "Intake | None" = None,
    ) -> None:
        super().__init__(endpoint, expected, codec=codec, intake=intake)
        self.clock = clock
        self.anchor = anchor
        self.pulse_timeouts = 0
        #: Per-beat close offsets, in real seconds since the anchor.
        self.pulse_closes: list[float] = []

    @property
    def counters(self) -> dict[str, int]:
        counters = super().counters
        counters["pulse_timeouts"] = self.pulse_timeouts
        return counters

    def _deadline(self, loop: asyncio.AbstractEventLoop) -> float:
        if self.anchor is None:
            self.anchor = loop.time() - self.clock.pulse_time(self.beat)
        return self.anchor + self.clock.pulse_time(self.beat + 1)

    def _note_timeout(self) -> None:
        self.pulse_timeouts += 1
        self.barrier_timeouts += 1

    def _note_close(self, loop: asyncio.AbstractEventLoop) -> None:
        self.pulse_closes.append(loop.time() - self.anchor)
