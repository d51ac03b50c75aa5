"""The continuous-time lateness rule against its definition.

:mod:`repro.net.events` decides every arrival at the instant its copy is
sent — ``when < close and when + delay <= close`` — skips the keyed
delay draw whenever the delay bounds already decide, and runs a beat in
which nothing can be late as a lock-step beat.  The definition is kept
here: the arrival-event loop the module ran before (one heap event and
one draw per copy, a late copy counted and recorded dropped), frozen as
a test-only oracle.  Scripted towers send broadcasts, point-to-point
messages and partial broadcasts through both; clock rates are exact
ratios, so a pulse lands on the very instant of another node's close,
and delay bounds include zero, a point, and delays too small to move a
float.

(When hypothesis is not installed, ``tests/conftest.py`` skips
collecting this module entirely.)
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.net import events
from repro.net.component import Component
from repro.net.engine import craft_byzantine
from repro.net.events import (
    ContinuousSimulation,
    DriftingClock,
    KeyedDelays,
    _on_time,
)
from repro.net.inbox import BeatInbox, group_by_path
from repro.net.network import MessageStats
from repro.net.world import World

BEATS = 6


class Scripted(Component):
    """A two-level tower that sends a keyed pseudo-random script and
    logs every inbox it is handed, in order."""

    def __init__(self, script: int, n: int, leaf: bool = False) -> None:
        super().__init__()
        self.script = script
        self.n = n
        self.leaf = leaf
        self.log: list = []
        if not leaf:
            self.add_child("leaf", Scripted(script, n, leaf=True))

    def on_send(self, ctx) -> None:
        rng = random.Random(
            f"{self.script}/{ctx.node_id}/{ctx.beat}/{self.leaf}"
        )
        n = self.n
        for index in range(rng.randrange(4)):
            payload = (ctx.node_id, ctx.beat, index)
            kind = rng.choice("bbsp")
            if kind == "b":
                ctx.broadcast(payload)
            elif kind == "s":  # receiver n: addressed to no one
                ctx.send(rng.randrange(n + 1), payload)
            else:  # a partial broadcast, in any receiver order
                ctx._outbox.broadcast(
                    rng.sample(range(n), rng.randrange(n)), ctx.path, payload
                )
        if not self.leaf:
            ctx.run_child("leaf")

    def on_update(self, ctx) -> None:
        self.log.append((ctx.beat, [(e.sender, e.payload) for e in ctx.inbox]))
        if not self.leaf:
            ctx.run_child("leaf")


class ScriptedAdversary(Adversary):
    """Logs its view copy by copy; answers, per faulty sender, with a
    stray envelope and a row that skips some receivers."""

    def __init__(self, script: int) -> None:
        super().__init__()
        self.script = script
        self.views: list = []

    def craft_messages(self, view):
        self.views.append([tuple(e) for e in view.visible_messages])
        rng = random.Random(f"{self.script}/byzantine/{view.beat}")
        traffic = view.traffic()
        for sender in sorted(self.faulty_ids):
            traffic.add_envelope(view.make_envelope(
                sender, rng.randrange(view.n), "root", ("stray", view.beat)
            ))
            receivers = sorted(
                rng.sample(range(view.n), rng.randrange(view.n + 1))
            )
            traffic.add_row(
                sender, "root/leaf",
                {r: ("row", view.beat, sender) for r in receivers},
            )
        return traffic


def parent_run(world, clocks, delays, beats):
    """``ContinuousSimulation.run`` as it was while arrivals were heap
    events, frozen: every copy is one envelope from the per-receiver
    ``Outbox``, one keyed draw and one ``(when + delay, ARRIVAL)`` event
    that ``BeatInbox.deliver`` judges when it pops.  Priorities at equal
    instants: arrival 0, close 1, pulse 2, adversary 3, then node id,
    then push order."""
    nodes, faulty = world.nodes, world.faulty_ids
    inboxes = {i: BeatInbox() for i in nodes}
    stats = MessageStats()
    heap: list = []
    pushes = itertools.count()
    visible: dict = {}

    def push(key, event):
        heapq.heappush(heap, (key, next(pushes), event))

    def schedule(when, beat, seq, envelope):
        sender, receiver = envelope.sender, envelope.receiver
        delay = 0.0 if sender == receiver else (
            delays.delay(sender, receiver, beat, seq)
        )
        push((when + delay, 0, receiver),
             ("arrival", receiver, beat, (sender, seq), envelope))

    for i in nodes:
        push((clocks[i].pulse_time(0), 2, i), ("pulse", i, 0))
    if faulty:
        for beat in range(beats):
            when = max(clock.pulse_time(beat) for clock in clocks.values())
            push((when, 3, world.n), ("adversary", beat))
    while heap:
        (when, _priority, _who), _count, event = heapq.heappop(heap)
        if event[0] == "arrival":
            _, receiver, beat, key, envelope = event
            if not inboxes[receiver].deliver(beat, key, envelope):
                stats.record_dropped(envelope)
        elif event[0] == "close":
            _, i, beat = event
            nodes[i].update_phase(
                beat, group_by_path(inboxes[i].close_entries(beat))
            )
        elif event[0] == "pulse":
            _, i, beat = event
            for seq, envelope in enumerate(nodes[i].send_phase(beat)):
                stats.record(envelope, honest=True)
                if envelope.receiver in faulty:
                    visible.setdefault(beat, []).append(
                        (envelope.sender, seq, envelope)
                    )
                if envelope.receiver in nodes:
                    schedule(when, beat, seq, envelope)
            push((clocks[i].pulse_time(beat + 1), 1, i), ("close", i, beat))
            if beat + 1 < beats:
                push((clocks[i].pulse_time(beat + 1), 2, i),
                     ("pulse", i, beat + 1))
        else:
            _, beat = event
            batch = sorted(visible.pop(beat, []))
            crafted = craft_byzantine(world, beat, [e for _s, _q, e in batch])
            for seq, envelope in enumerate(crafted):
                stats.record(envelope, honest=False)
                if envelope.receiver in nodes:
                    schedule(when, beat, seq, envelope)
    return inboxes, stats


def _observed(nodes, late, stats, adversary):
    return {
        "inboxes": {
            i: (node.root.log, node.root.child("leaf").log)
            for i, node in nodes.items()
        },
        "late": late,
        "stats": (
            stats.as_dict(),
            sorted(stats.per_beat.items()),
            sorted(stats.per_path_prefix.items()),
        ),
        "views": adversary.views if adversary else None,
    }


def _both(script, seed, n, rates, bounds, byzantine, beats=BEATS):
    """The same scripted system through the frozen loop and the engine."""

    def factory(_node_id):
        return Scripted(script, n)

    adversary = ScriptedAdversary(script) if byzantine else None
    world = World.build(n, 1, factory, adversary=adversary, seed=seed)
    clocks = {i: DriftingClock(0, i, 0.0) for i in world.nodes}
    for i, clock in clocks.items():
        clock.rate = rates[i]
    inboxes, stats = parent_run(
        world, clocks, KeyedDelays(world.timing_seed, *bounds), beats
    )
    expected = _observed(
        world.nodes, {i: box.late_messages for i, box in inboxes.items()},
        stats, adversary,
    )

    adversary = ScriptedAdversary(script) if byzantine else None
    sim = ContinuousSimulation(
        n, 1, factory, adversary=adversary, seed=seed, delay_bounds=bounds
    )
    for i, sync in sim.synchronizers.items():
        sync.clock.rate = rates[i]
    sim.run(beats)
    actual = _observed(
        sim.nodes,
        {i: sync.late_messages for i, sync in sim.synchronizers.items()},
        sim.stats, adversary,
    )
    return expected, actual


#: Exact ratios: pulses of one node land on closes of another.
_RATES = (1.0, 0.5, 2 / 3, 2.0)
#: Zero, a point, too small to move a float, inside and past a period,
#: and a pair whose ``d_min + (d_max - d_min)`` is one ulp above ``d_max``.
_BOUNDS = (
    (0.0, 0.0), (0.0, 1e-20), (1e-20, 1e-20), (0.5, 0.5), (1.0, 1.0),
    (0.0, 1.0), (0.25, 0.75), (0.001, 0.009), (0.0, 2.5), (1.0, 3.0),
)


class TestAgainstTheArrivalEventLoop:
    @settings(max_examples=120, derandomize=True)
    @given(
        script=st.integers(0, 2**32),
        seed=st.integers(0, 2**16),
        n=st.sampled_from([4, 5]),
        rates=st.lists(st.sampled_from(_RATES), min_size=5, max_size=5),
        bounds=st.sampled_from(_BOUNDS),
        byzantine=st.booleans(),
    )
    # By hand: a pulse on the instant of a close with nothing in between
    # (sent-at-the-close is late), arrival exactly at the close (on
    # time), and every copy inside the band the draw decides.
    @example(script=1, seed=0, n=4, rates=[1.0, 2.0, 1.0, 0.5, 1.0],
             bounds=(0.0, 0.0), byzantine=True)
    @example(script=2, seed=0, n=4, rates=[1.0] * 5, bounds=(1.0, 1.0),
             byzantine=True)
    @example(script=3, seed=1, n=5, rates=[1.0] * 5, bounds=(0.0, 2.5),
             byzantine=False)
    def test_inboxes_late_counts_stats_and_views_equal(
        self, script, seed, n, rates, bounds, byzantine
    ):
        expected, actual = _both(script, seed, n, rates, bounds, byzantine)
        assert actual == expected

    def test_the_matrix_reaches_ties_coincidences_and_the_band(self):
        """The by-hand examples do what their comment says."""
        # Sent at the very instant of the receiver's close: late, though
        # the delay is zero.  Node 1 (rate 2) closes beat 1 at 1.0, the
        # instant the rate-1 nodes fire pulse 1.
        expected, actual = _both(1, 0, 4, [1.0, 2.0, 1.0, 0.5], (0.0, 0.0), True)
        assert actual == expected and actual["late"][1] > 0
        # Arriving exactly at the close: on time, every copy.
        expected, actual = _both(2, 0, 4, [1.0] * 4, (1.0, 1.0), True)
        assert actual == expected and not any(actual["late"].values())
        # The draw decides: some copies of a beat make it, some do not.
        expected, actual = _both(3, 1, 5, [1.0] * 5, (0.0, 2.5), False)
        late, total = sum(actual["late"].values()), actual["stats"][0]["total_messages"]
        assert actual == expected and 0 < late < total


def _nudged(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


class TestBoundsDecideOnlyWhatTheDrawWould:
    """Rule (2): a verdict reached from the delay bounds alone is the
    verdict the drawn delay would have reached — for any floats, at the
    ends of the draw's range included."""

    @given(
        when=st.floats(0.0, 1e6, allow_nan=False),
        a=st.floats(0.0, 10.0, allow_nan=False),
        b=st.floats(0.0, 10.0, allow_nan=False),
        gap=st.sampled_from(["d_min", "d_max", "hi", "free"]),
        free=st.floats(-1.0, 12.0, allow_nan=False),
        ulps=st.integers(-2, 2),
        draw=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    )
    @example(when=1.0, a=0.001, b=0.009, gap="d_max", free=0.0, ulps=0,
             draw=2**64 - 1)
    def test_any_floats(self, when, a, b, gap, free, ulps, draw):
        delays = KeyedDelays(0, min(a, b), max(a, b))
        with mock.patch.object(events, "derive_seed", return_value=draw):
            delay = delays.delay(0, 1, 0, 0)
        assert delays.d_min <= delay <= delays.hi
        offset = free if gap == "free" else getattr(delays, gap)
        close = _nudged(when + offset, ulps)
        drawn = _on_time(when, delay, close)
        if _on_time(when, delays.hi, close):
            assert drawn
        if not _on_time(when, delays.d_min, close):
            assert not drawn

    def test_the_largest_draw_is_hi_not_d_max(self):
        delays = KeyedDelays(0, 0.001, 0.009)
        with mock.patch.object(events, "derive_seed", return_value=2**64 - 1):
            assert delays.delay(0, 1, 0, 0) == delays.hi > delays.d_max
