"""BulkEngine: structure-of-arrays batch execution of whole beats.

The reference and fast engines both execute a beat by walking every
node's component tree and materializing Python objects per message (or
per fan-out record): Python-level work per node per beat, however many
nodes hold the same inbox, which keeps the campaign-scale regimes the
paper's *fast* stabilization claim is about out of reach.

:class:`BulkEngine` keeps per-node protocol state in structure-of-arrays
(SoA) form — one plain Python list per state variable across all honest
nodes, holding the protocol's own values (ints, and ``None`` for ⊥) —
and executes an entire beat's broadcast fan-out, adversary view, link
ruling and inbox merge as batch operations.  A row is written by
builtins — ``map``, ``zip``, ``compress``, a slice assignment, a lookup
table — one rule evaluation per distinct value or inbox, never one
interpreted step per slot, wherever one inbox (or phase, or coin row)
covers every slot; mixed phases, dirty classes and partition groups
take the same passes slot list by slot list.  The speedup is
algorithmic: under perfect (or intra-group partition) links every
in-group receiver of one broadcast path sees the *same* inbox, so each
of the paper's rules is evaluated **once per (path, group)** and the
answer shared — O(n) per beat instead of O(n²) — with no per-message
Python objects on the hot path.

This module is layout and sharing only.  The rules themselves — Figure
2 lines 3-6, Figure 3 line 3, Figure 4 blocks 3.b-3.d, the Dolev-Welch
adopt rule — are the pure functions defined beside the components that
own them (:mod:`repro.core.clock2`, :mod:`repro.core.clock4`,
:mod:`repro.core.clock_sync`, :mod:`repro.baselines.dolev_welch`); the
programs below decide *which* inbox each slot reads and *how many*
slots share one evaluation, never what the rule says.

Bit-reproducibility contract
----------------------------

The bulk engine is only allowed to exist because its runs are
bit-identical to the reference engine (``tests/test_bulk_engine.py``
enforces this differentially, mirroring ``tests/test_engines.py``):

* **Protocol state** is mirrored exactly: the SoA rows are loaded from
  the (scrambled) component trees and hold the very values a component
  attribute would — a row entry reaches a payload or a ``repr``-based
  tie-break as it is — and every new value is computed by the rule the
  component itself calls.
* **Keyed randomness** stays keyed.  Oracle-coin outcomes are resolved
  through :meth:`~repro.net.environment.Environment.coin_outcome` with
  the same ``derive_seed``-keyed ``(path, beat)`` keys, *in the
  reference engine's first-resolution order* (per node: A1's pipeline,
  then A2's when gated, then the root pipeline), so even an
  order-sensitive divergence chooser observes an identical sequence.
  :class:`~repro.net.linkmodel.PartitionLinks` rulings are pure
  functions of the schedule, so the vectorized path computes whole-lane
  drop counts from the group structure and calls ``classify`` only for
  the rare per-envelope (Byzantine) traffic.
* **Stateful link models fall back.**  Lossy and bounded-delay links
  key their draws on per-directed-link emission counters; skipping any
  per-envelope ``classify`` call would desynchronize those counters, so
  runs under them execute on the inherited :class:`FastEngine` path
  (which is itself differentially pinned against the reference).
* **Per-message traffic still works.**  Byzantine traffic and phantoms
  make their receivers *dirty*: their inbox is the lane merged with
  those extras, exactly as the reference router's sender-sorted,
  stage-ordered delivery builds it.  Crafted traffic arrives in shared
  form (:class:`~repro.net.message.CraftedTraffic`) and a row is kept
  as a row — no envelope is built per receiver.  Dirty receivers that
  were handed the same messages — same partition group, the same
  payload *object* in every row, the same stray senders and payload
  objects — form one *inbox class* and share one merge and one tally,
  so a beat costs O(n · distinct rows + classes · f) per path: it
  follows the number of distinct inboxes the adversary made, not the
  number of receivers.

Protocols opt in by registering a :class:`BulkProgram` builder for their
root component type (:func:`register_bulk_program`); the ss-Byz
clock-sync tower (oracle coin) and the Dolev-Welch baseline ship
vectorized programs, everything else — including clock-sync over a
message-passing coin such as GVSS — falls back per-node.  The catalog
attribute :attr:`repro.core.protocol.Protocol.bulk_execution` declares
which case each registered protocol is in.

Observability contract: in vectorized mode the component trees are
dormant — only each root's clock observable (``full_clock`` /
``clock``) is written back per beat, which is all monitors, trial
runners and tracers read.  External writes to node state must go
through ``Simulation.scramble`` (which notifies the engine) and a full
tree materialization is available via :meth:`BulkEngine.sync_trees`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import compress, repeat
from operator import eq, is_, itemgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.baselines.dolev_welch import DolevWelchClock, adopted_clock
from repro.core.clock2 import two_clock_step
from repro.core.clock4 import four_clock_value
from repro.core.clock_sync import (
    SSByzClockSync,
    phase1_proposal,
    phase2_bit_and_save,
    phase3_agreed_bit,
    phase3_clock,
)
from repro.core.majority import BOTTOM
from repro.net.engine import ENGINES, FastEngine, craft_byzantine
from repro.net.linkmodel import PartitionLinks
from repro.net.message import Envelope, FanoutView, Row

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.net.simulator import Simulation

__all__ = [
    "BulkEngine",
    "BulkProgram",
    "UnsupportedBulkLayout",
    "build_bulk_program",
    "has_bulk_program",
    "register_bulk_program",
]

#: Sentinel distinguishing "not computed" / "not sent" from a ``None``.
_MISSING = object()

_SENDER_OF_ENTRY = itemgetter(0)

#: Figure 3 line 3 over the nine (A1, A2) pairs a row can hold.
_FOUR_CLOCK = {
    (c1, c2): four_clock_value(c1, c2)
    for c1 in (0, 1, BOTTOM) for c2 in (0, 1, BOTTOM)
}


def _in_domain(value: Any, domain: tuple) -> "int | None":
    """A tree value as a row entry: the int of ``domain`` it equals,
    else ⊥.  ``True`` must not enter a row as a ``bool``: rows become
    payloads, and ``repr`` tie-breaks tell ``True`` from ``1``."""
    return int(value) if value in domain else BOTTOM


class UnsupportedBulkLayout(Exception):
    """A protocol tree has no exact SoA mapping; fall back per-node."""


class Lane:
    """One broadcast path's honest traffic for one beat, in SoA form.

    ``present[slot]`` says whether the honest node in that slot broadcast
    on this path this beat; ``payloads[slot]`` is its payload (plain
    Python objects — built once per *sender*, never per receiver copy).
    """

    __slots__ = ("path", "present", "payloads")

    def __init__(self, path: str, present: list, payloads: list) -> None:
        self.path = path
        self.present = present
        self.payloads = payloads

    def sender_count(self) -> int:
        return sum(self.present)

    def sender_slots(
        self, group_of: "list | None" = None, group: "int | None" = None
    ) -> list[int]:
        """The slots that broadcast here, ascending — during a partition
        window (``group_of`` given) only those in partition ``group``,
        whose members are the only ones to receive them."""
        if group_of is None:
            return list(compress(range(len(self.present)), self.present))
        return [
            slot for slot, flag in enumerate(self.present)
            if flag and group_of[slot] == group
        ]


class _Delivery:
    """One beat's merged view of lanes + per-message traffic.

    ``group_of`` is the per-slot partition group during a partition
    window (``None`` otherwise: everybody shares group 0).  Per-message
    traffic comes in two shapes.  ``rows`` maps path -> the beat's
    crafted :class:`~repro.net.message.Row` records on it, in emission
    order (one ``payloads`` mapping may serve many senders).  ``extras``
    maps honest node id -> path -> ``{sender: payload}``: the receiver's
    *strays* (point-to-point crafted envelopes, then phantoms), each
    sender's first in the fast engine's ``(stage, seq)`` order, and only
    those no earlier row of the same sender already covers — so a
    stashed stray precedes every row copy of its sender, and what is
    stashed is all a first-wins inbox can show.

    Receivers of per-message traffic are *dirty*: their inbox differs
    from the lane.  Dirty receivers that were handed the same messages
    form one *inbox class* (:meth:`inbox_classes`) and share one exact
    merge (:meth:`merged_inbox`); an adversary whose every payload is
    fresh puts each receiver in a class of its own.  Programs read a
    beat through :meth:`receivers_by_inbox`: every distinct inbox once,
    with the slots that received it.
    """

    __slots__ = ("ids", "slot_of", "lanes", "lane_by_path", "extras",
                 "group_of", "rows", "_clean_cache", "_merged_cache")

    def __init__(self, ids, slot_of, lanes, extras, group_of, rows=None) -> None:
        self.ids = ids
        self.slot_of = slot_of
        self.lanes = lanes
        self.lane_by_path = {lane.path: lane for lane in lanes}
        self.extras = extras
        self.group_of = group_of
        self.rows = rows or {}
        self._clean_cache: dict = {}
        self._merged_cache: dict = {}

    def group_key(self, slot: int) -> int:
        return 0 if self.group_of is None else self.group_of[slot]

    def inbox_classes(self, path: str) -> dict[int, int]:
        """Dirty receiver slot -> its inbox class on ``path``.

        Two dirty receivers are in one class when they are in one
        partition group, every distinct row of the path hands them the
        same payload *object* (or neither anything), and their strays
        list the same senders with the same payload objects, in the
        same order — so their merged inboxes are the same dict, entry
        for entry.  Identity, not equality: ``1`` and ``True`` are equal
        but tally differently, so equal-but-distinct payloads land in
        different classes, which can only cost sharing.  A class is
        named by its first member's slot.
        """
        classes: dict[int, int] = {}
        if not self.extras:
            return classes
        representative: dict[tuple, int] = {}
        group_of = self.group_of
        slot_of = self.slot_of
        ids = self.ids
        distinct = {
            id(row.payloads): row.payloads for row in self.rows.get(path, ())
        }
        # handed[slot]: what each distinct row of the path hands the
        # receiver, by identity — read off one row (column) at a time.
        nothing = (id(_MISSING),) * len(distinct)
        handed = list(zip(*[
            [id(payloads.get(node_id, _MISSING)) for node_id in ids]
            for payloads in distinct.values()
        ])) or [nothing] * len(ids)
        for node_id, per_path in self.extras.items():
            slot = slot_of[node_id]
            key = (
                None if group_of is None else group_of[slot],
                handed[slot],
            )
            first = per_path.get(path)
            if first is not None:
                key += (tuple(first), tuple(map(id, first.values())))
            elif key[1] == nothing:
                continue  # clean: nothing but the lane
            classes[slot] = representative.setdefault(key, slot)
        return classes

    def merged_inbox(self, path: str, inbox_class: int) -> dict[int, Any]:
        """The one :meth:`merged_first_per_sender` of a whole inbox class
        (shared by its members: read-only)."""
        key = (path, inbox_class)
        merged = self._merged_cache.get(key)
        if merged is None:
            merged = self._merged_cache[key] = self.merged_first_per_sender(
                path, inbox_class
            )
        return merged

    def receivers_by_inbox(
        self, path: str, active: "list | None" = None
    ) -> "list[tuple[dict[int, Any], Sequence[int]]]":
        """The receiver slots (those flagged in ``active``, when given),
        partitioned by what they see on ``path``: one
        ``(first_payload_per_sender, slots)`` entry per distinct inbox —
        a clean partition group reads the lane, a dirty class its one
        exact merge — so a program evaluates a rule once per entry,
        however many receivers share it.  Shared dicts: read-only.
        """
        receivers: Sequence[int] = range(len(self.ids))
        if active is not None:
            receivers = list(compress(receivers, active))
        if not receivers:
            return []
        dirty = self.inbox_classes(path)
        group_of = self.group_of
        if not dirty and group_of is None:
            # Nobody was sent anything but the lane: one inbox for all.
            return [(self.clean_inbox(path, 0), receivers)]
        members: dict[tuple, list[int]] = {}
        for slot in receivers:
            key = (dirty.get(slot), 0 if group_of is None else group_of[slot])
            slots = members.get(key)
            if slots is None:
                members[key] = [slot]
            else:
                slots.append(slot)
        return [
            (
                self.clean_inbox(path, group) if inbox_class is None
                else self.merged_inbox(path, inbox_class),
                slots,
            )
            for (inbox_class, group), slots in members.items()
        ]

    def clean_inbox(self, path: str, group: int) -> dict[int, Any]:
        """What a clean group-``group`` receiver sees on ``path``: the
        lane, in ascending sender order (shared by the whole group)."""
        key = (path, group)
        inbox = self._clean_cache.get(key)
        if inbox is None:
            lane = self.lane_by_path.get(path)
            ids = self.ids
            if lane is None:
                inbox = {}
            elif self.group_of is None:
                present = lane.present
                inbox = dict(zip(
                    compress(ids, present), compress(lane.payloads, present)
                ))
            else:
                inbox = {
                    ids[slot]: lane.payloads[slot]
                    for slot in lane.sender_slots(self.group_of, group)
                }
            self._clean_cache[key] = inbox
        return inbox

    def merged_first_per_sender(self, path: str, slot: int) -> dict[int, Any]:
        """Exact ``first_payload_per_sender`` of a dirty receiver's inbox.

        Reproduces the reference router's delivery: lane traffic (a
        sender's sole broadcast) followed by the receiver's per-message
        traffic — its strays, then its copy of each row in emission
        order, first wins per sender — under the router's stable sender
        sort, collapsed first-wins per sender in ascending order.
        """
        node_id = self.ids[slot]
        first = dict(self.extras.get(node_id, {}).get(path, ()))
        for sender, _path, payloads in self.rows.get(path, ()):
            if sender not in first:
                payload = payloads.get(node_id, _MISSING)
                if payload is not _MISSING:
                    first[sender] = payload
        entries = list(self.clean_inbox(path, self.group_key(slot)).items())
        entries.extend(first.items())
        entries.sort(key=_SENDER_OF_ENTRY)
        collapsed: dict[int, Any] = {}
        for sender, payload in entries:
            if sender not in collapsed:
                collapsed[sender] = payload
        return collapsed


def _pick(row: list, slots: Sequence[int]) -> list:
    """``row``'s entries at ``slots`` — the row itself when the slots
    (distinct, ascending) are every slot."""
    return row if len(slots) == len(row) else [row[slot] for slot in slots]


def _fill(row: list, slots: Sequence[int], values) -> None:
    """``row[slot] = value`` pairwise — one slice assignment when the
    slots are every slot."""
    if len(slots) == len(row):
        row[:] = values
    else:
        for slot, value in zip(slots, values):
            row[slot] = value


class BulkProgram:
    """SoA mirror of one protocol's per-node state, across all nodes.

    Subclasses hold the rows and implement :meth:`load`, :meth:`send`,
    :meth:`update`, :meth:`flush_observables` and :meth:`flush_full`.
    Slots index the honest ids in ascending order.
    """

    def __init__(self, simulation: "Simulation") -> None:
        self.simulation = simulation
        self.ids: list[int] = sorted(simulation.nodes)
        self.slot_of = {nid: slot for slot, nid in enumerate(self.ids)}
        self.size = len(self.ids)
        self.roots = [simulation.nodes[nid].root for nid in self.ids]
        # Everything starts stale: rows are first loaded from the trees
        # (post-construction, post any initial scramble) at beat 0.
        self._stale: set[int] = set(range(self.size))

    def mark_stale(self, node_ids) -> None:
        """External writes (scramble) happened; reload before next beat."""
        slot_of = self.slot_of
        for node_id in node_ids:
            slot = slot_of.get(node_id)
            if slot is not None:
                self._stale.add(slot)

    def reload_stale(self) -> None:
        if self._stale:
            self.load(sorted(self._stale))
            self._stale.clear()

    # -- subclass hooks ----------------------------------------------------

    def load(self, slots: list[int]) -> None:
        """Mirror the given slots' component-tree state into the rows."""
        raise NotImplementedError

    def send(self, beat: int) -> list[Lane]:
        """Run the send phase; return lanes in per-node emission order."""
        raise NotImplementedError

    def update(self, beat: int, delivery: _Delivery) -> None:
        """Run the update phase against one beat's delivery."""
        raise NotImplementedError

    def flush_observables(self) -> None:
        """Write each root's clock observable back to its tree."""
        raise NotImplementedError

    def flush_full(self) -> None:
        """Materialize the full SoA state back onto the component trees."""
        raise NotImplementedError


# -- the ss-Byz clock-sync tower program -----------------------------------


class ClockSyncProgram(BulkProgram):
    """Vectorized ss-Byz-Clock-Sync tower (Figures 1-4, oracle coin).

    Rows, each holding what the component attribute would: ``fc`` and
    ``save`` (ints mod k), ``a_clock`` ({0..3, ⊥}), ``a1``/``a2``
    ({0, 1, ⊥}).  The previous beat's root inbox — the only cross-beat
    message state — is ``previous``: per slot, a reference to the dict
    the component would hold, one dict *object* per distinct inbox (a
    clean partition group; a class of receivers the adversary or a
    phantom storm treated alike; a slot reloaded after a scramble),
    shared read-only by the slots that received it.

    The oracle-coin pipelines carry *no* live state between beats: every
    beat the output slot re-resolves its environment outcome before the
    bit is read, and slot instances are overwritten before they are ever
    read, so mirroring the pipelines is exactly the per-beat outcome
    resolution done in :meth:`update`.
    """

    def __init__(self, simulation, k, share_coin, coin_a1, coin_a2,
                 coin_root) -> None:
        super().__init__(simulation)
        self.k = k
        self.share_coin = share_coin
        self.threshold = simulation.n - simulation.f
        base = simulation.root_path
        self.path_root = base
        self.path_a1 = f"{base}/A/A1"
        self.path_a2 = f"{base}/A/A2"
        # Coin keys: (environment path, p0, p1) per pipeline; the path's
        # slot index is the pipeline's *last* slot, the one that resolves.
        self.key_a1 = (f"{base}/A/A1/coin/slot{coin_a1[2]}",
                       coin_a1[0], coin_a1[1])
        self.key_a2 = (f"{base}/A/A2/coin/slot{coin_a2[2]}",
                       coin_a2[0], coin_a2[1])
        self.key_root = None if share_coin else (
            f"{base}/coin/slot{coin_root[2]}", coin_root[0], coin_root[1]
        )
        size = self.size
        self.fc: list = [0] * size
        self.save: list = [0] * size
        self.a_clock: list = [0] * size
        self.a1: list = [0] * size
        self.a2: list = [0] * size
        #: Start-of-beat phase (clock(A) captured before A's beat) and
        #: A2's activation gate, kept between the send and update halves.
        self.ph: list = [None] * size
        self.gate: list = [False] * size
        self.previous: list[dict[int, Any]] = [{}] * size
        #: (identity of a previous inbox, rule) -> the rule's answer.
        self._answers: dict = {}

    # -- tree mirroring ----------------------------------------------------

    def load(self, slots: list[int]) -> None:
        for slot in slots:
            root = self.roots[slot]
            self.fc[slot] = int(root.full_clock)
            self.save[slot] = int(root.save)
            self.ph[slot] = _in_domain(root._phase, (0, 1, 2, 3))
            self.gate[slot] = bool(root.a._run_a2)
            self.a_clock[slot] = _in_domain(root.a.clock, (0, 1, 2, 3))
            self.a1[slot] = _in_domain(root.a.a1.clock, (0, 1))
            self.a2[slot] = _in_domain(root.a.a2.clock, (0, 1))
            self.previous[slot] = dict(root._previous)

    def flush_observables(self) -> None:
        for root, clock in zip(self.roots, self.fc):
            root.full_clock = clock

    def flush_full(self) -> None:
        for slot, root in enumerate(self.roots):
            root.full_clock = self.fc[slot]
            root.save = self.save[slot]
            root._phase = self.ph[slot]
            root.a.clock = self.a_clock[slot]
            root.a.a1.clock = self.a1[slot]
            root.a.a2.clock = self.a2[slot]
            root.a._run_a2 = self.gate[slot]
            root._previous = dict(self.previous[slot])

    def _from_previous(self, previous: dict, rule: Callable, *args):
        """``rule(payloads, *args)`` over one previous root inbox: a
        Figure 4 block of :mod:`repro.core.clock_sync`, evaluated once
        per distinct inbox (``args`` are constants of the program).

        Keyed by the inbox dict's identity: ``previous`` keeps every
        dict alive, and is only written when ``_answers`` is empty — by
        a reload at the top of a beat, and at the end of ``update``,
        which drops the answers with it — so an identity cannot be
        reused while a key built from it is live.
        """
        key = (id(previous), rule)
        answer = self._answers.get(key, _MISSING)
        if answer is _MISSING:
            answer = self._answers[key] = rule(previous.values(), *args)
        return answer

    def _answers_at(self, slots: Sequence[int], rule: Callable, *args) -> list:
        """:meth:`_from_previous` for each of ``slots``, in order — one
        lookup for them all when they hold one inbox object."""
        inboxes = _pick(self.previous, slots)
        first = inboxes[0]
        if all(map(is_, inboxes, repeat(first))):
            return [self._from_previous(first, rule, *args)] * len(inboxes)
        return [self._from_previous(inbox, rule, *args) for inbox in inboxes]

    def _in_phase(self, phase: int) -> Sequence[int]:
        """The slots whose start-of-beat phase is ``phase``, ascending."""
        count = self.ph.count(phase)
        if count == self.size or not count:
            return range(count)
        return list(compress(range(self.size), map(eq, self.ph, repeat(phase))))

    # -- beat halves -------------------------------------------------------

    def send(self, beat: int) -> list[Lane]:
        size = self.size
        # Start-of-beat captures (Figure 4 line 3 footnote; Figure 3's
        # send-time gating decision), before any state advances.
        self.ph = ph = list(self.a_clock)
        self.gate = gate = list(map(eq, self.a1, repeat(1)))
        # A1 broadcasts every beat; A2 only when gated (emission order is
        # A1, A2, root — exactly the per-node order of the tree walk).
        # Lanes copy the rows: update() advances a row while receivers
        # still read the lane.
        lane_a1 = Lane(self.path_a1, [True] * size, list(self.a1))
        lane_a2 = Lane(self.path_a2, gate, list(self.a2))
        # Figure 4 line 2: the full clock ticks every beat.
        k = self.k
        self.fc = fc = [(clock + 1) % k for clock in self.fc]
        threshold = self.threshold
        present = [False] * size
        payloads: list = [None] * size
        # Blocks 3.a-3.c, one pass per phase present; phase 3 (and an
        # unconverged A) sends nothing at this layer.
        for phase in {0, 1, 2}.intersection(ph):
            slots = self._in_phase(phase)
            if phase == 0:
                kind, values = "fc", _pick(fc, slots)
            elif phase == 1:
                kind = "prop"
                values = self._answers_at(slots, phase1_proposal, threshold)
            else:
                pairs = self._answers_at(
                    slots, phase2_bit_and_save, threshold, k
                )
                _fill(self.save, slots, map(itemgetter(1), pairs))
                kind, values = "bit", map(itemgetter(0), pairs)
            _fill(payloads, slots, zip(repeat(kind), values))
            _fill(present, slots, repeat(True, len(slots)))
        return [lane_a1, lane_a2, Lane(self.path_root, present, payloads)]

    def _coin_order(self) -> list[tuple[str, float, float]]:
        """Coin keys in the reference's first-resolution order.

        Each node's update resolves its A1 pipeline, then (when gated)
        its A2 pipeline, then the root pipeline; nodes run in ascending
        id order.  Outcomes are memoized per key, so only the *first*
        resolution of each key matters — and only through an
        order-sensitive divergence chooser — but we reproduce that order
        exactly rather than assume choosers are pure.
        """
        expected = 1 + (0 if self.share_coin else 1)
        if any(self.gate):
            expected += 1
        order: list[tuple[str, float, float]] = []
        seen: set[str] = set()
        for slot in range(self.size):
            candidates = [self.key_a1]
            if self.gate[slot]:
                candidates.append(self.key_a2)
            if not self.share_coin:
                candidates.append(self.key_root)
            for key in candidates:
                if key[0] not in seen:
                    seen.add(key[0])
                    order.append(key)
            if len(order) == expected:
                break
        return order

    def _step_two_clock(self, row, delivery, path, rand, active) -> None:
        """One 2-clock's update (Figure 2 lines 3-6), written into its
        ``row`` for the ``active`` slots (``None``: all of them): one
        evaluation per distinct inbox and rand bit."""
        threshold = self.threshold
        for inbox, slots in delivery.receivers_by_inbox(path, active):
            bits = _pick(rand, slots)
            decisions = {
                bit: two_clock_step(inbox.values(), bit, threshold)
                for bit in set(bits)
            }
            _fill(row, slots, map(decisions.__getitem__, bits))

    def update(self, beat: int, delivery: _Delivery) -> None:
        ids = self.ids
        env = self.simulation.env
        rand = {}
        for path, p0, p1 in self._coin_order():
            bits = env.coin_outcome(path, beat, p0, p1).bits
            rand[path] = list(map(bits.__getitem__, ids))
        rand_a1 = rand[self.key_a1[0]]
        rand_root = rand[(self.key_a1 if self.share_coin else self.key_root)[0]]
        # A's update: A1 for everyone, A2 for the gated slots, composite.
        self._step_two_clock(self.a1, delivery, self.path_a1, rand_a1, None)
        self._step_two_clock(
            self.a2, delivery, self.path_a2, rand.get(self.key_a2[0]), self.gate
        )
        self.a_clock = list(map(_FOUR_CLOCK.__getitem__, zip(self.a1, self.a2)))
        # Figure 4 block 3.d, for the slots in phase 3: one rule per
        # distinct (agreed bit, rand, save).
        slots = self._in_phase(3)
        if slots:
            keys = list(zip(
                self._answers_at(slots, phase3_agreed_bit, self.threshold),
                _pick(rand_root, slots),
                _pick(self.save, slots),
            ))
            clocks = {key: phase3_clock(*key, self.k) for key in set(keys)}
            _fill(self.fc, slots, map(clocks.__getitem__, keys))
        # This beat's root inbox becomes the next beat's ``_previous``.
        for inbox, slots in delivery.receivers_by_inbox(self.path_root):
            _fill(self.previous, slots, repeat(inbox, len(slots)))
        self._answers = {}


# -- the Dolev-Welch baseline program --------------------------------------


class DolevWelchProgram(BulkProgram):
    """Vectorized Dolev-Welch local-coin clock (one row: the clock).

    The only randomness is the per-node fallback draw, taken from each
    node's *own* RNG stream only on a threshold miss, as the reference
    does — the streams are independent, so the order the slots are
    visited in is immaterial.
    """

    def __init__(self, simulation, k) -> None:
        super().__init__(simulation)
        self.k = k
        self.threshold = simulation.n - simulation.f
        self.path_root = simulation.root_path
        self.clock: list = [0] * self.size

    def load(self, slots: list[int]) -> None:
        nodes = self.simulation.nodes
        for slot in slots:
            self.clock[slot] = int(nodes[self.ids[slot]].root.clock)

    def send(self, beat: int) -> list[Lane]:
        return [Lane(self.path_root, [True] * self.size, list(self.clock))]

    def update(self, beat: int, delivery: _Delivery) -> None:
        nodes = self.simulation.nodes
        ids = self.ids
        clock = self.clock
        k = self.k
        for inbox, slots in delivery.receivers_by_inbox(self.path_root):
            adopted = adopted_clock(inbox.values(), self.threshold, k)
            for slot in slots:
                if adopted is None:
                    clock[slot] = nodes[ids[slot]].rng.randrange(k)
                else:
                    clock[slot] = adopted

    def flush_observables(self) -> None:
        nodes = self.simulation.nodes
        clock = self.clock
        for slot, node_id in enumerate(self.ids):
            nodes[node_id].root.clock = clock[slot]

    flush_full = flush_observables


# -- program registry ------------------------------------------------------

#: Root component type -> builder(simulation) -> BulkProgram.  Builders
#: raise :class:`UnsupportedBulkLayout` when the concrete tree cannot be
#: mapped exactly (e.g. a message-passing coin inside the tower).
_PROGRAM_BUILDERS: dict[type, Callable] = {}


def register_bulk_program(root_type: type, builder: Callable) -> None:
    """Declare that ``root_type`` trees can run as a bulk program."""
    _PROGRAM_BUILDERS[root_type] = builder


def has_bulk_program(root_type: type) -> bool:
    """Whether a bulk program builder is registered for ``root_type``."""
    return root_type in _PROGRAM_BUILDERS


def build_bulk_program(simulation: "Simulation") -> "BulkProgram | None":
    """The simulation's bulk program, or ``None`` to fall back per-node."""
    if not simulation.nodes:
        return None
    first = next(iter(simulation.nodes.values())).root
    builder = _PROGRAM_BUILDERS.get(type(first))
    if builder is None:
        return None
    try:
        return builder(simulation)
    except UnsupportedBulkLayout:
        return None


def _oracle_params(pipeline) -> tuple[float, float, int]:
    """(p0, p1, rounds) of an *exact* oracle-coin pipeline, or raise."""
    from repro.coin.oracle import OracleCoin

    algorithm = pipeline.algorithm
    if type(algorithm) is not OracleCoin:
        raise UnsupportedBulkLayout(
            f"coin {getattr(algorithm, 'name', algorithm)!r} sends "
            "messages or overrides oracle semantics"
        )
    return (algorithm.p0, algorithm.p1, algorithm.rounds)


def _clock_sync_signature(root):
    coin_root = None if root.share_coin else _oracle_params(root._pipeline)
    return (
        root.k,
        root.share_coin,
        _oracle_params(root.a.a1.pipeline),
        _oracle_params(root.a.a2.pipeline),
        coin_root,
    )


def _build_clock_sync(simulation: "Simulation") -> ClockSyncProgram:
    roots = [node.root for node in simulation.nodes.values()]
    first = roots[0]
    signature = _clock_sync_signature(first)
    for root in roots[1:]:
        if (
            type(root) is not type(first)
            or _clock_sync_signature(root) != signature
        ):
            raise UnsupportedBulkLayout("heterogeneous clock-sync trees")
    k, share_coin, coin_a1, coin_a2, coin_root = signature
    return ClockSyncProgram(
        simulation, k, share_coin, coin_a1, coin_a2, coin_root
    )


def _build_dolev_welch(simulation: "Simulation") -> DolevWelchProgram:
    roots = [node.root for node in simulation.nodes.values()]
    first = roots[0]
    for root in roots[1:]:
        if type(root) is not type(first) or root.k != first.k:
            raise UnsupportedBulkLayout("heterogeneous Dolev-Welch trees")
    return DolevWelchProgram(simulation, first.k)


register_bulk_program(SSByzClockSync, _build_clock_sync)
register_bulk_program(DolevWelchClock, _build_dolev_welch)


# -- the engine ------------------------------------------------------------


class BulkEngine(FastEngine):
    """Structure-of-arrays batch engine (see the module docstring).

    Vectorized when (a) the protocol registered a bulk program for its
    root component type, (b) the link model's per-beat effect is a pure
    function of the schedule (perfect links, partition links), and
    (c) the simulation has no churn schedule — membership changes make
    the active set time-varying, which the batch kernels do not model;
    in every other configuration it executes as a :class:`FastEngine`,
    so selecting ``engine="bulk"`` is always safe and always
    bit-identical.
    """

    name = "bulk"
    description = (
        "structure-of-arrays batch engine: one shared tally per "
        "broadcast group, vectorized for supported protocols, "
        "fast-engine fallback otherwise"
    )

    def __init__(self) -> None:
        super().__init__()
        self._program: BulkProgram | None = None
        self._vector_mode = False

    def bind(self, simulation: "Simulation") -> None:
        super().bind(simulation)
        self._program = build_bulk_program(simulation)
        link = simulation.link
        self._vector_mode = (
            self._program is not None
            and (link.is_perfect or type(link) is PartitionLinks)
            and simulation.churn is None
        )

    @property
    def vectorized(self) -> bool:
        """Whether this run executes on the vectorized path."""
        return self._vector_mode

    def notify_state_written(self, node_ids) -> None:
        """External state writes (``Simulation.scramble``) happened."""
        if self._program is not None:
            self._program.mark_stale(node_ids)

    def sync_trees(self) -> None:
        """Materialize the SoA rows back onto the component trees
        (rows a scramble made stale are reloaded first, so the trees'
        newer state is never overwritten by the rows' older one)."""
        if self._vector_mode:
            self._program.reload_stale()
            self._program.flush_full()

    def execute_beat(self, simulation: "Simulation", beat: int) -> None:
        if not self._vector_mode:
            super().execute_beat(simulation, beat)
            return
        program = self._program
        program.reload_stale()
        lanes = program.send(beat)
        stats = self.stats
        n = self._n
        nodes = simulation.nodes
        ids = program.ids
        # -- traffic accounting: one O(1) record per lane ------------------
        for lane in lanes:
            senders = lane.sender_count()
            if senders:
                stats.record_fanout(lane.path, beat, n * senders, honest=True)
        link = self._link
        partitioned = (not link.is_perfect) and link.partitioned_at(beat)
        faulty = self._faulty
        #: This beat's per-message traffic, in ``(stage, seq)`` order:
        #: the crafted records (rows and envelopes), then the phantoms.
        arrivals: "list[Row | Envelope]" = []

        # -- adversary phase ----------------------------------------------
        if simulation.adversary is not None and faulty:
            # The legal view: every copy addressed to a faulty node, in
            # the engines' canonical order (sender ascending, then the
            # node's emission order, then faulty receiver ascending).
            visible = FanoutView(beat, faulty)
            for slot, sender in enumerate(ids):
                for lane in lanes:
                    if lane.present[slot]:
                        visible.add_broadcast(
                            sender, lane.path, lane.payloads[slot]
                        )
            crafted = craft_byzantine(simulation.world, beat, visible)
            stats.record_block(crafted, honest=False)
            if partitioned:
                # A partition rules copy by copy: this (rare) beat's
                # rows are expanded and what survives arrives as strays.
                for seq, envelope in enumerate(crafted):
                    if (
                        envelope.receiver in nodes
                        and link.classify(
                            envelope.sender, envelope.receiver, beat, seq
                        ) is None
                    ):
                        stats.record_dropped(envelope)
                    else:
                        arrivals.append(envelope)
            else:
                arrivals = crafted.records

        # -- phantom delivery (bypasses the link layer) --------------------
        if self._pending_phantoms:
            phantoms, self._pending_phantoms = self._pending_phantoms, []
            stats.record_block(phantoms, honest=False)
            arrivals = arrivals + phantoms

        # -- stash ----------------------------------------------------------
        # A row is kept as it came, rows[path] = [row, ...] in emission
        # order; a stray's receiver keeps its first payload per sender,
        # extras[receiver][path] = {sender: payload}, unless an earlier
        # row of that sender already covers it.  Anything addressed
        # elsewhere (a faulty node, no node at all) is a dead letter.
        extras: dict[int, dict[str, dict[int, Any]]] = {}
        rows: dict[str, list[Row]] = {}
        if arrivals:
            extras = {node_id: {} for node_id in ids}
            for record in arrivals:
                if type(record) is Row:
                    rows.setdefault(record.path, []).append(record)
                    continue
                sender, receiver, path, payload, _beat = record
                per_path = extras.get(receiver)
                if per_path is None:
                    continue
                first = per_path.get(path)
                if first is not None and sender in first:
                    continue
                if any(
                    row.sender == sender and receiver in row.payloads
                    for row in rows.get(path, ())
                ):
                    continue
                if first is None:
                    per_path[path] = {sender: payload}
                else:
                    first[sender] = payload

        # -- partition structure + whole-lane drop accounting --------------
        group_of = None
        if partitioned:
            group_of = [link.group_of(node_id) for node_id in ids]
            group_sizes = Counter(group_of)
            honest_total = len(ids)
            lost = 0
            for lane in lanes:
                for slot in lane.sender_slots():
                    lost += honest_total - group_sizes[group_of[slot]]
            if lost:
                stats.record_dropped_block(beat, lost)

        # -- update phase --------------------------------------------------
        program.update(
            beat,
            _Delivery(ids, program.slot_of, lanes, extras, group_of, rows),
        )
        program.flush_observables()


ENGINES[BulkEngine.name] = BulkEngine
