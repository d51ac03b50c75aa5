"""The in-process message plane alone (:mod:`repro.net.plane`): what
``BeatTraffic`` hands each receiver is what a per-receiver router would,
and receivers handed the same objects read the same object."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import BROADCAST, Envelope, Inbox, Row
from repro.net.plane import (
    STAGE_DELAYED,
    STAGE_PHANTOM,
    STAGE_REGULAR,
    BeatTraffic,
)

N = 6
RECEIVERS = frozenset({0, 1, 2, 3})  # 4 and 5 are faulty: dead letters
PATHS = ("p", "q")
#: Twins under ``==`` and ``hash``, three payloads under ``repr``.
PAYLOADS = (1, True, 1.0, 0, ("fc", 1), ("fc", True), None)

_payload = st.sampled_from(PAYLOADS)
_path = st.sampled_from(PATHS)
_emission = st.tuples(_path, _payload, st.none() | st.integers(0, N))
_mapping = st.dictionaries(st.integers(0, N - 1), _payload, max_size=N)
_stray = st.tuples(st.integers(0, N - 1), st.integers(0, N), _path, _payload)


def _routed(honest, records, delayed, phantoms):
    """The oracle: every copy materialized in the reference router's
    insertion order, each inbox stably sorted by sender."""
    copies = [Envelope(s, r, path, payload, 0) for s, r, path, payload in delayed]
    for sender, emissions in sorted(honest.items()):
        for path, payload, receiver in emissions:
            targets = range(N) if receiver is None else [receiver]
            copies += [Envelope(sender, r, path, payload, 0) for r in targets]
    for record in records:
        if type(record) is Row:
            copies += [
                Envelope(record.sender, r, record.path, payload, 0)
                for r, payload in record.payloads.items()
            ]
        else:
            copies.append(record)
    copies += [Envelope(s, r, path, payload, 0) for s, r, path, payload in phantoms]
    routed = {receiver: {} for receiver in RECEIVERS}
    for copy in sorted(copies, key=lambda e: e.sender):
        if copy.receiver in RECEIVERS:
            routed[copy.receiver].setdefault(copy.path, []).append(
                (copy.sender, repr(copy.payload))
            )
    return routed


@settings(max_examples=150)
@given(
    honest=st.dictionaries(
        st.integers(0, 3), st.lists(_emission, max_size=4), max_size=4
    ),
    mappings=st.lists(_mapping, min_size=1, max_size=3),
    rows=st.lists(
        st.tuples(st.sampled_from([4, 5]), _path, st.integers(0, 2)) | _stray,
        max_size=6,
    ),
    delayed=st.lists(_stray, max_size=3),
    phantoms=st.lists(_stray, max_size=3),
)
def test_every_receiver_is_handed_what_a_router_would(
    honest, mappings, rows, delayed, phantoms
):
    records = [
        Row(r[0], r[1], mappings[r[2] % len(mappings)]) if len(r) == 3
        else Envelope(4 + r[0] % 2, r[1], r[2], r[3], 0)
        for r in rows
    ]
    records = [r for r in records if type(r) is not Row or r.payloads]
    traffic = BeatTraffic(0)
    for sender, emissions in sorted(honest.items()):  # ascending id order
        for order, (path, payload, receiver) in enumerate(emissions):
            if receiver is None:
                traffic.broadcast(sender, order, path, payload)
            elif receiver in RECEIVERS:
                traffic.stray(
                    receiver, (sender, STAGE_REGULAR, order),
                    Envelope(sender, receiver, path, payload, 0),
                )
    traffic.crafted(records, RECEIVERS)
    for stage, strays in ((STAGE_DELAYED, delayed), (STAGE_PHANTOM, phantoms)):
        for order, (sender, receiver, path, payload) in enumerate(strays):
            if receiver in RECEIVERS:
                traffic.stray(
                    receiver, (sender, stage, order),
                    Envelope(sender, receiver, path, payload, 0),
                )
    handed = {receiver: traffic.inboxes(receiver) for receiver in RECEIVERS}
    assert {
        receiver: {
            path: [(e.sender, repr(e.payload)) for e in inbox]
            for path, inbox in inboxes.items() if inbox
        }
        for receiver, inboxes in handed.items()
    } == _routed(honest, records, delayed, phantoms)
    # One object per class, per path: whoever holds equal inboxes and no
    # stray on the path holds the same inbox — and only they.
    private = {
        (receiver, e.path)
        for receiver, path_strays in traffic.strays.items()
        for entries in path_strays.values() for _key, e in entries
    }
    for path in PATHS:
        shared = [r for r in sorted(RECEIVERS) if (r, path) not in private]
        for a in shared:
            for b in shared:
                same = handed[a].get(path) is handed[b].get(path)
                alike = all(
                    row.payloads.get(a, handed) is row.payloads.get(b, handed)
                    for row in records
                    if type(row) is Row and row.path == path
                )
                assert same == alike


def _lane(traffic, *senders, path="p"):
    for sender in senders:
        traffic.broadcast(sender, 0, path, ("fc", sender))


def test_a_receiver_with_nothing_of_its_own_reads_the_lanes_themselves():
    traffic = BeatTraffic(3)
    _lane(traffic, 0, 1, 2)
    traffic.stray(1, (0, STAGE_REGULAR, 1), Envelope(0, 1, "q", "x", 3))
    assert traffic.inboxes(0) is traffic.lanes is traffic.inboxes(2)
    own = traffic.inboxes(1)
    assert own is not traffic.lanes and own["p"] is traffic.lanes["p"]
    assert [e.payload for e in own["q"]] == ["x"]
    assert traffic.lanes["p"][0] == Envelope(0, BROADCAST, "p", ("fc", 0), 3)


def test_classes_are_per_path_and_by_identity():
    """A receiver singled out on one path still shares every other, and
    equal payloads that are not the same object are two stories."""
    one, other = ("v", 1), ("v", True)
    assert one == other
    traffic = BeatTraffic(0)
    _lane(traffic, 0, 1, path="p")
    _lane(traffic, 0, 1, path="q")
    traffic.crafted(
        [
            Row(5, "p", {0: one, 1: one, 2: other, 3: one}),
            Row(5, "q", {0: one, 1: one, 2: one}),
        ],
        RECEIVERS,
    )
    handed = [traffic.inboxes(receiver) for receiver in range(4)]
    assert handed[0]["p"] is handed[1]["p"] is handed[3]["p"]
    assert handed[2]["p"] is not handed[0]["p"]
    assert repr(handed[2]["p"][-1].payload) == "('v', True)"
    assert handed[0]["q"] is handed[1]["q"] is handed[2]["q"]
    assert handed[3]["q"] is not handed[0]["q"]  # the row does not name 3
    assert [e.sender for e in handed[3]["q"]] == [0, 1]
    assert all(type(inbox) is Inbox for inbox in handed[0].values())


def test_one_sender_sorts_delayed_then_regular_then_phantom():
    traffic = BeatTraffic(7)
    _lane(traffic, 0, 1)
    for stage, payload in (
        (STAGE_PHANTOM, "phantom"), (STAGE_DELAYED, "older"),
    ):
        traffic.stray(2, (0, stage, 0), Envelope(0, 2, "p", payload, 6))
    assert [(e.sender, e.payload) for e in traffic.inboxes(2)["p"]] == [
        (0, "older"), (0, ("fc", 0)), (0, "phantom"), (1, ("fc", 1)),
    ]
