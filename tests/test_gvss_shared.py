"""The GVSS coin's rounds against their definition.

Two of the coin's four rounds are broadcasts: every receiver of a vote or
a zero-share list is handed the same payload, validates it the same way
and — when it also holds the same grades — decodes the same secrets.  The
definition of what each node must end up holding is kept here: the round
handlers :class:`~repro.coin.gvss.GradedSharingState` ran while every
receiver read every payload for itself, and the ``broadcast`` that was a
loop of ``n`` sends, frozen as a test-only reference.  Scripted rounds go
through both — through the :class:`~tests.conftest.CoinHarness` and
through whole ``clock-sync`` towers on the ``reference`` and ``fast``
engines: honest traffic plus Byzantine payloads that are ``1`` / ``True``
/ ``1.0`` twins of an honest payload (equal, hashing alike, and read
differently), duplicate and out-of-range dealers, malformed entries,
wrong kind tags, votes and share lists equivocated per receiver, one
payload object sent by two faulty senders, and two coins of different
``n`` alive in one process handing each other's payload objects around.

After every round, per node: ``rows``, ``cross_points``, ``votes``,
``grades``, ``recovered`` and the output bit, compared as ``repr`` — which
is what tells ``1`` from ``True``.  By-hand cases name each validator
check and each thing a shared reading may (and may not) depend on, and
``TestCostFollowsDistinctPayloads`` counts the work: n validations and n
decodes per round, one record per broadcast, bounded tables.

(When hypothesis is not installed, ``tests/conftest.py`` skips
collecting this module entirely.)
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.coin import gvss, reedsolomon
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.field import PrimeField
from repro.coin.gvss import GradedSharingState
from repro.coin.interfaces import CoinInstance
from repro.coin.polynomial import evaluate, evaluate_many
from repro.coin.reedsolomon import decode_best_effort
from repro.coin.shamir import SymmetricBivariate, node_point
from repro.core.clock_sync import SSByzClockSync
from repro.core.pipeline import CoinFlipPipeline
from repro.net.component import Component
from repro.net.message import FastOutbox
from repro.net.simulator import Simulation

from tests.conftest import CoinHarness

GRADE_HIGH, GRADE_LOW, GRADE_NONE = 2, 1, 0


# -- the frozen parent ---------------------------------------------------------


class ParentSharingState:
    """``GradedSharingState`` as it was while every receiver validated
    every payload and decoded every column for itself, frozen."""

    def __init__(self, n: int, f: int, field: PrimeField) -> None:
        self.n = n
        self.f = f
        self.field = field
        self.my_secret = 0
        self.rows: dict = {}
        self.cross_points: dict = {}
        self.votes: dict = {}
        self.grades: dict = {}
        self.recovered: dict = {}

    def _node_points(self):
        return tuple(map(node_point, range(self.n)))

    def send_share(self, ctx) -> None:
        self.my_secret = ctx.rng.randrange(2)
        dealing = SymmetricBivariate.random(
            self.field, self.my_secret, self.f, ctx.rng
        )
        for receiver, row in enumerate(dealing.rows(range(self.n))):
            ctx.send(receiver, ("row", row))

    def update_share(self, ctx) -> None:
        self.rows = {}
        for sender, payload in ctx.first_per_sender().items():
            row = self._validate_row(payload)
            if row is not None:
                self.rows[sender] = row

    def _validate_row(self, payload: Any):
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None
        kind, row = payload
        if kind != "row" or not isinstance(row, tuple):
            return None
        if len(row) > self.f + 1:
            return None
        if not all(self.field.contains(c) for c in row):
            return None
        return row

    def send_exchange(self, ctx) -> None:
        xs = self._node_points()
        dealers = sorted(self.rows)
        values = [evaluate_many(self.field, self.rows[d], xs) for d in dealers]
        for receiver in range(self.n):
            points = tuple((d, row[receiver]) for d, row in zip(dealers, values))
            ctx.send(receiver, ("xpt", points))

    def update_exchange(self, ctx) -> None:
        self.cross_points = {}
        for sender, payload in ctx.first_per_sender().items():
            parsed = self._validate_cross_points(payload)
            if parsed is not None:
                self.cross_points[sender] = parsed

    def _validate_cross_points(self, payload: Any):
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None
        kind, points = payload
        if kind != "xpt" or not isinstance(points, tuple):
            return None
        parsed: dict = {}
        for entry in points:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return None
            dealer, value = entry
            if not (isinstance(dealer, int) and self.field.contains(value)):
                return None
            if 0 <= dealer < self.n and dealer not in parsed:
                parsed[dealer] = value
        return parsed

    def send_vote(self, ctx) -> None:
        ok: list = []
        xs = self._node_points()
        for dealer, row in sorted(self.rows.items()):
            matches = sum(
                self.cross_points.get(peer, {}).get(dealer) == expected
                for peer, expected in enumerate(evaluate_many(self.field, row, xs))
            )
            if matches >= self.n - self.f:
                ok.append(dealer)
        ctx.broadcast(("vote", tuple(ok)))

    def update_vote(self, ctx) -> None:
        self.votes = {}
        for sender, payload in ctx.first_per_sender().items():
            parsed = self._validate_vote(payload)
            if parsed is not None:
                self.votes[sender] = parsed

    def _validate_vote(self, payload: Any):
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None
        kind, dealers = payload
        if kind != "vote" or not isinstance(dealers, tuple):
            return None
        if not all(isinstance(d, int) for d in dealers):
            return None
        return frozenset(d for d in dealers if 0 <= d < self.n)

    def send_recover(self, ctx) -> None:
        self.grades = self._compute_grades()
        shares = tuple(
            (dealer, evaluate(self.field, row, 0))
            for dealer, row in sorted(self.rows.items())
        )
        ctx.broadcast(("rshare", shares))

    def _compute_grades(self) -> dict:
        grades: dict = {}
        for dealer in range(self.n):
            ok_count = sum(1 for voted in self.votes.values() if dealer in voted)
            if ok_count >= self.n - self.f:
                grades[dealer] = GRADE_HIGH
            elif ok_count >= self.n - 2 * self.f:
                grades[dealer] = GRADE_LOW
            else:
                grades[dealer] = GRADE_NONE
        return grades

    def update_recover(self, ctx) -> None:
        zero_shares: dict = {d: {} for d in range(self.n)}
        for sender, payload in ctx.first_per_sender().items():
            parsed = self._validate_recover(payload)
            if parsed is None:
                continue
            for dealer, value in parsed.items():
                zero_shares[dealer][sender] = value
        self.recovered = {}
        for dealer, grade in self.grades.items():
            if grade == GRADE_NONE:
                continue
            points = [
                (node_point(sender), value)
                for sender, value in sorted(zero_shares[dealer].items())
            ]
            self.recovered[dealer] = decode_best_effort(
                self.field, points, degree=self.f, max_errors=self.f, fallback=0
            )

    def _validate_recover(self, payload: Any):
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None
        kind, shares = payload
        if kind != "rshare" or not isinstance(shares, tuple):
            return None
        parsed: dict = {}
        for entry in shares:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return None
            dealer, value = entry
            if not (isinstance(dealer, int) and self.field.contains(value)):
                return None
            if 0 <= dealer < self.n and dealer not in parsed:
                parsed[dealer] = value
        return parsed

    def parity_output(self) -> int:
        bit = 0
        for dealer, grade in sorted(self.grades.items()):
            if grade >= GRADE_LOW:
                bit ^= self.recovered.get(dealer, 0) & 1
        return bit

    _HANDLERS = {
        1: (send_share, update_share),
        2: (send_exchange, update_exchange),
        3: (send_vote, update_vote),
        4: (send_recover, update_recover),
    }

    def run_round(self, round_index: int, ctx, sending: bool) -> None:
        send_handler, update_handler = self._HANDLERS[round_index]
        (send_handler if sending else update_handler)(self, ctx)

    def scramble(self, rng: random.Random) -> None:
        modulus = self.field.modulus
        self.my_secret = rng.randrange(2)
        self.rows = {
            dealer: tuple(rng.randrange(modulus) for _ in range(self.f + 1))
            for dealer in range(self.n)
            if rng.random() < 0.5
        }
        self.cross_points = {
            sender: {
                dealer: rng.randrange(modulus)
                for dealer in range(self.n)
                if rng.random() < 0.5
            }
            for sender in range(self.n)
            if rng.random() < 0.5
        }
        self.votes = {
            sender: frozenset(
                dealer for dealer in range(self.n) if rng.random() < 0.5
            )
            for sender in range(self.n)
            if rng.random() < 0.5
        }
        self.grades = {
            dealer: rng.choice((GRADE_NONE, GRADE_LOW, GRADE_HIGH))
            for dealer in range(self.n)
        }
        self.recovered = {
            dealer: rng.randrange(modulus)
            for dealer in range(self.n)
            if rng.random() < 0.5
        }


class LoopingBroadcast:
    """An instance context whose ``broadcast`` is the parent's: a loop of
    ``n`` point-to-point sends of the one payload object."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx

    def __getattr__(self, name: str):
        return getattr(self._ctx, name)

    def broadcast(self, payload) -> None:
        for receiver in range(self._ctx.n):
            self._ctx.send(receiver, payload)


class ParentInstance(CoinInstance):
    """``FeldmanMicaliInstance`` over the frozen state and broadcast."""

    def __init__(self, algorithm: FeldmanMicaliCoin) -> None:
        self.algorithm = algorithm
        self.state = ParentSharingState(algorithm.n, algorithm.f, algorithm.field)
        self._output = 0

    def send_round(self, round_index: int, ctx) -> None:
        self.state.run_round(round_index, LoopingBroadcast(ctx), sending=True)

    def update_round(self, round_index: int, ctx) -> None:
        self.state.run_round(round_index, ctx, sending=False)
        if round_index == self.algorithm.rounds:
            self._output = self.state.parity_output()

    def output(self) -> int:
        return self._output

    def scramble(self, rng: random.Random) -> None:
        self.state.scramble(rng)
        self._output = rng.randrange(2)


class ParentCoin(FeldmanMicaliCoin):
    def new_instance(self) -> ParentInstance:
        return ParentInstance(self)


def _snapshot(instance) -> str:
    """Everything a node holds, as text: ``repr`` tells ``1`` from
    ``True`` where ``==`` does not."""
    state = instance.state
    return repr((
        state.rows, state.cross_points, state.votes, state.grades,
        state.recovered, instance.output(),
    ))


# -- the scripts ---------------------------------------------------------------

#: Entries no honest body holds.  Each is malformed, filtered or accepted
#: depending on the round it lands in; ``N`` and ``P`` stand for the
#: coin's ``n`` and field modulus, the first values out of range.
_JUNK = (
    "N", -1, 10**9, True, 1.0, None, "x", (), (0,), (0, 1, 2),
    ("N", 0), (-1, 0), (0, "P"), (0, -1), ("x", 0), (None, 0), (0, None),
    (1.0, 0), (0, 1.0), (True, 0), (0, True), (1, 1), (0, 0),
)
_OPS = (
    "same", "copy", "twin-true", "twin-float", "append", "prepend",
    "duplicates", "lie", "kind", "shape", "empty", "foreign", "silent",
)
_KINDS = ("row", "xpt", "vote", "rshare", "fc", 3)
_SILENT = object()


def _twin(value, replacement):
    """``value`` with every ``1`` in it — a dealer, a share, a
    coefficient — replaced by an equal that is not an ``int`` ``1``."""
    if isinstance(value, tuple):
        return tuple(_twin(item, replacement) for item in value)
    return replacement if type(value) is int and value == 1 else value


def _junk(index: int, n: int, modulus: int):
    def resolve(item):
        if isinstance(item, tuple):
            return tuple(resolve(each) for each in item)
        return {"N": n, "P": modulus}.get(item, item) if isinstance(item, str) else item

    return resolve(_JUNK[index % len(_JUNK)])


def _mutate(op: str, arg: int, source, foreign, n: int, modulus: int):
    """One crafted payload from an honest one (``source``)."""
    if op == "silent":
        return _SILENT
    if op == "foreign":
        return foreign[arg % len(foreign)] if foreign else source
    if op == "same" or not (isinstance(source, tuple) and len(source) == 2):
        return source
    kind, body = source
    if op == "copy":
        return (kind, tuple(list(body)))
    if op == "twin-true":
        return (kind, _twin(body, True))
    if op == "twin-float":
        return (kind, _twin(body, 1.0))
    if op == "append":
        return (kind, body + (_junk(arg, n, modulus),))
    if op == "prepend":
        return (kind, (_junk(arg, n, modulus),) + body)
    rng = random.Random(arg)
    if op == "duplicates":
        lies = tuple(
            (item[0], rng.randrange(modulus))
            if isinstance(item, tuple) else rng.randrange(n)
            for item in body
        )
        return (kind, lies + body if arg % 2 else body + lies)
    if op == "lie":
        return (kind, tuple(
            (item[0], rng.randrange(modulus))
            if isinstance(item, tuple) else rng.randrange(modulus)
            for item in body
        ))
    if op == "kind":
        return (_KINDS[arg % len(_KINDS)], body)
    if op == "shape":
        return (
            kind, (kind,), (kind, body, body), (body, kind), (kind, None),
            (kind, frozenset(body)), None, body,
        )[arg % 8]
    assert op == "empty"
    return (kind, ())


class Script:
    """A drawn list of ``(source, op, arg, op, arg, mask)`` entries, read
    cyclically: what each faulty sender tells whom in each round.

    A crafted payload is built once per ``(source sender, op, arg)`` and
    round, so receivers on the same side of a mask — and two faulty
    senders drawing the same entry — hand out the *same object*.
    """

    def __init__(self, entries, n: int, modulus: int) -> None:
        self.entries = entries
        self.n = n
        self.modulus = modulus
        #: Payload objects of another coin, offered to the ``foreign`` op.
        self.foreign: list = []

    def craft(self, round_key: int, faulty, seen: dict) -> dict:
        """``{faulty sender: {receiver: payload}}`` for one round of one
        instance, given ``seen``: honest sender -> visible payload."""
        if not seen:
            return {}
        made: dict = {}
        honest = sorted(seen)
        out: dict = {}
        for sender in sorted(faulty):
            entry = self.entries[(round_key * 5 + sender) % len(self.entries)]
            source, op_a, arg_a, op_b, arg_b, mask = entry
            source = honest[source % len(honest)]
            row = {}
            for receiver in range(self.n):
                op, arg = (op_a, arg_a) if mask >> receiver & 1 else (op_b, arg_b)
                key = (source, op, arg)
                if key not in made:
                    made[key] = _mutate(
                        _OPS[op], arg, seen[source], self.foreign,
                        self.n, self.modulus,
                    )
                if made[key] is not _SILENT:
                    row[receiver] = made[key]
            out[sender] = row
        return out


_ENTRY = st.tuples(
    st.integers(0, 6),
    st.integers(0, len(_OPS) - 1), st.integers(0, 63),
    st.integers(0, len(_OPS) - 1), st.integers(0, 63),
    st.sampled_from([0, 0b1111111, 0b0101010, 0b0000111, 0b1000001, 0b0010100]),
)
_ENTRIES = st.lists(_ENTRY, min_size=1, max_size=8)
_WHERE = st.sampled_from(["low", "high", "split"])


def _faulty(n: int, f: int, where: str) -> frozenset:
    """The faulty ids: *before* every honest sender in delivery order,
    after them all, or both."""
    if where == "low":
        return frozenset(range(f))
    if where == "high":
        return frozenset(range(n - f, n))
    return frozenset(list(range(f - f // 2)) + list(range(n - f // 2, n)))


# -- through the harness -------------------------------------------------------


def _harness_hook(script: Script, faulty):
    def hook(round_index, visible):
        seen: dict = {}
        for sender, _receiver, payload in visible:
            seen.setdefault(sender, payload)
        return [
            (sender, receiver, payload)
            for sender, row in script.craft(round_index, faulty, seen).items()
            for receiver, payload in row.items()
        ]

    return hook


def _run_pair(coin, sizes, where, seed, entries) -> list:
    """Two coins, possibly of different ``n``, run round by round in one
    process, the second replaying payload objects of the first."""
    coins = []
    for index, (n, f) in enumerate(sizes):
        algorithm = coin(n, f)
        faulty = _faulty(n, f, where)
        harness = CoinHarness(algorithm, n, f, faulty=faulty, seed=seed + index)
        script = Script(entries, n, algorithm.field.modulus)
        coins.append((harness, script, _harness_hook(script, faulty)))
    observed = []
    for round_index in range(1, 5):
        offered: list = []
        for harness, script, hook in coins:
            script.foreign = offered
            before = len(harness.traffic)
            harness.run_round(round_index, hook)
            offered = [message[3] for message in harness.traffic[before:]]
            observed.append({
                node: _snapshot(instance)
                for node, instance in harness.instances.items()
            })
    observed.append([repr(harness.traffic) for harness, _, _ in coins])
    return observed


_SIZES = st.sampled_from([
    ((4, 1), (7, 2)), ((7, 2), (4, 1)), ((4, 1), (4, 1)), ((7, 2), (7, 2)),
])


def _check_harness(sizes, where, seed, entries):
    expected = _run_pair(ParentCoin, sizes, where, seed, entries)
    actual = _run_pair(FeldmanMicaliCoin, sizes, where, seed, entries)
    assert actual == expected


class TestAgainstTheParentCoin:
    @settings(max_examples=12, derandomize=True)
    @given(sizes=_SIZES, where=_WHERE, seed=st.integers(0, 50), entries=_ENTRIES)
    def test_every_node_holds_the_same_after_every_round(
        self, sizes, where, seed, entries
    ):
        _check_harness(sizes, where, seed, entries)

    @pytest.mark.slow
    @settings(max_examples=150, derandomize=True)
    @given(sizes=_SIZES, where=_WHERE, seed=st.integers(0, 50), entries=_ENTRIES)
    def test_every_node_holds_the_same_after_every_round_full_budget(
        self, sizes, where, seed, entries
    ):
        _check_harness(sizes, where, seed, entries)


# -- through the tower ---------------------------------------------------------


class Scripted(Adversary):
    """The script as a rushing adversary on every coin pipeline it can
    see: one row per (faulty sender, pipeline path, slot)."""

    def __init__(self, entries, where: str) -> None:
        super().__init__()
        self.entries = entries
        self.where = where

    def select_faulty(self, n, f, rng):
        return _faulty(n, f, self.where)

    def setup(self, n, f, faulty_ids, rng) -> None:
        super().setup(n, f, faulty_ids, rng)
        self.script = Script(self.entries, n, PrimeField.for_system(n).modulus)

    def craft_messages(self, view):
        seen: dict = {}
        for envelope in view.visible_messages:
            payload = envelope.payload
            if (
                envelope.path.endswith("coin")
                and isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], int)
            ):
                seen.setdefault((envelope.path, payload[0]), {}).setdefault(
                    envelope.sender, payload[1]
                )
        traffic = view.traffic()
        for (path, slot), senders in sorted(seen.items()):
            tagged: dict = {}
            crafted = self.script.craft(view.beat * 4 + slot, self.faulty_ids, senders)
            for sender, row in crafted.items():
                # A wrong tag now and then: another slot's, a bool's, none.
                tag = (slot, slot, slot, slot % 4 + 1, True, 9)[
                    (view.beat + sender) % 6
                ]
                traffic.add_row(sender, path, {
                    receiver: tagged.setdefault((tag, id(payload)), (tag, payload))
                    for receiver, payload in row.items()
                })
        return traffic


def _pipelines(component: Component, path: str = "root"):
    if isinstance(component, CoinFlipPipeline):
        yield path, component
    for name, child in component.children.items():
        yield from _pipelines(child, f"{path}/{name}")


def _run_tower(coin, engine, n, f, where, seed, entries, beats) -> list:
    sim = Simulation(
        n, f, lambda i: SSByzClockSync(8, lambda: coin(n, f)),
        adversary=Scripted(entries, where), seed=seed, engine=engine,
    )
    sim.scramble()
    observed = []
    for _ in range(beats):
        sim.run_beat()
        observed.append({
            node_id: (
                node.root.clock_value,
                [
                    (path, pipeline.rand, [_snapshot(i) for i in pipeline.slots])
                    for path, pipeline in _pipelines(node.root)
                ],
            )
            for node_id, node in sim.nodes.items()
        })
    observed.append(sim.stats.as_dict())
    return observed


def _check_tower(n, f, where, seed, entries, beats):
    expected = _run_tower(ParentCoin, "reference", n, f, where, seed, entries, beats)
    for engine in ("reference", "fast"):
        actual = _run_tower(
            FeldmanMicaliCoin, engine, n, f, where, seed, entries, beats
        )
        assert actual == expected, engine


class TestTowersAgainstTheParentCoin:
    @settings(max_examples=4, derandomize=True)
    @given(
        size=st.sampled_from([(4, 1), (4, 1), (7, 2)]), where=_WHERE,
        seed=st.integers(0, 50), entries=_ENTRIES,
    )
    def test_every_pipeline_holds_the_same_after_every_beat(
        self, size, where, seed, entries
    ):
        _check_tower(*size, where, seed, entries, beats=6)

    @pytest.mark.slow
    @settings(max_examples=30, derandomize=True)
    @given(
        size=st.sampled_from([(4, 1), (7, 2)]), where=_WHERE,
        seed=st.integers(0, 50), entries=_ENTRIES,
    )
    def test_every_pipeline_holds_the_same_after_every_beat_full_budget(
        self, size, where, seed, entries
    ):
        _check_tower(*size, where, seed, entries, beats=10)

    def test_fault_free_towers_agree_on_every_engine(self):
        """No adversary: the all-honest beat, where every vote and every
        share list is one object in every inbox."""
        for n, f in ((4, 1), (7, 2)):
            runs = []
            for coin, engine in (
                (ParentCoin, "reference"), (FeldmanMicaliCoin, "reference"),
                (FeldmanMicaliCoin, "fast"), (FeldmanMicaliCoin, "bulk"),
            ):
                sim = Simulation(
                    n, f, lambda i: SSByzClockSync(8, lambda: coin(n, f)),
                    seed=3, engine=engine,
                )
                sim.scramble()
                sim.run(12)
                runs.append((
                    sim.stats.as_dict(),
                    {
                        node_id: [
                            (pipeline.rand, [_snapshot(i) for i in pipeline.slots])
                            for _path, pipeline in _pipelines(node.root)
                        ]
                        for node_id, node in sim.nodes.items()
                    },
                ))
            assert all(run == runs[0] for run in runs[1:])


# -- by hand -------------------------------------------------------------------


def _read(kind: str, n: int, f: int, inbox, grades=None, modulus=17) -> list:
    """Hand ``inbox`` (``(sender, payload)`` pairs) to the ``kind``
    round of two live states in turn and one frozen one; what each then
    holds.  The second live state reads every payload *after* the first
    has: whatever the first left behind, it must read the same."""
    harness = CoinHarness(FeldmanMicaliCoin(n, f), n, f)
    held = []
    for cls in (GradedSharingState, GradedSharingState, ParentSharingState):
        state = cls(n, f, PrimeField(modulus))
        ctx = harness._context(0, list(inbox), None)
        if kind == "vote":
            state.update_vote(ctx)
            held.append(repr(state.votes))
        else:
            state.grades = dict(grades)
            state.update_recover(ctx)
            held.append(repr(state.recovered))
    return held


#: (what the payload probes, the payload, the vote it reads as at n=4)
_VOTES = [
    ("honest", ("vote", (0, 1, 3)), "frozenset({0, 1, 3})"),
    ("not a tuple", "vote", None),
    ("not a pair", ("vote", (0, 1), (2,)), None),
    ("kind tag", ("rshare", (0, 1)), None),
    ("body is a tuple", ("vote", frozenset({0, 1})), None),
    ("a dealer that is not an int", ("vote", (0, 1.0)), None),
    ("a dealer that is not an int, last", ("vote", (0, 1, 2, "x")), None),
    ("a bool is an int", ("vote", (True, 2)), "frozenset({True, 2})"),
    ("dealer range", ("vote", (0, 4, -1, 3)), "frozenset({0, 3})"),
    ("empty", ("vote", ()), "frozenset()"),
]


class TestEveryVoteCheck:
    @pytest.mark.parametrize("probes, payload, reading", _VOTES)
    def test_a_vote_reads_the_same_first_and_second_time(
        self, probes, payload, reading
    ):
        expected = "{}" if reading is None else f"{{2: {reading}}}"
        assert _read("vote", 4, 1, [(2, payload)]) == [expected] * 3

    def test_a_twin_sent_first_does_not_speak_for_the_honest_vote(self):
        """``("vote", (1.0, 2)) == ("vote", (1, 2))`` and they hash alike:
        a reading keyed by value would let the faulty sender's twin,
        read first, decide what the honest vote says."""
        for twin, read_as in ((1.0, None), (True, "frozenset({True, 2})")):
            inbox = [(0, ("vote", (twin, 2))), (3, ("vote", (1, 2)))]
            honest = "3: frozenset({1, 2})"
            expected = (
                f"{{{honest}}}" if read_as is None else f"{{0: {read_as}, {honest}}}"
            )
            assert _read("vote", 4, 1, inbox) == [expected] * 3


def _shares(secret: int, slope: int, modulus: int, n: int) -> list:
    """Zero-shares of ``secret + slope · x`` at every node's point."""
    return [(secret + slope * node_point(i)) % modulus for i in range(n)]


class TestEveryShareListCheck:
    """n=4, f=1, modulus 5: dealer 0's zero polynomial is ``3 + 2x``.
    Senders 0 and 1 send its shares, sender 2 lies, and sender 3's
    payload is the probe: with its share the decoder has three good
    points of four and finds 3, without it two of three and falls back
    to 0 — so whether (and as what) the probe was read shows in
    ``recovered``, where f liars alone never would."""

    N, F, P = 4, 1, 5
    GOOD = _shares(3, 2, 5, 4)

    def _recovered(self, probe, dealer=0):
        good = self.GOOD
        inbox = [
            (0, ("rshare", ((dealer, good[0]),))),
            (1, ("rshare", ((dealer, good[1]),))),
            (2, ("rshare", ((dealer, (good[2] + 1) % self.P),))),
            (3, probe),
        ]
        grades = {d: GRADE_HIGH if d == dealer else GRADE_NONE for d in range(4)}
        held = _read("rshare", self.N, self.F, inbox, grades, self.P)
        assert held[0] == held[1] == held[2]
        return held[0]

    def test_the_probe_decides(self):
        assert self._recovered(("rshare", ((0, self.GOOD[3]),))) == "{0: 3}"
        assert self._recovered(("rshare", ())) == "{0: 0}"

    @pytest.mark.parametrize("probes, junk", [
        ("entry is a tuple", 7),
        ("entry is a pair", (0, 1, 2)),
        ("entry is a pair, short", (0,)),
        ("dealer is an int", (1.0, 0)),
        ("dealer is an int, str", ("x", 0)),
        ("value in the field, too big", (1, 5)),
        ("value in the field, negative", (1, -1)),
        ("value in the field, float", (1, 1.0)),
        ("value in the field, none", (1, None)),
    ])
    def test_one_malformed_entry_anywhere_rejects_the_list(self, probes, junk):
        share = (0, self.GOOD[3])
        for body in ((junk, share), (share, junk)):
            assert self._recovered(("rshare", body)) == "{0: 0}"

    @pytest.mark.parametrize("probes, payload", [
        ("not a tuple", "rshare"),
        ("not a pair", ("rshare", ((0, "GOOD"),), ())),
        ("kind tag", ("xpt", ((0, "GOOD"),))),
        ("kind tag, vote", ("vote", ((0, "GOOD"),))),
        ("body is a tuple", ("rshare", frozenset({(0, "GOOD")}))),
    ])
    def test_a_malformed_payload_is_no_share(self, probes, payload):
        def resolve(item):
            if isinstance(item, (tuple, frozenset)):
                return type(item)(resolve(each) for each in item)
            return self.GOOD[3] if item == "GOOD" else item

        assert self._recovered(resolve(payload)) == "{0: 0}"

    def test_out_of_range_dealers_are_dropped_not_fatal(self):
        body = ((4, 0), (-1, 0), (0, self.GOOD[3]), (10**9, 1))
        assert self._recovered(("rshare", body)) == "{0: 3}"

    def test_first_entry_of_a_dealer_wins(self):
        good, bad = (0, self.GOOD[3]), (0, (self.GOOD[3] + 1) % self.P)
        assert self._recovered(("rshare", (good, bad))) == "{0: 3}"
        assert self._recovered(("rshare", (bad, good))) == "{0: 0}"

    def test_a_bool_is_a_dealer_and_a_share(self):
        """``True`` passes ``isinstance(_, int)`` and ``field.contains``:
        dealer ``True`` is dealer 1, share ``True`` is share 1."""
        good = _shares(1, 0, self.P, 4)  # the constant polynomial 1
        inbox = [
            (0, ("rshare", ((1, good[0]),))),
            (1, ("rshare", ((1, good[1]),))),
            (2, ("rshare", ((1, 4),))),
            (3, ("rshare", ((True, True),))),
        ]
        grades = {0: GRADE_NONE, 1: GRADE_LOW, 2: GRADE_NONE, 3: GRADE_NONE}
        assert _read("rshare", 4, 1, inbox, grades, self.P) == ["{1: 1}"] * 3

    def test_a_twin_sent_first_does_not_speak_for_the_honest_list(self):
        """The faulty sender 0's ``1.0`` twin of sender 3's list is
        malformed; sender 3's own list is not."""
        good = _shares(1, 0, self.P, 4)
        inbox = [
            (0, ("rshare", ((1.0, 1),))),
            (1, ("rshare", ((1, good[1]),))),
            (2, ("rshare", ((1, 4),))),
            (3, ("rshare", ((1, 1),))),
        ]
        grades = {0: GRADE_NONE, 1: GRADE_HIGH, 2: GRADE_NONE, 3: GRADE_NONE}
        # Two good points of three decode nowhere; 0 is the fallback.  Were
        # sender 0's twin read as sender 3's list it would be three of four.
        assert _read("rshare", 4, 1, inbox, grades, self.P) == ["{1: 0}"] * 3
        inbox[0] = (0, ("rshare", ((True, True),)))
        assert _read("rshare", 4, 1, inbox, grades, self.P) == ["{1: 1}"] * 3


class TestWhatAReadingMayDependOn:
    def test_one_payload_object_read_by_coins_of_different_n_and_field(self):
        """Dealer 5 exists at n=7 and not at n=4, share 7 in GF(11) and
        GF(17) and not in GF(5): the same object is a vote for {0, 5}
        there and for {0} here, a share list there and malformed here —
        whichever coin reads it first."""
        vote = ("vote", (0, 5))
        shares = ("rshare", ((0, 7), (5, 7)))
        coins = [(4, 5), (7, 11), (4, 17), (7, 11), (4, 5), (4, 17)]
        for n, modulus in coins + coins[::-1]:
            f = (n - 1) // 3
            expected = "frozenset({0, 5})" if n == 7 else "frozenset({0})"
            assert _read("vote", n, f, [(1, vote)], None, modulus) == [
                f"{{1: {expected}}}"
            ] * 3
            grades = dict.fromkeys(range(n), GRADE_NONE) | {0: 2, n - 2: 1}
            inbox = [(sender, shares) for sender in range(n)]
            expected = {(4, 5): "{0: 0, 2: 0}", (4, 17): "{0: 7, 2: 0}"}.get(
                (n, modulus), "{0: 7, 5: 7}"
            )
            assert _read("rshare", n, f, inbox, grades, modulus) == [expected] * 3

    def test_same_lists_and_different_grades_recover_differently(self):
        good = _shares(3, 2, 5, 4)
        inbox = [(s, ("rshare", ((0, good[s]), (1, good[s])))) for s in range(4)]
        for graded in ((0,), (1,), (1, 0), (0, 1), ()):
            grades = {d: GRADE_LOW for d in graded}
            expected = repr({d: 3 for d in graded})
            assert _read("rshare", 4, 1, inbox, grades, 5) == [expected] * 3

    def test_one_list_object_from_different_senders_is_different_shares(self):
        """The share ``(0, v)`` means "the polynomial is ``v`` at *my*
        point": who sent a list is part of what it says.  Faulty senders
        0 and 1 hand out one object, each to some receivers only, so two
        inboxes hold the same objects in the same order."""
        good = _shares(3, 2, 5, 4)
        lists = [("rshare", ((0, good[s]),)) for s in range(4)]
        grades = {0: GRADE_HIGH}
        from_0 = [(0, lists[0]), (2, lists[2]), (3, lists[3])]
        from_1 = [(1, lists[0]), (2, lists[2]), (3, lists[3])]
        for _ in range(2):
            assert _read("rshare", 4, 1, from_0, grades, 5) == ["{0: 3}"] * 3
            assert _read("rshare", 4, 1, from_1, grades, 5) == ["{0: 0}"] * 3

    def test_same_lists_and_a_different_f_recover_differently(self):
        """Shares of ``3 + x + x²``: a codeword at degree f = 2, and
        seven points no line comes within one error of at f = 1."""
        good = [(3 + x + x * x) % 11 for x in map(node_point, range(7))]
        inbox = [(s, ("rshare", ((0, good[s]),))) for s in range(7)]
        grades = {0: GRADE_HIGH}
        for f, expected in ((2, "{0: 3}"), (1, "{0: 0}"), (2, "{0: 3}")):
            assert _read("rshare", 7, f, inbox, grades, 11) == [expected] * 3

    def test_a_recycled_id_is_not_the_payload_it_was(self):
        """Payloads built and dropped in a loop reuse each other's
        addresses; each must still be read for what *it* says."""
        for index in range(400):
            dealer = index % 4
            assert _read("vote", 4, 1, [(1, ("vote", (dealer,)))]) == [
                f"{{1: frozenset({{{dealer}}})}}"
            ] * 3
            good = _shares(index % 5, 0, 5, 4)
            inbox = [(s, ("rshare", ((0, good[s]),))) for s in range(4)]
            assert _read("rshare", 4, 1, inbox, {0: GRADE_HIGH}, 5) == [
                f"{{0: {index % 5}}}"
            ] * 3

    def test_what_a_node_holds_is_its_own(self):
        """A node that writes into what it holds after a round — a
        scramble is allowed to — changes no other node's state."""
        n, f = 4, 1
        harness = CoinHarness(FeldmanMicaliCoin(n, f), n, f, seed=4)
        harness.run(None)
        states = [harness.instances[i].state for i in range(n)]
        before = [_snapshot(harness.instances[i]) for i in range(1, n)]
        victim = states[0]
        victim.recovered[0] = 4
        victim.recovered.pop(1)
        victim.grades[2] = GRADE_NONE
        for held in victim.cross_points.values():
            held.clear()
        assert [_snapshot(harness.instances[i]) for i in range(1, n)] == before
        for reading in victim.votes.values():
            assert isinstance(reading, frozenset)


# -- emission order ------------------------------------------------------------


class Chatty(CoinInstance):
    """An instance that mixes private sends and broadcasts in one round
    and logs every inbox it is handed, in order."""

    def __init__(self, looping: bool, log: list) -> None:
        self.looping = looping
        self.log = log

    def send_round(self, round_index: int, ctx) -> None:
        if self.looping:
            ctx = LoopingBroadcast(ctx)
        me = ctx.node_id
        ctx.send((me + 1) % ctx.n, ("private", me, 0))
        ctx.broadcast(("all", me, 1))
        ctx.send((me + 1) % ctx.n, ("private", me, 2))
        ctx.send(me, ("private", me, 3))
        ctx.broadcast(("all", me, 4))
        ctx.send((me + 2) % ctx.n, ("private", me, 5))

    def update_round(self, round_index: int, ctx) -> None:
        self.log.append((ctx.node_id, ctx.beat, round_index, list(ctx.inbox)))

    def output(self) -> int:
        return 0

    def scramble(self, rng) -> None:
        pass


class TestEmissionOrder:
    @pytest.mark.parametrize("engine", ["reference", "fast", "bulk"])
    def test_a_senders_copies_arrive_in_the_order_it_emitted_them(self, engine):
        """...whether a broadcast went out as one record or as n."""
        logs = []
        for looping in (True, False):
            log: list = []

            class Coin(FeldmanMicaliCoin):
                rounds = 2

                def new_instance(self, looping=looping, log=log):
                    return Chatty(looping, log)

            sim = Simulation(
                4, 1, lambda i: CoinFlipPipeline(Coin(4, 1)), seed=1,
                engine="reference" if looping else engine,
            )
            sim.run(3)
            logs.append((log, sim.stats.as_dict()))
        assert logs[0] == logs[1]
        node, _beat, _round, inbox = logs[1][0][0]
        assert [payload for sender, payload in inbox if sender == node] == [
            ("all", node, 1), ("private", node, 3), ("all", node, 4),
        ]


# -- cost follows distinct payloads --------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """``counted(owner, name, when=None)`` swaps ``owner.name`` for a
    wrapper that tallies its calls (those ``when(*args)`` accepts) under
    ``name``; the fixture's ``.calls`` is the tally."""
    calls: Counter = Counter()

    def swap(owner, name, when=None):
        original = getattr(owner, name)

        def wrapper(*args):
            if when is None or when(*args):
                calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    swap.calls = calls
    return swap


def _on_a_coin_path(_outbox, _to, path, _payload) -> bool:
    return path.endswith("coin")


class TestCostFollowsDistinctPayloads:
    """Counts repeat exactly where timings do not.  Every number here is
    n times larger (or the broadcast count zero) while each receiver
    reads each payload for itself and a broadcast is n sends."""

    N, F = 7, 2

    def test_fault_free_tower_reads_each_payload_and_decodes_each_class_once(
        self, counted
    ):
        n = self.N
        sim = Simulation(
            n, self.F,
            lambda i: SSByzClockSync(8, lambda: FeldmanMicaliCoin(n, self.F)),
            seed=1, engine="fast",
        )
        sim.scramble()
        sim.run(4)  # flush what the scramble left in the slots
        counted(GradedSharingState, "_validate_vote")
        counted(GradedSharingState, "_validate_recover")
        counted(reedsolomon, "_decode")
        counted(CoinFlipPipeline, "on_update")
        counted(FastOutbox, "send", _on_a_coin_path)
        counted(FastOutbox, "broadcast", _on_a_coin_path)
        sim.run(16)
        calls = counted.calls
        # One pipeline beat is one vote round and one recover round of n
        # senders, updated at n nodes: n readings per round is one per
        # update; it was n per update.
        rounds = calls["on_update"] // n
        assert rounds == 40  # 2.5 pipelines a beat
        assert calls["_validate_vote"] == n * rounds
        assert calls["_validate_recover"] == n * rounds
        # One class per round; it decodes each of the n graded dealers.
        assert calls["_decode"] <= n * rounds
        assert calls["_decode"] == 273
        # Two private rounds of n sends, two broadcasts of one record.
        assert calls["send"] == 2 * n * n * rounds == 16 * 245
        assert calls["broadcast"] == 2 * n * rounds == 16 * 35
        # ...and every copy is still counted, as when each was a record.
        assert sim.stats.as_dict() == {
            "total_messages": 11991, "honest_messages": 11991,
            "byzantine_messages": 0, "dropped_messages": 0,
            "delayed_messages": 0,
        }

    @pytest.mark.parametrize("stories", [1, 2, 5])
    def test_recover_liars_cost_one_decode_per_dealer_per_story(
        self, counted, stories
    ):
        """f liars, the lowest ids, tell ``stories`` different stories:
        receivers told the same one are one class and decode once."""
        n, f = self.N, self.F
        faulty = frozenset(range(f))
        rng = random.Random(5)
        told = [
            {s: ("rshare", tuple((d, rng.randrange(17)) for d in range(n)))
             for s in faulty}
            for _ in range(stories)
        ]

        def lie_in_recovery(round_index, visible):
            if round_index != 4:
                return []
            return [
                (s, r, told[r % stories][s]) for s in faulty for r in range(n)
            ]

        harness = CoinHarness(
            FeldmanMicaliCoin(n, f), n, f, faulty=faulty, seed=2
        )
        counted(reedsolomon, "_decode")
        harness.run(lie_in_recovery)
        states = {i: inst.state for i, inst in harness.instances.items()}
        dealt = {i: state.my_secret for i, state in states.items()}
        for state in states.values():
            assert {d: state.recovered[d] for d in dealt} == dealt
        classes = len({r % stories for r in states})
        assert classes == min(stories, n - f)
        # The silent liars' own dealings are graded out: n - f dealers a
        # class, where it was n - f dealers a receiver.
        assert counted.calls["_decode"] == (n - f) * classes <= n * classes

    def test_ten_thousand_distinct_payloads_leave_the_tables_bounded(self):
        n, f = 4, 1
        harness = CoinHarness(FeldmanMicaliCoin(n, f), n, f)
        state = GradedSharingState(n, f, PrimeField(17))
        state.grades = {0: GRADE_HIGH}
        for index in range(5_000):
            vote = ("vote", (index % n, index))
            state.update_vote(harness._context(0, [(1, vote)], None))
            assert state.votes == {1: frozenset({index % n})}
            shares = ("rshare", ((0, index % 17), (index, 0)))
            inbox = [(sender, shares) for sender in range(n)]
            state.update_recover(harness._context(0, inbox, None))
            assert state.recovered == {0: index % 17}
        assert len(gvss._readings) <= gvss._READINGS_BOUND == 128
        assert len(gvss._recoveries) <= gvss._RECOVERIES_BOUND == 32

    def test_what_the_tables_hold_is_held_and_cannot_be_written_through(self):
        """A reading is shared by every node that reads the payload: a
        frozenset, a tuple of pairs, or ``None`` — and a recovery is
        copied out, never handed over."""
        n, f = 4, 1
        harness = CoinHarness(FeldmanMicaliCoin(n, f), n, f, seed=6)
        harness.run(None)
        assert gvss._readings and gvss._recoveries
        for key, (payload, reading) in gvss._readings.items():
            assert reading is None or isinstance(reading, (frozenset, tuple))
            if isinstance(reading, tuple):
                assert all(type(pair) is tuple for pair in reading)
            # ...and holds what its key names, so no id is recycled under it.
            assert key[-1] == id(payload)
        for key, (readings, _recovered) in gvss._recoveries.items():
            assert list(key[4:]) == [(s, id(shares)) for s, shares in readings]
        held = [recovered for _readings, recovered in gvss._recoveries.values()]
        for instance in harness.instances.values():
            assert all(instance.state.recovered is not each for each in held)
