"""Differential bit-identity of the bulk engine vs the reference engine.

The bulk engine (:mod:`repro.net.bulk`) is only allowed to exist because
its runs are *bit-identical* to the reference engine: same per-beat clock
values, same convergence beats, same traffic statistics (including link
casualties), same RNG stream consumption — across every registered
protocol, every link model, fault-free and adversarial runs, transient
faults and phantom storms.  This suite is the safety net the tentpole
stands on; it mirrors (and extends) ``tests/test_engines.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import (
    AdaptiveEchoAdversary,
    Adversary,
    EquivocatorAdversary,
    RandomNoiseAdversary,
    ScriptedAdversary,
    SplitWorldAdversary,
    mutate_payload,
)
from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    ScenarioSpec,
    iter_campaign,
)
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.baselines.dolev_welch import DolevWelchClock
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.core.protocol import PROTOCOLS, resolve_protocol
from repro.faults.network_faults import inject_phantom_storm
from repro.net.bulk import (
    BulkEngine,
    Lane,
    _Delivery,
    build_bulk_program,
    has_bulk_program,
)
from repro.net.engine import ENGINES, resolve_engine
from repro.net.linkmodel import make_link
from repro.net.message import Envelope, Row
from repro.net.plane import BeatTraffic
from repro.net.simulator import Simulation

# Heavyweight differential matrix: deselected by the CI fast lane.
pytestmark = pytest.mark.slow

SEEDS = range(10)

#: Every non-perfect link model, with a parameterization that actually
#: bites at n=4 within the test's beat budget.
LINKS = (
    ("delay", {"max_delay": 2}),
    ("lossy", {"loss": 0.3}),
    ("partition", {"split": 3, "heal": 12}),
    ("partition", {"split": 2, "heal": 6, "period": 10}),
)


def _coin_factory():
    return OracleCoin(p0=0.4, p1=0.4, rounds=2)


def _observe(engine, seed, adversary_factory, *, beats=40, storm_at=None,
             factory=None, k=6, link="perfect", link_params=None,
             share_coin=False, coin="oracle", n=4, f=1, phantoms=None):
    """Run one scrambled trial (n=4 unless told otherwise); return every
    observable.  ``phantoms`` maps a beat to the envelopes injected just
    before it runs."""
    if factory is None:
        if coin == "gvss":
            coin_factory = lambda: FeldmanMicaliCoin(n, f)
        else:
            coin_factory = _coin_factory
        factory = lambda i: SSByzClockSync(
            k, coin_factory, share_coin=share_coin
        )
    link_model = make_link(link, link_params) if link_params else link
    sim = Simulation(
        n, f, factory, adversary=adversary_factory(), seed=seed,
        engine=engine, link=link_model,
    )
    monitor = ClockConvergenceMonitor(k)
    sim.add_monitor(monitor)
    sim.scramble()
    kept = []
    if phantoms is not None:
        # Scripted runs are read beat by beat: every root inbox, not
        # just the last one, is an observable.
        for beat in range(beats):
            if beat in phantoms:
                sim.inject_phantoms(list(phantoms[beat]))
            sim.run(1)
            if engine == "bulk":
                sim.engine.sync_trees()
            kept.append([
                repr(getattr(node.root, "_previous", None))
                for node in sim.nodes.values()
            ])
    elif storm_at is None:
        sim.run(beats)
    else:
        sim.run(storm_at)
        sim.scramble()
        inject_phantom_storm(
            sim, ["root", "root/A/A1", "bogus/path"], count=60
        )
        sim.run(beats - storm_at)
    per_beat = [sim.stats.messages_at_beat(b) for b in range(beats)]
    if engine == "bulk":
        sim.engine.sync_trees()
    return (
        # The last inbox a root kept, by repr: ``1`` and ``True`` are equal
        # payloads that tally differently, and only the repr tells which
        # of the two a node holds.
        [repr(getattr(node.root, "_previous", None))
         for node in sim.nodes.values()],
        kept,
        monitor.history,
        monitor.convergence_beat(),
        sim.stats.total_messages,
        sim.stats.honest_messages,
        sim.stats.byzantine_messages,
        sim.stats.dropped_messages,
        sim.stats.delayed_messages,
        dict(sim.stats.dropped_per_beat),
        per_beat,
        dict(sim.stats.per_path_prefix),
    )


class TestClockSyncDifferential:
    """The paper's tower, vectorized: the hardest program to get right."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_free_runs_identical(self, seed):
        assert _observe("reference", seed, lambda: None) == _observe(
            "bulk", seed, lambda: None
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_runs_identical(self, seed):
        ref = _observe("reference", seed, EquivocatorAdversary)
        assert ref == _observe("bulk", seed, EquivocatorAdversary)

    @pytest.mark.parametrize("seed", range(4))
    def test_scramble_and_phantom_storm_identical(self, seed):
        """Mid-run scramble exercises the stale-reload hook; the storm
        exercises the per-receiver dirty merge (incl. unknown paths)."""
        for adversary_factory in (lambda: None, SplitWorldAdversary):
            ref = _observe(
                "reference", seed, adversary_factory, beats=60, storm_at=20
            )
            blk = _observe(
                "bulk", seed, adversary_factory, beats=60, storm_at=20
            )
            assert ref == blk

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_coin_variant_identical(self, seed):
        """Remark 4.1's shared pipeline changes the coin-key set."""
        for adversary_factory in (lambda: None, EquivocatorAdversary):
            ref = _observe(
                "reference", seed, adversary_factory, share_coin=True
            )
            blk = _observe("bulk", seed, adversary_factory, share_coin=True)
            assert ref == blk

    @pytest.mark.parametrize("seed", range(3))
    def test_gvss_coin_falls_back_per_node_identical(self, seed):
        """A message-passing coin has no SoA mapping: fast-path fallback."""
        ref = _observe("reference", seed, lambda: None, coin="gvss")
        assert ref == _observe("bulk", seed, lambda: None, coin="gvss")

    @pytest.mark.parametrize("link,params", LINKS)
    def test_link_models_identical(self, link, params):
        """Partition runs stay vectorized (pure schedule); delay and lossy
        runs take the per-envelope fallback (stateful keyed draws)."""
        for adversary_factory in (lambda: None, EquivocatorAdversary,
                                  SplitWorldAdversary):
            for seed in range(3):
                ref = _observe(
                    "reference", seed, adversary_factory, beats=30,
                    link=link, link_params=params,
                )
                blk = _observe(
                    "bulk", seed, adversary_factory, beats=30,
                    link=link, link_params=params,
                )
                assert ref == blk

    def test_sync_trees_materializes_reference_state(self):
        """flush_full writes back the *entire* tower state, not just the
        clock observable monitors read."""
        def run(engine):
            sim = Simulation(
                4, 1,
                lambda i: SSByzClockSync(6, _coin_factory),
                adversary=EquivocatorAdversary(), seed=5, engine=engine,
            )
            sim.scramble()
            sim.run(25)
            return sim

        ref = run("reference")
        blk = run("bulk")
        assert blk.engine.vectorized
        blk.engine.sync_trees()
        for node_id, node in ref.nodes.items():
            mirror = blk.nodes[node_id].root
            root = node.root
            assert mirror.full_clock == root.full_clock
            assert mirror.save == root.save
            assert mirror._phase == root._phase
            assert mirror._previous == root._previous
            assert mirror.a.clock == root.a.clock
            assert mirror.a._run_a2 == root.a._run_a2
            assert mirror.a.a1.clock == root.a.a1.clock
            assert mirror.a.a2.clock == root.a.a2.clock


def _tower_state(sim):
    """Every tower attribute the clock-sync program mirrors, per node."""
    return {
        node_id: (
            node.root.full_clock, node.root.save, node.root._phase,
            node.root._previous, node.root.a.clock, node.root.a._run_a2,
            node.root.a.a1.clock, node.root.a.a2.clock,
        )
        for node_id, node in sim.nodes.items()
    }


class TestRows:
    """Rows are plain lists of the protocol's own values: ints, and
    ``None`` for ⊥ — no second encoding to keep in step with ``core/``."""

    @pytest.mark.parametrize(
        "name", sorted(n for n, cls in ADVERSARY_REGISTRY.items() if cls)
    )
    def test_rows_hold_ints_and_bottom_only(self, name):
        sim = Simulation(
            _CLASS_N, _CLASS_F, lambda i: SSByzClockSync(6, _coin_factory),
            adversary=ADVERSARY_REGISTRY[name](), seed=3, engine="bulk",
        )
        assert sim.engine.vectorized
        program = sim.engine._program
        domains = {
            "fc": range(6), "save": range(6), "a_clock": (0, 1, 2, 3, None),
            "a1": (0, 1, None), "a2": (0, 1, None), "ph": (0, 1, 2, 3, None),
        }

        def check():
            for row_name, domain in domains.items():
                row = getattr(program, row_name)
                assert type(row) is list and len(row) == program.size
                for entry in row:
                    assert type(entry) in (int, type(None)), (row_name, entry)
                    assert entry in domain, (row_name, entry)

        sim.scramble()
        for _ in range(10):
            sim.run(1)
            check()
        sim.scramble()
        inject_phantom_storm(
            sim, ["root", "root/A/A1", "root/A/A2", "bogus/path"], count=200
        )
        for _ in range(6):
            sim.run(1)
            check()

    def test_dolev_welch_row_holds_ints(self):
        sim = Simulation(
            _CLASS_N, _CLASS_F, lambda i: DolevWelchClock(6),
            adversary=EquivocatorAdversary(), seed=3, engine="bulk",
        )
        assert sim.engine.vectorized
        sim.scramble()
        sim.run(10)
        clock = sim.engine._program.clock
        assert type(clock) is list
        assert all(type(c) is int and 0 <= c < 6 for c in clock)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_load_then_flush_full_is_the_identity(self, seed):
        """A freshly scrambled tree (⊥ included) survives the round trip
        through the rows, whenever ``sync_trees`` is called."""
        sim = Simulation(
            7, 2, lambda i: SSByzClockSync(6, _coin_factory),
            seed=seed, engine="bulk",
        )
        sim.scramble()
        scrambled = _tower_state(sim)
        sim.engine.sync_trees()
        assert _tower_state(sim) == scrambled
        sim.run(3)
        sim.scramble([0, 3])
        scrambled = {i: _tower_state(sim)[i] for i in (0, 3)}
        sim.engine.sync_trees()
        assert {i: _tower_state(sim)[i] for i in (0, 3)} == scrambled

    def test_scrambles_draw_every_domain_value(self):
        """The identity above is not vacuous: over its seeds the
        scrambled 2-clocks and 4-clock visit ⊥ and every value."""
        seen: dict = {"a1": set(), "a_clock": set()}
        for seed in SEEDS:
            sim = Simulation(
                7, 2, lambda i: SSByzClockSync(6, _coin_factory),
                seed=seed, engine="bulk",
            )
            sim.scramble()
            for state in _tower_state(sim).values():
                seen["a_clock"].add(state[4])
                seen["a1"].add(state[6])
        assert seen == {"a1": {0, 1, None}, "a_clock": {0, 1, 2, 3, None}}

    @pytest.mark.parametrize("seed", range(4))
    def test_sync_trees_after_a_scramble_keeps_the_scramble(self, seed):
        """Materializing between a scramble and the next beat must not
        write the rows' older state over the trees' newer one."""
        def run(engine):
            sim = Simulation(
                4, 1, lambda i: SSByzClockSync(6, _coin_factory),
                adversary=EquivocatorAdversary(), seed=seed, engine=engine,
            )
            monitor = ClockConvergenceMonitor(6)
            sim.add_monitor(monitor)
            sim.scramble()
            sim.run(8)
            sim.scramble()
            if engine == "bulk":
                sim.engine.sync_trees()
            sim.run(12)
            return monitor.history

        assert run("reference") == run("bulk")


#: n=13, f=4: the faulty ids are 9..12 and the nine honest receivers can
#: fall into several inbox classes (at n=4 there are three receivers and
#: one faulty sender, so every class has one shape).
_CLASS_N, _CLASS_F = 13, 4
_PATHS = ("root", "root/A/A1", "root/A/A2")

#: Payloads that alias under ``==`` and ``hash`` but not under ``repr``:
#: which of an aliasing pair a tally meets first decides what it reports.
_ALIASING_PAYLOADS = st.sampled_from([
    0, 1, True, False, None,
    ("fc", 1), ("fc", True), ("fc", 2),
    ("prop", 1), ("prop", True), ("prop", None),
    ("bit", 1), ("bit", True), ("bit", 0), ("bit", False),
])


def _alias(payload):
    """The equal-but-distinct twin of ``payload``, where it has one."""
    if isinstance(payload, tuple):
        return (payload[0], _alias(payload[1]))
    if isinstance(payload, bool):
        return int(payload)
    if payload in (0, 1):
        return bool(payload)
    return payload


_HONEST = st.integers(min_value=0, max_value=_CLASS_N - _CLASS_F - 1)
_FAULTY = st.integers(min_value=_CLASS_N - _CLASS_F, max_value=_CLASS_N - 1)
_ANYONE = st.integers(min_value=0, max_value=_CLASS_N - 1)
_BEATS = st.integers(min_value=0, max_value=11)

#: One scripted message: any faulty sender (so lists come out of sender
#: order and repeat senders), any receiver, dead letters included.
_SCRIPTED = st.tuples(
    _FAULTY, _ANYONE, st.sampled_from(_PATHS), _ALIASING_PAYLOADS
)
#: One volley: the same (sender, payload) shots at every receiver, except
#: that odd receivers get the twin of each ``twisted`` shot.  No twist
#: puts all receivers in one inbox class; any twist must split them.
_VOLLEY = st.tuples(
    st.sampled_from(_PATHS),
    st.lists(
        st.tuples(_FAULTY, _ALIASING_PAYLOADS, st.booleans()),
        min_size=1, max_size=8,
    ),
)


def _expand(volley):
    path, shots = volley
    return [
        (
            sender, receiver, path,
            _alias(payload) if twisted and receiver % 2 else payload,
        )
        for receiver in range(_CLASS_N)
        for sender, payload, twisted in shots
    ]


def _as_rows(volley):
    """The volley in shared form: one row per shot, dead letters (the
    faulty receivers) included.  Shots that tell the same story are
    handed one mapping *object*, and a twisted shot's twin is built
    once, so rows share payload objects the way a strategy's do."""
    path, shots = volley
    stories: dict = {}
    entries = []
    for sender, payload, twisted in shots:
        story = (repr(payload), twisted)
        if story not in stories:
            twin = _alias(payload) if twisted else payload
            stories[story] = {
                receiver: twin if receiver % 2 else payload
                for receiver in range(_CLASS_N)
            }
        entries.append((sender, None, path, stories[story]))
    return entries


def _materialized(entries):
    """Scripted entries with every row replaced by its envelopes."""
    return [
        (sender, target, path, payload)
        for sender, receiver, path, what in entries
        for target, payload in (
            what.items() if receiver is None else ((receiver, what),)
        )
    ]


#: One phantom: it may claim an honest sender, or a faulty one that the
#: script also speaks for on the same beat.  Receiver ``None`` sends it
#: to every honest node — phantoms bypass the links, so that is how
#: receivers on both sides of a partition come to hold the same extras.
_PHANTOM = st.tuples(
    _ANYONE, st.none() | _HONEST, st.sampled_from(_PATHS), _ALIASING_PAYLOADS
)


class TestInboxClasses:
    """Receivers handed the same messages share one exact merge; these
    runs are big enough for that sharing to be non-trivial."""

    @pytest.mark.parametrize(
        "name", sorted(n for n, cls in ADVERSARY_REGISTRY.items() if cls)
    )
    def test_registered_adversaries_identical(self, name, monkeypatch):
        """And the runs are not vacuous for sharing: the two-story
        strategies put several receivers in one class, while ``noise``
        — a fresh payload per copy — leaves nearly every receiver in a
        class of its own (nearly: CPython's small ints are one object
        each, so two receivers can draw identical rows by chance)."""
        class_sizes: Counter = Counter()
        inbox_classes = _Delivery.inbox_classes

        def sized(delivery, path):
            classes = inbox_classes(delivery, path)
            class_sizes.update(Counter(classes.values()).values())
            return classes

        monkeypatch.setattr(_Delivery, "inbox_classes", sized)
        adversary_factory = ADVERSARY_REGISTRY[name]
        for seed in range(3):
            ref, fast, bulk = (
                _observe(
                    engine, seed, adversary_factory, beats=30,
                    n=_CLASS_N, f=_CLASS_F,
                )
                for engine in ("reference", "fast", "bulk")
            )
            assert ref == fast
            assert ref == bulk
        if name in ("equivocator", "split-world", "adaptive"):
            assert max(class_sizes) >= 2
        elif name == "noise":
            assert class_sizes[1] > 0.95 * sum(class_sizes.values())

    @pytest.mark.parametrize("engine", ["reference", "fast", "bulk"])
    def test_rows_and_strays_of_one_sender_first_wins(self, engine):
        """One beat, by hand: a sender's first copy at a receiver is the
        one it sees, whether that copy is a stray or a row's — strays
        before and after rows, a row that skips a receiver, two rows
        from one sender, senders out of order."""
        everyone = range(_CLASS_N)
        script = {0: [
            (9, 0, "root", ("fc", 1)),                      # precedes 9's row
            (9, None, "root", dict.fromkeys(everyone, ("fc", 2))),
            (10, None, "root", {r: ("fc", 3) for r in everyone if r != 2}),
            (10, 1, "root", ("fc", 4)),                     # follows 10's row
            (10, 2, "root", ("fc", 4)),                     # ...which skipped 2
            (10, None, "root", dict.fromkeys(everyone, ("fc", 5))),
            (12, None, "root", dict.fromkeys(everyone, ("fc", 6))),
            (11, None, "root", dict.fromkeys(everyone, ("fc", 7))),
        ]}
        sim = Simulation(
            _CLASS_N, _CLASS_F, lambda i: SSByzClockSync(6, _coin_factory),
            adversary=ScriptedAdversary(script), seed=0, engine=engine,
        )
        sim.scramble()
        sim.run(1)
        if engine == "bulk":
            assert sim.engine.vectorized
            sim.engine.sync_trees()
        for receiver, node in sim.nodes.items():
            crafted = {
                sender: payload
                for sender, payload in node.root._previous.items()
                if sender in sim.faulty_ids
            }
            assert list(crafted.items()) == [
                (9, ("fc", 1 if receiver == 0 else 2)),
                (10, ("fc", 4 if receiver == 2 else 3)),
                (11, ("fc", 7)),
                (12, ("fc", 6)),
            ]

    def test_a_strategy_returning_a_plain_list_runs_unchanged(self):
        """The equivocator as it was written before shared form —
        double loop, one ``make_envelope`` per copy, a plain list — is
        the same run as the shipped one, on every engine and link."""

        class ListEquivocator(Adversary):
            def craft_messages(self, view):
                messages = []
                for path in sorted(view.visible_paths()):
                    samples = view.observed_payloads(path)
                    variant_a = view.rng.choice(samples)
                    variant_b = mutate_payload(variant_a, view.rng)
                    for sender in sorted(self.faulty_ids):
                        for receiver in range(view.n):
                            messages.append(view.make_envelope(
                                sender, receiver, path,
                                variant_a if receiver % 2 == 0 else variant_b,
                            ))
                return messages

        for link, params in (("perfect", None),) + LINKS[1:3]:
            runs = [
                _observe(
                    engine, 1, adversary, beats=30, n=_CLASS_N, f=_CLASS_F,
                    link=link, link_params=params,
                )
                for adversary in (ListEquivocator, EquivocatorAdversary)
                for engine in ("reference", "fast", "bulk")
            ]
            assert all(run == runs[0] for run in runs)

    @settings(max_examples=80)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        plan=st.dictionaries(
            _BEATS,
            st.tuples(
                st.lists(_SCRIPTED, max_size=4),
                st.lists(_VOLLEY, max_size=3),
                st.lists(_SCRIPTED, max_size=10),
            ),
            max_size=8,
        ),
        phantoms=st.dictionaries(
            _BEATS, st.lists(_PHANTOM, min_size=1, max_size=6), max_size=6
        ),
        partitioned=st.booleans(),
        as_rows=st.booleans(),
    )
    def test_scripted_traffic_identical(
        self, seed, plan, phantoms, partitioned, as_rows
    ):
        """Duplicate messages per sender (first wins), senders out of
        ascending order, ``True``/``1`` aliasing payloads, phantoms
        claiming honest senders and a partition window: the class key
        must separate every pair of receivers the reference separates.

        ``as_rows`` scripts each volley in shared form — several rows
        from one sender on one path, strays of the same sender before
        and after them — for the two sharing engines, while the
        reference is handed the envelope list those rows stand for."""
        scripted = _as_rows if as_rows else _expand
        script = {
            beat: early
            + [e for volley in volleys for e in scripted(volley)]
            + late
            for beat, (early, volleys, late) in plan.items()
        }
        flat = {beat: _materialized(entries) for beat, entries in script.items()}
        honest = range(_CLASS_N - _CLASS_F)
        stale = {
            beat: [
                Envelope(sender, receiver, path, payload, beat)
                for sender, target, path, payload in entries
                for receiver in (honest if target is None else (target,))
            ]
            for beat, entries in phantoms.items()
        }
        link = {"link": "partition", "link_params": {"split": 2, "heal": 8}}
        ref, fast, bulk = (
            _observe(
                engine, seed,
                lambda: ScriptedAdversary(
                    flat if engine == "reference" else script
                ),
                beats=12, n=_CLASS_N, f=_CLASS_F, phantoms=stale,
                **(link if partitioned else {}),
            )
            for engine in ("reference", "fast", "bulk")
        )
        assert ref == fast
        assert ref == bulk


    @settings(max_examples=200)
    @given(
        present=st.lists(st.booleans(), min_size=9, max_size=9),
        groups=st.none() | st.lists(
            st.integers(min_value=0, max_value=1), min_size=9, max_size=9
        ),
        shots=st.lists(
            st.tuples(_ANYONE, _ALIASING_PAYLOADS, st.booleans()), max_size=6
        ),
        strays=st.lists(
            st.tuples(_ANYONE, _HONEST, _ALIASING_PAYLOADS), max_size=3
        ),
        rows=st.lists(
            st.tuples(
                _ANYONE, _ALIASING_PAYLOADS, st.booleans(),
                st.sets(_HONEST, max_size=3),
            ),
            max_size=5,
        ),
    )
    def test_class_merge_is_every_members_exact_merge(
        self, present, groups, shots, strays, rows
    ):
        """The invariant the sharing rests on, checked on ``_Delivery``
        itself: a class's one merge is, sender for sender and payload
        *object* for payload object, the exact merge of each member —
        whatever the lane, the partition groups, the strays and the rows
        (each skipping a few receivers, some repeating a sender) — and
        that merge is the definition's: lane, strays, rows, stably
        sorted by sender, first wins."""
        ids = list(range(9))
        lane = Lane("p", present, [("fc", slot % 3) for slot in ids])
        extras = {node_id: {} for node_id in ids}
        for sender, payload, twisted in shots:
            twin = _alias(payload)
            for receiver in ids:
                extras[receiver].setdefault("p", {}).setdefault(
                    sender, twin if twisted and receiver % 2 else payload
                )
        for sender, receiver, payload in strays:
            extras[receiver].setdefault("p", {}).setdefault(sender, payload)
        on_path = []
        for sender, payload, twisted, skipped in rows:
            twin = _alias(payload)
            on_path.append(Row(sender, "p", {
                receiver: twin if twisted and receiver % 2 else payload
                for receiver in ids if receiver not in skipped
            }))
        delivery = _Delivery(
            ids, {node_id: node_id for node_id in ids}, [lane], extras,
            groups, {"p": on_path},
        )
        classes = delivery.inbox_classes("p")
        assert set(classes) == {
            r for r in ids
            if "p" in extras[r] or any(r in row.payloads for row in on_path)
        }
        for slot, inbox_class in classes.items():
            shared = delivery.merged_inbox("p", inbox_class)
            exact = delivery.merged_first_per_sender("p", slot)
            entries = [
                (ids[sender_slot], lane.payloads[sender_slot])
                for sender_slot in lane.sender_slots(groups, delivery.group_key(slot))
            ]
            entries += extras[slot].get("p", {}).items()
            entries += [
                (row.sender, row.payloads[slot]) for row in on_path
                if slot in row.payloads
            ]
            entries.sort(key=lambda entry: entry[0])
            defined: dict = {}
            for sender, payload in entries:
                defined.setdefault(sender, payload)
            assert list(shared) == list(exact) == list(defined)
            for ours, theirs, wanted in zip(
                shared.values(), exact.values(), defined.values()
            ):
                assert ours is theirs is wanted


class TestSharedFormCounts:
    """Counts repeat exactly where timings do not: what one beat of
    Byzantine traffic may cost on the sharing engines, at n=16, f=5."""

    @staticmethod
    def _run(adversary, monkeypatch, beats=24, engine="bulk"):
        """(exact merges per (path, beat), honest-to-faulty envelopes
        built, faulty-sender envelopes built per (path, beat)) of one
        scrambled run.  A merge is a ``_Delivery`` first-per-sender
        merge on ``bulk`` and a merged inbox of the message plane
        (:mod:`repro.net.plane`) on ``fast``."""
        sim = Simulation(
            16, 5, lambda i: SSByzClockSync(6, _coin_factory),
            adversary=adversary, seed=2, engine=engine,
        )
        assert engine != "bulk" or sim.engine.vectorized
        merges: Counter = Counter()
        view_copies = []
        crafted_copies: Counter = Counter()
        owner, method = {
            "bulk": (_Delivery, "merged_first_per_sender"),
            "fast": (BeatTraffic, "_merge"),
        }[engine]
        merge = getattr(owner, method)
        build = Envelope.__new__

        def counted_merge(self, path, *rest):
            merges[path, sim.beat] += 1
            return merge(self, path, *rest)

        def counted_build(cls, sender, receiver, path, payload, beat):
            if sender in sim.faulty_ids:
                crafted_copies[path, beat] += 1
            elif receiver in sim.faulty_ids:
                view_copies.append((sender, receiver))
            return build(cls, sender, receiver, path, payload, beat)

        with monkeypatch.context() as patch:
            patch.setattr(owner, method, counted_merge)
            patch.setattr(Envelope, "__new__", counted_build)
            sim.scramble()
            sim.run(beats)
        return merges, view_copies, crafted_copies

    def test_equivocator_costs_two_merges_and_no_view_copies(
        self, monkeypatch
    ):
        """Two variants make two inbox classes per path; the equivocator
        reads payload columns, never the view's envelopes."""
        merges, view_copies, _crafted = self._run(
            EquivocatorAdversary(), monkeypatch
        )
        assert merges and max(merges.values()) <= 2
        assert view_copies == []

    @pytest.mark.parametrize(
        "adversary", [EquivocatorAdversary, SplitWorldAdversary]
    )
    def test_two_stories_cost_two_inboxes_not_one_per_receiver(
        self, adversary, monkeypatch
    ):
        """A row is never expanded on ``bulk`` (no envelope carries a
        faulty sender; there were 11 · 5 per path per beat), and on
        ``fast`` only once per inbox class: at most classes · f copies
        and two merged lists per path per beat."""
        merges, _view, crafted = self._run(adversary(), monkeypatch)
        assert merges and max(merges.values()) <= 2
        assert not crafted
        merges, _view, crafted = self._run(
            adversary(), monkeypatch, engine="fast"
        )
        assert merges and max(merges.values()) <= 2
        assert crafted and max(crafted.values()) <= 2 * 5

    def test_noise_shares_nothing(self, monkeypatch):
        """The control: a fresh payload per copy leaves (nearly) every
        receiver in a class of its own, which then costs what it did —
        still without an envelope per copy on ``bulk``."""
        merges, _view, crafted = self._run(RandomNoiseAdversary(), monkeypatch)
        assert max(merges.values()) > 2 and not crafted
        merges, _view, crafted = self._run(
            RandomNoiseAdversary(), monkeypatch, engine="fast"
        )
        assert max(merges.values()) > 2
        assert max(crafted.values()) > 2 * 5

    def test_iterating_the_view_builds_its_copies(self, monkeypatch):
        """The probe's control: a strategy that walks the view gets every
        faulty receiver's copy of every honest broadcast."""
        _merges, view_copies, _crafted = self._run(
            AdaptiveEchoAdversary(), monkeypatch
        )
        assert view_copies
        assert {receiver for _sender, receiver in view_copies} == set(
            range(11, 16)
        )


class TestAllProtocolsDifferential:
    """Every registered protocol, vectorized or fallback, stays identical."""

    @staticmethod
    def _protocol_factory(name):
        return resolve_protocol(name).factory(
            4, 1, 6, coin_factory=_coin_factory
        )

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_fault_free_seeds_identical(self, name):
        factory = self._protocol_factory(name)
        for seed in SEEDS:
            ref = _observe("reference", seed, lambda: None, factory=factory)
            blk = _observe("bulk", seed, lambda: None, factory=factory)
            assert ref == blk

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_adversarial_seeds_identical(self, name):
        factory = self._protocol_factory(name)
        for seed in range(5):
            ref = _observe(
                "reference", seed, EquivocatorAdversary, factory=factory
            )
            blk = _observe(
                "bulk", seed, EquivocatorAdversary, factory=factory
            )
            assert ref == blk

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("link,params", LINKS[:3])
    def test_link_models_identical(self, name, link, params):
        factory = self._protocol_factory(name)
        for seed in range(3):
            ref = _observe(
                "reference", seed, lambda: None, beats=30, factory=factory,
                link=link, link_params=params,
            )
            blk = _observe(
                "bulk", seed, lambda: None, beats=30, factory=factory,
                link=link, link_params=params,
            )
            assert ref == blk

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_catalog_bulk_execution_matches_engine(self, name):
        """The catalog's vectorized/per-node row is what the engine does
        (oracle coin, perfect links — the catalog's reference regime)."""
        protocol = resolve_protocol(name)
        sim = Simulation(
            4, 1, protocol.factory(4, 1, 6, coin_factory=_coin_factory),
            engine="bulk",
        )
        assert sim.engine.vectorized == (
            protocol.bulk_execution == "vectorized"
        )


def _states_per_beat(engine, seed, *, adversary=None, link="perfect",
                     link_params=None, storm_at=None, beats=36):
    """Every mirrored tower attribute of every node after every beat, by
    repr, at n=13 f=4 — and, on bulk, what each beat's rows looked like:
    the start-of-beat phases and gate, and the (A1, A2) pairs after it."""
    sim = Simulation(
        _CLASS_N, _CLASS_F, lambda i: SSByzClockSync(6, _coin_factory),
        adversary=adversary, seed=seed, engine=engine,
        link=make_link(link, link_params) if link_params else link,
    )
    assert engine != "bulk" or sim.engine.vectorized
    sim.scramble()
    states, shapes = [], []
    for beat in range(beats):
        if beat == storm_at:
            inject_phantom_storm(sim, ["root", "root/A/A1", "root/A/A2"], count=12)
        sim.run(1)
        if engine == "bulk":
            program = sim.engine._program
            shapes.append((
                list(program.ph), list(program.gate),
                set(zip(program.a1, program.a2)),
            ))
            sim.engine.sync_trees()
        states.append({
            node_id: tuple(map(repr, state))
            for node_id, state in _tower_state(sim).items()
        })
    return states, shapes


class TestWholeRowPasses:
    """The bulk program fills a row in one builtin pass when one inbox
    (or phase, or coin row) covers every slot, and keeps the general
    per-slot loop otherwise.  Beat by beat, its full tower state must be
    the fast engine's — through mixed phases and partial A2 gates right
    after a scramble, converged beats where every pass is whole-row,
    dirty classes, phantoms and partition windows."""

    SCENARIOS = {
        "fault-free": {},
        "equivocator": {"adversary": EquivocatorAdversary},
        "split-world": {"adversary": SplitWorldAdversary},
        "phantoms": {"storm_at": 18},
        "partition": {"link": "partition",
                      "link_params": {"split": 8, "heal": 20}},
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_beat_is_the_fast_engines(self, scenario):
        options = dict(self.SCENARIOS[scenario])
        adversary = options.pop("adversary", lambda: None)
        for seed in range(3):
            fast, _ = _states_per_beat(
                "fast", seed, adversary=adversary(), **options
            )
            bulk, _ = _states_per_beat(
                "bulk", seed, adversary=adversary(), **options
            )
            for beat, (expected, got) in enumerate(zip(fast, bulk)):
                assert got == expected, (scenario, seed, beat)

    def test_equal_inboxes_are_not_one_inbox(self):
        """Faulty node 0 hands receiver 1 ``("fc", True)`` and the others
        ``("fc", 1)``: every slot's previous inbox is *equal*, yet node
        1's block-3.b tally is named ``True`` and the others' ``1`` — so
        one answer may serve a row only when it holds one *object*."""

        class FirstIdScripted(ScriptedAdversary):
            def select_faulty(self, n, f, rng):
                return frozenset({0})

        row = {1: ("fc", True), 2: ("fc", 1), 3: ("fc", 1)}

        def run(engine):
            sim = Simulation(
                4, 1, lambda i: SSByzClockSync(6, _coin_factory), seed=0,
                adversary=FirstIdScripted({0: [(0, None, "root", row)]}),
                engine=engine,
            )
            sim.run(2)  # pristine start: phase 0, then phase 1
            if engine == "bulk":
                sim.engine.sync_trees()
            return {i: repr(node.root._previous) for i, node in sim.nodes.items()}

        fast = run("fast")
        assert "('prop', True)" in fast[2] and "('prop', 1)" in fast[2]
        assert run("bulk") == fast

    def test_the_scenarios_reach_both_shapes_of_every_pass(self):
        """Not vacuous: over the fault-free seeds each phase both covers
        every slot and shares a beat with others, A2's gate is partial
        and total, and the rows hold all nine (A1, A2) pairs."""
        whole, mixed, gates, pairs = set(), set(), set(), set()
        for seed in range(3):
            for ph, gate, seen in _states_per_beat("bulk", seed)[1]:
                (whole if len(set(ph)) == 1 else mixed).update(ph)
                gated = sum(gate)
                gates.add(
                    "none" if not gated
                    else "all" if gated == len(gate) else "partial"
                )
                pairs |= seen
        assert whole >= {0, 1, 2, 3} and mixed >= {0, 1, 2, 3, None}
        assert gates == {"none", "partial", "all"}
        assert pairs == {(c1, c2) for c1 in (0, 1, None) for c2 in (0, 1, None)}


class TestEngineModeSelection:
    def test_vectorized_under_perfect_and_partition_only(self):
        factory = lambda i: SSByzClockSync(6, _coin_factory)
        churn = ((5, "crash", (0,)), (9, "recover", (0,)))
        for link, params, churn_spec, expect in (
            ("perfect", None, None, True),
            ("partition", {"split": 1, "heal": 5}, None, True),
            ("delay", {"max_delay": 2}, None, False),
            ("lossy", {"loss": 0.3}, None, False),
            ("mobility", None, None, False),
            # Membership churn forces the per-node fallback even on the
            # otherwise-vectorizable links.
            ("perfect", None, churn, False),
            ("partition", {"split": 1, "heal": 5}, churn, False),
        ):
            link_model = make_link(link, params) if params else link
            sim = Simulation(
                4, 1, factory, engine="bulk", link=link_model,
                churn=churn_spec,
            )
            assert sim.engine.vectorized is expect, (link, params, churn_spec)

    def test_gvss_coin_disables_vectorization(self):
        sim = Simulation(
            4, 1,
            lambda i: SSByzClockSync(6, lambda: FeldmanMicaliCoin(4, 1)),
            engine="bulk",
        )
        assert not sim.engine.vectorized

    def test_unregistered_root_type_builds_no_program(self):
        from repro.baselines.det_clock_sync import DeterministicClockSync

        sim = Simulation(
            4, 1, lambda i: DeterministicClockSync(4, 1, 6), engine="bulk"
        )
        assert sim.engine.vectorized is False
        assert build_bulk_program(sim) is None
        assert not has_bulk_program(DeterministicClockSync)
        assert has_bulk_program(SSByzClockSync)

    def test_registry_and_single_use(self):
        assert "bulk" in ENGINES
        engine = resolve_engine("bulk")
        assert isinstance(engine, BulkEngine)
        assert engine.description
        factory = lambda i: SSByzClockSync(6, _coin_factory)
        instance = BulkEngine()
        Simulation(4, 1, factory, engine=instance)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Simulation(4, 1, factory, engine=instance)


class TestCampaignDispatch:
    def test_campaign_engine_axis_identical(self):
        def sweep(engine):
            specs = [
                ScenarioSpec(n=4, f=1, k=6, engine=engine, max_beats=80),
                ScenarioSpec(
                    n=4, f=1, k=6, engine=engine, adversary="equivocator",
                    max_beats=80,
                ),
                ScenarioSpec(
                    n=4, f=1, k=6, engine=engine, protocol="dolev-welch",
                    max_beats=80,
                ),
            ]
            # SweepResult embeds the spec (whose engine field is the axis
            # under test); compare the per-seed trial outcomes.
            return [
                entry.sweep.results
                for entry in iter_campaign(specs, range(3), workers=1)
            ]

        assert sweep("fast") == sweep("bulk")
