"""Keyed draws in prefix form: the same bits as the whole label path.

``net/rng.py`` writes ``derive_seed``'s byte layout once, as a prefix
(a hash state over the master seed and the leading labels) finished by
the rendered rest; the link models hash each directed link's prefix
once and each copy's suffix, some of it pre-rendered.  Two properties
hold that to the layout itself — a frozen copy of ``derive_seed`` as it
was written before the prefix form existed:

* any master seed and label path, split anywhere, gives the frozen
  function's value, and so does every pre-rendered suffix;
* every registered link model rules a random ``(sender, receiver,
  beat)`` call sequence exactly as a test-local reference written on
  the frozen function does.

A few examples run by default; the ``slow`` twins carry the budget.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.linkmodel import (
    _DELAY_SUFFIX,
    _LOSS_SUFFIX,
    LINK_MODELS,
    BoundedDelayLinks,
    LossyLinks,
    MobilityLinks,
    PartitionLinks,
    PerfectLinks,
    make_link,
)
from repro.net.rng import derive_seed, label_bytes, seed_from, seed_prefix


def frozen_derive_seed(master_seed: int, *labels: object) -> int:
    """``derive_seed`` as written before the prefix form."""
    digest = hashlib.sha256()
    digest.update(str(int(master_seed)).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


_SCALE = float(2**64)

_SEEDS = st.one_of(
    st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-1), st.booleans(),
)
_ATOMS = st.one_of(
    st.integers(), st.integers(min_value=2**64), st.booleans(),
    st.text(), st.text(alphabet="λ→ßü漢字🙂'\"\\/"), st.none(),
)
_LABELS = st.recursive(
    _ATOMS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)


def _check_split(master, labels, cut):
    cut = min(cut, len(labels))
    expected = frozen_derive_seed(master, *labels)
    assert derive_seed(master, *labels) == expected
    head, tail = labels[:cut], labels[cut:]
    assert seed_from(seed_prefix(master, *head), label_bytes(*tail)) == expected
    # The prefix is copied, never consumed: finishing twice agrees.
    prefix = seed_prefix(master, *head)
    seed_from(prefix, b"/'other'")
    assert seed_from(prefix, label_bytes(*tail)) == expected


def _check_suffixes(master, sender, receiver, seq):
    assert _LOSS_SUFFIX % seq == label_bytes(seq, "loss")
    assert _DELAY_SUFFIX % seq == label_bytes(seq)
    for name in ("lossy", "delay"):
        prefix = seed_prefix(master, name, sender, receiver)
        assert seed_from(prefix, _LOSS_SUFFIX % seq) == frozen_derive_seed(
            master, name, sender, receiver, seq, "loss"
        )
        assert seed_from(prefix, _DELAY_SUFFIX % seq) == frozen_derive_seed(
            master, name, sender, receiver, seq
        )


_SPLIT = dict(
    master=_SEEDS, labels=st.lists(_LABELS, max_size=6),
    cut=st.integers(0, 6),
)
_SUFFIX = dict(
    master=_SEEDS,
    sender=st.integers(0, 2**40), receiver=st.integers(0, 2**40),
    seq=st.integers(0, 2**70),
)


class TestPrefixForm:
    @settings(max_examples=25, derandomize=True)
    @given(**_SPLIT)
    def test_any_split_is_derive_seed(self, master, labels, cut):
        _check_split(master, labels, cut)

    @pytest.mark.slow
    @settings(max_examples=150, derandomize=True)
    @given(**_SPLIT)
    def test_any_split_is_derive_seed_full_budget(self, master, labels, cut):
        _check_split(master, labels, cut)

    @settings(max_examples=10, derandomize=True)
    @given(**_SUFFIX)
    def test_pre_rendered_suffixes_are_the_labels(
        self, master, sender, receiver, seq
    ):
        _check_suffixes(master, sender, receiver, seq)

    @pytest.mark.slow
    @settings(max_examples=100, derandomize=True)
    @given(**_SUFFIX)
    def test_pre_rendered_suffixes_are_the_labels_full_budget(
        self, master, sender, receiver, seq
    ):
        _check_suffixes(master, sender, receiver, seq)

    def test_by_hand(self):
        """Cases a reader can check: bools are not ints, nesting renders
        inner reprs, and a negative or huge seed is its decimal text."""
        assert derive_seed(0, True) != derive_seed(0, 1)
        assert derive_seed(-5, ("a", (1, "ß"))) == int.from_bytes(
            hashlib.sha256(b"-5/('a', (1, '\xc3\x9f'))").digest()[:8], "big"
        )
        big = 2**64 + 7
        assert derive_seed(big) == int.from_bytes(
            hashlib.sha256(str(big).encode()).digest()[:8], "big"
        )


# -- every link model against a reference on the frozen function -------------


class Reference:
    """Each registered model's rulings, restated on ``frozen_derive_seed``
    (the emission counters, FIFO frontiers and burst regimes as the
    models kept them before any prefix was cached)."""

    def __init__(self, model, n: int, seed: int) -> None:
        self.model, self.n, self.seed = model, n, seed
        self.emitted: dict = {}
        self.frontier: dict = {}
        self.burst: dict = {}

    def uniform(self, *labels):
        return frozen_derive_seed(self.seed, self.model.name, *labels) / _SCALE

    def seq(self, sender, receiver):
        seq = self.emitted.get((sender, receiver), 0)
        self.emitted[sender, receiver] = seq + 1
        return seq

    def classify(self, sender, receiver, beat):
        model = self.model
        if isinstance(model, PerfectLinks):
            return 0
        if isinstance(model, BoundedDelayLinks):
            if model.max_delay == 0:
                return 0
            seq = self.seq(sender, receiver)
            delay = frozen_derive_seed(
                self.seed, "delay", sender, receiver, seq
            ) % (model.max_delay + 1)
            due = max(beat + delay, self.frontier.get((sender, receiver), 0))
            self.frontier[sender, receiver] = due
            return due - beat
        if isinstance(model, LossyLinks):
            seq = self.seq(sender, receiver)
            if model.burst_enter:
                bad, last = self.burst.get((sender, receiver), (False, -1))
                for step in range(last + 1, beat + 1):
                    draw = self.uniform(step, sender, receiver, "burst")
                    bad = draw >= model.burst_exit if bad else (
                        draw < model.burst_enter
                    )
                self.burst[sender, receiver] = (bad, beat)
                if bad:
                    return None
            loss = self.uniform(sender, receiver, seq, "loss")
            return None if model.loss and loss < model.loss else 0
        if isinstance(model, PartitionLinks):
            if not model.partitioned_at(beat):
                return 0
            cut = max(1, min(self.n - 1, round(model.fraction * self.n)))
            return 0 if (sender < cut) == (receiver < cut) else None
        if isinstance(model, MobilityLinks):
            def position(node):
                leg, step = divmod(beat, model.leg_beats)
                t = step / model.leg_beats
                x0, y0, x1, y1 = (
                    self.uniform(axis, node, at) * model.world
                    for at in (leg, leg + 1) for axis in ("wx", "wy")
                )
                return x0 + (x1 - x0) * t, y0 + (y1 - y0) * t
            (ax, ay), (bx, by) = position(sender), position(receiver)
            close = (ax - bx) ** 2 + (ay - by) ** 2 <= model.radius ** 2
            return 0 if close else None
        raise AssertionError(f"no reference for {model.name}")


#: name -> parameter sets drawn from; every registered model has an entry.
PARAMS = {
    "perfect": [{}],
    "delay": [{"max_delay": 0}, {"max_delay": 1}, {"max_delay": 3}],
    "lossy": [
        {"loss": 0.3}, {"loss": 0.0, "burst_enter": 0.3, "burst_exit": 0.4},
        {"loss": 0.2, "burst_enter": 0.1},
    ],
    "partition": [{"split": 2, "heal": 6}, {"split": 0, "heal": 3, "period": 5}],
    "mobility": [{}, {"world": 40.0, "radius": 20.0, "leg_beats": 2}],
}

_CALLS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2)),
    max_size=40,
)


def _check_rulings(name, which, seed, calls):
    params = PARAMS[name][which % len(PARAMS[name])]
    n = 7
    model = make_link(name, params)
    model.bind(n, seed)
    reference = Reference(make_link(name, params), n, seed)
    beat = 0
    # The registered models count emissions per link and ignore ``seq``.
    for seq, (sender, receiver, step) in enumerate(calls):
        beat += step  # engines classify in nondecreasing beat order
        assert model.classify(sender, receiver, beat, seq) == (
            reference.classify(sender, receiver, beat)
        ), (name, params, sender, receiver, beat)


def test_every_model_has_a_reference():
    assert sorted(PARAMS) == sorted(LINK_MODELS)


_RULINGS = dict(
    which=st.integers(0, 2), seed=st.integers(-(2**70), 2**70), calls=_CALLS,
)


@pytest.mark.parametrize("name", sorted(LINK_MODELS))
@settings(max_examples=6, derandomize=True)
@given(**_RULINGS)
def test_rulings_match_the_reference(name, which, seed, calls):
    _check_rulings(name, which, seed, calls)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LINK_MODELS))
@settings(max_examples=60, derandomize=True)
@given(**_RULINGS)
def test_rulings_match_the_reference_full_budget(name, which, seed, calls):
    _check_rulings(name, which, seed, calls)
