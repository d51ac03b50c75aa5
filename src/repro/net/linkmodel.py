"""Link-condition models: what the network does to each message.

The paper's global-beat-system assumes a *non-faulty network* (Definition
2.2): every message sent at beat ``r`` is delivered, untampered, within
beat ``r``.  The follow-on literature — Hoch, Ben-Or & Dolev's
*fault-resistant asynchronous clock function* and the bounded-delay /
message-adversary resynchronization line — lives just beyond that
assumption.  This module is the seam that lets every scenario in the repo
cross it: a :class:`LinkModel` sits between the send phase and the
engine's delivery phase and rules on each honest or Byzantine envelope
individually — deliver now, deliver ``d`` beats late, or drop.

Five models ship:

* :class:`PerfectLinks` — Definition 2.2 verbatim.  It is *provably* a
  no-op: engines check :attr:`LinkModel.is_perfect` and run their original
  delivery path untouched, so perfect-link runs are bit-identical to the
  pre-link-layer behavior (``tests/test_linkmodel.py`` enforces this
  differentially, and additionally proves the *linked* machinery itself is
  an identity when the delay bound is zero).
* :class:`BoundedDelayLinks` — each envelope is delayed a pseudo-random
  0..``max_delay`` beats and links stay FIFO: per (sender, receiver) pair,
  messages are never reordered (a later send may not overtake an earlier
  one).
* :class:`LossyLinks` — omission faults: i.i.d. per-envelope loss plus an
  optional Gilbert–Elliott burst regime in which a link flips between a
  good state and a bad state that drops everything.
* :class:`PartitionLinks` — a scheduled split of the node set: traffic
  crossing the cut is dropped during the partition window, the window may
  repeat periodically, and the network heals afterwards.
* :class:`MobilityLinks` — proximity-driven connectivity: every node
  follows a deterministic random-waypoint trajectory across a 2-D world
  and an envelope is delivered iff sender and receiver are within radio
  range at its send beat.  Positions are pure functions of
  ``(seed, node, beat)`` — no per-link state at all — so peers drift in
  and out of range identically across engines and worker counts.

Determinism contract
--------------------

Link decisions must be reproducible across engines, worker counts and
object identities, yet engines are free to classify a beat's envelopes
in different global orders.  Models therefore draw *keyed* randomness
instead of consuming a sequential stream: every random choice hashes
the link seed, the model name and a label path — for a per-copy draw
``(sender, receiver, per-link emission counter, label)`` — in
:func:`~repro.net.rng.derive_seed`'s byte layout.  A model hashes each
directed link's prefix ``(seed, name, sender, receiver)`` once
(:func:`~repro.net.rng.seed_prefix`) and each copy's draw only its
suffix (:func:`~repro.net.rng.seed_from`) — the same bytes, so the same
bits, as ``derive_seed`` over the whole path.  The emission counter (and any
other mutable state: FIFO clamps, burst regimes) is keyed per directed
link ``(sender, receiver)``, and engines guarantee that envelopes of one
directed link are classified in emission order — so per-envelope draws
are independent *and* identical whichever engine executes the run,
whatever global order it classifies envelopes in.

Scope: link conditions apply to traffic *between distinct correct nodes*
(and Byzantine traffic addressed to correct nodes).  Self-delivery
(``sender == receiver``) is a node's loopback and is always perfect;
messages addressed to faulty nodes only feed the adversary's view, which
models a message adversary that cannot blind the Byzantine coalition; and
phantom messages bypass the link layer entirely — they *are* network
incoherence, injected directly into delivery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.net.rng import label_bytes, seed_from, seed_prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.world import World

__all__ = [
    "DEFAULT_LINK",
    "LINK_MODELS",
    "BoundedDelayLinks",
    "LinkModel",
    "LossyLinks",
    "MobilityLinks",
    "PartitionLinks",
    "PerfectLinks",
    "make_link",
    "normalize_link_params",
    "resolve_link",
]

#: Scale factor turning a 64-bit :func:`~repro.net.rng.derive_seed`
#: digest into [0, 1).
_UNIFORM_SCALE = float(2**64)

#: Per-copy suffixes after a link's key prefix, pre-rendered:
#: ``label_bytes(emitted)`` and ``label_bytes(emitted, "loss")``, where
#: ``emitted`` counts the link's earlier copies.
_DELAY_SUFFIX = b"/%d"
_LOSS_SUFFIX = b"/%d/'loss'"


class LinkModel:
    """Base class: per-envelope delivery policy for one simulation.

    Subclasses implement :meth:`classify`.  A model instance is single-use:
    :meth:`bind` couples it to one simulation's size and seed (called by
    ``Simulation.__init__``) and per-run state must not leak across runs —
    pass the model *name* (plus parameters) to reuse a configuration.
    """

    name = "abstract"

    #: True only for :class:`PerfectLinks`; engines bypass the link layer
    #: (and its in-flight queue) entirely when set, which is what makes the
    #: perfect model a provable no-op.
    is_perfect = False

    #: Upper bound on beats any envelope may spend in flight.  Zero for
    #: models that only drop; engines may use it for queue sizing.
    max_delay = 0

    def __init__(self) -> None:
        self._n: int | None = None
        self._seed = 0
        #: Per directed link: ``[envelopes classified so far, its key
        #: prefix]``.  Engines call :meth:`classify` in emission order per
        #: link, so the counter is an engine-independent per-envelope
        #: discriminator for keyed draws (two messages on one link in one
        #: beat draw independently); the prefix — ``(seed, name, sender,
        #: receiver)`` — is hashed once per link, each draw its suffix.
        self._links: dict[tuple[int, int], list] = {}

    def bind(self, n: int, seed: int) -> None:
        """Couple this model to one simulation before the first beat."""
        if self._n is not None:
            raise ConfigurationError(
                "link model instances are single-use; pass the link *name* "
                "to reuse a configuration across simulations"
            )
        if n < 1:
            raise ConfigurationError(f"need at least one node, got n={n}")
        self._n = n
        self._seed = seed
        self._prefix = seed_prefix(seed, self.name)

    def bind_world(self, world: "World") -> None:
        """Couple this model to one simulation's system (called by
        ``Simulation.__init__``): :meth:`bind` on its size and link
        seed.  A model keyed by another of the world's seeds, or reading
        its cast, overrides this."""
        self.bind(world.n, world.link_seed)

    def classify(self, sender: int, receiver: int, beat: int, seq: int) -> int | None:
        """Rule on one envelope: ``None`` drops it, ``d >= 0`` delivers it
        at beat ``beat + d`` (0 = the paper's same-beat delivery).

        Engines call this once per (envelope, correct receiver), in
        emission order per directed link; decisions must depend only on
        ``(seed, beat, sender, receiver)`` and per-link state built from
        earlier calls on the *same* directed link (see the module
        docstring's determinism contract).  ``seq`` is the copy's index:
        its position in its sender's per-receiver envelope list (a
        broadcast's base plus the receiver id), or for crafted traffic
        in the beat's expanded :class:`~repro.net.message.CraftedTraffic`.
        The registered models ignore it and count emissions per link.
        """
        raise NotImplementedError

    def perfect_at(self, beat: int) -> bool:
        """True when this beat provably cannot be affected — the engine
        may then run its perfect-path delivery for the whole beat,
        skipping :meth:`classify` entirely (provided its in-flight queue
        is empty).

        Only legal when classifying this beat would be state-free and
        return 0 for every pair; models with per-link mutable state
        (emission counters, FIFO frontiers, burst regimes) must keep the
        default ``False`` or the skipped calls would desynchronize state.
        """
        return self.is_perfect

    # -- keyed randomness --------------------------------------------------

    def _link_seq(self, sender: int, receiver: int) -> "tuple[int, object]":
        """Bump the directed link's emission counter: its value before
        the bump, and the link's key prefix."""
        record = self._links.get((sender, receiver))
        if record is None:
            record = self._links[sender, receiver] = [
                0, seed_prefix(self._seed, self.name, sender, receiver)
            ]
        seq = record[0]
        record[0] = seq + 1
        return seq, record[1]

    def _uniform(self, *labels: object) -> float:
        """A [0, 1) draw keyed by the link seed and ``labels``."""
        return seed_from(self._prefix, label_bytes(*labels)) / _UNIFORM_SCALE

    def describe(self) -> str:
        """Human-readable parameterization for labels and tables."""
        return self.name


class PerfectLinks(LinkModel):
    """Definition 2.2 exactly: every message arrives within its beat."""

    name = "perfect"
    is_perfect = True

    def classify(self, sender: int, receiver: int, beat: int, seq: int) -> int | None:
        return 0


class BoundedDelayLinks(LinkModel):
    """Seeded bounded delay: each envelope arrives 0..``max_delay`` beats
    after it was sent, and each directed link delivers in FIFO order.

    The FIFO clamp mirrors real bounded-delay channels: an envelope's raw
    delay draw is pushed forward to at least the delivery beat of the
    previous envelope on the same (sender, receiver) link, so a later send
    never overtakes an earlier one.  The clamp cannot breach the bound —
    the previous delivery beat is itself at most ``previous_beat +
    max_delay < beat + max_delay``.
    """

    name = "delay"

    def __init__(self, max_delay: int = 1) -> None:
        super().__init__()
        if max_delay < 0:
            raise ConfigurationError(
                f"max_delay must be non-negative, got {max_delay}"
            )
        self.max_delay = int(max_delay)
        #: Per directed link: delivery beat of the last classified envelope.
        self._frontier: dict[tuple[int, int], int] = {}

    def classify(self, sender: int, receiver: int, beat: int, seq: int) -> int | None:
        if self.max_delay == 0:
            return 0
        emitted, prefix = self._link_seq(sender, receiver)
        delay = seed_from(prefix, _DELAY_SUFFIX % emitted) % (self.max_delay + 1)
        link = (sender, receiver)
        due = max(beat + delay, self._frontier.get(link, 0))
        self._frontier[link] = due
        return due - beat

    def describe(self) -> str:
        return f"delay(d={self.max_delay})"


class LossyLinks(LinkModel):
    """Omission faults: i.i.d. loss plus optional Gilbert–Elliott bursts.

    Args:
        loss: probability that any single envelope is dropped,
            independently (0 disables).
        burst_enter: per-beat probability that a good link enters a burst
            (bad) state in which it drops *every* envelope (0 disables the
            burst regime entirely).
        burst_exit: per-beat probability that a bursting link heals.

    Burst state is per directed link and advances lazily: the state at
    beat ``b`` is a pure function of the keyed per-beat transition draws,
    so it does not depend on whether (or in which order) the link carried
    traffic — the determinism contract holds by construction.
    """

    name = "lossy"

    def __init__(
        self,
        loss: float = 0.1,
        burst_enter: float = 0.0,
        burst_exit: float = 0.5,
    ) -> None:
        super().__init__()
        if not 0.0 <= loss <= 1.0:
            raise ConfigurationError(f"loss must be in [0, 1], got {loss}")
        if not 0.0 <= burst_enter <= 1.0:
            raise ConfigurationError(
                f"burst_enter must be in [0, 1], got {burst_enter}"
            )
        if not 0.0 < burst_exit <= 1.0:
            raise ConfigurationError(
                f"burst_exit must be in (0, 1], got {burst_exit}"
            )
        self.loss = float(loss)
        self.burst_enter = float(burst_enter)
        self.burst_exit = float(burst_exit)
        #: Per directed link: (in_burst, last_advanced_beat).
        self._burst: dict[tuple[int, int], tuple[bool, int]] = {}

    def _bursting(self, sender: int, receiver: int, beat: int) -> bool:
        link = (sender, receiver)
        bad, last = self._burst.get(link, (False, -1))
        for step in range(last + 1, beat + 1):
            draw = self._uniform(step, sender, receiver, "burst")
            if bad:
                bad = draw >= self.burst_exit
            else:
                bad = draw < self.burst_enter
        self._burst[link] = (bad, beat)
        return bad

    def classify(self, sender: int, receiver: int, beat: int, seq: int) -> int | None:
        emitted, prefix = self._link_seq(sender, receiver)
        if self.burst_enter and self._bursting(sender, receiver, beat):
            return None
        if (
            self.loss
            and seed_from(prefix, _LOSS_SUFFIX % emitted) / _UNIFORM_SCALE
            < self.loss
        ):
            return None
        return 0

    def describe(self) -> str:
        if self.burst_enter:
            return (
                f"lossy(p={self.loss:g},burst={self.burst_enter:g}"
                f"/{self.burst_exit:g})"
            )
        return f"lossy(p={self.loss:g})"


class PartitionLinks(LinkModel):
    """Scheduled split/heal of the node set.

    During a partition window, traffic crossing the cut is dropped;
    intra-group traffic (and everything outside the window) is perfect.

    Args:
        split: first beat of the partition window.
        heal: first beat *after* the window (``None`` = never heals).
        fraction: size of group 0 as a fraction of ``n`` when ``groups``
            is not given — nodes ``0 .. ceil(fraction*n)-1`` form one side.
        period: if set, the window repeats: the link is partitioned
            whenever ``split <= beat % period < heal`` (an oscillating
            split/heal schedule).
        groups: explicit partition of the node ids (iterable of iterables);
            overrides ``fraction``.  Ids absent from every group form one
            implicit final group.
    """

    name = "partition"

    def __init__(
        self,
        split: int = 0,
        heal: int | None = 20,
        fraction: float = 0.5,
        period: int | None = None,
        groups: Iterable[Iterable[int]] | None = None,
    ) -> None:
        super().__init__()
        if split < 0:
            raise ConfigurationError(f"split must be non-negative, got {split}")
        if heal is not None and heal <= split:
            raise ConfigurationError(
                f"heal beat {heal} must come after split beat {split}"
            )
        if not 0.0 < fraction < 1.0 and groups is None:
            raise ConfigurationError(
                f"fraction must be in (0, 1), got {fraction}"
            )
        if period is not None:
            if heal is None:
                raise ConfigurationError("a periodic partition needs a heal beat")
            if period < heal:
                raise ConfigurationError(
                    f"period {period} must cover the window [split, heal)="
                    f"[{split}, {heal})"
                )
        self.split = int(split)
        self.heal = None if heal is None else int(heal)
        self.fraction = float(fraction)
        self.period = None if period is None else int(period)
        self._explicit_groups = (
            None if groups is None else tuple(tuple(group) for group in groups)
        )
        self._group_of: dict[int, int] = {}

    def bind(self, n: int, seed: int) -> None:
        super().bind(n, seed)
        if self._explicit_groups is not None:
            for index, group in enumerate(self._explicit_groups):
                for node_id in group:
                    if not 0 <= node_id < n:
                        raise ConfigurationError(
                            f"partition group names unknown node id {node_id}"
                        )
                    if node_id in self._group_of:
                        raise ConfigurationError(
                            f"node id {node_id} appears in two partition groups"
                        )
                    self._group_of[node_id] = index
            leftover = len(self._explicit_groups)
            for node_id in range(n):
                self._group_of.setdefault(node_id, leftover)
        else:
            boundary = max(1, min(n - 1, round(self.fraction * n)))
            for node_id in range(n):
                self._group_of[node_id] = 0 if node_id < boundary else 1

    def group_of(self, node_id: int) -> int:
        """The partition group of ``node_id`` (valid after :meth:`bind`).

        Rulings are a pure function of (schedule, groups), which is what
        lets the bulk engine compute whole-lane intra-group delivery from
        this map instead of calling :meth:`classify` per copy.
        """
        return self._group_of[node_id]

    def partitioned_at(self, beat: int) -> bool:
        """True when the partition window covers ``beat``."""
        if self.period is not None:
            beat = beat % self.period
        if beat < self.split:
            return False
        return self.heal is None or beat < self.heal

    def perfect_at(self, beat: int) -> bool:
        # Partition decisions are pure functions of the schedule (no
        # draws, no per-link state), so outside the window the engine may
        # safely run its perfect path — a healed partition costs nothing.
        return not self.partitioned_at(beat)

    def classify(self, sender: int, receiver: int, beat: int, seq: int) -> int | None:
        if not self.partitioned_at(beat):
            return 0
        if self._group_of[sender] == self._group_of[receiver]:
            return 0
        return None

    def describe(self) -> str:
        heal = "∞" if self.heal is None else self.heal
        window = f"[{self.split},{heal})"
        if self.period is not None:
            window += f"%{self.period}"
        return f"partition({window})"


class MobilityLinks(LinkModel):
    """Proximity-driven connectivity over a deterministic waypoint world.

    Every node follows a random-waypoint trajectory across a square 2-D
    world: it walks in a straight line from one waypoint to the next,
    each leg lasting ``leg_beats`` beats, with waypoints drawn uniformly
    over the world.  An envelope is delivered (same beat) iff sender and
    receiver are within ``radius`` of each other at its send beat, and
    dropped otherwise — the connectivity graph of a mobile ad-hoc
    network, varying beat by beat.

    Determinism: waypoint ``ℓ`` of node ``i`` is a keyed draw
    ``derive_seed(seed, "mobility", axis, i, ℓ)``, remembered once drawn,
    and a position is pure interpolation between consecutive waypoints,
    so :meth:`position` — and hence every ruling — is a pure function of
    ``(seed, node, beat)``.  No emission counters, no per-link state:
    campaigns reproduce across engines and worker counts by construction.

    Args:
        world: side length of the square world.
        radius: radio range; pairs at most this far apart are connected.
        leg_beats: beats per waypoint leg (larger = slower drift).
    """

    name = "mobility"

    def __init__(
        self,
        world: float = 100.0,
        radius: float = 65.0,
        leg_beats: int = 8,
    ) -> None:
        super().__init__()
        if world <= 0:
            raise ConfigurationError(f"world must be positive, got {world}")
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {radius}")
        if leg_beats < 1:
            raise ConfigurationError(
                f"leg_beats must be at least 1, got {leg_beats}"
            )
        self.world = float(world)
        self.radius = float(radius)
        self.leg_beats = int(leg_beats)
        #: (node, leg) -> its waypoint, drawn once.
        self._waypoints: dict[tuple[int, int], tuple[float, float]] = {}

    def _waypoint(self, node: int, leg: int) -> tuple[float, float]:
        point = self._waypoints.get((node, leg))
        if point is None:
            point = self._waypoints[node, leg] = (
                self._uniform("wx", node, leg) * self.world,
                self._uniform("wy", node, leg) * self.world,
            )
        return point

    def position(self, node: int, beat: int) -> tuple[float, float]:
        """Node's world coordinates at ``beat`` (pure keyed function)."""
        leg, step = divmod(beat, self.leg_beats)
        t = step / self.leg_beats
        x0, y0 = self._waypoint(node, leg)
        x1, y1 = self._waypoint(node, leg + 1)
        return (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)

    def connected(self, a: int, b: int, beat: int) -> bool:
        """Whether nodes ``a`` and ``b`` are within range at ``beat``."""
        ax, ay = self.position(a, beat)
        bx, by = self.position(b, beat)
        return (ax - bx) ** 2 + (ay - by) ** 2 <= self.radius**2

    def classify(self, sender: int, receiver: int, beat: int, seq: int) -> int | None:
        return 0 if self.connected(sender, receiver, beat) else None

    def describe(self) -> str:
        return (
            f"mobility(r={self.radius:g}/{self.world:g},"
            f"leg={self.leg_beats})"
        )


#: Link model registry: name -> class.  Names are shared with the CLI's
#: ``--link`` flags and :class:`~repro.analysis.campaign.ScenarioSpec`.
LINK_MODELS: dict[str, type[LinkModel]] = {
    PerfectLinks.name: PerfectLinks,
    BoundedDelayLinks.name: BoundedDelayLinks,
    LossyLinks.name: LossyLinks,
    PartitionLinks.name: PartitionLinks,
    MobilityLinks.name: MobilityLinks,
}

#: The default link model: the paper's non-faulty network.
DEFAULT_LINK = PerfectLinks.name


def make_link(name: str, params: Mapping[str, object] | None = None) -> LinkModel:
    """Build a link model from its registry name and keyword parameters."""
    factory = LINK_MODELS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown link model {name!r}; known models: {sorted(LINK_MODELS)}"
        )
    try:
        return factory(**dict(params or {}))
    except TypeError as error:
        raise ConfigurationError(
            f"bad parameters for link model {name!r}: {error}"
        ) from None


def resolve_link(link: "str | LinkModel") -> LinkModel:
    """Turn a link-model name or instance into a bindable model object."""
    if isinstance(link, str):
        return make_link(link)
    if isinstance(link, LinkModel):
        return link
    raise ConfigurationError(
        f"link must be a name or a LinkModel instance, got {link!r}"
    )


def normalize_link_params(
    params: "Mapping[str, object] | Sequence[tuple[str, object]] | None",
) -> tuple[tuple[str, object], ...]:
    """Canonicalize link parameters into a hashable, picklable tuple."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(key), value) for key, value in items))
