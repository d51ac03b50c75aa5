"""The global beat system: a lock-step simulation driver.

One :class:`Simulation` owns the correct nodes, the adversary, the
execution engine (see :mod:`repro.net.engine`) and the shared environment,
and advances them beat by beat:

1. **begin beat** — the environment learns the new beat index;
2. **send phase** — every correct node's component tree emits messages from
   start-of-beat state;
3. **adversary phase** — the (rushing) adversary inspects every message
   addressed to a faulty node, plus the current beat's coin (§6.1), and
   crafts the faulty nodes' messages;
4. **link conditions** — the configured :mod:`~repro.net.linkmodel` rules
   on every envelope bound for a correct node: deliver now, deliver a few
   beats late (via the engine's in-flight queue), or drop (the default
   perfect network delivers everything and is a provable no-op);
5. **delivery** — the engine validates sender identities and routes the
   beat's surviving traffic, any delayed envelopes now due, and any queued
   phantom messages into per-node, per-component inboxes;
6. **update phase** — every correct node consumes its inboxes and the coin
   output and updates state;
7. **monitors** — observers (convergence detectors, tracers) run.

Transient faults are injected between beats with :meth:`Simulation.scramble`,
which redraws node state from the declared variable domains — the paper's
"memory altered in an arbitrary fashion" under the standard bounded-variable
reading of self-stabilization.

Membership churn is a first-class fault axis: a
:class:`~repro.faults.dynamic.ChurnSchedule` passed at construction
scripts per-beat crash / recover-with-scrambled-state / join / leave
events, applied by the simulation at the *start* of each beat — before
the send phase, so engines only ever see the settled membership of a
beat.  Inactive correct nodes keep their :class:`~repro.net.node.Node`
object (ids, RNG streams and dict order stay stable whatever the
schedule) but neither send nor consume traffic; messages addressed to
them are classified and counted normally and land in inboxes nobody
reads, which is exactly a crashed machine's NIC.  The active set is what
:meth:`Simulation.active_nodes` exposes and what convergence monitors
snapshot.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from repro.errors import ConfigurationError
from repro.net.component import Component
from repro.net.engine import DEFAULT_ENGINE, Engine, resolve_engine
from repro.net.linkmodel import DEFAULT_LINK, LinkModel, resolve_link
from repro.net.message import Envelope
from repro.net.node import Node
from repro.net.world import World

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.adversary.base import Adversary
    from repro.faults.dynamic import ChurnSchedule

__all__ = ["Monitor", "Simulation"]


class Monitor(Protocol):
    """Observer invoked after every beat."""

    def __call__(self, simulation: "Simulation", beat: int) -> None: ...


class Simulation:
    """A lock-step run of one protocol stack under one adversary.

    Args:
        n: total number of nodes.
        f: the protocol's fault parameter (must satisfy ``f < n/3``).
        root_factory: builds the per-node root component; called once per
            correct node with the node id.
        adversary: controls the faulty nodes; ``None`` means a fault-free
            run (the protocol is still parameterized by ``f``).
        seed: master seed; equal seeds reproduce runs exactly.
        root_path: routing prefix for the component tree.
        enforce_resilience: set to ``False`` only for experiments that
            deliberately cross the f < n/3 bound (the F3 resilience bench);
            protocols are *expected* to fail there.
        engine: execution engine — a name from
            :data:`~repro.net.engine.ENGINES` (``"fast"``, ``"bulk"`` or
            ``"reference"``) or a fresh :class:`~repro.net.engine.Engine`
            instance.  All engines produce bit-identical runs; the fast
            one shares broadcast fan-outs instead of copying envelopes,
            the bulk one batch-executes whole beats over
            structure-of-arrays state for supported protocols.
        link: link-condition model — a name from
            :data:`~repro.net.linkmodel.LINK_MODELS` (``"perfect"``,
            ``"delay"``, ``"lossy"``, ``"partition"``) or a fresh
            :class:`~repro.net.linkmodel.LinkModel` instance.  The default
            perfect network is the paper's Definition 2.2 and is a
            provable no-op; other models delay or drop individual
            envelopes between the send and delivery phases.
        churn: membership schedule — a
            :class:`~repro.faults.dynamic.ChurnSchedule` (or the raw
            event tuples one normalizes to) scripting per-beat crash /
            recover / join / leave events for correct nodes; ``None``
            (the default) keeps membership static.  Nodes named by a
            ``join`` event start *inactive* and boot at their join beat;
            recovery scrambles the node's state from the ``"faults"``
            RNG stream (a rebooted machine remembers nothing
            trustworthy).
        metrics: a :class:`~repro.obs.MetricsRegistry` to re-home this
            run's accounting onto (``sim_*`` instruments populated by a
            collector at export time), or ``None`` (the default) for no
            telemetry.  Either way the beat loop is untouched, so an
            instrumented run's trajectory is byte-identical to a bare
            one — the invariant ``tests/test_obs.py`` pins.
    """

    def __init__(
        self,
        n: int,
        f: int,
        root_factory: Callable[[int], Component],
        *,
        adversary: "Adversary | None" = None,
        seed: int = 0,
        root_path: str = "root",
        enforce_resilience: bool = True,
        engine: "str | Engine" = DEFAULT_ENGINE,
        link: "str | LinkModel" = DEFAULT_LINK,
        churn: "ChurnSchedule | object | None" = None,
        metrics: "object | None" = None,
    ) -> None:
        self.world = world = World.build(
            n,
            f,
            root_factory,
            adversary=adversary,
            seed=seed,
            root_path=root_path,
            enforce_resilience=enforce_resilience,
        )
        self.n = n
        self.f = f
        self.seed = seed
        self.root_path = root_path
        self.env = world.env
        self.adversary = adversary
        #: RNG stream reserved for the adversary (engines build its view).
        self.adversary_rng = world.adversary_rng
        self.faulty_ids = world.faulty_ids
        self.nodes = world.nodes
        self.honest_ids = list(world.nodes)
        # Membership: all honest nodes are built up front (ids, RNG
        # streams and dict order stay schedule-independent); the churn
        # schedule only toggles which of them participate in a beat.
        from repro.faults.dynamic import ChurnSchedule

        self.churn = ChurnSchedule.coerce(churn)
        if self.churn is not None:
            self.churn.validate_for(n, self.faulty_ids)
            self.active_ids = {
                i for i in self.honest_ids if i not in self.churn.joining_ids
            }
        else:
            self.active_ids = set(self.honest_ids)
        self._active_view: dict[int, Node] | None = None
        self._active_roots: tuple[dict, dict] | None = None
        self.link = resolve_link(link)
        self.link.bind_world(world)
        self.engine = resolve_engine(engine)
        self.engine.bind(self)
        self.beat = 0
        self.monitors: list[Monitor] = []
        self.metrics = metrics
        if metrics is not None:
            from repro.obs.metrics import bind_simulation

            bind_simulation(metrics, self)

    # -- observation ------------------------------------------------------

    @property
    def stats(self):
        """Network traffic statistics (see :class:`MessageStats`)."""
        return self.engine.stats

    def honest_roots(self) -> dict[int, Component]:
        """Map of honest node id to its root component."""
        return {i: node.root for i, node in self.nodes.items()}

    def active_nodes(self) -> dict[int, Node]:
        """The correct nodes currently participating, in ascending id
        order.  Without churn this *is* :attr:`nodes` (zero overhead on
        the static-membership hot path); under churn it is the subset the
        schedule has left active, rebuilt only when membership changes."""
        if len(self.active_ids) == len(self.nodes):
            return self.nodes
        view = self._active_view
        if view is None:
            view = self._active_view = {
                i: node for i, node in self.nodes.items() if i in self.active_ids
            }
        return view

    def is_active(self, node_id: int) -> bool:
        """Whether a correct node currently participates in beats."""
        return node_id in self.active_ids

    def active_roots(self) -> dict[int, Component]:
        """Map of *active* correct node id to its root component — what
        convergence monitors snapshot (a crashed tower's frozen clock is
        not part of the system's state), in ascending id order.  A fresh
        copy of one map built per :meth:`active_nodes` object: a tracer
        reads it every beat, and a root never changes."""
        nodes = self.active_nodes()
        cached = self._active_roots
        if cached is None or cached[0] is not nodes:
            roots = {i: node.root for i, node in nodes.items()}
            cached = self._active_roots = (nodes, roots)
        return cached[1].copy()

    def add_monitor(self, monitor: Monitor) -> None:
        self.monitors.append(monitor)

    # -- fault injection ----------------------------------------------------

    def scramble(self, node_ids: Iterable[int] | None = None) -> None:
        """Transient fault: redraw state of the given correct nodes.

        Defaults to scrambling every *active* correct node — the hardest
        starting point for a self-stabilizing protocol.  Ids outside the
        honest set (faulty or simply unknown) raise
        :class:`ConfigurationError`: faulty nodes have no state to
        scramble (the adversary speaks for them), and silently skipping a
        typo would make a fault schedule look stronger than it ran.
        Under churn, explicitly naming an *inactive* node (crashed, not
        yet joined, or departed) is equally an error — a transient fault
        cannot strike a machine that is not running, and silently
        mutating a dead tower would corrupt the state it is due to keep
        frozen until recovery.
        """
        if node_ids is None:
            targets = sorted(self.active_ids)
        else:
            targets = list(node_ids)
            inactive = sorted(
                i for i in targets
                if i in self.nodes and i not in self.active_ids
            )
            if inactive:
                raise ConfigurationError(
                    f"cannot scramble node ids {inactive}: inactive under "
                    "the churn schedule at beat "
                    f"{self.beat} (crashed, departed, or not yet joined — "
                    "a transient fault cannot strike a machine that is "
                    "not running)"
                )
        self.world.scramble(targets)
        # Engines mirroring node state out-of-tree (the bulk engine's SoA
        # rows) must observe external writes; the hook is optional so the
        # reference/fast engines stay oblivious.
        notify = getattr(self.engine, "notify_state_written", None)
        if notify is not None:
            notify(list(targets))

    def inject_phantoms(self, envelopes: list[Envelope]) -> None:
        """Queue phantom messages for the next beat's delivery."""
        self.engine.inject_phantoms(envelopes)

    def phantom_rng(self) -> random.Random:
        """RNG stream reserved for phantom/fault generation helpers."""
        return self.world.fault_rng

    # -- membership churn ----------------------------------------------------

    def _apply_churn(self, beat: int) -> None:
        """Apply this beat's membership events (start-of-beat semantics).

        The schedule was replay-validated at construction, so every
        transition here is legal by the time it runs.  Recovery redraws
        the node's state from the ``"faults"`` stream — the same stream,
        in the same order, whatever engine executes the run — and
        notifies engines that mirror state out-of-tree.
        """
        recovered: list[int] = []
        for event in self.churn.events_at(beat):
            if event.kind == "crash" or event.kind == "leave":
                self.active_ids.difference_update(event.node_ids)
            elif event.kind == "recover":
                self.active_ids.update(event.node_ids)
                recovered.extend(event.node_ids)
            else:  # join: a pristine boot, no scramble
                self.active_ids.update(event.node_ids)
            self._active_view = None
        if recovered:
            self.world.scramble(recovered)
            notify = getattr(self.engine, "notify_state_written", None)
            if notify is not None:
                notify(recovered)

    # -- execution -----------------------------------------------------------

    def run_beat(self) -> None:
        """Advance the system by one beat."""
        beat = self.beat
        if self.churn is not None:
            self._apply_churn(beat)
        self.env.begin_beat(beat)
        self.engine.execute_beat(self, beat)
        for monitor in self.monitors:
            monitor(self, beat)
        self.beat = beat + 1

    def run(self, beats: int) -> None:
        """Advance the system by ``beats`` beats."""
        for _ in range(beats):
            self.run_beat()

    def run_until(
        self, predicate: Callable[["Simulation"], bool], max_beats: int
    ) -> int | None:
        """Run until ``predicate(self)`` holds; return the beat it first
        held after, or ``None`` if ``max_beats`` elapsed first."""
        for _ in range(max_beats):
            self.run_beat()
            if predicate(self):
                return self.beat - 1
        return None
