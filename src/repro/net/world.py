"""The cast of one global beat system, built once from one seed.

Every execution path — the lock-step :class:`~repro.net.simulator.Simulation`,
the continuous-time :class:`~repro.net.events.ContinuousSimulation`, the live
:func:`~repro.runtime.runner.run_runtime` and each
:func:`~repro.runtime.orchestrator.run_cluster` worker — runs the *same*
system: the same environment, the same corrupted set, the same correct
:class:`~repro.net.node.Node` towers drawing from the same RNG streams.
:class:`World` is that system, and the only place a master seed is turned
into streams, so the paths cannot drift apart.  ARCHITECTURE.md ("Shared
kernel") tabulates the seed labels and the build order, which is part of
the determinism contract because each step may consume a stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ConfigurationError, check_resilience
from repro.net.component import Component
from repro.net.environment import Environment
from repro.net.node import Node
from repro.net.rng import SeedSequence

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.adversary.base import Adversary

__all__ = ["World"]


@dataclass(slots=True)
class World:
    """One system's environment, adversary and correct nodes.

    Build with :meth:`build`; the fields are what the execution paths
    read.  ``f`` is always the *protocol's* fault parameter — what an
    :class:`~repro.adversary.base.AdversaryView` reports — however many
    nodes the adversary actually corrupted.
    """

    n: int
    f: int
    env: Environment
    adversary: "Adversary | None"
    adversary_rng: random.Random
    faulty_ids: frozenset[int]
    #: Correct nodes by id, in ascending id order.
    nodes: dict[int, Node]
    fault_rng: random.Random
    #: Seeds of the keyed draws: the lock-step link model's, and the
    #: continuous-time clock rates and message delays.
    link_seed: int
    timing_seed: int

    @classmethod
    def build(
        cls,
        n: int,
        f: int,
        root_factory: Callable[[int], Component],
        *,
        adversary: "Adversary | None" = None,
        seed: int = 0,
        root_path: str = "root",
        enforce_resilience: bool = True,
    ) -> "World":
        """Derive every stream from ``seed`` and construct the system.

        ``enforce_resilience=False`` is only for experiments that
        deliberately cross the f < n/3 bound.
        """
        if enforce_resilience:
            check_resilience(n, f)
        elif n < 1 or f < 0 or f >= n:
            raise ConfigurationError(f"nonsensical sizes n={n}, f={f}")
        seeds = SeedSequence(seed)
        env = Environment(n, seeds.seed_for("env"))
        adversary_rng = seeds.stream("adversary")
        faulty_ids: frozenset[int] = frozenset()
        if adversary is not None:
            faulty = adversary.select_faulty(n, f, adversary_rng)
            if len(faulty) > f:
                raise ConfigurationError(
                    f"adversary corrupted {len(faulty)} nodes, but f={f}"
                )
            if any(i not in range(n) for i in faulty):
                raise ConfigurationError("adversary corrupted unknown node ids")
            faulty_ids = frozenset(faulty)
            adversary.setup(n, f, faulty_ids, adversary_rng)
            env.divergence_chooser = adversary.choose_divergent_outputs
        nodes = {
            i: Node(
                i,
                n,
                f,
                root_factory(i),
                seeds.stream("node", i),
                env,
                root_path=root_path,
            )
            for i in range(n)
            if i not in faulty_ids
        }
        return cls(
            n=n,
            f=f,
            env=env,
            adversary=adversary,
            adversary_rng=adversary_rng,
            faulty_ids=faulty_ids,
            nodes=nodes,
            fault_rng=seeds.stream("faults"),
            link_seed=seeds.seed_for("link"),
            timing_seed=seeds.seed_for("timing"),
        )

    def scramble(self, node_ids: "Iterable[int] | None" = None) -> None:
        """Transient fault: redraw the state of the given correct nodes
        from the ``"faults"`` stream, in the order given (default: all,
        ascending).  Ids outside the honest set raise
        :class:`ConfigurationError`: faulty nodes have no state to
        scramble, and silently skipping a typo would make a fault
        schedule look stronger than it ran.
        """
        targets = list(self.nodes) if node_ids is None else list(node_ids)
        unknown = sorted(i for i in targets if i not in self.nodes)
        if unknown:
            raise ConfigurationError(
                f"cannot scramble node ids {unknown}: not in the honest "
                f"set {list(self.nodes)} (faulty nodes have no state — "
                "the adversary speaks for them)"
            )
        for node_id in targets:
            self.nodes[node_id].scramble(self.fault_rng)
