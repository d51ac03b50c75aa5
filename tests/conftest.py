"""Shared test helpers: a lock-step harness for coin instances and
simulation builders used across the suite."""

from __future__ import annotations

import importlib.util
import pathlib
import random
import re
from typing import Any, Callable

import pytest

from repro.coin.interfaces import CoinAlgorithm, CoinInstance, InstanceContext
from repro.errors import ProtocolViolationError
from repro.net.environment import Environment


def pytest_addoption(parser: pytest.Parser) -> None:
    # pyproject.toml sets `timeout` for pytest-timeout (CI installs it via
    # requirements-dev.txt).  In environments without the plugin, register
    # the option as inert so the suite still runs — without the hung-test
    # ceiling, but also without an unknown-option warning.
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini("timeout", "inert fallback: pytest-timeout not installed")

# Hypothesis is a dev-only dependency (requirements-dev.txt): configure a
# brisk profile when present, and skip collecting the property-based test
# modules entirely when absent so the suite still runs.  The properties
# are exercised across many dedicated tests, not by huge example counts.
collect_ignore: list[str] = []
try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - exercised only without hypothesis
    _here = pathlib.Path(__file__).parent
    _imports_hypothesis = re.compile(
        r"^(from|import) hypothesis\b", re.MULTILINE
    )
    collect_ignore.extend(
        path.name
        for path in _here.glob("test_*.py")
        if _imports_hypothesis.search(path.read_text(encoding="utf-8"))
    )
else:
    settings.register_profile(
        "repro",
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("repro")

#: Hook signature: (round_index, messages_visible_to_adversary) ->
#: list of (sender, receiver, payload) triples from faulty nodes.
ByzHook = Callable[[int, list[tuple[int, int, Any]]], list[tuple[int, int, Any]]]


class _Sink:
    """What a harnessed instance runs under and sends through: one node's
    identity, and ``(sender, receiver, payload)`` triples collected — a
    broadcast being one per node of the one object.  Without a collector
    it refuses, as a ``BeatContext`` does outside the send phase."""

    def __init__(self, harness: "CoinHarness", node_id: int, collector) -> None:
        self.node_id = node_id
        self.n = harness.n
        self.f = harness.f
        self.beat = harness.beat
        self.rng = harness.rngs[node_id]
        self.env = harness.env
        self.collector = collector

    def send(self, receiver: int, payload: Any) -> None:
        if self.collector is None:
            raise ProtocolViolationError("send is only legal in the send phase")
        self.collector.append((self.node_id, receiver, payload))

    def broadcast(self, payload: Any) -> None:
        for receiver in range(self.n):
            self.send(receiver, payload)


class CoinHarness:
    """Run one invocation of a coin algorithm at every correct node.

    Implements the same send-then-deliver-within-the-round semantics as the
    ss-Byz-Coin-Flip pipeline, without the surrounding simulator, so coin
    algorithms can be unit-tested in isolation.
    """

    def __init__(
        self,
        algorithm: CoinAlgorithm,
        n: int,
        f: int,
        *,
        faulty: frozenset[int] = frozenset(),
        seed: int = 0,
        beat: int = 7,
        path: str = "test/slot",
    ) -> None:
        self.algorithm = algorithm
        self.n = n
        self.f = f
        self.faulty = faulty
        self.beat = beat
        self.path = path
        self.env = Environment(n, seed)
        self.rngs = {i: random.Random(seed * 1009 + i) for i in range(n)}
        self.instances: dict[int, CoinInstance] = {
            i: algorithm.new_instance() for i in range(n) if i not in faulty
        }
        self.traffic: list[tuple[int, int, int, Any]] = []  # (round, s, r, p)

    def _context(
        self, node_id: int, inbox: list[tuple[int, Any]], collector
    ) -> InstanceContext:
        return InstanceContext(
            _Sink(self, node_id, collector), path=self.path, inbox=inbox
        )

    def run(self, byz_hook: ByzHook | None = None) -> dict[int, int]:
        """Execute all rounds; return each correct node's output."""
        for round_index in range(1, self.algorithm.rounds + 1):
            self.run_round(round_index, byz_hook)
        return {i: inst.output() for i, inst in sorted(self.instances.items())}

    def run_round(self, round_index: int, byz_hook: ByzHook | None = None) -> None:
        """Execute one round: every send, the faulty traffic, every update."""
        outbox: list[tuple[int, int, Any]] = []
        for node_id, instance in sorted(self.instances.items()):
            instance.send_round(round_index, self._context(node_id, [], outbox))
        if byz_hook is not None and self.faulty:
            visible = [m for m in outbox if m[1] in self.faulty]
            for sender, receiver, payload in byz_hook(round_index, visible):
                assert sender in self.faulty, "test byz hook forged sender"
                outbox.append((sender, receiver, payload))
        inboxes: dict[int, list[tuple[int, Any]]] = {i: [] for i in self.instances}
        for sender, receiver, payload in sorted(outbox, key=lambda m: (m[1], m[0])):
            if receiver in inboxes:
                inboxes[receiver].append((sender, payload))
        for node_id, instance in sorted(self.instances.items()):
            instance.update_round(
                round_index, self._context(node_id, inboxes[node_id], None)
            )
        for sender, receiver, payload in outbox:
            self.traffic.append((round_index, sender, receiver, payload))


@pytest.fixture
def coin_harness() -> Callable[..., CoinHarness]:
    return CoinHarness
