"""Synchronous global-beat-system network substrate (paper §2 model)."""

from repro.net.component import SEND, UPDATE, BeatContext, Component
from repro.net.engine import (
    ENGINES,
    Engine,
    FastEngine,
    ReferenceEngine,
    resolve_engine,
)
from repro.net.events import (
    ContinuousResult,
    ContinuousSimulation,
    DriftingClock,
    EventHeap,
    KeyedDelays,
    PulseSynchronizer,
    TimingLinks,
    run_continuous,
)
from repro.net.environment import (
    EVENT_DIVERGENT,
    EVENT_E0,
    EVENT_E1,
    CoinOutcome,
    Environment,
)
from repro.net.inbox import BeatInbox
from repro.net.linkmodel import (
    DEFAULT_LINK,
    LINK_MODELS,
    BoundedDelayLinks,
    LinkModel,
    LossyLinks,
    PartitionLinks,
    PerfectLinks,
    make_link,
    normalize_link_params,
    resolve_link,
)
from repro.net.message import BROADCAST, Envelope, FastOutbox, Outbox
from repro.net.network import MessageStats, Router
from repro.net.node import Node
from repro.net.rng import SeedSequence, derive_seed
from repro.net.simulator import Monitor, Simulation
from repro.net.trace import (
    BeatRecord,
    Tracer,
    records_from_jsonl,
    records_to_jsonl,
)
from repro.net.world import World

__all__ = [
    "BROADCAST",
    "BeatContext",
    "BeatInbox",
    "BeatRecord",
    "BoundedDelayLinks",
    "CoinOutcome",
    "Component",
    "ContinuousResult",
    "ContinuousSimulation",
    "DEFAULT_LINK",
    "DriftingClock",
    "EventHeap",
    "KeyedDelays",
    "PulseSynchronizer",
    "TimingLinks",
    "run_continuous",
    "ENGINES",
    "Engine",
    "Environment",
    "Envelope",
    "FastEngine",
    "FastOutbox",
    "LINK_MODELS",
    "LinkModel",
    "LossyLinks",
    "PartitionLinks",
    "PerfectLinks",
    "ReferenceEngine",
    "make_link",
    "normalize_link_params",
    "resolve_engine",
    "resolve_link",
    "EVENT_DIVERGENT",
    "EVENT_E0",
    "EVENT_E1",
    "MessageStats",
    "Monitor",
    "Node",
    "Outbox",
    "Router",
    "SEND",
    "SeedSequence",
    "Simulation",
    "Tracer",
    "UPDATE",
    "World",
    "derive_seed",
    "records_from_jsonl",
    "records_to_jsonl",
]
