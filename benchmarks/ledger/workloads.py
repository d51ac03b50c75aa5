"""The beat ledger's eight workloads, as data.

Every workload runs the ``clock-sync`` protocol at ``k=8`` from a
scrambled start, seeded from ``--seed``.  Sizes are *counts* (beats, or
trials for ``campaign-short``), stated for a nominal ten-second window
and scaled by ``--seconds / 10`` (and by a further tenth under
``--smoke``), so a given ``(--seed, --seconds)`` pair always executes the
same operations.

``why`` records why a workload was chosen; ``BENCHMARK.json`` repeats it
for the driver.  ``PINNED_SEED0`` holds, per workload, the sha256 of the
first :data:`PIN_OPS` operations of the seed-0 trace — a prefix, so one
pin holds at every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "K",
    "NOMINAL_SECONDS",
    "PINNED_SEED0",
    "PIN_OPS",
    "WARM_BEATS",
    "WORKLOADS",
    "Workload",
    "scaled",
]

#: Clock modulus of every workload.
K = 8

#: The window the ``size`` figures below are stated for.
NOMINAL_SECONDS = 10.0

#: Steady state starts after this many beats (convergence takes ~5-12).
WARM_BEATS = 20

#: Leading operations the pinned digests cover: beats of the trace, or
#: seeds per scenario for ``campaign-short``.  Smaller than every smoke
#: size, and long enough to span the whole pre-convergence phase — after
#: it the trajectory is fixed by closure, which the runner checks over
#: the full trace.
PIN_OPS = 12


@dataclass(frozen=True)
class Workload:
    """One named workload: which execution path, at what scale, and why."""

    name: str
    #: Execution path: ``sim`` (``Simulation``), ``events``
    #: (``run_continuous``), ``runtime`` (``run_runtime``), ``cluster``
    #: (``run_cluster``) or ``campaign`` (``run_campaign``).
    path: str
    n: int
    f: int
    #: Beats in a nominal window (seeds per scenario for ``campaign``).
    size: int
    why: str
    #: Layers (metric-name prefixes) that do work on this workload; every
    #: other layer's metrics read zero, which ``test_ledger.py`` checks.
    layers: tuple
    engine: str = "fast"
    coin: str = "oracle"
    adversary: str = "none"
    #: ``sim`` on the bulk engine: beats of the same scenario re-run on
    #: ``FastEngine`` and compared digest-for-digest.  The issue asked
    #: for 40; ``FastEngine`` manages 1.4 beats/s at n=1024 and 10 at
    #: n=128 under the equivocator, so 40 would outlast the whole run.
    reference_beats: int = 0
    #: ``events``: message delay bounds and pulse period.
    delay_bounds: tuple = (0.0, 0.0)
    pulse_period: float = 1.0
    #: ``events``: worst-case pulse skew, in periods, accumulated by the
    #: end of the horizon; the drift bound is derived from it.
    skew_budget: float = 0.0
    codec: str = "binary"
    processes: int = 2
    #: ``campaign``: (adversary, link, link_params) per scenario, and the
    #: per-trial beat budget.
    scenarios: tuple = field(default=())
    max_beats: int = 150


_WORKLOADS = (
    Workload(
        name="sim-pernode-byz",
        path="sim",
        n=64,
        f=21,
        size=600,
        engine="fast",
        adversary="equivocator",
        layers=("core", "coin", "adversary", "engine", "beat", "ledger"),
        why=(
            "per-node tower, message plane and adversary do all the work; "
            "codec, transport, barrier and the bulk program do none"
        ),
    ),
    Workload(
        name="sim-bulk-clean",
        path="sim",
        n=1024,
        f=341,
        size=2400,
        engine="bulk",
        reference_beats=4,
        layers=("engine", "bulk", "beat", "ledger"),
        why=(
            "campaign-scale path: the structure-of-arrays program does all "
            "the work and the per-node tower is dormant"
        ),
    ),
    Workload(
        name="sim-bulk-byz",
        path="sim",
        n=128,
        f=42,
        size=160,
        engine="bulk",
        adversary="equivocator",
        reference_beats=20,
        layers=("adversary", "engine", "bulk", "beat", "ledger"),
        why=(
            "same layer, other branch: every receiver slot is dirty, so the "
            "exact per-receiver merge runs instead of shared tallies"
        ),
    ),
    Workload(
        name="sim-gvss",
        path="sim",
        n=7,
        f=2,
        size=400,
        engine="fast",
        coin="gvss",
        layers=("core", "coin", "engine", "beat", "ledger"),
        why=(
            "the coin layer (field, Shamir, Reed-Solomon, GVSS rounds) "
            "dominates; oracle-coin workloads bypass it"
        ),
    ),
    Workload(
        name="ev-drift",
        path="events",
        n=16,
        f=5,
        size=1500,
        delay_bounds=(0.05, 0.3),
        pulse_period=1.0,
        skew_budget=0.6,
        layers=("core", "coin", "events", "beat", "ledger"),
        why=(
            "event heap and PulseSynchronizer under drift and delay: the "
            "fifth beat loop, twin of the runtime barrier"
        ),
    ),
    Workload(
        name="rt-local",
        path="runtime",
        n=16,
        f=5,
        size=900,
        layers=(
            "core", "coin", "codec", "transport", "sync", "runtime", "beat",
            "ledger",
        ),
        why=(
            "codec, barrier and asyncio hand-offs with no sockets; carries "
            "the FastEngine reference leg for overhead_x"
        ),
    ),
    Workload(
        name="cluster-tcp",
        path="cluster",
        n=16,
        f=5,
        size=1200,
        layers=("orchestrator", "ledger"),
        why=(
            "the deployment shape: real sockets, two spawned OS processes, "
            "address exchange and trace merge"
        ),
    ),
    Workload(
        name="campaign-short",
        path="campaign",
        n=16,
        f=5,
        size=150,
        scenarios=(
            ("none", "perfect", ()),
            ("equivocator", "perfect", ()),
            ("none", "lossy", (("loss", 0.02),)),
        ),
        layers=(
            "core", "coin", "adversary", "engine", "linkmodel", "analysis",
            "ledger",
        ),
        why=(
            "many ten-beat trials: construction, scramble, engine bind, pool "
            "dispatch and the link model dominate; bypasses the beat loop"
        ),
    ),
)

#: name -> workload, in reporting order.
WORKLOADS = {workload.name: workload for workload in _WORKLOADS}


def scaled(count: int, seconds: float, smoke: bool, *, floor: int = 1) -> int:
    """``count`` (stated for the nominal window) at this run's scale."""
    factor = seconds / NOMINAL_SECONDS * (0.1 if smoke else 1.0)
    return max(floor, round(count * factor))


#: sha256 over the first PIN_OPS operations of the seed-0 trace.  The three
#: n=16 fault-free workloads share one: event engine, live runtime and
#: cluster all replay the lock-step trajectory.
PINNED_SEED0 = {
    "sim-pernode-byz": (
        "0ae8e423f3bcd6597f23585bac878b74"
        "5e6aa027a1e3209f5ada721a967e9f04"
    ),
    "sim-bulk-clean": (
        "50e7d15b6cbfe1aeff8974793332bbe9"
        "9828cfcfc806d7c80163a7f0c3b7beda"
    ),
    "sim-bulk-byz": (
        "f16abef16b7e2c8d6d2cc6239fa2605c"
        "30cb528738d0b61b65d121d704e815e9"
    ),
    "sim-gvss": (
        "dfab02c2f6abacd41ce21ba23de486f8"
        "e8e8f7e6f3f505939cf11cb98ff8fde3"
    ),
    "ev-drift": (
        "fc5e355338b346a72d191cf5d8d107c9"
        "badf27bb289745ec2aac6071fc4070fb"
    ),
    "rt-local": (
        "fc5e355338b346a72d191cf5d8d107c9"
        "badf27bb289745ec2aac6071fc4070fb"
    ),
    "cluster-tcp": (
        "fc5e355338b346a72d191cf5d8d107c9"
        "badf27bb289745ec2aac6071fc4070fb"
    ),
    "campaign-short": (
        "8f17bf3a9896bc8345c0be8eefd19326"
        "cf6949edcf5c9bb69b3a36c4bb77578b"
    ),
}
