"""Fast self-stabilizing Byzantine tolerant digital clock synchronization.

A full reproduction of Ben-Or, Dolev & Hoch (PODC 2008): the
ss-Byz-Coin-Flip pipeline, ss-Byz-2-Clock, ss-Byz-4-Clock and
ss-Byz-Clock-Sync algorithms, the common-coin substrate they assume
(GVSS-based Feldman-Micali-style coin plus an ideal Definition-2.6 oracle
coin), the global-beat-system simulator they run on, the Byzantine and
transient fault models, the deterministic and randomized comparators of
the paper's Table 1, the analysis harness that regenerates it — and a
live async runtime (:mod:`repro.runtime`) that runs the same protocol
stack as concurrent tasks over real transports, differentially pinned
bit-identical to the simulator.

Quickstart::

    import repro

    result = repro.synchronize(n=7, f=2, k=60, seed=1)
    print(result.converged_beat, result.history[-1])

See README.md for the full tour and docs/protocol.md for the
paper-to-code map.
"""

from __future__ import annotations

from repro.adversary.base import Adversary
from repro.analysis.campaign import (
    ScenarioSpec,
    coin_by_name,
    run_campaign,
    scenario_grid,
)
from repro.analysis.experiments import TrialResult, run_trial
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.interfaces import CoinAlgorithm
from repro.coin.local import LocalCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock2 import SSByz2Clock
from repro.core.clock4 import SSByz4Clock
from repro.core.clock_sync import SSByzClockSync
from repro.core.pipeline import CoinFlipPipeline
from repro.core.power_of_two import RecursiveDoublingClock
from repro.core.protocol import (
    DEFAULT_PROTOCOL,
    PROTOCOLS,
    Protocol,
    register_protocol,
    resolve_protocol,
)
from repro.errors import ConfigurationError, ReproError
from repro.faults.dynamic import ChurnSchedule
from repro.net.linkmodel import (
    LINK_MODELS,
    BoundedDelayLinks,
    LinkModel,
    LossyLinks,
    PartitionLinks,
    PerfectLinks,
    make_link,
    normalize_link_params,
)
from repro.net.simulator import Simulation
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    diff_records,
    read_trace,
    summarize_trace,
    write_trace,
)
from repro.runtime import (
    TRANSPORTS,
    LocalTransport,
    RuntimeResult,
    TcpTransport,
    Transport,
    run_runtime,
)

__version__ = "1.1.0"

__all__ = [
    "Adversary",
    "BoundedDelayLinks",
    "CoinAlgorithm",
    "CoinFlipPipeline",
    "ConfigurationError",
    "DEFAULT_PROTOCOL",
    "FeldmanMicaliCoin",
    "FlightRecorder",
    "LINK_MODELS",
    "LinkModel",
    "LocalCoin",
    "LocalTransport",
    "LossyLinks",
    "MetricsRegistry",
    "OracleCoin",
    "PROTOCOLS",
    "PartitionLinks",
    "PerfectLinks",
    "Protocol",
    "RecursiveDoublingClock",
    "ReproError",
    "RuntimeResult",
    "SSByz2Clock",
    "SSByz4Clock",
    "SSByzClockSync",
    "ScenarioSpec",
    "Simulation",
    "TRANSPORTS",
    "TcpTransport",
    "Transport",
    "TrialResult",
    "coin_by_name",
    "diff_records",
    "make_link",
    "normalize_link_params",
    "read_trace",
    "register_protocol",
    "resolve_protocol",
    "run_campaign",
    "run_runtime",
    "run_trial",
    "scenario_grid",
    "summarize_trace",
    "synchronize",
    "write_trace",
    "__version__",
]


def synchronize(
    *,
    n: int,
    f: int,
    k: int,
    protocol: str = DEFAULT_PROTOCOL,
    coin: str = "oracle",
    adversary: Adversary | str | None = None,
    seed: int = 0,
    max_beats: int = 500,
    scramble: bool = True,
    early_stop: bool = True,
    engine: str = "fast",
    link: str = "perfect",
    link_params: dict | None = None,
    churn: object = None,
    trace: bool = False,
    timing: "tuple[float, ...] | None" = None,
) -> TrialResult:
    """Run a registered protocol from a worst-case scrambled state.

    ``protocol`` names any entry of :data:`PROTOCOLS` (default: the
    paper's ``"clock-sync"``; ``python -m repro protocols`` lists the
    catalog — ``coin`` only matters for protocols that use one).
    Returns a :class:`~repro.analysis.experiments.TrialResult` whose
    ``converged_beat`` is the first beat from which all correct nodes hold
    one clock value and increment it by one mod ``k`` every beat
    (Definition 3.2), and whose ``history`` holds every beat's clock values
    for inspection.  With ``early_stop`` (the default) the run ends once
    convergence plus a closure window is confirmed; ``adversary`` is a
    registry name (``python -m repro adversaries`` lists them) or an
    :class:`Adversary` instance; ``engine`` selects the simulation engine
    (``"fast"``, ``"reference"`` or ``"bulk"``); ``link`` (with
    ``link_params``) degrades the network beyond the paper's model — e.g.
    ``link="lossy", link_params={"loss": 0.1}`` drops 10% of envelopes.
    ``churn`` scripts membership events — a
    :class:`~repro.faults.dynamic.ChurnSchedule` or an iterable of
    ``(beat, kind, node_ids)`` triples, e.g.
    ``churn=[(25, "crash", (0,)), (40, "recover", (0,))]``; convergence
    is then measured from the last membership event.  ``trace=True``
    records the per-beat clock trajectory on ``result.records``, export
    it with ``result.to_jsonl()`` (the shared JSONL trace format).
    ``timing=(rho, d_min, d_max, pulse_period)`` leaves the lock-step
    beat model entirely: the trial runs in continuous time
    (:mod:`repro.net.events`) with drifting clocks and bounded message
    delays, and the result carries
    ``pulse_skew`` / ``converged_time`` in the run's time units.
    """
    schedule = ChurnSchedule.coerce(churn)
    spec = ScenarioSpec(
        n=n,
        f=f,
        k=k,
        protocol=protocol,
        coin=coin,
        adversary=adversary if isinstance(adversary, str) else "none",
        max_beats=max_beats,
        scramble=scramble,
        early_stop=early_stop,
        engine=engine,
        link=link,
        link_params=normalize_link_params(link_params),
        churn=schedule.normalized() if schedule is not None else (),
        timing=tuple(timing) if timing else (),
    )
    # The one caller that may hold an adversary *instance*, not a name.
    instance = None if isinstance(adversary, str) else adversary
    return run_trial(spec, seed, adversary=instance, trace=trace)
