"""Parallel experiment campaigns over picklable scenario specifications.

:func:`run_sweep` is a closure-heavy, single-process harness — perfect for
a quick table, unusable for the thousand-trial grids the related work runs
(precision/latency trade-off sweeps, resynchronization-scenario matrices).
This module is the scale-out layer on top of the trial harness:

* :class:`ScenarioSpec` — a frozen, *picklable* description of one
  configuration: protocol family, coin, ``(n, f, k)``, adversary, link
  conditions, fault schedule, beat budget, early-stop policy and engine.
  Specs cross process boundaries; the per-node component factories they
  imply are rebuilt inside each worker via the module-level registries
  below.
* :func:`scenario_grid` — expand axes (n, k, adversary, link, protocol)
  into a spec list, deriving ``f = ⌊(n-1)/3⌋`` when not pinned.
* :func:`iter_campaign` / :func:`run_campaign` — fan one seed-trial out
  per worker process, early-exit each trial once convergence plus a
  closure window is confirmed, and stream one aggregated
  :class:`~repro.analysis.experiments.SweepResult` per scenario as its
  seeds complete.  Equal seeds give equal results at any worker count, so
  campaigns stay exactly reproducible.

The CLI front-end is ``python -m repro campaign``.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.adversary import (
    AdaptiveEchoAdversary,
    CrashAdversary,
    DealerAttackAdversary,
    EquivocatorAdversary,
    MixedDealingAdversary,
    RandomNoiseAdversary,
    SplitWorldAdversary,
)
from repro.analysis.experiments import (
    SweepResult,
    TrialConfig,
    TrialResult,
    check_axes,
    run_trial,
)
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.interfaces import CoinAlgorithm
from repro.coin.local import LocalCoin
from repro.coin.oracle import OracleCoin
from repro.core.protocol import DEFAULT_PROTOCOL, PROTOCOLS, resolve_protocol
from repro.errors import ConfigurationError
from repro.faults.dynamic import ChurnSchedule
from repro.net.linkmodel import LINK_MODELS, make_link, normalize_link_params

__all__ = [
    "ADVERSARY_REGISTRY",
    "COIN_REGISTRY",
    "CampaignEntry",
    "LINK_REGISTRY",
    "PROTOCOL_REGISTRY",
    "ScenarioSpec",
    "campaign_to_json",
    "coin_by_name",
    "iter_campaign",
    "run_campaign",
    "scenario_grid",
    "single_scenario_sweep",
]

#: Adversary name -> class (``None`` = fault-free).  Names are shared with
#: the CLI's ``--adversary`` flags.
ADVERSARY_REGISTRY: dict[str, type | None] = {
    "none": None,
    "adaptive": AdaptiveEchoAdversary,
    "crash": CrashAdversary,
    "noise": RandomNoiseAdversary,
    "equivocator": EquivocatorAdversary,
    "split-world": SplitWorldAdversary,
    "dealer-attack": DealerAttackAdversary,
    "mixed-dealing": MixedDealingAdversary,
}

#: Protocol family name -> :class:`~repro.core.protocol.Protocol` catalog
#: entry, accepted by :class:`ScenarioSpec.protocol` and shared with the
#: CLI's ``--protocol`` flags.  Backed by the ``core.protocol`` registry,
#: so registering a new protocol automatically extends the campaign grid
#: — with one caveat shared by every name-keyed registry here: specs
#: carry the *name* across process boundaries, so a custom protocol must
#: be registered at import time in a module the worker processes also
#: import (registration inside ``__main__`` only reaches forked workers,
#: not spawned ones; use ``workers=1`` otherwise).
PROTOCOL_REGISTRY = PROTOCOLS

#: Coin name -> ``(n, f) -> coin factory``.  The one list every
#: ``coin=`` name (and every ``--coin`` flag) is checked against.
COIN_REGISTRY: "dict[str, Callable[[int, int], Callable[[], CoinAlgorithm]]]" = {
    "oracle": lambda n, f: lambda: OracleCoin(),
    "gvss": lambda n, f: lambda: FeldmanMicaliCoin(n, f),
    "local": lambda n, f: lambda: LocalCoin(),
}


def coin_by_name(name: str, n: int, f: int) -> Callable[[], CoinAlgorithm]:
    """Factory for the built-in coin algorithms: 'oracle', 'gvss', 'local'.

    'oracle' is the ideal Definition-2.6 coin (recommended for protocol
    experiments), 'gvss' the full Feldman-Micali-style implementation
    (recommended for end-to-end demonstrations), 'local' a deliberately
    non-common coin used for ablations.
    """
    if name not in COIN_REGISTRY:
        raise ConfigurationError(
            f"unknown coin {name!r}; known: {sorted(COIN_REGISTRY)}"
        )
    return COIN_REGISTRY[name](n, f)


#: Link-condition model names accepted by :class:`ScenarioSpec.link`
#: (shared with the CLI's ``--link`` flag).
LINK_REGISTRY: tuple[str, ...] = tuple(sorted(LINK_MODELS))


@dataclass(frozen=True)
class ScenarioSpec:
    """One run, *named*: plain picklable data, no closures.

    :meth:`build_config` resolves it into the closure-carrying
    :class:`~repro.analysis.experiments.TrialConfig`; the fields the two
    share by name (``n``, ``f``, ``k``, ``max_beats``, ``scramble``,
    ``scramble_beats``, ``early_stop``, ``closure_window``, ``engine``,
    ``link``, ``link_params``, ``churn``, ``timing``) are documented
    there.  What a spec carries instead of factories:

    Attributes:
        protocol: family name from :data:`PROTOCOL_REGISTRY` —
            ``"clock-sync"`` (the paper's algorithm) or any registered
            baseline (see :mod:`repro.core.protocol`).
        coin: a name from :data:`COIN_REGISTRY` (protocols that use a
            coin only).
        adversary: a name from :data:`ADVERSARY_REGISTRY`.
        share_coin: Remark 4.1's shared coin pipeline (clock-sync only).
        coin_p0, coin_p1, coin_rounds: oracle-coin tuning; ``None`` keeps
            the :class:`~repro.coin.oracle.OracleCoin` defaults.
        tag: free-form label echoed in reports.
    """

    n: int
    f: int
    k: int
    protocol: str = "clock-sync"
    coin: str = "oracle"
    adversary: str = "none"
    max_beats: int = 500
    scramble: bool = True
    scramble_beats: tuple[int, ...] = ()
    early_stop: bool = True
    closure_window: int = 12
    engine: str = "fast"
    link: str = "perfect"
    link_params: tuple[tuple[str, object], ...] = ()
    churn: tuple[tuple[int, str, tuple[int, ...]], ...] = ()
    share_coin: bool = False
    coin_p0: float | None = None
    coin_p1: float | None = None
    coin_rounds: int | None = None
    timing: tuple[float, ...] = ()
    tag: str = ""

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an unrunnable scenario:
        the three registry names, then the axes shared with
        :class:`TrialConfig` (:func:`~repro.analysis.experiments.check_axes`)."""
        resolve_protocol(self.protocol)
        self.coin_factory()  # unknown coin -> ConfigurationError
        if self.adversary not in ADVERSARY_REGISTRY:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; "
                f"known: {sorted(ADVERSARY_REGISTRY)}"
            )
        check_axes(self)

    @property
    def label(self) -> str:
        """Compact human-readable scenario name for tables and logs."""
        parts = [self.protocol]
        if self.protocol == "clock-sync":
            parts.append(self.coin)
            if self.share_coin:
                parts.append("shared")
        parts.append(f"n={self.n}")
        parts.append(f"f={self.f}")
        parts.append(f"k={self.k}")
        if self.adversary != "none":
            parts.append(f"adv={self.adversary}")
        if self.link != "perfect":
            parts.append(
                make_link(self.link, dict(self.link_params)).describe()
            )
        if self.scramble_beats:
            parts.append(f"storms={list(self.scramble_beats)}")
        if self.churn:
            schedule = ChurnSchedule.coerce(self.churn)
            parts.append(f"churn[{schedule.describe()}]")
        if self.timing:
            rho, d_min, d_max, pulse_period = self.timing
            parts.append(
                f"timing[rho={rho},d={d_min}-{d_max},period={pulse_period}]"
            )
        if self.tag:
            parts.append(self.tag)
        return " ".join(parts)

    def coin_factory(self) -> Callable[[], CoinAlgorithm]:
        """The scenario's coin, by name, with the oracle tuning applied."""
        factory = coin_by_name(self.coin, self.n, self.f)
        tuning = {
            "p0": self.coin_p0,
            "p1": self.coin_p1,
            "rounds": self.coin_rounds,
        }
        kwargs = {key: value for key, value in tuning.items() if value is not None}
        if self.coin != "oracle" or not kwargs:
            return factory
        return lambda: OracleCoin(**kwargs)

    def build_config(self) -> TrialConfig:
        """Resolve the names: the (closure-carrying) :class:`TrialConfig`.

        The only place a protocol, coin or adversary *name* becomes a
        root factory or an adversary instance — every entry point
        (``synchronize``, campaigns, ``ClusterSpec`` workers, the CLI)
        describes its run as a spec and takes the factories from here.
        """
        self.validate()
        adversary_cls = ADVERSARY_REGISTRY[self.adversary]
        return TrialConfig(
            n=self.n,
            f=self.f,
            k=self.k,
            protocol_factory=resolve_protocol(self.protocol).factory(
                self.n,
                self.f,
                self.k,
                coin_factory=self.coin_factory(),
                share_coin=self.share_coin,
            ),
            adversary_factory=adversary_cls or (lambda: None),
            max_beats=self.max_beats,
            scramble=self.scramble,
            scramble_beats=self.scramble_beats,
            early_stop=self.early_stop,
            closure_window=self.closure_window,
            engine=self.engine,
            link=self.link,
            link_params=self.link_params,
            churn=self.churn,
            timing=self.timing,
        )


def _normalize_link_axis(
    entry: "str | tuple[str, object]",
) -> tuple[str, tuple[tuple[str, object], ...]]:
    """Normalize one ``links`` axis entry: a name or ``(name, params)``."""
    if isinstance(entry, str):
        return entry, ()
    name, params = entry
    return name, normalize_link_params(params)


def scenario_grid(
    ns: Iterable[int],
    *,
    ks: Iterable[int] = (8,),
    adversaries: Iterable[str] = ("none",),
    links: Iterable["str | tuple[str, object]"] = ("perfect",),
    protocols: Iterable[str] | None = None,
    fs: Sequence[int] | None = None,
    timings: Iterable[tuple[float, ...]] = ((),),
    **common: object,
) -> list[ScenarioSpec]:
    """Expand an n × k × adversary × link × protocol × timing grid.

    ``fs`` pins one fault parameter per entry of ``ns`` (same length);
    omitted, it defaults to the resilience-optimal ``⌊(n-1)/3⌋``.  Each
    ``links`` entry is a model name or a ``(name, params)`` pair, where
    ``params`` is a dict or pair-tuple of keyword arguments — e.g.
    ``links=[("delay", {"max_delay": 2}), ("lossy", {"loss": 0.1})]``
    crosses every existing scenario with two degraded networks.
    ``protocols`` is the protocol grid axis (names from
    :data:`PROTOCOL_REGISTRY`); omitted, a single ``protocol=...``
    keyword (default ``"clock-sync"``) pins the whole grid to one
    family, the pre-seam behavior.  ``timings`` is the continuous-time
    axis: each entry is ``()`` (the lock-step beat model, the default)
    or ``(rho, d_min, d_max, pulse_period)`` for the event-driven
    engine — e.g. ``timings=[(), (0.001, 0.0, 0.1, 1.0)]`` crosses every
    scenario with one drifting bounded-delay world.  Extra keyword
    arguments are forwarded to every :class:`ScenarioSpec`.
    """
    ns = list(ns)
    ks = list(ks)  # materialize: one-shot iterables must survive the loop
    adversaries = list(adversaries)
    link_axis = [_normalize_link_axis(entry) for entry in links]
    timing_axis = [tuple(entry) for entry in timings]
    if protocols is None:
        protocols = [common.pop("protocol", DEFAULT_PROTOCOL)]
    elif "protocol" in common:
        raise ConfigurationError(
            "pass either a protocols=... grid axis or a single "
            "protocol=..., not both"
        )
    else:
        protocols = list(protocols)
    if fs is not None and len(fs) != len(ns):
        raise ConfigurationError(
            f"fs has {len(fs)} entries for {len(ns)} system sizes"
        )
    specs = []
    for index, n in enumerate(ns):
        f = fs[index] if fs is not None else max(0, (n - 1) // 3)
        for k in ks:
            for adversary in adversaries:
                for link, link_params in link_axis:
                    for protocol in protocols:
                        for timing in timing_axis:
                            specs.append(
                                ScenarioSpec(
                                    n=n,
                                    f=f,
                                    k=k,
                                    protocol=protocol,
                                    adversary=adversary,
                                    link=link,
                                    link_params=link_params,
                                    timing=timing,
                                    **common,
                                )
                            )
    return specs


@dataclass(frozen=True)
class CampaignEntry:
    """One scenario's aggregated outcome within a campaign."""

    index: int
    spec: ScenarioSpec
    sweep: SweepResult


def _campaign_worker(job: tuple[int, ScenarioSpec, int]) -> tuple[int, TrialResult]:
    """Run one (scenario, seed) trial inside a worker process."""
    index, spec, seed = job
    return index, run_trial(spec.build_config(), seed)


def iter_campaign(
    specs: Sequence[ScenarioSpec],
    seeds: Sequence[int],
    *,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> Iterator[CampaignEntry]:
    """Run every (scenario, seed) trial; yield scenarios as they complete.

    Trials fan out across ``workers`` processes (default: one per CPU,
    capped by the job count; ``0``/``1`` runs in-process).  Entries are
    yielded in *completion* order — use :func:`run_campaign` for input
    order.  ``progress`` is invoked as ``progress(done, total)`` after
    every finished trial.  Results are independent of the worker count.
    """
    specs = list(specs)
    seeds = list(seeds)
    for spec in specs:
        spec.validate()
    if not specs or not seeds:
        return
    jobs = [
        (index, spec, seed)
        for index, spec in enumerate(specs)
        for seed in seeds
    ]
    if workers is None:
        workers = min(os.cpu_count() or 1, len(jobs))

    def _aggregate(index: int, by_seed: dict[int, TrialResult]) -> CampaignEntry:
        spec = specs[index]
        ordered = tuple(by_seed[seed] for seed in seeds)
        return CampaignEntry(
            index=index,
            spec=spec,
            sweep=SweepResult(config=spec.build_config(), results=ordered),
        )

    done = 0
    # Completion is counted per job, not per distinct seed, so duplicate
    # seeds (legal: deterministic trials just repeat) cannot double-yield.
    pending = [len(seeds)] * len(specs)
    buckets: dict[int, dict[int, TrialResult]] = {i: {} for i in range(len(specs))}

    def _consume(index: int, result: TrialResult) -> Iterator[CampaignEntry]:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, len(jobs))
        buckets[index][result.seed] = result
        pending[index] -= 1
        if pending[index] == 0:
            yield _aggregate(index, buckets.pop(index))

    if workers <= 1:
        for index, spec, seed in jobs:
            _, result = _campaign_worker((index, spec, seed))
            yield from _consume(index, result)
        return
    with multiprocessing.get_context().Pool(workers) as pool:
        for index, result in pool.imap_unordered(
            _campaign_worker, jobs, chunksize=1
        ):
            yield from _consume(index, result)


def run_campaign(
    specs: Sequence[ScenarioSpec],
    seeds: Sequence[int],
    *,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[CampaignEntry]:
    """Run a whole campaign; return entries in input scenario order."""
    entries = list(
        iter_campaign(specs, seeds, workers=workers, progress=progress)
    )
    return sorted(entries, key=lambda entry: entry.index)


def campaign_to_json(entries: Iterable[CampaignEntry]) -> list[dict]:
    """Flatten campaign entries to JSON-serializable records."""
    records = []
    for entry in sorted(entries, key=lambda e: e.index):
        sweep = entry.sweep
        latencies = sweep.latencies
        summary = sweep.latency_summary() if latencies else None
        records.append(
            {
                "label": entry.spec.label,
                "spec": asdict(entry.spec),
                "trials": len(sweep.results),
                "success_rate": sweep.success_rate,
                "latency_mean": summary.mean if summary else None,
                "latency_median": summary.median if summary else None,
                "latency_max": summary.maximum if summary else None,
                "mean_messages_per_beat": sweep.mean_messages_per_beat,
                "mean_beats_run": sum(r.beats_run for r in sweep.results)
                / len(sweep.results),
                "mean_dropped_messages": sweep.mean_dropped_messages,
                "mean_delayed_messages": sweep.mean_delayed_messages,
                "latencies": latencies,
                "seeds": [r.seed for r in sweep.results],
            }
        )
    return records


def single_scenario_sweep(
    spec: ScenarioSpec,
    seeds: Sequence[int],
    *,
    workers: int | None = None,
) -> SweepResult:
    """Convenience: campaign of one scenario, returning its sweep."""
    (entry,) = run_campaign([spec], seeds, workers=workers)
    return entry.sweep
