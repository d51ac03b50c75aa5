"""Parallel experiment campaigns over picklable scenario specifications.

:func:`~repro.analysis.experiments.run_sweep` runs one scenario's seeds
in this process — perfect for a quick table, too slow for the
thousand-trial grids the related work runs (precision/latency trade-off
sweeps, resynchronization-scenario matrices).  This module holds the one
description of a simulated run and the scale-out layer on top of the
trial harness:

* :class:`ScenarioSpec` — a frozen, *picklable* description of one
  run: protocol family, coin, ``(n, f, k)``, adversary, link
  conditions, fault schedule, beat budget, early-stop policy, engine and
  timing.  Specs cross process boundaries; the per-node component
  factories they imply are resolved inside each trial via the
  module-level registries below.
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
    Adversary,
    CrashAdversary,
    DealerAttackAdversary,
    EquivocatorAdversary,
    MixedDealingAdversary,
    RandomNoiseAdversary,
    SplitWorldAdversary,
)
from repro.analysis.experiments import SweepResult, TrialResult, run_trial
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.interfaces import CoinAlgorithm
from repro.coin.local import LocalCoin
from repro.coin.oracle import OracleCoin
from repro.core.protocol import (
    DEFAULT_PROTOCOL, PROTOCOLS, RootFactory, resolve_protocol,
)
from repro.errors import ConfigurationError, check_resilience
from repro.faults.dynamic import ChurnSchedule
from repro.net.engine import DEFAULT_ENGINE, resolve_engine
from repro.net.events import DriftingClock, KeyedDelays
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
    """One simulated run, *named*: plain picklable data, no closures.

    The only field list a simulated run has:
    :func:`~repro.analysis.experiments.run_trial`, ``run_sweep``,
    campaigns, ``synchronize``, the CLI and the ``ClusterSpec`` workers
    all describe their run as a spec, and :meth:`validate` is the one
    statement of the rules on its axes.  Names become objects in one
    place — :meth:`coin_factory`, :meth:`root_factory` and
    :meth:`build_adversary`.

    Attributes:
        n, f: system size and fault parameter.
        k: the clock modulus being solved for.
        protocol: family name from :data:`PROTOCOL_REGISTRY` —
            ``"clock-sync"`` (the paper's algorithm) or any registered
            baseline (see :mod:`repro.core.protocol`).
        coin: a name from :data:`COIN_REGISTRY` (protocols that use a
            coin only).
        adversary: a name from :data:`ADVERSARY_REGISTRY`; each trial
            builds a fresh instance.
        max_beats: give up after this many beats.
        scramble: apply the worst-case transient fault before beat 0.
        scramble_beats: fault schedule — additional beats *before* which
            every correct node is re-scrambled mid-run; convergence is then
            measured from the last scheduled fault.
        early_stop: stop once convergence plus a ``closure_window``-beat
            closure run is confirmed instead of burning the whole budget.
        closure_window: closure beats (beyond the convergence beat) that
            must be observed before an early stop.
        engine: simulation engine name (``"fast"``, ``"reference"`` or
            ``"bulk"``).
        link: link-condition model name from :data:`LINK_REGISTRY`
            (default: the paper's perfect network).
        link_params: keyword parameters for the link model, as a sorted
            tuple of ``(name, value)`` pairs so specs stay hashable and
            picklable (see
            :func:`~repro.net.linkmodel.normalize_link_params`).
        churn: membership churn schedule in the normalized tuple form
            :meth:`~repro.faults.dynamic.ChurnSchedule.normalized` emits
            — ``(beat, kind, node_ids)`` triples; empty means a static
            world.  Convergence is measured from the last fault of any
            kind (scramble *or* membership event).
        share_coin: Remark 4.1's shared coin pipeline (clock-sync only).
        coin_p0, coin_p1, coin_rounds: oracle-coin tuning; ``None`` keeps
            the :class:`~repro.coin.oracle.OracleCoin` defaults, and any
            of them on another coin is a configuration error.
        timing: continuous-time axis — empty (the default) runs the
            lock-step beat model; ``(rho, d_min, d_max, pulse_period)``
            runs the bounded-delay model instead: drifting clocks and
            keyed message delays decide which copies make their close
            (:class:`~repro.net.events.ContinuousSimulation`, the fast
            engine behind :class:`~repro.net.events.TimingLinks`).
            Continuous trials always burn the full ``max_beats`` horizon
            and are incompatible with ``scramble_beats``, ``churn``, a
            non-perfect ``link`` and a non-default ``engine`` — timing
            is the trial's link model and picks its engine.
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
        """Raise :class:`ConfigurationError` on an unrunnable scenario,
        before any beat runs.

        ``run_trial`` applies it to every trial; campaigns also apply
        it in the driving process, so a bad grid fails there and not
        beats into a pool worker's trial.  (Churn overlap with the
        *faulty* set is checked inside the trial: the adversary picks its
        coalition at simulation-build time.)
        """
        resolve_protocol(self.protocol)
        self.coin_factory()  # unknown coin or misplaced tuning
        if self.adversary not in ADVERSARY_REGISTRY:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; "
                f"known: {sorted(ADVERSARY_REGISTRY)}"
            )
        check_resilience(self.n, self.f)
        resolve_engine(self.engine)
        if self.max_beats < 1:
            raise ConfigurationError(
                f"need at least one beat, got {self.max_beats}"
            )
        if any(not 0 <= beat < self.max_beats for beat in self.scramble_beats):
            raise ConfigurationError(
                f"scramble_beats {sorted(self.scramble_beats)} must lie "
                f"within [0, max_beats={self.max_beats}) or they would "
                "silently never fire"
            )
        # Building the model validates both the name and the parameters.
        make_link(self.link, dict(self.link_params))
        schedule = ChurnSchedule.coerce(self.churn)
        if schedule is not None:
            if not 0 <= schedule.last_event_beat < self.max_beats:
                raise ConfigurationError(
                    f"churn schedule {schedule.describe()} has events at or "
                    f"beyond max_beats={self.max_beats}; they would "
                    "silently never fire"
                )
            schedule.validate_for(self.n, frozenset())
        if not self.timing:
            return
        if len(self.timing) != 4:
            raise ConfigurationError(
                "timing must be (rho, d_min, d_max, pulse_period), got "
                f"{self.timing!r}"
            )
        # Bounds are checked with the timing model's own rules.
        rho, d_min, d_max, pulse_period = self.timing
        DriftingClock(0, 0, rho, pulse_period)
        KeyedDelays(0, d_min, d_max)
        beat_axes = {
            "scramble_beats": bool(self.scramble_beats),
            "churn": bool(self.churn),
            "link": self.link != "perfect",
            "link_params": bool(self.link_params),
            "engine": self.engine != DEFAULT_ENGINE,
        }
        bad = sorted(name for name, used in beat_axes.items() if used)
        if bad:
            raise ConfigurationError(
                f"a continuous-time trial does not support {bad}: those "
                "are lock-step beat-model axes (delays and drops come from "
                "the timing bounds here)"
            )

    @property
    def label(self) -> str:
        """Compact human-readable scenario name for tables and logs."""
        parts = [self.protocol]
        if self.protocol == "clock-sync":
            tuning = ",".join(
                f"{key}={value}" for key, value in self._tuning().items()
            )
            parts.append(f"{self.coin}[{tuning}]" if tuning else self.coin)
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

    def _tuning(self) -> dict[str, object]:
        """The oracle-coin keyword arguments the spec sets."""
        tuning = {
            "p0": self.coin_p0, "p1": self.coin_p1, "rounds": self.coin_rounds,
        }
        return {key: value for key, value in tuning.items() if value is not None}

    def coin_factory(self) -> Callable[[], CoinAlgorithm]:
        """The scenario's coin, by name, with the oracle tuning applied."""
        factory = coin_by_name(self.coin, self.n, self.f)
        tuning = self._tuning()
        if not tuning:
            return factory
        if self.coin != "oracle":
            raise ConfigurationError(
                f"coin_p0 / coin_p1 / coin_rounds tune the oracle coin; "
                f"coin={self.coin!r} would silently ignore {tuning}"
            )
        return lambda: OracleCoin(**tuning)

    def root_factory(self) -> RootFactory:
        """The protocol's per-node root component factory."""
        return resolve_protocol(self.protocol).factory(
            self.n,
            self.f,
            self.k,
            coin_factory=self.coin_factory(),
            share_coin=self.share_coin,
        )

    def build_adversary(self) -> Adversary | None:
        """A fresh instance of the named adversary (``None`` fault-free)."""
        adversary_cls = ADVERSARY_REGISTRY[self.adversary]
        return None if adversary_cls is None else adversary_cls()


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
    or ``(rho, d_min, d_max, pulse_period)`` for the bounded-delay
    model — e.g. ``timings=[(), (0.001, 0.0, 0.1, 1.0)]`` crosses every
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
    return index, run_trial(spec, seed)


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
            sweep=SweepResult(spec=spec, results=ordered),
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
