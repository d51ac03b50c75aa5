"""The benchmark registry: every experiment as one named registration.

Every experiment is plain data — a name, a tier, a parameter dict, and
a runner callable — so the CLI, CI and the regression gate all drive the
same definitions (``python -m repro bench run --only NAME`` runs one).

Tiers are cumulative: ``smoke`` ⊂ ``full`` ⊂ ``nightly``.  A
benchmark's ``tier`` is the *cheapest* selection that includes it
(``smoke`` benchmarks run in every tier; ``nightly`` ones only there).
``tier_params`` overrides the base parameters per executing tier, which
is how e.g. the link-condition sweep shrinks from its paper-sized grid
to a seconds-long CI guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.bench.result import BenchOutcome
from repro.errors import ConfigurationError

TIERS = ("smoke", "full", "nightly")

Runner = Callable[..., BenchOutcome]


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark.

    Attributes:
        name: registry key; matches its ``repro.bench.suites`` module
            and its ``benchmarks/results/<name>.json`` file.
        tier: cheapest tier that includes the benchmark.
        runner: ``runner(**params) -> BenchOutcome``.
        params: base (full-tier) keyword parameters for the runner.
        tier_params: per-tier parameter overrides, merged over ``params``
            when executing at that tier.
        description: one-liner shown by ``python -m repro bench list``.
    """

    name: str
    tier: str
    runner: Runner
    params: Mapping[str, object] = field(default_factory=dict)
    tier_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ConfigurationError(
                f"benchmark {self.name!r}: tier {self.tier!r} "
                f"must be one of {TIERS}"
            )
        unknown = set(self.tier_params) - set(TIERS)
        if unknown:
            raise ConfigurationError(
                f"benchmark {self.name!r}: tier_params for unknown "
                f"tiers {sorted(unknown)}"
            )

    def params_for(self, tier: str) -> dict:
        """Effective runner parameters when executing at ``tier``."""
        if tier not in TIERS:
            raise ConfigurationError(f"unknown tier {tier!r}; known: {TIERS}")
        merged = dict(self.params)
        merged.update(self.tier_params.get(tier, {}))
        return merged

    def run(self, tier: str) -> BenchOutcome:
        return self.runner(**self.params_for(tier))


#: name -> Benchmark.  Populated by the ``repro.bench.suites`` modules at
#: import; tests may inject toys and must clean up after themselves.
REGISTRY: dict[str, Benchmark] = {}


def register(benchmark: Benchmark) -> Benchmark:
    """Add one benchmark; double registration is a configuration error."""
    if benchmark.name in REGISTRY:
        raise ConfigurationError(
            f"benchmark {benchmark.name!r} is already registered"
        )
    REGISTRY[benchmark.name] = benchmark
    return benchmark


def _ensure_loaded() -> None:
    from repro.bench import suites  # noqa: F401  (import populates REGISTRY)


def all_benchmarks() -> list[Benchmark]:
    """Every registration, name-sorted."""
    _ensure_loaded()
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def get_benchmark(name: str) -> Benchmark:
    _ensure_loaded()
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {sorted(REGISTRY)}"
        ) from None


def select_tier(tier: str) -> list[Benchmark]:
    """Benchmarks included when executing at ``tier`` (cumulative)."""
    if tier not in TIERS:
        raise ConfigurationError(f"unknown tier {tier!r}; known: {TIERS}")
    rank = TIERS.index(tier)
    return [b for b in all_benchmarks() if TIERS.index(b.tier) <= rank]
