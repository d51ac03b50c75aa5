"""Benchmark suite definitions.

Importing this package populates :data:`repro.bench.registry.REGISTRY`:
the twelve figure/table benchmarks, the live-runtime throughput
benchmark, the cross-protocol comparison over the Protocol seam, and the
continuous-time pulse precision suite.  Module name == registry name.
"""

from repro.bench.suites import (  # noqa: F401  (imports register benchmarks)
    coin_quality,
    engines,
    fig_foresight,
    fig_logk,
    fig_resilience,
    fig_scaling,
    fig_tail,
    gvss_stack,
    link_conditions,
    messages,
    protocol_comparison,
    pulse_precision,
    runtime_throughput,
    stabilization,
    stabilization_under_churn,
    table1,
)
