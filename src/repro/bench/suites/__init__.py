"""The pinned experiments: the paper's figures and Table 1, and the
differential pins between execution paths.

Each suite module holds two things:

* ``TIERS`` — the tiers it runs in (``smoke`` ⊂ ``full`` ⊂ ``nightly``),
  each mapped to its ``run`` keyword arguments;
* ``run(**kwargs) -> (pins, failures, tables)``: ``pins`` is
  ``{key: {"unit": u, "value": v}}``, the entry shape of
  ``benchmarks/baselines.json``, keyed by :func:`._common.pin`;
  ``failures`` lists the suite's own qualitative checks that failed (the
  paper's shapes: who wins, by what factor); ``tables`` maps a name to
  the text of ``benchmarks/results/<name>.txt``, which the docs quote.

Every value is simulation-deterministic, so each one is pinned exactly:
``python tools/pins.py TIER [--write]`` runs a tier and compares it with
(or rewrites) its section of the baselines and, at ``full``, the tables;
``tests/test_pins.py`` runs the smoke tier.  Speed is the beat ledger's
business (``benchmarks/ledger/``), not a suite's.
"""

from repro.bench.suites import (
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

#: Every suite, once; a pin's key starts with its suite's module name.
SUITES = (
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
