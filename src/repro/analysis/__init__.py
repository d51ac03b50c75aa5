"""Evaluation harness: monitors, trials, sweeps, statistics, tables."""

from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    CampaignEntry,
    PROTOCOL_REGISTRY,
    ScenarioSpec,
    campaign_to_json,
    iter_campaign,
    run_campaign,
    scenario_grid,
)
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.experiments import (
    SweepResult,
    TrialResult,
    run_sweep,
    run_trial,
)
from repro.analysis.stats import (
    Summary,
    geometric_tail_rate,
    mean,
    median,
    quantile,
    summarize,
)
from repro.analysis.tables import (
    Table1Row,
    render_table,
    standard_families,
    table1_comparison,
)

__all__ = [
    "ADVERSARY_REGISTRY",
    "CampaignEntry",
    "ClockConvergenceMonitor",
    "PROTOCOL_REGISTRY",
    "ScenarioSpec",
    "Summary",
    "SweepResult",
    "Table1Row",
    "TrialResult",
    "campaign_to_json",
    "iter_campaign",
    "run_campaign",
    "scenario_grid",
    "geometric_tail_rate",
    "mean",
    "median",
    "quantile",
    "render_table",
    "run_sweep",
    "run_trial",
    "standard_families",
    "summarize",
    "table1_comparison",
]
