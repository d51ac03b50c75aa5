"""The beat ledger's own output checks, in tier-1.

``benchmarks/ledger/run.py`` fails a workload whose seed-0 trace prefix
differs from its pinned digest, which drops operations, or whose bulk or
live trace differs from the ``FastEngine`` reference leg.  Here each
in-process and pooled workload runs through the ledger's own driver for
:data:`PIN_OPS` operations (the reference beats where those are more)
and meets the same checks, so a change that would make the ledger read
``correct: false`` fails here first.  ``cluster-tcp`` spawns processes
and is left to ``benchmarks/ledger/test_ledger.py``.  Nothing under
``benchmarks/ledger`` is written.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"
sys.path.insert(0, str(LEDGER))

from gauge import Gauge  # noqa: E402
from measure import digest  # noqa: E402
from paths import DRIVERS, sim_leg  # noqa: E402
from workloads import PIN_OPS, PINNED_SEED0, WORKLOADS, scaled  # noqa: E402

#: Beats of the ``FastEngine`` reference leg each workload is held to.
REFERENCE_BEATS = {
    "sim-bulk-clean": WORKLOADS["sim-bulk-clean"].reference_beats,
    "sim-bulk-byz": WORKLOADS["sim-bulk-byz"].reference_beats,
    "rt-local": PIN_OPS,
}


@pytest.mark.parametrize(
    "name", [name for name in WORKLOADS if name != "cluster-tcp"]
)
def test_seed_zero_leg_passes_the_ledgers_output_checks(name):
    workload = WORKLOADS[name]
    beats = REFERENCE_BEATS.get(name, 0)
    leg = DRIVERS[workload.path].leg(workload, 0, max(PIN_OPS, beats), Gauge())
    assert digest(leg.pin_lines) == PINNED_SEED0[name]
    assert leg.failed_ops == 0
    if beats:
        reference = sim_leg(workload, 0, beats, Gauge(), engine="fast")
        assert reference.lines == leg.lines[:beats]


def test_ev_drift_passes_at_the_ledgers_own_length():
    """``ev-drift`` for as many beats as ``run.py`` gives it (the size
    scaled to ``BENCHMARK.json``'s ``run_seconds``, 1 200 beats): its
    drift is spread over the horizon, and the ledger fails a run that
    never stabilizes or loses a copy (every late copy is a failed
    operation) — neither of which a 12-beat leg can show."""
    contract = json.loads((LEDGER.parents[1] / "BENCHMARK.json").read_text())
    workload = WORKLOADS["ev-drift"]
    ops = scaled(workload.size, contract["run_seconds"], False, floor=PIN_OPS)
    leg = DRIVERS[workload.path].leg(workload, 0, ops, Gauge())
    assert leg.ops == ops == 1200
    assert digest(leg.pin_lines) == PINNED_SEED0["ev-drift"]
    assert leg.failed_ops == 0
    assert leg.stabilize is not None
