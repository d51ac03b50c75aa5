"""Deterministic self-stabilizing clock sync: cyclic Byzantine agreement.

This is the library's stand-in for Table 1's deterministic rows ([15],
[7] — the linear-time line descending from Daliot-Dolev-Parnas,
arXiv:cs/0608096; see PAPERS.md): the clock ticks +1 every beat, and a
multivalued Byzantine agreement (Turpin-Coan over phase-king,
Δ = 2 + 3(f+1) rounds) repeatedly re-anchors it — one agreement cycle
every Δ beats, agreeing on the clock value the cycle started from.
*Validity* makes an already-synchronized system re-adopt its own ticked
value (closure undisturbed); *agreement* makes an unsynchronized system
synchronized at the first complete cycle, i.e. within at most 2Δ = O(f)
beats, deterministically, for any f < n/3.

Structurally the algorithm *is* the cyclic Turpin-Coan clock
(:class:`~repro.baselines.turpin_coan.TurpinCoanClock`, built on the
shared :class:`~repro.baselines.cyclic.CyclicAgreementClock` scaffold);
this module keeps the Table 1 row's historical name, under which it is
registered as the ``deterministic`` protocol (:mod:`repro.core.protocol`).
The shared-phase-label modelling concession and
the frozen-fixed-point failure mode of naive label-free pipelining are
documented in :mod:`repro.baselines.cyclic` and kept alive as a
regression test in ``tests/test_baselines.py``.

Run it through the unified CLI: ``python -m repro run --protocol
deterministic`` (or ``campaign`` / ``runtime`` with the same flag).
"""

from __future__ import annotations

from repro.baselines.turpin_coan import TurpinCoanClock

__all__ = ["DeterministicClockSync"]


class DeterministicClockSync(TurpinCoanClock):
    """O(f)-convergence deterministic k-clock via cyclic agreement."""
