"""F2 — geometric convergence tail (Theorem 2's discussion).

"If at some beat the algorithm has not yet converged, then it has a
constant probability of converging in the next beat.  Thus ... the
probability that ss-Byz-2-Clock does not converge within l·Δ beats
decreases exponentially with l."

We measure the survival function P(latency > b) of ss-Byz-2-Clock over
many seeds and check it halves (at least) every fixed stride — i.e. the
tail is bounded by a geometric.
"""

from __future__ import annotations

from repro.bench.suites._common import convergence_latencies, pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"full": {}, "nightly": {}}


def run(
    trials: int = 80,
    max_beats: int = 120,
    checkpoints=(4, 8, 16, 32, 64),
) -> tuple:
    from repro.analysis.stats import geometric_tail_rate
    from repro.analysis.tables import render_table
    from repro.coin.oracle import OracleCoin
    from repro.core.clock2 import SSByz2Clock

    coin = OracleCoin(p0=0.35, p1=0.35, rounds=3)
    latencies = convergence_latencies(
        lambda i: SSByz2Clock(coin),
        n=7,
        f=2,
        k=2,
        trials=trials,
        max_beats=max_beats,
    )
    survival = {
        b: sum(1 for v in latencies if v > b) / len(latencies)
        for b in checkpoints
    }
    rate = geometric_tail_rate(latencies)

    pins = {}
    for b, p in survival.items():
        pin(pins, "fig_tail/survival", p, "probability", beat=b)
    pin(pins, "fig_tail/per_beat_success", rate, "probability")

    failures = []
    # Shape: monotone, sub-halving per doubling, empty far tail.
    values = [survival[b] for b in checkpoints]
    if any(a < b for a, b in zip(values, values[1:])):
        failures.append("survival function is not monotone")
    bounds = dict(zip((8, 32, 64), (0.7, 0.1, 0.02)))
    for beat, bound in bounds.items():
        if beat in survival and survival[beat] > bound:
            failures.append(
                f"P(not converged by {beat}) = {survival[beat]:.3f} "
                f"> {bound} — tail is not geometric"
            )
    if rate <= 0.1:  # a per-beat constant, not inverse-polynomial
        failures.append(f"fitted per-beat success {rate:.3f} <= 0.1")

    rows = [[f"beat {b}", f"{p:.3f}"] for b, p in survival.items()]
    rows.append(["fitted per-beat success", f"{rate:.3f}"])
    table = render_table(["P(not converged by ...)", "value"], rows)
    return pins, failures, {"fig_tail": table}
