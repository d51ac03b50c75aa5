"""F4 — coin quality: p0 and p1 are constants (Definitions 2.6-2.8).

Measures the GVSS-based Feldman-Micali-style coin, wrapped in the
ss-Byz-Coin-Flip pipeline, under escalating attacks.  The shape required
by the paper is only that both event probabilities stay positive
constants.  The suite also keeps the documented *negative* result:
recovery-share equivocation on a half-consistent dealing destroys E0/E1
for the simplified 4-round GVSS coin — the measured boundary between it
and full Feldman-Micali (written up in
:mod:`repro.adversary.mixed_dealing`).
"""

from __future__ import annotations

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult


def _measure(n: int, f: int, adversary, beats: int, seed: int = 1):
    from repro.core.pipeline import CoinFlipPipeline
    from repro.coin.feldman_micali import FeldmanMicaliCoin
    from repro.net.simulator import Simulation

    coin = FeldmanMicaliCoin(n, f)
    sim = Simulation(
        n,
        f,
        lambda i: CoinFlipPipeline(coin),
        adversary=adversary,
        seed=seed,
    )
    sim.scramble()
    sim.run(coin.rounds)  # convergence window (Lemma 1)
    zeros = ones = divergent = 0
    for _ in range(beats):
        sim.run_beat()
        bits = {node.root.rand for node in sim.nodes.values()}
        if bits == {0}:
            zeros += 1
        elif bits == {1}:
            ones += 1
        else:
            divergent += 1
    return zeros / beats, ones / beats, divergent / beats


def _scenarios():
    from repro.adversary.dealer_attack import DealerAttackAdversary
    from repro.adversary.mixed_dealing import MixedDealingAdversary
    from repro.adversary.strategies import CrashAdversary, RandomNoiseAdversary

    attacks = {
        "n=4 fault-free": (4, 1, None),
        "n=4 crash": (4, 1, CrashAdversary()),
        "n=4 random noise": (4, 1, RandomNoiseAdversary()),
        "n=4 dealer attack": (4, 1, DealerAttackAdversary()),
        "n=7 dealer attack": (7, 2, DealerAttackAdversary()),
    }
    breaks = {
        "n=4 mixed dealing": (4, 1, MixedDealingAdversary()),
        "n=7 mixed dealing": (7, 2, MixedDealingAdversary()),
    }
    return attacks, breaks


def _table(results: dict) -> str:
    from repro.analysis.tables import render_table

    rows = [
        [name, f"{p0:.2f}", f"{p1:.2f}", f"{div:.2f}"]
        for name, (p0, p1, div) in results.items()
    ]
    return render_table(["scenario", "P(E0)", "P(E1)", "P(divergent)"], rows)


def run(beats: int = 60, min_probability: float = 0.15) -> BenchOutcome:
    attacks, breaks = _scenarios()
    measured = {
        name: _measure(n, f, adversary, beats)
        for name, (n, f, adversary) in attacks.items()
    }
    broken = {
        name: _measure(n, f, adversary, beats)
        for name, (n, f, adversary) in breaks.items()
    }
    results = []
    for name, (p0, p1, div) in measured.items():
        axes = {"scenario": name}
        results.append(BenchResult(
            benchmark="coin_quality", metric="p0", value=p0,
            unit="probability", scenario=axes, direction="higher",
        ))
        results.append(BenchResult(
            benchmark="coin_quality", metric="p1", value=p1,
            unit="probability", scenario=axes, direction="higher",
        ))
        results.append(BenchResult(
            benchmark="coin_quality", metric="divergent", value=div,
            unit="probability", scenario=axes, direction="lower",
        ))
    for name, (p0, p1, div) in broken.items():
        # The attack is *supposed* to break the simplified coin: high
        # divergence is the documented boundary, so "higher is better".
        results.append(BenchResult(
            benchmark="coin_quality", metric="divergent", value=div,
            unit="probability", scenario={"scenario": name},
            direction="higher",
        ))
    failures = []
    p0, p1, divergent = measured["n=4 fault-free"]
    if divergent != 0.0:  # fault-free GVSS coin is perfectly common
        failures.append(
            f"fault-free coin diverged in {divergent:.0%} of beats"
        )
    if not (0.3 < p0 < 0.7 and 0.3 < p1 < 0.7):
        failures.append(
            f"fault-free p0={p0:.2f}/p1={p1:.2f} left the fair band"
        )
    for name, (p0, p1, _div) in measured.items():
        # Definition 2.6's shape: both events remain positive constants,
        # comfortably above the conservative claimed bound of 0.25... we
        # assert above `min_probability` to keep the bench seed-robust.
        if p0 <= min_probability:
            failures.append(f"{name}: p0 collapsed ({p0:.2f})")
        if p1 <= min_probability:
            failures.append(f"{name}: p1 collapsed ({p1:.2f})")
    for name, (_p0, _p1, div) in broken.items():
        if div <= 0.5:
            failures.append(
                f"{name}: the attack should break the simplified coin "
                f"(divergent {div:.2f}) — if GVSS was hardened, update "
                "docs/protocol.md"
            )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(
            ("coin_quality", _table(measured)),
            ("coin_quality_break", _table(broken)),
        ),
    )


register(
    Benchmark(
        name="coin_quality",
        tier="full",
        runner=run,
        params={"beats": 60, "min_probability": 0.15},
        description="GVSS coin P(E0)/P(E1) under escalating attacks, "
                    "plus the documented mixed-dealing break",
    )
)
