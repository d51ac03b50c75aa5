"""F6 — why unpredictability matters (§6.1 ablation).

Definition 2.6's unpredictability lets Lemma 4 treat the coin as
independent of the clock values it arbitrates (they were committed one
beat earlier).  We arm the targeted anti-coin adversary three ways:

* **rushing** (legal): sees the *current* beat's coin before sending;
* **foresight-1** (illegal): also sees the *next* beat's coin — it can
  steer the surviving clock value toward the value the next coin will
  not merge;
* for scale, the same attack **without** any coin knowledge.

The paper predicts rushing costs nothing asymptotically (Theorem 2
holds); foresight degrades convergence measurably — every extra bit of
prediction buys the adversary another coin-flip survival.
"""

from __future__ import annotations

from repro.bench.suites._common import mean_latency, pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"full": {}, "nightly": {}}


def run(trials: int = 15, max_beats: int = 300) -> tuple:
    from repro.adversary.anti_coin import AntiCoinClock2Adversary
    from repro.analysis.tables import render_table
    from repro.coin.oracle import OracleCoin
    from repro.core.clock2 import SSByz2Clock

    coin = OracleCoin(p0=0.45, p1=0.45, rounds=2)

    def _mean(foresight: "int | None") -> float:
        if foresight is None:
            adversary_factory = None
        else:
            adversary_factory = lambda: AntiCoinClock2Adversary(
                coin, foresight=foresight
            )
        return mean_latency(
            lambda i: SSByz2Clock(coin),
            n=7,
            f=2,
            k=2,
            trials=trials,
            max_beats=max_beats,
            adversary_factory=adversary_factory,
        )

    means = {
        "no adversary": _mean(None),
        "rushing (legal, sees beat r coin)": _mean(0),
        "foresight-1 (illegal, sees beat r+1 coin)": _mean(1),
    }
    pins = {}
    for name, mean in means.items():
        pin(pins, "fig_foresight/mean_latency", mean, "beats", adversary=name)
    fault_free = means["no adversary"]
    rushing = means["rushing (legal, sees beat r coin)"]
    foresight = means["foresight-1 (illegal, sees beat r+1 coin)"]
    failures = []
    # The legal attack stays expected-constant (Theorem 2 under attack).
    if rushing >= max_beats / 3:
        failures.append(
            f"rushing attack broke expected-constant convergence "
            f"({rushing:.1f} beats)"
        )
    # The illegal upgrade hurts: slower than both the fault-free run and
    # the rushing attack (the gap quantifies unpredictability's value).
    if foresight <= fault_free:
        failures.append(
            f"foresight-1 ({foresight:.1f}) not slower than fault-free "
            f"({fault_free:.1f})"
        )
    if foresight < rushing:
        failures.append(
            f"foresight-1 ({foresight:.1f}) beat the rushing attack "
            f"({rushing:.1f})"
        )
    table = render_table(
        ["adversary", "mean beats"],
        [[name, f"{mean:.1f}"] for name, mean in means.items()],
    )
    return pins, failures, {"fig_foresight": table}
