"""Cross-protocol comparison: every registered protocol at matched n/f.

The Protocol seam's executable headline: all registered protocols (the
paper's ss-Byz-Clock-Sync and the four Table 1 comparators) solve the
same k-Clock problem from worst-case scrambled memory, at one (n, f, k)
point, and the bench reports stabilization beats, message traffic and
success per protocol — the Lenzen-style speed-vs-cost comparison as a
gated regression surface instead of prose.  Every metric is
simulation-deterministic (latencies in beats, message counts, success
fractions reproduce exactly from the seed range), so the whole suite
gates.

Qualitative shapes enforced: deterministic protocols converge within
their 2·Δ bound on every seed; ``phase-king``'s shorter cycle wins
beats from ``deterministic`` (cyclic Turpin-Coan agreement) but pays the
⌈log2 k⌉× bit-lane message factor; the local-coin ``dolev-welch`` row
never beats the common-coin protocol.
"""

from __future__ import annotations

from repro.bench.suites._common import pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {
    "smoke": {"n": 4, "f": 1, "trials": 3, "max_beats": 200},
    "full": {},
    "nightly": {},
}


def run(
    n: int = 7, f: int = 2, k: int = 8, trials: int = 6, max_beats: int = 300
) -> tuple:
    from repro.analysis.campaign import ScenarioSpec
    from repro.analysis.experiments import run_sweep
    from repro.analysis.tables import render_table
    from repro.core.protocol import PROTOCOLS

    pins, failures, rows = {}, [], []
    latency, sweeps = {}, {}
    for name in sorted(PROTOCOLS):
        protocol = PROTOCOLS[name]
        spec = ScenarioSpec(n=n, f=f, k=k, protocol=name, max_beats=max_beats)
        sweep = run_sweep(spec, range(trials))
        censored = [
            r.converged_beat if r.converged else max_beats
            for r in sweep.results
        ]
        latency[name] = sum(censored) / trials
        sweeps[name] = sweep
        scenario = {"protocol": name, "n": n, "f": f, "k": k}
        for metric, value, unit in (
            ("stabilization_latency", latency[name], "beats"),
            ("messages_per_beat", sweep.mean_messages_per_beat, "messages"),
            ("success_rate", sweep.success_rate, "fraction"),
        ):
            pin(pins, f"protocol_comparison/{metric}", value, unit, **scenario)
        bound = protocol.convergence_bound(n, f, k)
        if bound is not None:
            if sweep.success_rate < 1.0:
                failures.append(
                    f"{name}: deterministic protocol failed to converge "
                    f"({sweep.failure_count}/{trials} trials)"
                )
            elif max(censored) > bound:
                failures.append(
                    f"{name}: worst latency {max(censored)} beats exceeds "
                    f"the deterministic bound {bound}"
                )
        rows.append([
            name,
            protocol.claimed_convergence,
            f"{latency[name]:.1f}",
            f"{sweep.mean_messages_per_beat:.0f}",
            f"{sweep.success_rate * 100:.0f}%",
        ])

    if latency["phase-king"] > latency["deterministic"]:
        failures.append(
            f"phase-king's shorter 3(f+1) cycle lost to deterministic "
            f"({latency['phase-king']:.1f} vs {latency['deterministic']:.1f} "
            "beats)"
        )
    pk_messages = sweeps["phase-king"].mean_messages_per_beat
    det_messages = sweeps["deterministic"].mean_messages_per_beat
    if k > 2 and pk_messages <= det_messages:
        failures.append(
            "phase-king's bit lanes should cost messages over deterministic "
            f"({pk_messages:.0f} vs {det_messages:.0f} msgs/beat)"
        )
    if latency["dolev-welch"] < latency["clock-sync"]:
        failures.append(
            "the local-coin exponential row beat the common-coin protocol "
            f"({latency['dolev-welch']:.1f} vs {latency['clock-sync']:.1f} "
            "beats)"
        )

    table = render_table(
        ["protocol", "claimed", "mean conv. (beats)", "msgs/beat",
         "success"],
        rows,
    )
    return pins, failures, {"protocol_comparison": table}
