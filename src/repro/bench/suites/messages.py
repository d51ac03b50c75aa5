"""F5 — message complexity, and the Remark 4.1 coin-sharing ablation.

ss-Byz-Clock-Sync runs three coin pipelines (A1's, A2's, and its own) in
the literal reading; Remark 4.1 observes that a single pipeline
suffices, saving a constant factor in message complexity without hurting
expected convergence.  We also record how traffic scales with n for the
paper's algorithm vs the deterministic comparator.  Both experiments run
through the campaign subsystem.
"""

from __future__ import annotations

from repro.bench.suites._common import pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {"full": {}, "nightly": {}}


def run(
    sizes=(4, 7, 10, 13),
    seeds: int = 4,
    k: int = 8,
    share_saving: float = 0.85,
) -> tuple:
    from repro.analysis.campaign import (
        ScenarioSpec,
        run_campaign,
        scenario_grid,
    )
    from repro.analysis.tables import render_table

    # Remark 4.1 ablation, measured with the real GVSS coin whose
    # four-round dealings dominate traffic: the literal reading runs
    # three pipelines (A1's, A2's, its own), the optimized variant two.
    n, f = 4, 1
    seed_range = range(seeds)
    separate, shared = (
        entry.sweep
        for entry in run_campaign(
            [
                ScenarioSpec(n=n, f=f, k=k, coin="gvss", max_beats=120,
                             share_coin=share_coin)
                for share_coin in (False, True)
            ],
            seed_range,
        )
    )

    current = run_campaign(
        scenario_grid(sizes, ks=[k], protocol="clock-sync", max_beats=300),
        seed_range,
    )
    deterministic = run_campaign(
        scenario_grid(sizes, ks=[k], protocol="deterministic", max_beats=100),
        seed_range,
    )
    traffic = {
        entry.spec.n: {
            "current": entry.sweep.mean_messages_per_beat,
            "deterministic": det.sweep.mean_messages_per_beat,
        }
        for entry, det in zip(current, deterministic)
    }

    pins = {}
    for variant, sweep in (
        ("separate", separate),
        ("shared", shared),
    ):
        axes = {"variant": variant, "n": n, "f": f}
        pin(pins, "messages/messages_per_beat", sweep.mean_messages_per_beat,
            "messages", **axes)
        pin(pins, "messages/success_rate", sweep.success_rate, "fraction",
            **axes)
    for size, cell in sorted(traffic.items()):
        for protocol, value in cell.items():
            pin(pins, "messages/messages_per_beat", value, "messages",
                protocol=protocol, n=size)

    failures = []
    if separate.success_rate != 1.0 or shared.success_rate != 1.0:
        failures.append(
            f"coin-sharing ablation lost convergence (separate "
            f"{separate.success_rate:.0%}, shared {shared.success_rate:.0%})"
        )
    # Two pipelines instead of three: a solid constant-factor saving.
    if (
        shared.mean_messages_per_beat
        >= separate.mean_messages_per_beat * share_saving
    ):
        failures.append(
            f"Remark 4.1 saving vanished: shared "
            f"{shared.mean_messages_per_beat:.0f} msgs/beat vs separate "
            f"{separate.mean_messages_per_beat:.0f}"
        )
    # Broadcast protocols: Θ(n^2)-flavoured growth — superlinear, bounded
    # by cubic.
    small, large = min(traffic), max(traffic)
    ratio = traffic[large]["current"] / traffic[small]["current"]
    if not 2 < ratio < 40:
        failures.append(
            f"traffic growth n={small}->{large} ratio {ratio:.1f} left "
            "the quadratic-flavoured band (2, 40)"
        )

    def _conv_cell(sweep) -> str:
        if not sweep.latencies:
            return "-"
        return f"{sweep.latency_summary().mean:.1f}"

    share_table = render_table(
        ["variant", "msgs/beat", "mean conv.", "converged"],
        [
            [
                "separate pipelines",
                f"{separate.mean_messages_per_beat:.0f}",
                _conv_cell(separate),
                f"{separate.success_rate * 100:.0f}%",
            ],
            [
                "shared pipeline (Remark 4.1)",
                f"{shared.mean_messages_per_beat:.0f}",
                _conv_cell(shared),
                f"{shared.success_rate * 100:.0f}%",
            ],
        ],
    )
    scaling_table = render_table(
        ["system", "current msgs/beat", "deterministic msgs/beat"],
        [
            [f"n={size}", f"{cell['current']:.0f}",
             f"{cell['deterministic']:.0f}"]
            for size, cell in sorted(traffic.items())
        ],
    )
    return pins, failures, {
        "messages_share_coin": share_table,
        "messages_scaling": scaling_table,
    }
