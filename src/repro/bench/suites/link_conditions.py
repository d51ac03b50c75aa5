"""Link-condition sweep: convergence vs. delay bound and loss rate.

The paper's guarantees (expected-constant convergence, Table 1) assume
the non-faulty network of Definition 2.2 — every message delivered
within its beat.  This bench measures what happens just outside that
assumption, the regime the follow-on literature (fault-resistant
asynchronous clock functions, bounded-delay pulse resynchronization)
targets:

* **delay sweep** — ``BoundedDelayLinks(max_delay=d)`` for each d;
* **loss sweep** — ``LossyLinks(loss=p)`` for each p;

each crossed with ss-Byz-Clock-Sync (oracle coin) and the Table-1
baselines (``deterministic``, ``dolev-welch``), reporting success rate
and mean convergence latency per cell.  Expected shape: omission loss
degrades ss-Byz-Clock-Sync *gracefully* (latency grows, success stays
high), while any delay bound ≥ 1 violates the same-beat counting the
proofs lean on and collapses Definition-3.2 closure for the randomized
protocols — which is exactly why the bounded-delay literature redesigns
the protocol rather than re-running it.  Dolev-Welch's unbounded-counter
max-flooding, by contrast, shrugs off moderate loss and even tolerates
delays at small sizes — its weakness is the counter, not the link.

All metrics are simulation-deterministic given the seed range, so they
are gated against ``benchmarks/baselines.json``.
"""

from __future__ import annotations

from repro.bench.suites._common import pin

#: ``run`` keyword arguments per tier this suite runs in.
TIERS = {
    # One worker: at this size a process pool costs more than it saves.
    "smoke": {
        "n": 4, "f": 1, "k": 6, "seeds": 3, "max_beats": 150,
        "delays": (0, 2), "losses": (0.0, 0.1), "workers": 1,
    },
    "full": {},
    "nightly": {},
}


#: Protocols crossed with every link condition (name, ScenarioSpec kwargs).
PROTOCOLS = (
    ("clock-sync", {"protocol": "clock-sync", "coin": "oracle"}),
    ("deterministic", {"protocol": "deterministic"}),
    ("dolev-welch", {"protocol": "dolev-welch"}),
)


def _specs(n, f, k, max_beats, delays, losses) -> list:
    from repro.analysis.campaign import ScenarioSpec

    specs = []
    links: list[tuple[str, str, tuple]] = [("perfect", "perfect", ())]
    links += [
        ("delay", f"delay d={d}", (("max_delay", d),))
        for d in delays
        if d > 0
    ]
    links += [
        ("lossy", f"loss p={p:g}", (("loss", p),))
        for p in losses
        if p > 0
    ]
    for protocol_name, kwargs in PROTOCOLS:
        for link, condition, link_params in links:
            specs.append(
                (
                    protocol_name,
                    condition,
                    ScenarioSpec(
                        n=n,
                        f=f,
                        k=k,
                        max_beats=max_beats,
                        link=link,
                        link_params=link_params,
                        tag=condition,
                        **kwargs,
                    ),
                )
            )
    return specs


def _sweep_rows(n, f, k, seeds, max_beats, delays, losses, workers) -> list[dict]:
    from repro.analysis.campaign import run_campaign

    labelled = _specs(n, f, k, max_beats, delays, losses)
    entries = run_campaign(
        [spec for _, _, spec in labelled],
        seeds=range(seeds),
        workers=workers,
    )
    rows = []
    for (protocol, condition, _spec), entry in zip(labelled, entries):
        sweep = entry.sweep
        latencies = sweep.latencies
        rows.append(
            {
                "protocol": protocol,
                "condition": condition,
                "link": entry.spec.link,
                "link_params": dict(entry.spec.link_params),
                "success_rate": sweep.success_rate,
                "mean_latency": (
                    sum(latencies) / len(latencies) if latencies else None
                ),
                "max_latency": max(latencies) if latencies else None,
                "mean_dropped": sweep.mean_dropped_messages,
                "mean_delayed": sweep.mean_delayed_messages,
            }
        )
    return rows


def _render(rows, n, f, k, seeds, max_beats) -> str:
    header = (
        f"{'protocol':<14} | {'condition':<12} | {'success':>7} | "
        f"{'mean conv':>9} | {'max conv':>8} | {'dropped/run':>11}"
    )
    lines = [
        f"link-condition sweep: n={n} f={f} k={k}, {seeds} seeds, "
        f"budget {max_beats} beats",
        header,
        "-" * len(header),
    ]
    for row in rows:
        mean = "-" if row["mean_latency"] is None else f"{row['mean_latency']:.1f}"
        peak = "-" if row["max_latency"] is None else f"{row['max_latency']}"
        lines.append(
            f"{row['protocol']:<14} | {row['condition']:<12} | "
            f"{row['success_rate'] * 100:>6.0f}% | {mean:>9} | {peak:>8} | "
            f"{row['mean_dropped']:>11.0f}"
        )
    return "\n".join(lines)


def _check(rows: list[dict]) -> list[str]:
    """The qualitative claims the sweep must reproduce."""
    failures = []
    by_cell = {(r["protocol"], r["condition"]): r for r in rows}
    for protocol in ("clock-sync", "deterministic", "dolev-welch"):
        perfect = by_cell[(protocol, "perfect")]
        # Expected-constant (clock-sync) and f+1-linear (deterministic)
        # protocols must always make the budget under perfect links;
        # Dolev-Welch is Table 1's expected-*exponential* baseline, so for
        # it we only demand no degraded cell beats the perfect one.
        if protocol != "dolev-welch" and perfect["success_rate"] < 1.0:
            failures.append(
                f"{protocol} under perfect links must always converge, got "
                f"{perfect['success_rate']:.0%}"
            )
        if perfect["mean_dropped"] != 0:
            failures.append(f"{protocol}: perfect links dropped messages")
        for row in rows:
            if (
                row["protocol"] == protocol
                and row["success_rate"] > perfect["success_rate"]
            ):
                failures.append(
                    f"{protocol}: degraded cell {row['condition']} converged "
                    "more often than perfect links"
                )
    lossy_cells = [
        r for r in rows
        if r["protocol"] == "clock-sync" and r["condition"].startswith("loss")
    ]
    if lossy_cells and max(r["success_rate"] for r in lossy_cells) == 0.0:
        failures.append("clock-sync failed at every loss rate; expected "
                        "graceful degradation at small p")
    return failures


def run(
    n: int = 7,
    f: int = 2,
    k: int = 8,
    seeds: int = 10,
    max_beats: int = 300,
    delays=(0, 1, 2, 3),
    losses=(0.0, 0.02, 0.05, 0.1, 0.2),
    workers: "int | None" = None,
) -> tuple:
    rows = _sweep_rows(n, f, k, seeds, max_beats, delays, losses, workers)
    pins = {}
    for row in rows:
        axes = {"protocol": row["protocol"], "condition": row["condition"]}
        for metric, unit in (
            ("success_rate", "fraction"), ("mean_latency", "beats"),
            ("max_latency", "beats"), ("mean_dropped", "messages"),
        ):
            if row[metric] is not None:
                pin(pins, f"link_conditions/{metric}", row[metric], unit, **axes)
    return pins, _check(rows), {
        "link_conditions": _render(rows, n, f, k, seeds, max_beats),
    }
