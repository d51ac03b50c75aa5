"""The unified metrics registry: labeled counters, gauges, histograms.

Design constraints, in order:

1. **Deterministic by construction.**  Instruments are pure arithmetic
   over values the run already computes; nothing here draws randomness,
   reads wall clocks, or reorders work.  The one timing-flavoured metric
   (beat duration histograms) is *fed* by callers that own a clock.
2. **Inert when disabled.**  Code paths take a registry argument that
   defaults to ``None`` (nothing is even allocated), and
   :data:`NULL_REGISTRY` is a no-op registry for call sites that prefer
   an object over an ``if``.
3. **Re-homing, not re-counting.**  The simulation and runtime layers
   already account traffic precisely (:class:`~repro.net.network.
   MessageStats`, the :class:`~repro.runtime.sync.BeatSynchronizer`
   counters, per-node ``frames_sent``).  Collectors registered with
   :meth:`MetricsRegistry.register_collector` copy those values onto
   instruments at *export* time, so the hot paths stay untouched and
   every gated metric keeps its exact pre-telemetry value.

Registries serialize to a versioned JSON document
(:data:`METRICS_SCHEMA`), render as Prometheus-style text exposition
(:meth:`MetricsRegistry.to_prometheus`), and **merge**:
:meth:`MetricsRegistry.merge_json` folds another registry's document in
by summing samples — public API for combining the exports of separate
runs or processes (nothing in the package calls it: a cluster run's
registry is filled from its one merged result).
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "bind_simulation",
    "record_runtime",
    "render_prometheus",
    "validate_metrics_json",
]

#: Version tag of the serialized registry document.
METRICS_SCHEMA = "repro-metrics/1"

#: Prometheus-compatible metric and label names.
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")

#: Default histogram bucket upper bounds (seconds-flavoured, generic).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: One sample's identity: sorted ``(label, value)`` pairs.
LabelKey = tuple


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class _Instrument:
    """Common shape of every instrument: named, labeled, sampled."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(
                f"metric name {name!r} is not a valid identifier "
                "([a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        self.name = name
        self.help = help
        self._samples: dict[LabelKey, float] = {}

    def samples(self) -> list[tuple[dict, float]]:
        """Every ``(labels, value)`` sample, label-key-sorted."""
        return [
            (dict(key), value)
            for key, value in sorted(self._samples.items())
        ]

    def value(self, **labels) -> float:
        """Current value of one sample (0.0 if never touched)."""
        return self._samples.get(_label_key(labels), 0.0)


class Counter(_Instrument):
    """Monotonically increasing total (messages sent, frames dropped)."""

    kind = "counter"

    def inc(self, amount: "int | float" = 1, **labels) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def set_total(self, value: "int | float", **labels) -> None:
        """Collector path: adopt an externally-accumulated total.

        Re-homing an existing counter (e.g. ``MessageStats.total_messages``)
        means copying its current cumulative value at export time, not
        double-counting increments on the hot path.
        """
        self._samples[_label_key(labels)] = value


class Gauge(_Instrument):
    """Point-in-time value (active nodes, current beat, beats/sec)."""

    kind = "gauge"

    def set(self, value: "int | float", **labels) -> None:
        self._samples[_label_key(labels)] = value

    def inc(self, amount: "int | float" = 1, **labels) -> None:
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount


class Histogram(_Instrument):
    """Bucketed distribution (per-beat wall time, inbox sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError(
                f"histogram {name} needs at least one bucket bound"
            )
        self.buckets = bounds
        # Per label key: [per-bucket counts..., +Inf count], sum, count.
        self._dists: dict[LabelKey, tuple[list[int], float, int]] = {}

    def observe(self, value: "int | float", **labels) -> None:
        key = _label_key(labels)
        dist = self._dists.get(key)
        if dist is None:
            dist = ([0] * (len(self.buckets) + 1), 0.0, 0)
        counts, total, count = dist
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
        self._dists[key] = (counts, total + value, count + 1)

    def samples(self) -> list[tuple[dict, dict]]:
        """Per label set: cumulative bucket counts, sum and count."""
        out = []
        for key, (counts, total, count) in sorted(self._dists.items()):
            cumulative: dict[str, int] = {}
            running = 0
            for bound, bucket_count in zip(self.buckets, counts):
                running += bucket_count
                cumulative[repr(bound)] = running
            cumulative["+Inf"] = running + counts[-1]
            out.append(
                (dict(key), {"buckets": cumulative, "sum": total,
                             "count": count})
            )
        return out

    def value(self, **labels) -> float:
        """The *count* of one label set's distribution."""
        dist = self._dists.get(_label_key(labels))
        return 0.0 if dist is None else float(dist[2])

    def _merge_sample(self, labels: dict, sample: dict) -> None:
        key = _label_key(labels)
        dist = self._dists.get(key)
        if dist is None:
            dist = ([0] * (len(self.buckets) + 1), 0.0, 0)
        counts, total, count = dist
        # De-cumulate the serialized buckets back into per-bucket counts.
        incoming = sample["buckets"]
        previous = 0
        labels_in_order = [repr(b) for b in self.buckets] + ["+Inf"]
        for index, bucket_label in enumerate(labels_in_order):
            cumulative = incoming.get(bucket_label, previous)
            counts[index] += cumulative - previous
            previous = cumulative
        self._dists[key] = (
            counts, total + sample["sum"], count + sample["count"]
        )


class _NullInstrument:
    """Swallows every observation; returned by :data:`NULL_REGISTRY`."""

    name = "null"
    help = ""

    def inc(self, amount=1, **labels) -> None:
        pass

    def set(self, value, **labels) -> None:
        pass

    def set_total(self, value, **labels) -> None:
        pass

    def observe(self, value, **labels) -> None:
        pass

    def samples(self) -> list:
        return []

    def value(self, **labels) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """One run's instrument namespace.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name (a name
    can hold only one instrument kind — re-registering with a different
    kind raises :class:`ConfigurationError`); ``register_collector``
    installs a callback that re-homes externally-accumulated values onto
    instruments at export time; ``to_json`` / ``to_prometheus`` export
    (running every collector first); ``merge_json`` folds another
    registry's exported document in by summing samples.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []

    # -- instrument access -------------------------------------------------

    def _get(self, cls, name: str, help: str, **kwargs):
        instrument = self._metrics.get(name)
        if instrument is None:
            instrument = cls(name, help, **kwargs)
            self._metrics[name] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                f"metric {name!r} is already registered as a "
                f"{instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- collectors --------------------------------------------------------

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Install a callback run before every export.

        Collectors copy externally-accumulated totals (``MessageStats``,
        synchronizer counters) onto instruments — re-homing without
        touching the hot path.  Idempotent by construction: they *set*
        absolute values, so exporting twice never double-counts.
        """
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every registered collector once."""
        for collector in self._collectors:
            collector(self)

    # -- export ------------------------------------------------------------

    def to_json(self) -> dict:
        """The registry as a versioned, mergeable JSON document."""
        self.collect()
        metrics = []
        for name in sorted(self._metrics):
            instrument = self._metrics[name]
            entry: dict = {
                "name": name,
                "type": instrument.kind,
                "help": instrument.help,
                "samples": [
                    {"labels": labels, "value": value}
                    for labels, value in instrument.samples()
                ],
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
            metrics.append(entry)
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    def to_prometheus(self) -> str:
        """Prometheus-style text exposition of the whole registry."""
        return render_prometheus(self.to_json())

    # -- merging -----------------------------------------------------------

    def merge_json(self, payload: dict) -> None:
        """Fold another registry's :meth:`to_json` document into this one.

        Counter and gauge samples with equal names and labels **sum**
        (every built-in instrument measures an extensive per-process
        quantity — message totals, frame counts — and per-node labels
        keep worker sample sets disjoint anyway); histogram buckets,
        sums and counts add element-wise.
        """
        validate_metrics_json(payload)
        for entry in payload["metrics"]:
            kind = entry["type"]
            if kind == "counter":
                counter = self.counter(entry["name"], entry.get("help", ""))
                for sample in entry["samples"]:
                    counter.inc(sample["value"], **sample["labels"])
            elif kind == "gauge":
                gauge = self.gauge(entry["name"], entry.get("help", ""))
                for sample in entry["samples"]:
                    gauge.inc(sample["value"], **sample["labels"])
            elif kind == "histogram":
                histogram = self.histogram(
                    entry["name"],
                    entry.get("help", ""),
                    buckets=entry.get("buckets", DEFAULT_BUCKETS),
                )
                for sample in entry["samples"]:
                    histogram._merge_sample(sample["labels"], sample["value"])
            else:  # pragma: no cover - validate_metrics_json rejects this
                raise ConfigurationError(f"unknown metric type {kind!r}")


class _NullRegistry(MetricsRegistry):
    """A registry that never records anything: telemetry's off switch."""

    enabled = False

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def register_collector(self, collector) -> None:
        pass

    def merge_json(self, payload: dict) -> None:
        pass


#: Shared no-op registry for call sites that prefer an object over None.
NULL_REGISTRY = _NullRegistry()


def validate_metrics_json(payload: object) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid metrics document."""
    if not isinstance(payload, dict):
        raise ValueError("metrics document must be a JSON object")
    if payload.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"unknown metrics schema {payload.get('schema')!r}; "
            f"expected {METRICS_SCHEMA!r}"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, list):
        raise ValueError("metrics document needs a 'metrics' list")
    for entry in metrics:
        if not isinstance(entry, dict):
            raise ValueError("every metric entry must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if entry.get("type") not in ("counter", "gauge", "histogram"):
            raise ValueError(
                f"metric {name!r} has unknown type {entry.get('type')!r}"
            )
        if not isinstance(entry.get("samples"), list):
            raise ValueError(f"metric {name!r} needs a 'samples' list")
        for sample in entry["samples"]:
            if not isinstance(sample, dict) or "value" not in sample:
                raise ValueError(f"metric {name!r} has a malformed sample")
            if not isinstance(sample.get("labels"), dict):
                raise ValueError(f"metric {name!r} sample needs labels")


def _escape_label_value(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: dict, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = [
        f'{key}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    ]
    pairs.extend(f'{key}="{value}"' for key, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def render_prometheus(payload: dict) -> str:
    """Render a metrics JSON document as Prometheus text exposition."""
    validate_metrics_json(payload)
    lines: list[str] = []
    for entry in payload["metrics"]:
        name, kind = entry["name"], entry["type"]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in entry["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                dist = sample["value"]
                for bound, count in dist["buckets"].items():
                    bound_text = (
                        bound if bound == "+Inf"
                        else _format_value(float(bound))
                    )
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, (('le', bound_text),))}"
                        f" {count}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_format_value(dist['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {dist['count']}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


# -- re-homing collectors ----------------------------------------------------


def bind_simulation(registry: MetricsRegistry, simulation) -> None:
    """Re-home a :class:`~repro.net.simulator.Simulation`'s accounting.

    Registers one collector that copies the engine's
    :class:`~repro.net.network.MessageStats` totals, the beat counter and
    the active-membership size onto instruments at export time.  Nothing
    runs per beat, so an instrumented simulation executes the *identical*
    instruction stream an uninstrumented one does.
    """

    def collect(registry: MetricsRegistry) -> None:
        stats = simulation.stats
        messages = registry.counter(
            "sim_messages_total", "message copies sent, by sender kind"
        )
        messages.set_total(stats.honest_messages, kind="honest")
        messages.set_total(stats.byzantine_messages, kind="byzantine")
        registry.counter(
            "sim_messages_dropped_total",
            "envelopes the link model refused to deliver",
        ).set_total(stats.dropped_messages)
        registry.counter(
            "sim_messages_delayed_total",
            "envelopes deferred past their send beat",
        ).set_total(stats.delayed_messages)
        by_path = registry.counter(
            "sim_messages_by_path_total",
            "message copies per two-level component path prefix",
        )
        for prefix, count in sorted(stats.per_path_prefix.items()):
            by_path.set_total(count, path=prefix)
        registry.counter(
            "sim_beats_total", "beats the simulation has executed"
        ).set_total(simulation.beat)
        registry.gauge(
            "sim_active_nodes",
            "correct nodes currently participating (membership churn)",
        ).set(len(simulation.active_ids))
        registry.gauge(
            "sim_faulty_nodes", "nodes controlled by the adversary"
        ).set(len(simulation.faulty_ids))

    registry.register_collector(collect)


def record_runtime(registry: MetricsRegistry, result) -> None:
    """Re-home one live result's counters — a
    :class:`~repro.runtime.runner.RuntimeResult` or a cluster's merged
    :class:`~repro.runtime.orchestrator.ClusterResult`, whose counter
    fields are the same :func:`~repro.runtime.runner.harvest`.

    Called once, after the run — the live hot path stays untouched.
    """
    registry.counter(
        "runtime_messages_sent_total", "protocol messages sent"
    ).set_total(result.messages_sent)
    frames = registry.counter(
        "runtime_frames_sent_total", "wire units shipped, per node"
    )
    for node_id, count in sorted((result.frames_by_node or {}).items()):
        frames.set_total(count, node=str(node_id))
    registry.counter(
        "runtime_late_messages_total",
        "frames that arrived after their barrier closed (dropped)",
    ).set_total(result.late_messages)
    registry.counter(
        "runtime_premature_messages_total",
        "frames tagged beyond the lookahead horizon (dropped)",
    ).set_total(result.premature_messages)
    registry.counter(
        "runtime_malformed_frames_total",
        "wire units that failed to decode (dropped whole)",
    ).set_total(result.malformed_frames)
    registry.counter(
        "runtime_barrier_timeouts_total",
        "round barriers closed by timeout instead of full markers",
    ).set_total(result.barrier_timeouts)
    registry.counter(
        "runtime_beats_total", "beats the run executed"
    ).set_total(result.beats_run)
    registry.gauge(
        "runtime_elapsed_seconds", "wall-clock duration of the run"
    ).set(result.elapsed_s)
    # Pulse-mode precision surface (sync="pulse" runs only).
    if result.sync == "pulse":
        registry.counter(
            "runtime_pulse_timeouts_total",
            "pulse barriers closed by the pulse deadline",
        ).set_total(result.pulse_timeouts)
        if result.pulse_skew_s is not None:
            registry.gauge(
                "runtime_pulse_skew_seconds",
                "max pairwise pulse barrier close spread",
            ).set(result.pulse_skew_s)
        # Only single-process runs share one clock across all barriers.
        converged_time = getattr(result, "converged_time_s", None)
        if converged_time is not None:
            registry.gauge(
                "runtime_converged_seconds",
                "real time from run anchor to convergence-beat close",
            ).set(converged_time)
