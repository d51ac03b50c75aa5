"""Telemetry subsystem: registry, flight recorder, and the invariant.

The load-bearing contract: **enabling telemetry never perturbs a
trajectory.**  The differential classes below pin byte-identical traces
with instrumentation on vs off across all three simulation engines and
both wire codecs, seeds 0-4 — the same identity-proof discipline every
other seam in this repository carries.  Alongside: unit coverage for the
instruments and their serializations, flight-recorder event semantics,
MessageStats accounting parity across engines under degraded links, and
the churn regression for ``Tracer.series``.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import EquivocatorAdversary
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.errors import ConfigurationError
from repro.net.simulator import Simulation
from repro.net.trace import BeatRecord, Tracer, records_from_jsonl
from repro.obs import (
    NULL_REGISTRY,
    FlightRecorder,
    MetricsRegistry,
    TraceEvent,
    diff_records,
    read_trace,
    record_runtime,
    render_prometheus,
    summarize_trace,
    validate_metrics_json,
    write_trace,
)
from repro.runtime import run_runtime

SEEDS = range(5)
ENGINES = ("reference", "fast", "bulk")
CODECS = ("json", "binary")


def _factory(k: int = 6):
    return lambda i: SSByzClockSync(
        k, lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)
    )


# ---------------------------------------------------------------------------
# Metrics registry units
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("messages_total", "help text")
        counter.inc(3, kind="honest")
        counter.inc(2, kind="honest")
        counter.inc(1, kind="byzantine")
        assert counter.value(kind="honest") == 5
        assert counter.value(kind="byzantine") == 1
        assert counter.value(kind="phantom") == 0

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("x_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_counter_set_total_is_absolute(self):
        """The collector path adopts external totals without accumulating."""
        counter = MetricsRegistry().counter("x_total")
        counter.set_total(10)
        counter.set_total(10)
        assert counter.value() == 10

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("active_nodes")
        gauge.set(4)
        gauge.inc(-1)
        assert gauge.value() == 3

    def test_histogram_buckets_cumulative(self):
        histogram = MetricsRegistry().histogram(
            "beat_seconds", buckets=(0.01, 0.1)
        )
        for value in (0.005, 0.05, 0.5):
            histogram.observe(value)
        ((labels, sample),) = histogram.samples()
        assert labels == {}
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(0.555)
        assert sample["buckets"] == {"0.01": 1, "0.1": 2, "+Inf": 3}

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("bad name!")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_null_registry_swallows_everything(self):
        counter = NULL_REGISTRY.counter("x_total")
        counter.inc(5)
        assert counter.value() == 0
        assert NULL_REGISTRY.to_json()["metrics"] == []
        assert NULL_REGISTRY.enabled is False


class TestRegistrySerialization:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("messages_total", "sent copies").inc(7, kind="honest")
        registry.gauge("active_nodes").set(4)
        registry.histogram("beat_seconds", buckets=(0.1,)).observe(0.05)
        return registry

    def test_json_document_validates(self):
        document = self._populated().to_json()
        validate_metrics_json(document)
        assert document["schema"] == "repro-metrics/1"
        assert [m["name"] for m in document["metrics"]] == [
            "active_nodes", "beat_seconds", "messages_total",
        ]

    def test_json_round_trips_through_merge(self):
        document = self._populated().to_json()
        restored = MetricsRegistry()
        restored.merge_json(document)
        assert restored.to_json() == document

    def test_merge_sums_counters_and_histograms(self):
        document = self._populated().to_json()
        merged = MetricsRegistry()
        merged.merge_json(document)
        merged.merge_json(document)
        assert merged.counter("messages_total").value(kind="honest") == 14
        ((_, sample),) = merged.histogram("beat_seconds").samples()
        assert sample["count"] == 2
        assert sample["buckets"] == {"0.1": 2, "+Inf": 2}

    def test_prometheus_rendering(self):
        text = self._populated().to_prometheus()
        assert '# TYPE messages_total counter' in text
        assert 'messages_total{kind="honest"} 7' in text
        assert "beat_seconds_bucket" in text
        assert "beat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_validate_rejects_malformed_documents(self):
        for bad in (
            [],
            {"schema": "other/1", "metrics": []},
            {"schema": "repro-metrics/1"},
            {"schema": "repro-metrics/1",
             "metrics": [{"name": "x", "type": "ring", "samples": []}]},
            {"schema": "repro-metrics/1",
             "metrics": [{"name": "x", "type": "counter",
                          "samples": [{"value": 1}]}]},
        ):
            with pytest.raises(ValueError):
                validate_metrics_json(bad)

    def test_render_prometheus_validates_first(self):
        with pytest.raises(ValueError):
            render_prometheus({"schema": "nope"})

    def test_collectors_run_at_export_and_are_idempotent(self):
        registry = MetricsRegistry()
        source = {"count": 3}
        registry.register_collector(
            lambda reg: reg.counter("x_total").set_total(source["count"])
        )
        assert registry.to_json()["metrics"][0]["samples"][0]["value"] == 3
        source["count"] = 5
        document = registry.to_json()
        document = registry.to_json()  # exporting twice must not double
        assert document["metrics"][0]["samples"][0]["value"] == 5


# ---------------------------------------------------------------------------
# Flight recorder and the extended trace format
# ---------------------------------------------------------------------------


class TestTraceFormat:
    def test_event_line_round_trips(self):
        event = TraceEvent("beat", 3, {"messages": 12, "elapsed_us": 40})
        restored = TraceEvent.from_jsonl(event.to_jsonl())
        assert restored == event

    def test_write_trace_interleaves_events_by_beat(self):
        records = [BeatRecord(0, {0: 1}), BeatRecord(1, {0: 2})]
        events = [
            TraceEvent("beat", 1, {"messages": 3}),
            TraceEvent("run", 2, {"beats": 2}),
            TraceEvent("beat", 0, {"messages": 4}),
        ]
        lines = write_trace(records, events).splitlines()
        kinds = [
            ("record", json.loads(line)["beat"])
            if "event" not in json.loads(line)
            else (json.loads(line)["event"], json.loads(line)["beat"])
            for line in lines
        ]
        assert kinds == [
            ("record", 0), ("beat", 0),
            ("record", 1), ("beat", 1),
            ("run", 2),
        ]

    def test_write_trace_without_events_matches_old_format(self):
        from repro.net.trace import records_to_jsonl

        records = [BeatRecord(0, {0: 1, 1: None}), BeatRecord(1, {0: 2})]
        assert write_trace(records) == records_to_jsonl(records)

    def test_read_trace_splits_records_from_events(self):
        records = [BeatRecord(0, {0: 1})]
        events = [TraceEvent("coin", 0, {"path": "root", "agreed": True})]
        trace = read_trace(write_trace(records, events))
        assert trace.records == records
        assert trace.events == events
        assert trace.events_of("coin") == events
        assert trace.events_of("beat") == []

    def test_records_from_jsonl_skips_event_lines(self):
        """Old readers keep working on telemetry-extended traces."""
        records = [BeatRecord(0, {0: 1}), BeatRecord(1, {0: 2})]
        events = [TraceEvent("beat", 0, {"messages": 3})]
        assert records_from_jsonl(write_trace(records, events)) == records

    def test_records_from_jsonl_keeps_probe_values_spelling_event(self):
        """Only a top-level "event" key marks an event line, not content."""
        record = BeatRecord(0, {0: "event"})
        assert records_from_jsonl(record.to_jsonl() + "\n") == [record]

    def test_unknown_event_version_still_parses(self):
        line = json.dumps(
            {"event": "beat", "v": 99, "beat": 0, "data": {"new_field": 1}}
        )
        trace = read_trace(line + "\n")
        assert trace.events[0].version == 99
        assert trace.events[0].data == {"new_field": 1}


class TestFlightRecorderSimulation:
    def _run(self, *, churn=None, link="perfect", clock=None):
        recorder = (
            FlightRecorder(clock=clock) if clock else FlightRecorder()
        )
        sim = Simulation(
            4, 1, _factory(),
            adversary=EquivocatorAdversary(), seed=1,
            link=link, churn=churn,
        )
        sim.add_monitor(recorder)
        sim.scramble()
        sim.run(12)
        return recorder, sim

    def test_beat_events_carry_message_tallies(self):
        recorder, sim = self._run()
        beat_events = [e for e in recorder.events if e.kind == "beat"]
        assert [e.beat for e in beat_events] == list(range(12))
        assert (
            sum(e.data["messages"] for e in beat_events)
            == sim.stats.total_messages
        )
        assert all(e.data["active"] == 3 for e in beat_events)

    def test_coin_events_reported_once_per_instance(self):
        recorder, sim = self._run()
        coin_events = [e for e in recorder.events if e.kind == "coin"]
        assert coin_events, "the pipeline resolved no coins in 12 beats?"
        keys = [(e.data["path"], e.beat) for e in coin_events]
        assert len(keys) == len(set(keys))
        assert {e.data["outcome"] for e in coin_events} <= {
            "E0", "E1", "divergent"
        }

    @pytest.mark.parametrize("engine", ["reference", "fast", "bulk"])
    def test_coin_events_survive_the_environment_forgetting(self, engine):
        """``Environment.begin_beat`` drops outcomes older than the
        previous beat; the recorder read each one the beat it resolved,
        a foresight adversary's early ones included.  Digests of the
        ``coin`` lines of 200 beats, taken before outcomes were dropped."""
        import hashlib

        from repro.adversary.anti_coin import AntiCoinClock2Adversary
        from repro.core.clock2 import SSByz2Clock

        coin = OracleCoin(p0=0.4, p1=0.4, rounds=2)
        for factory, adversary, lines, digest in (
            (_factory(), EquivocatorAdversary(), 501, "a45bb7cc87a650b9"),
            (lambda i: SSByz2Clock(coin),
             AntiCoinClock2Adversary(coin, foresight=2), 200, "1194d68dc20fd39d"),
        ):
            sim = Simulation(
                7, 2, factory, adversary=adversary, seed=3, engine=engine
            )
            recorder = FlightRecorder()
            sim.add_monitor(recorder)
            sim.scramble()
            sim.run(200)
            coins = [e.to_jsonl() for e in recorder.events if e.kind == "coin"]
            assert len(coins) == lines
            assert hashlib.sha256(
                "\n".join(coins).encode()
            ).hexdigest()[:16] == digest

    def test_churn_events_reported(self):
        recorder, _sim = self._run(
            churn=((3, "crash", (0,)), (7, "recover", (0,)))
        )
        churn_events = [e for e in recorder.events if e.kind == "churn"]
        assert [(e.beat, e.data["kind"], e.data["nodes"])
                for e in churn_events] == [
            (3, "crash", [0]), (7, "recover", [0]),
        ]

    def test_dropped_tallies_under_lossy_links(self):
        from repro.net.linkmodel import LossyLinks

        recorder, sim = self._run(link=LossyLinks(loss=0.2))
        dropped = sum(
            e.data["dropped"] for e in recorder.events if e.kind == "beat"
        )
        assert dropped == sim.stats.dropped_messages > 0

    def test_injected_clock_pins_beat_timings(self):
        ticks = iter(range(100))
        recorder, _sim = self._run(clock=lambda: next(ticks))
        beat_events = [e for e in recorder.events if e.kind == "beat"]
        # First beat has no predecessor tick; every later gap is 1 tick.
        assert beat_events[0].data["elapsed_us"] == 0
        assert all(
            e.data["elapsed_us"] == 1_000_000 for e in beat_events[1:]
        )


class TestFlightRecorderRuntime:
    def test_runtime_event_stream(self):
        recorder = FlightRecorder()
        result = run_runtime(
            4, 1, _factory(), seed=0, beats=8, k=6, recorder=recorder,
        )
        beat_events = [e for e in recorder.events if e.kind == "beat"]
        assert [e.beat for e in beat_events] == list(range(8))
        assert (
            sum(e.data["messages"] for e in beat_events)
            == result.messages_sent
        )
        (barrier,) = [e for e in recorder.events if e.kind == "barrier"]
        assert barrier.data == {
            "late": 0, "premature": 0, "malformed": 0, "timeouts": 0,
        }
        (run_event,) = [e for e in recorder.events if e.kind == "run"]
        assert run_event.data["beats"] == 8
        assert run_event.data["converged_beat"] == result.converged_beat

    def test_runtime_health_trace_line(self):
        result = run_runtime(4, 1, _factory(), seed=0, beats=6, k=6)
        plain = result.to_jsonl()
        with_health = result.to_jsonl(health=True)
        assert with_health.startswith(plain)
        trace = read_trace(with_health)
        (health,) = trace.events_of("health")
        assert health.data["late_messages"] == 0
        assert health.data["frames_by_node"] == {
            str(i): count for i, count in result.frames_by_node.items()
        }
        # Old readers see exactly the same records either way.
        assert records_from_jsonl(with_health) == list(result.records)


# ---------------------------------------------------------------------------
# The no-perturbation invariant
# ---------------------------------------------------------------------------


class TestNoPerturbationSimulation:
    def _trace(self, engine: str, seed: int, *, instrumented: bool) -> str:
        sim = Simulation(
            4, 1, _factory(),
            adversary=EquivocatorAdversary(), seed=seed, engine=engine,
            metrics=MetricsRegistry() if instrumented else None,
        )
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        if instrumented:
            sim.add_monitor(FlightRecorder())
        sim.scramble()
        sim.run(20)
        if instrumented:
            # Exporting must not perturb either (collectors only read).
            assert sim.metrics.to_json()["metrics"]
        return tracer.to_jsonl()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_traces_identical_with_telemetry_on_and_off(self, engine, seed):
        bare = self._trace(engine, seed, instrumented=False)
        instrumented = self._trace(engine, seed, instrumented=True)
        assert instrumented == bare

    def test_metrics_rehome_existing_accounting_exactly(self):
        registry = MetricsRegistry()
        sim = Simulation(
            4, 1, _factory(),
            adversary=EquivocatorAdversary(), seed=0, metrics=registry,
        )
        sim.scramble()
        sim.run(10)
        registry.collect()
        counter = registry.counter("sim_messages_total")
        assert counter.value(kind="honest") == sim.stats.honest_messages
        assert counter.value(kind="byzantine") == sim.stats.byzantine_messages
        assert registry.counter("sim_beats_total").value() == 10
        assert registry.gauge("sim_active_nodes").value() == 3
        assert registry.gauge("sim_faulty_nodes").value() == 1


class TestNoPerturbationRuntime:
    def _trace(self, codec: str, seed: int, *, instrumented: bool) -> str:
        kwargs = (
            {"metrics": MetricsRegistry(), "recorder": FlightRecorder()}
            if instrumented else {}
        )
        result = run_runtime(
            4, 1, _factory(), seed=seed, beats=16, transport="local",
            codec=codec, k=6, **kwargs,
        )
        return result.to_jsonl()

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_traces_identical_with_telemetry_on_and_off(self, codec, seed):
        bare = self._trace(codec, seed, instrumented=False)
        instrumented = self._trace(codec, seed, instrumented=True)
        assert instrumented == bare

    def test_record_runtime_rehomes_counters(self):
        registry = MetricsRegistry()
        result = run_runtime(
            4, 1, _factory(), seed=0, beats=8, k=6, metrics=registry,
        )
        assert (
            registry.counter("runtime_messages_sent_total").value()
            == result.messages_sent
        )
        frames = registry.counter("runtime_frames_sent_total")
        assert sum(
            value for _labels, value in frames.samples()
        ) == result.frames_sent
        assert registry.counter("runtime_beats_total").value() == 8


# ---------------------------------------------------------------------------
# MessageStats accounting parity across engines under degraded links
# ---------------------------------------------------------------------------


class TestMessageStatsEngineParity:
    LINKS = (
        ("lossy", {"loss": 0.15}),
        ("delay", {"max_delay": 2}),
        ("partition", {"split": 4, "heal": 10}),
    )

    @staticmethod
    def _stats(engine: str, link_name: str, params: dict, seed: int):
        from repro.net.linkmodel import make_link

        sim = Simulation(
            4, 1, _factory(), adversary=EquivocatorAdversary(),
            seed=seed, engine=engine, link=make_link(link_name, params),
        )
        sim.scramble()
        sim.run(24)
        return sim.stats

    @pytest.mark.parametrize("link_name,params", LINKS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_totals_bit_identical_across_engines(
        self, link_name, params, seed
    ):
        reference = self._stats("reference", link_name, params, seed)
        for engine in ("fast", "bulk"):
            other = self._stats(engine, link_name, params, seed)
            assert other.as_dict() == reference.as_dict(), (
                f"{engine} disagrees with reference under {link_name} "
                f"at seed {seed}"
            )
            assert other.dropped_per_beat == reference.dropped_per_beat
            assert other.per_beat == reference.per_beat


# ---------------------------------------------------------------------------
# Tracer under churn
# ---------------------------------------------------------------------------


class TestTracerChurn:
    def test_series_total_under_churn(self):
        sim = Simulation(
            4, 1, _factory(), seed=0,
            churn=((3, "crash", (0,)), (7, "recover", (0,))),
        )
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        sim.run(10)
        series = tracer.series(0)
        assert len(series) == 10
        # Crashed from beat 3 up to (not including) the recovery beat.
        assert all(value is None for value in series[3:7])
        assert all(value is not None for value in series[:3])
        assert all(value is not None for value in series[7:])
        # An id never in the run is all-None rather than a KeyError.
        assert tracer.series(99) == [None] * 10

    def test_static_membership_traces_unchanged(self):
        """Without churn the active set is the honest set: same records."""
        sim = Simulation(4, 1, _factory(), seed=0)
        tracer = Tracer(lambda root: root.clock_value)
        sim.add_monitor(tracer)
        sim.run(5)
        assert all(
            sorted(record.values) == [0, 1, 2, 3]
            for record in tracer.records
        )


# ---------------------------------------------------------------------------
# Analysis surface: summarize + diff
# ---------------------------------------------------------------------------


class TestTraceAnalysis:
    def test_summarize_reports_convergence(self):
        import repro

        result = repro.synchronize(
            n=4, f=1, k=6, seed=0, trace=True, early_stop=False, max_beats=20
        )
        trace = read_trace(result.to_jsonl())
        summary = summarize_trace(trace, k=6)
        assert summary.beats == 20
        assert summary.node_ids == (0, 1, 2, 3)
        assert summary.converged_beat == result.converged_beat

    def test_untraced_trial_refuses_to_serialize(self):
        import repro

        result = repro.synchronize(n=4, f=1, k=6, seed=0)
        with pytest.raises(ConfigurationError):
            result.to_jsonl()

    def test_diff_identical(self):
        records = [BeatRecord(0, {0: 1}), BeatRecord(1, {0: 2})]
        assert diff_records(records, list(records)) is None

    def test_diff_reports_first_divergent_beat(self):
        left = [BeatRecord(0, {0: 1, 1: 1}), BeatRecord(1, {0: 2, 1: 2})]
        right = [BeatRecord(0, {0: 1, 1: 1}), BeatRecord(1, {0: 2, 1: 9})]
        diff = diff_records(left, right)
        assert diff.beat == 1
        assert diff.differing == ((1, 2, 9),)

    def test_diff_reports_missing_node(self):
        left = [BeatRecord(0, {0: 1, 1: 1})]
        right = [BeatRecord(0, {0: 1})]
        diff = diff_records(left, right)
        assert diff.beat == 0
        assert diff.differing == ((1, 1, None),)

    def test_diff_reports_length_mismatch(self):
        left = [BeatRecord(0, {0: 1}), BeatRecord(1, {0: 2})]
        diff = diff_records(left, left[:1])
        assert diff.beat is None
        assert "2 records" in diff.reason

    def test_diff_reports_beat_renumbering(self):
        diff = diff_records([BeatRecord(0, {0: 1})], [BeatRecord(5, {0: 1})])
        assert diff.beat == 0


# ---------------------------------------------------------------------------
# Cluster metrics merging
# ---------------------------------------------------------------------------


class TestClusterMetricsMerge:
    def test_worker_harvests_merge_losslessly(self):
        """Worker harvests fold into one, and the merged result re-homes
        onto a registry like a single-process run's."""
        from repro.runtime.orchestrator import ClusterResult
        from repro.runtime.runner import merge_harvests

        def worker(**counters):
            return {
                "traces": {}, "frames_sent": 0, "malformed_frames": 0,
                "pulse_timeouts": 0, "pulse_skew_s": None, **counters,
            }

        payloads = [
            worker(
                messages_sent=10, frames_by_node={0: 5, 1: 7},
                late_messages=1, premature_messages=0, barrier_timeouts=0,
            ),
            worker(
                messages_sent=12, frames_by_node={2: 6, 3: 8},
                late_messages=0, premature_messages=2, barrier_timeouts=1,
            ),
        ]
        counters = merge_harvests(payloads)
        del counters["traces"]
        merged = MetricsRegistry()
        record_runtime(
            merged,
            ClusterResult(
                name="merge", n=4, f=1, seed=0, codec="json", processes=2,
                beats_run=1, records=(), **counters,
            ),
        )
        assert merged.counter("runtime_messages_sent_total").value() == 22
        frames = merged.counter("runtime_frames_sent_total")
        assert {
            labels["node"]: value for labels, value in frames.samples()
        } == {"0": 5, "1": 7, "2": 6, "3": 8}
        assert merged.counter("runtime_late_messages_total").value() == 1
        assert merged.counter("runtime_premature_messages_total").value() == 2
        assert merged.counter("runtime_barrier_timeouts_total").value() == 1
