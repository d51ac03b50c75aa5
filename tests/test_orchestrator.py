"""Tests for the multi-process cluster orchestrator.

Spec validation and file loading are cheap and covered densely; actual
cluster launches spawn real OS processes over real TCP loopback sockets,
so only two end-to-end runs exist — one pinning the cluster's trajectory
to the single-process runtime (and through it, to the lock-step
simulator), one exercising failure surfacing.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.campaign import ScenarioSpec
from repro.errors import ConfigurationError, TransportError
from repro.net.trace import records_to_jsonl
from repro.runtime import ClusterSpec, load_specs, run_cluster, run_runtime
from repro.runtime.orchestrator import _partition


def _spec(**overrides) -> ClusterSpec:
    base = dict(name="t", n=4, f=1, k=6, beats=8, processes=2)
    base.update(overrides)
    return ClusterSpec(**base)


class TestClusterSpec:
    def test_valid_spec_passes(self):
        _spec().validate()

    @pytest.mark.parametrize("overrides,match", [
        ({"name": ""}, "name"),
        ({"n": 3, "f": 1}, "f < n/3"),
        ({"beats": 0}, "beat"),
        ({"processes": 0}, "processes"),
        ({"processes": 5}, "processes"),
        ({"protocol": "paxos"}, "protocol"),
        ({"adversary": "gremlin"}, "adversary"),
        ({"coin": "quantum"}, "coin"),
        ({"codec": "morse"}, "codec"),
    ])
    def test_inconsistent_specs_rejected(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            _spec(**overrides).validate()

    @pytest.mark.parametrize("overrides", [
        {"protocol": "nope"},
        {"coin": "quantum"},
        {"adversary": "gremlin"},
        {"n": 3, "f": 1},
    ])
    def test_scenario_rules_are_the_scenario_specs_own(self, overrides):
        """Shared, not merely equal: same exception type, same message."""
        fields = {"n": 4, "f": 1, "k": 6, **overrides}
        with pytest.raises(ConfigurationError) as scenario:
            ScenarioSpec(**fields).validate()
        with pytest.raises(ConfigurationError) as cluster:
            ClusterSpec(name="t", **fields).validate()
        assert type(cluster.value) is type(scenario.value)
        assert str(cluster.value) == str(scenario.value)

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            _spec().n = 7  # type: ignore[misc]


class TestPartition:
    @pytest.mark.parametrize("n,processes", [
        (4, 1), (4, 2), (4, 4), (7, 3), (16, 5),
    ])
    def test_contiguous_cover(self, n, processes):
        blocks = _partition(n, processes)
        assert len(blocks) == processes
        assert all(blocks)  # never an idle worker
        flat = [i for block in blocks for i in block]
        assert flat == list(range(n))
        # Balanced: block sizes differ by at most one.
        sizes = {len(block) for block in blocks}
        assert max(sizes) - min(sizes) <= 1


class TestLoadSpecs:
    def _write(self, tmp_path, body: str):
        path = tmp_path / "spec.py"
        path.write_text(textwrap.dedent(body), encoding="utf-8")
        return str(path)

    def test_loads_the_shipped_example(self):
        specs = load_specs("examples/cluster_smoke.py")
        assert [s.name for s in specs] == ["smoke-n4"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_specs(str(tmp_path / "nope.py"))

    def test_import_error_rejected(self, tmp_path):
        path = self._write(tmp_path, "import no_such_module_anywhere\n")
        with pytest.raises(ConfigurationError, match="failed to import"):
            load_specs(path)

    def test_missing_experiments_rejected(self, tmp_path):
        path = self._write(tmp_path, "x = 1\n")
        with pytest.raises(ConfigurationError, match="experiments"):
            load_specs(path)

    def test_wrong_element_type_rejected(self, tmp_path):
        path = self._write(tmp_path, "experiments = [{'name': 'a'}]\n")
        with pytest.raises(ConfigurationError, match="ClusterSpec"):
            load_specs(path)

    def test_empty_list_rejected(self, tmp_path):
        path = self._write(tmp_path, "experiments = []\n")
        with pytest.raises(ConfigurationError, match="non-empty"):
            load_specs(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = self._write(tmp_path, """\
            from repro.runtime import ClusterSpec
            experiments = [
                ClusterSpec(name="a", n=4, f=1),
                ClusterSpec(name="a", n=7, f=2),
            ]
        """)
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_specs(path)

    def test_invalid_member_spec_rejected(self, tmp_path):
        path = self._write(tmp_path, """\
            from repro.runtime import ClusterSpec
            experiments = [ClusterSpec(name="bad", n=3, f=1)]
        """)
        with pytest.raises(ConfigurationError, match="f < n/3"):
            load_specs(path)

    def test_good_file_loads_in_order(self, tmp_path):
        path = self._write(tmp_path, """\
            from repro.runtime import ClusterSpec
            experiments = [
                ClusterSpec(name="a", n=4, f=1, codec="binary"),
                ClusterSpec(name="b", n=7, f=2, processes=3),
            ]
        """)
        specs = load_specs(path)
        assert [s.name for s in specs] == ["a", "b"]
        assert specs[0].codec == "binary"
        assert specs[1].processes == 3


class TestRunCluster:
    def test_two_process_cluster_matches_single_process_run(self):
        """The flagship cluster claim: splitting the same seeded system
        across OS processes moves bytes, not the trajectory."""
        spec = ClusterSpec(
            name="ident", n=4, f=1, k=6, beats=10, processes=2,
            codec="binary", seed=0,
        )
        result = run_cluster(spec)
        assert result.beats_run == 10
        assert result.barrier_timeouts == 0
        assert result.malformed_frames == 0
        assert all(len(row) == 4 for row in result.history)

        # The exact factory the cluster workers build from the spec names.
        from repro import coin_by_name
        from repro.core.protocol import resolve_protocol

        factory = resolve_protocol(spec.protocol).factory(
            spec.n, spec.f, spec.k,
            coin_factory=coin_by_name(spec.coin, spec.n, spec.f),
        )
        single = run_runtime(
            4, 1, factory,
            seed=0, beats=10, transport="local", codec="binary", k=6,
        )
        assert result.to_jsonl() == single.to_jsonl()
        assert records_to_jsonl(result.records) == result.to_jsonl()

    def test_worker_failure_surfaces_as_transport_error(self):
        """A spec that validates fine at the parent but fails inside the
        worker (here: a listener host nobody can bind) kills the whole
        cluster and names the failing worker."""
        spec = _spec(beats=2, host="203.0.113.1")  # TEST-NET-3: unbindable
        with pytest.raises(TransportError, match="worker"):
            run_cluster(spec)
