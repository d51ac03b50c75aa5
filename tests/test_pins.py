"""The pinned experiments: the smoke tier, checked exactly, and the one
comparison every tier goes through (``tools/pins.py``).

``PYTHONPATH=src python tools/pins.py full|nightly`` runs the other two
tiers (CI's bench job does both).
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import math
import pathlib
import types

import pytest

import repro.bench.suites
from repro.bench.suites import SUITES
from repro.bench.suites._common import pin

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "pins", REPO_ROOT / "tools" / "pins.py"
)
pins_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins_tool)


def _name(suite) -> str:
    return suite.__name__.rsplit(".", 1)[-1]


@pytest.mark.parametrize(
    "suite", [suite for suite in SUITES if "smoke" in suite.TIERS], ids=_name
)
def test_smoke_suite_reproduces_its_pins(suite):
    expected = {
        key: entry
        for key, entry in pins_tool.pinned("smoke").items()
        if key.split("/", 1)[0] == _name(suite)
    }
    pins, failures, _tables = pins_tool.run_suite(suite, "smoke")
    assert pins_tool.mismatches(expected, pins, failures) == []


EXPECTED = {
    "toy/latency{n=4}": {"unit": "beats", "value": 0.1},
    "toy/match{}": {"unit": "match", "value": 1.0},
}


def _with(key: str, **entry) -> dict:
    pins = {k: dict(v) for k, v in EXPECTED.items()}
    pins[key].update(entry)
    return pins


@pytest.mark.parametrize("pins, failures", [
    (_with("toy/latency{n=4}", value=math.nextafter(0.1, 1.0)), []),
    (_with("toy/latency{n=4}", value=math.nextafter(0.1, 0.0)), []),
    ({"toy/match{}": EXPECTED["toy/match{}"]}, []),
    ({**EXPECTED, "toy/latency{n=7}": {"unit": "beats", "value": 0.1}}, []),
    (_with("toy/match{}", unit="fraction"), []),
    (EXPECTED, ["toy: the qualitative check failed"]),
], ids=["ulp-up", "ulp-down", "missing-key", "new-key", "unit", "failure"])
def test_the_comparison_fails_on(pins, failures):
    assert pins_tool.mismatches(EXPECTED, pins, failures)


def test_the_comparison_passes_on_an_equal_copy():
    assert pins_tool.mismatches(EXPECTED, _with("toy/match{}"), []) == []


def test_an_int_baseline_equals_the_float_pin_of_its_value():
    """A hand-edited baseline of ``3`` still matches a pinned ``3.0``."""
    expected = _with("toy/match{}", value=1)
    assert pins_tool.mismatches(expected, EXPECTED, []) == []


# --------------------------------------------------------------------------
# The key rule and the entry shape: ``_common.pin``
# --------------------------------------------------------------------------

@pytest.mark.parametrize("axes, rendered", [
    ({}, "{}"),
    ({"protocol": "clock-sync", "loss": 0.1}, "{loss=0.1,protocol=clock-sync}"),
    ({"lossy": False, "byz": True}, "{byz=true,lossy=false}"),
    ({"rate": 1e-07, "delta": 2.0}, "{delta=2,rate=1e-07}"),
    ({"n": 7, "k": 3}, "{k=3,n=7}"),
], ids=["no-axes", "sorted", "bool", "float-g", "int"])
def test_a_pin_key_renders_its_axes(axes, rendered):
    pins = {}
    pin(pins, "toy/latency", 4, "beats", **axes)
    assert pins == {f"toy/latency{rendered}": {"unit": "beats", "value": 4.0}}
    (entry,) = pins.values()
    assert type(entry["value"]) is float


@pytest.mark.parametrize("name, value, unit, axes, match", [
    ("latency", 1.0, "beats", {}, "suite/metric"),
    ("toy/", 1.0, "beats", {}, "suite/metric"),
    ("toy/latency{n=4}", 1.0, "beats", {}, "suite/metric"),
    ("toy/latency", 1.0, "", {}, "unit"),
    ("toy/latency", True, "beats", {}, "number"),
    ("toy/latency", "1.5", "beats", {}, "number"),
    ("toy/latency", math.nan, "beats", {}, "finite"),
    ("toy/latency", -math.inf, "beats", {}, "finite"),
    ("toy/latency", 1.0, "beats", {"n": [4]}, "scalar"),
    ("toy/latency", 1.0, "beats", {"n": None}, "scalar"),
], ids=["no-suite", "no-metric", "braces", "empty-unit", "bool-value",
        "str-value", "nan", "inf", "list-axis", "none-axis"])
def test_a_malformed_pin_is_rejected(name, value, unit, axes, match):
    pins = {}
    with pytest.raises(ValueError, match=match):
        pin(pins, name, value, unit, **axes)
    assert pins == {}


def test_a_key_is_pinned_once():
    pins = {}
    pin(pins, "toy/latency", 1.0, "beats", n=4)
    with pytest.raises(ValueError, match="twice"):
        pin(pins, "toy/latency", 2.0, "beats", n=4)
    assert pins == {"toy/latency{n=4}": {"unit": "beats", "value": 1.0}}


# --------------------------------------------------------------------------
# The tracked baselines
# --------------------------------------------------------------------------

def test_the_baselines_file_is_what_write_would_write():
    """``--write`` leaves an unchanged tier byte-identical, so the file
    must already be in its format: sorted keys, two-space indent."""
    text = pins_tool.BASELINES.read_text(encoding="utf-8")
    baselines = json.loads(text)
    assert text == json.dumps(baselines, indent=2, sort_keys=True) + "\n"
    assert baselines["schema"] == "repro-bench-baselines/2"
    assert tuple(sorted(baselines["tiers"])) == tuple(sorted(pins_tool.TIERS))


@pytest.mark.parametrize("tier", pins_tool.TIERS)
def test_every_pinned_entry_is_what_pin_makes(tier):
    """Each entry is a non-empty unit and a finite float under a
    ``suite/metric{...}`` key (an axis value may hold a comma, so the
    axes themselves are not parsed back)."""
    for key, entry in pins_tool.pinned(tier).items():
        name, brace, _axes = key.partition("{")
        assert brace and key.endswith("}"), key
        remade = {}
        pin(remade, name, entry["value"], entry["unit"])
        assert remade == {f"{name}{{}}": entry}, key
        assert type(entry["value"]) is float, key


def test_the_canaries_run_in_every_tier():
    """CI runs ``full`` and ``nightly``, tier-1 runs ``smoke``: the
    cross-engine digests and the algebraic substrate are in all three,
    and the log-k sweep is too slow for any but ``nightly``."""
    smoke = {_name(s) for s in SUITES if "smoke" in s.TIERS}
    assert {"engines", "gvss_stack", "link_conditions"} <= smoke
    assert [_name(s) for s in SUITES if "full" not in s.TIERS] == ["fig_logk"]
    for tier in pins_tool.TIERS:
        trajectories = [key for key in pins_tool.pinned(tier)
                        if key.startswith("engines/trajectory_match")]
        assert len(trajectories) == 6, tier  # 3 engines x 2 digest cases


# --------------------------------------------------------------------------
# ``tools/pins.py`` end to end, on a toy suite and a scratch baselines file
# --------------------------------------------------------------------------

def _toy_suite(value: float = 1.0, fail: bool = False):
    suite = types.ModuleType("repro.bench.suites.toy")
    suite.TIERS = {"smoke": {"value": 2.0}, "full": {"value": value},
                   "nightly": {"value": value}}

    def run(value):
        pins = {}
        pin(pins, "toy/latency", value, "beats", n=4)
        failures = ["the qualitative check failed"] if fail else []
        return pins, failures, {"toy_table": f"latency {value:g}"}

    suite.run = run
    return suite


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """``tools/pins.py`` pointed at a scratch baselines file and results
    directory; ``use(suite)`` makes ``suite`` the only one."""
    baselines = tmp_path / "baselines.json"
    baselines.write_text(json.dumps({
        "schema": "repro-bench-baselines/2",
        "tiers": {tier: {} for tier in pins_tool.TIERS},
    }), encoding="utf-8")
    results = tmp_path / "results"
    results.mkdir()
    monkeypatch.setattr(pins_tool, "BASELINES", baselines)
    monkeypatch.setattr(pins_tool, "RESULTS", results)

    def use(suite):
        monkeypatch.setattr(repro.bench.suites, "SUITES", (suite,))

    return types.SimpleNamespace(baselines=baselines, results=results, use=use)


def test_write_then_compare_passes_and_keeps_the_other_tiers(scratch, capsys):
    scratch.use(_toy_suite())
    assert pins_tool.main(["smoke", "--write"]) == 0
    assert pins_tool.main(["full", "--write"]) == 0
    text = scratch.baselines.read_text(encoding="utf-8")
    baselines = json.loads(text)
    assert text == json.dumps(baselines, indent=2, sort_keys=True) + "\n"
    assert baselines["tiers"] == {
        "smoke": {"toy/latency{n=4}": {"unit": "beats", "value": 2.0}},
        "full": {"toy/latency{n=4}": {"unit": "beats", "value": 1.0}},
        "nightly": {},
    }
    assert (scratch.results / "toy_table.txt").read_text() == "latency 1\n"
    capsys.readouterr()
    assert pins_tool.main(["full"]) == 0
    assert "full: 1 values compared exactly -> ok" in capsys.readouterr().out
    assert pins_tool.main(["smoke"]) == 0


def test_a_changed_value_fails_and_is_named(scratch, capsys):
    scratch.use(_toy_suite(1.0))
    assert pins_tool.main(["full", "--write"]) == 0
    scratch.use(_toy_suite(math.nextafter(1.0, 0.0)))
    capsys.readouterr()
    assert pins_tool.main(["full"]) == 1
    out = capsys.readouterr().out
    assert "toy/latency{n=4}: pinned {'unit': 'beats', 'value': 1.0}" in out
    assert out.rstrip().endswith("-> FAIL")


def test_a_qualitative_failure_fails_and_write_writes_nothing(
    scratch, capsys
):
    before = scratch.baselines.read_text(encoding="utf-8")
    scratch.use(_toy_suite(fail=True))
    assert pins_tool.main(["full", "--write"]) == 1
    assert "FAIL: toy: the qualitative check failed" in capsys.readouterr().out
    assert scratch.baselines.read_text(encoding="utf-8") == before
    assert list(scratch.results.iterdir()) == []


def test_tables_belong_to_the_first_tier_past_smoke(scratch, capsys):
    scratch.use(_toy_suite())
    assert pins_tool.main(["smoke", "--write"]) == 0
    assert list(scratch.results.iterdir()) == []
    assert pins_tool.main(["full", "--write"]) == 0
    (scratch.results / "toy_table.txt").write_text("latency 1.0\n")
    capsys.readouterr()
    assert pins_tool.main(["full"]) == 1
    assert "toy_table.txt is not what its suite prints" in (
        capsys.readouterr().out
    )
    assert pins_tool.main(["smoke"]) == 0


def test_a_table_no_suite_prints_fails_at_nightly(scratch, capsys):
    scratch.use(_toy_suite())
    assert pins_tool.main(["full", "--write"]) == 0
    assert pins_tool.main(["nightly", "--write"]) == 0
    (scratch.results / "stray.txt").write_text("left behind\n")
    assert pins_tool.main(["full"]) == 0
    capsys.readouterr()
    assert pins_tool.main(["nightly"]) == 1
    assert "stray.txt: no suite prints it" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [], ["hourly"], ["full", "--tolerance", "1%"], ["full", "--only", "toy"],
], ids=["no-tier", "unknown-tier", "tolerance", "only"])
def test_the_tool_takes_a_tier_and_write_only(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        pins_tool.main(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_every_suite_module_is_listed_once():
    modules = sorted(
        path.stem
        for path in (REPO_ROOT / "src" / "repro" / "bench" / "suites").glob("*.py")
        if not path.stem.startswith("_")
    )
    assert sorted(map(_name, SUITES)) == modules


def test_tiers_are_cumulative_and_their_kwargs_bind():
    """A suite runs in a tail of smoke ⊂ full ⊂ nightly, and each tier's
    kwargs are ``run`` parameters."""
    for suite in SUITES:
        tiers = tuple(suite.TIERS)
        assert tiers == pins_tool.TIERS[-len(tiers):], _name(suite)
        for kwargs in suite.TIERS.values():
            inspect.signature(suite.run).bind(**kwargs)


@pytest.mark.parametrize("tier", pins_tool.TIERS)
def test_every_pin_belongs_to_a_suite_of_its_tier(tier):
    """No pin is orphaned, and every suite of the tier pins something."""
    prefixes = {key.split("/", 1)[0] for key in pins_tool.pinned(tier)}
    assert prefixes == {_name(s) for s in SUITES if tier in s.TIERS}
