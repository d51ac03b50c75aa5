"""Top-level facade: repro.synchronize and friends."""

from __future__ import annotations

import subprocess
import sys

import pytest

import repro
from repro.adversary import EquivocatorAdversary
from repro.errors import ConfigurationError, ResilienceError


class TestSynchronize:
    def test_defaults_converge(self):
        result = repro.synchronize(n=4, f=1, k=10, seed=0, max_beats=150)
        assert result.converged
        assert result.history[-1][0] == result.history[-1][1]

    def test_gvss_coin(self):
        result = repro.synchronize(
            n=4, f=1, k=10, coin="gvss", seed=1, max_beats=150
        )
        assert result.converged

    def test_local_coin_accepted_for_ablations(self):
        result = repro.synchronize(
            n=4, f=1, k=2, coin="local", seed=2, max_beats=400
        )
        # May or may not converge quickly — but it must run and report
        # honestly: the history covers exactly the beats executed.
        assert 0 < result.beats_run <= 400
        assert len(result.history) == result.beats_run

    def test_with_adversary(self):
        result = repro.synchronize(
            n=7,
            f=2,
            k=12,
            adversary=EquivocatorAdversary(),
            seed=3,
            max_beats=300,
        )
        assert result.converged

    def test_adversary_by_registry_name(self):
        """``adversary`` takes a name like every other axis of the facade."""
        kwargs = dict(n=7, f=2, k=12, seed=3, max_beats=300)
        named = repro.synchronize(adversary="equivocator", **kwargs)
        built = repro.synchronize(adversary=EquivocatorAdversary(), **kwargs)
        assert named.history == built.history
        assert named.total_messages == built.total_messages

    def test_unknown_adversary_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            repro.synchronize(n=4, f=1, k=10, adversary="equivocater")

    def test_unknown_coin_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.synchronize(n=4, f=1, k=10, coin="quantum")

    def test_resilience_enforced(self):
        with pytest.raises(ResilienceError):
            repro.synchronize(n=6, f=2, k=10)

    def test_no_scramble_starts_clean(self):
        result = repro.synchronize(
            n=4, f=1, k=10, seed=4, max_beats=60, scramble=False
        )
        assert result.converged_beat is not None
        assert result.converged_beat <= 10

    def test_deterministic_per_seed(self):
        a = repro.synchronize(n=4, f=1, k=10, seed=9, max_beats=60)
        b = repro.synchronize(n=4, f=1, k=10, seed=9, max_beats=60)
        assert a.history == b.history


class TestCoinByName:
    def test_factories_fresh_per_call(self):
        factory = repro.coin_by_name("oracle", 4, 1)
        assert factory() is not factory()

    def test_gvss_bound_to_system(self):
        coin = repro.coin_by_name("gvss", 7, 2)()
        assert coin.n == 7 and coin.f == 2


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2


_IMPORT_EVERYTHING = """
import sys, sysconfig
from pathlib import Path

started_with = set(sys.modules)  # site's own imports (.pth hooks) are not ours
import repro, repro.runtime, repro.bench, repro.cli

result = repro.synchronize(
    n=4, f=1, k=6, engine="bulk", max_beats=4, early_stop=False
)
assert result.beats_run == 4

stdlib = {Path(sysconfig.get_path(key)).resolve() for key in ("stdlib", "platstdlib")}
third_party = {Path(sysconfig.get_path(key)).resolve() for key in ("purelib", "platlib")}
package = Path(repro.__file__).resolve().parent


def under(path, roots):
    return any(root == path or root in path.parents for root in roots)


foreign = []
for name in sorted(set(sys.modules) - started_with):
    origin = getattr(sys.modules[name], "__file__", None)
    if origin is None:
        continue  # built into the interpreter
    path = Path(origin).resolve()
    if under(path, {package}):
        continue
    if under(path, stdlib) and not under(path, third_party):
        continue
    foreign.append((name, origin))
assert not foreign, foreign
print("ok")
"""


def test_import_is_stdlib_only():
    """pyproject.toml says "stdlib only": importing every entry point and
    running a bulk-engine trial loads nothing from outside the standard
    library and this package — whatever else happens to be installed."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
