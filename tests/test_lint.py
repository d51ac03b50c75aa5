"""Lint that can run here: unused imports and locals (tier-1 copy).

The CI lint job runs ``ruff check .``; ruff is not in every image this
repository is worked on, so ``tools/lint_unused.py`` re-implements the two
pyflakes rules that keep slipping through (``F401``, ``F841``) on the
stdlib ``ast`` and this module holds the tree to them.
"""

from __future__ import annotations

import importlib.util
import pathlib
import textwrap

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint_unused", REPO_ROOT / "tools" / "lint_unused.py"
)
lint_unused = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_unused)


def _codes(source: str) -> list:
    found = lint_unused.check_source(textwrap.dedent(source))
    return [(line, code) for line, code, _message in found]


def test_the_tree_is_clean():
    assert lint_unused.check_paths() == []


def test_per_file_ignores_come_from_ruff_toml():
    ignores = lint_unused.per_file_ignores()
    assert ignores["src/repro/__init__.py"] == {"F401"}


def test_unused_imports_are_found():
    assert _codes(
        """
        from __future__ import annotations
        import os
        import json as j, re
        from typing import Any, TYPE_CHECKING
        import a.b.c
        if TYPE_CHECKING:
            from x import Quoted, Unquoted, Missing
        def f(value: "Quoted | None") -> Unquoted:
            import sys
            import random
            return re.compile(sys.argv[0]), a.b
        """
    ) == [(3, "F401"), (4, "F401"), (5, "F401"), (8, "F401"), (11, "F401")]


def test_what_counts_as_a_use():
    """``__all__``, a string annotation, a nested scope, a ``noqa``."""
    assert _codes(
        """
        from m import exported, annotated, nested, silenced  # noqa: F401
        from m import other  # noqa
        from m import loud  # noqa: E501
        from . import sibling
        __all__ = ["sibling"]
        """
    ) == [(4, "F401")]
    assert _codes(
        """
        from m import exported, annotated, nested
        __all__ = ["exported"]
        def f():
            held: "list[annotated]" = []
            return lambda: (nested, held)
        """
    ) == []


def test_unused_locals_are_found():
    assert _codes(
        """
        def f(items):
            unused = 1
            typed: int = 2
            used = 3
            _private = 4
            first, second = items
            for index in items:
                pass
            with open(used) as handle:
                pass
            try:
                pass
            except OSError as error:
                pass
            if (walrus := used):
                pass
            counted = 0
            counted += 1
            return lambda: used
        module_level = 1
        class C:
            attribute = 1
        """
    ) == [(3, "F841"), (4, "F841"), (10, "F841"), (14, "F841"), (16, "F841")]


def test_global_nonlocal_and_locals_are_not_locals():
    assert _codes(
        """
        def f():
            global shared
            shared = 1
            inner = 2
            def g():
                nonlocal inner
                inner = 3
                mine = 4
            return g
        def h():
            anything = 1
            return locals()
        """
    ) == [(9, "F841")]


def test_a_finding_names_file_line_and_rule(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("import os\n", encoding="utf-8")
    (tmp_path / "pkg" / "mod.py").write_text("import os\n", encoding="utf-8")
    (tmp_path / "ruff.toml").write_text(
        '[lint.per-file-ignores]\n"pkg/__init__.py" = ["F401"]\n', encoding="utf-8"
    )
    failures = lint_unused.check_paths(["pkg"], root=tmp_path)
    assert failures == ["pkg/mod.py:1: F401 `os` imported but unused"]
    assert lint_unused.main([str(tmp_path / "pkg" / "mod.py")]) == 1
