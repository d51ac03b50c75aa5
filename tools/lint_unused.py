"""Unused imports and unused local assignments, from the stdlib alone.

    python tools/lint_unused.py [PATH ...]

The CI ``lint`` job runs ``ruff check .`` with the rule set pinned in
``ruff.toml``; ruff is not installable everywhere this repository is
worked on, and the two rule families that keep slipping through are
pyflakes' ``F401`` (imported but unused) and ``F841`` (local variable
assigned but never used).  This is an :mod:`ast` pass for exactly those
two, honouring ``ruff.toml``'s ``per-file-ignores`` and ``# noqa``
comments, so they can be checked anywhere python runs —
``tests/test_lint.py`` runs it in tier-1, the CI job runs it beside ruff.
It errs towards silence: a name counts as used if it is read anywhere in
the scope that binds it (nested scopes, string annotations and
``__all__`` included), tuple unpacking and loop targets are never
flagged, nor are names starting with an underscore.

With no arguments it checks ``src``, ``tests``, ``tools``, ``benchmarks``
and ``examples``; it exits 1 when anything is found.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
import tomllib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "tools", "benchmarks", "examples")
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def per_file_ignores(root: pathlib.Path = REPO_ROOT) -> "dict[str, set[str]]":
    """``ruff.toml``'s ``[lint.per-file-ignores]``: pattern -> codes."""
    config = root / "ruff.toml"
    if not config.exists():
        return {}
    table = tomllib.loads(config.read_text(encoding="utf-8"))
    ignores = table.get("lint", {}).get("per-file-ignores", {})
    return {pattern: set(codes) for pattern, codes in ignores.items()}


def _names_read(tree: ast.AST) -> "set[str]":
    """Every name ``tree`` reads or deletes, in any nested scope: plain
    loads, augmented assignments, ``global`` / ``nonlocal`` declarations,
    names inside string annotations, and ``__all__`` entries."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            read.update(node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A one-line string that parses as an expression may be an
            # annotation ("Environment", "list[Envelope] | None"); reading
            # too much only costs a missed finding.
            if "\n" in node.value:
                continue
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except (SyntaxError, ValueError):
                continue
            read.update(
                inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name)
            )
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return read


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope``'s own body: nested functions, lambdas and
    classes are yielded but not entered."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _imports(scope: ast.AST):
    """``(bound name, described as, node)`` of ``scope``'s own imports."""
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    origin = f"{'.' * node.level}{node.module or ''}.{alias.name}"
                    yield alias.asname or alias.name, origin, node


def _assigned(scope: ast.AST):
    """``(name, node)`` of the plain single-name bindings in a function's
    own body: ``x = ...``, ``x: T = ...``, ``x := ...``, ``with ... as
    x``, ``except ... as x``."""
    for node in _own_nodes(scope):
        targets: list = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        elif isinstance(node, ast.NamedExpr):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [item.optional_vars for item in node.items]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name, node
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def check_source(source: str, filename: str = "<string>") -> "list[tuple[int, str, str]]":
    """``(line, code, message)`` findings for one module's source."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    findings: list[tuple[int, str, str]] = []

    def report(node: ast.AST, code: str, message: str) -> None:
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        noqa = _NOQA.search(line)
        if noqa and (noqa["codes"] is None or code in noqa["codes"]):
            return
        findings.append((node.lineno, code, message))

    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _SCOPES)]
    for scope in scopes:
        read = _names_read(scope)
        for bound, origin, node in _imports(scope):
            if bound not in read:
                report(node, "F401", f"`{origin}` imported but unused")
        if scope is tree or isinstance(scope, ast.Lambda) or "locals" in read:
            continue
        for name, node in _assigned(scope):
            if name not in read and not name.startswith("_"):
                report(
                    node, "F841",
                    f"local variable `{name}` is assigned to but never used",
                )
    return sorted(findings)


def python_files(paths=DEFAULT_PATHS, root: pathlib.Path = REPO_ROOT):
    for path in paths:
        path = (root / path) if not pathlib.Path(path).is_absolute() else pathlib.Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def check_paths(paths=DEFAULT_PATHS, root: pathlib.Path = REPO_ROOT) -> "list[str]":
    """``file:line: code message`` for every finding under ``paths``."""
    ignores = per_file_ignores(root)
    failures = []
    for file in python_files(paths, root):
        relative = file.relative_to(root) if file.is_relative_to(root) else file
        ignored = set().union(
            *(codes for pattern, codes in ignores.items() if relative.match(pattern))
        )
        found = check_source(file.read_text(encoding="utf-8"), str(relative))
        failures += [
            f"{relative}:{line}: {code} {message}"
            for line, code, message in found
            if code not in ignored
        ]
    return failures


def main(argv: "list[str]") -> int:
    failures = check_paths(argv or DEFAULT_PATHS)
    for failure in failures:
        print(failure)
    print(f"lint_unused: {len(failures)} finding(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
