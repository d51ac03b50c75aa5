"""python tools/loc.py [--parent REV] [PATH ...]   (default PATH: src/repro)

Total and code-only lines per python file — blanks, comments and
docstrings excluded (``tokenize`` finds the lines, ``ast`` the
docstrings).  ``--parent REV`` lists every file that differs from
``git show REV:path`` as ``parent -> now``, then the sum."""
import ast
import functools
import io
import pathlib
import subprocess
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> "tuple[int, int]":
    """(total lines, code-only lines) of one python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(source.splitlines()), len(code)


def counts(paths: "list[str]", rev: "str | None") -> "dict[str, tuple[int, int]]":
    """path -> :func:`count`, of the working tree or of revision ``rev``."""
    if rev is None:
        files = [f for p in map(pathlib.Path, paths) for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
        return {str(f): count(f.read_text(encoding="utf-8")) for f in files}
    git = functools.partial(subprocess.run, check=True, capture_output=True, text=True)
    listed = git(["git", "ls-tree", "-r", "--name-only", rev, "--", *paths]).stdout.split()
    return {f: count(git(["git", "show", f"{rev}:{f}"]).stdout) for f in listed if f.endswith(".py")}


def main(argv: "list[str]") -> int:
    rev, paths = (argv[1], argv[2:]) if argv[:1] == ["--parent"] else (None, argv)
    paths = paths or ["src/repro"]
    now = counts(paths, None)
    then = now if rev is None else counts(paths, rev)
    rows = [(f, then.get(f, (0, 0)), now.get(f, (0, 0))) for f in sorted(set(now) | set(then))]
    rows.append(("total", *[tuple(map(sum, zip(*side.values()))) for side in (then, now)]))
    for name, (lines0, code0), (lines, code) in rows:
        if rev is None:
            print(f"{lines:>7} {code:>7}  {name}")
        elif (lines0, code0) != (lines, code) or name == "total":
            print(f"{lines0:>6} -> {lines:<6} {code0:>6} -> {code:<6} {lines - lines0:+5d} {code - code0:+5d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
