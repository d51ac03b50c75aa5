"""Documentation checker: snippets must run, links must resolve, quoted
command lines must parse, docstrings must cite files that exist.

Three checks over every Markdown file in the repository (README.md, docs/,
ARCHITECTURE.md, ...), and one over the source tree:

* **Snippet execution** — every fenced code block tagged ``python`` is
  executed in a fresh namespace (with ``src/`` importable).  Blocks
  tagged anything else (``bash``, ``text``, ``pycon``, untagged) are
  skipped, so shell quickstarts and pseudocode stay illustrative while
  Python examples are guaranteed to keep working.
* **Link resolution** — every relative Markdown link target
  (``[text](path)``) must exist on disk, resolved against the linking
  file's directory.  External (``http(s)://``, ``mailto:``) links are
  ignored.  Anchors are checked too: a pure-anchor ``#section`` link
  must name a heading of its own file, and a ``path#anchor`` target
  pointing at a Markdown file must name a heading of *that* file
  (GitHub-style slugs, duplicate headings numbered ``-1``, ``-2``, ...).
* **Command lines** — every ``python -m repro ...`` line quoted in a
  fenced block (``\\`` continuations joined, trailing ``# comments``
  dropped) is *parsed*, never executed, by the real ``repro.cli``
  parser, so a removed or renamed flag cannot leave the docs stale.
* **Docstring references** — every ``*.md`` file a docstring under
  ``src/`` names must be in the tree, resolved against the repository
  root: a "see DESIGN.md" cannot outlive DESIGN.md.

Run from the repository root (CI does)::

    PYTHONPATH=src python tools/check_docs.py

Exit code 0 when docs are healthy; 1 with a per-failure report otherwise.
``tests/test_docs.py`` runs the same checks inside the tier-1 suite.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import itertools
import pathlib
import re
import shlex
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Directories never scanned for Markdown.
EXCLUDED_DIRS = {".git", ".pytest_cache", "__pycache__", ".hypothesis"}

_FENCE = re.compile(
    r"^```(?P<tag>[^\n`]*)\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)
# Inline markdown links [text](target); images ![alt](target) match too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}[ \t]+(.+?)[ \t]*$", re.MULTILINE)
#: Tokens that end one command on a shell line.
_SHELL_OPERATORS = {"&&", "||", "|", ";"}
# A Markdown file named in prose: ``ARCHITECTURE.md``, ``docs/protocol.md``.
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def markdown_files(root: pathlib.Path = REPO_ROOT) -> list[pathlib.Path]:
    """Every tracked-ish Markdown file under ``root``."""
    files = []
    for path in sorted(root.rglob("*.md")):
        if not EXCLUDED_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def _label(path: pathlib.Path) -> pathlib.Path:
    """``path`` as failure reports name it: relative to the checkout."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:  # outside the checkout (tests use tmp dirs)
        return path


def python_blocks(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line number, source) for every ``python``-tagged fenced block."""
    text = path.read_text(encoding="utf-8")
    blocks = []
    for match in _FENCE.finditer(text):
        if match.group("tag").strip() == "python":
            line = text.count("\n", 0, match.start()) + 2
            blocks.append((line, match.group("body")))
    return blocks


def check_snippets(paths: list[pathlib.Path]) -> list[str]:
    """Execute every Python snippet; return failure descriptions."""
    failures = []
    for path in paths:
        for line, source in python_blocks(path):
            label = f"{path.relative_to(REPO_ROOT)}:{line}"
            try:
                exec(compile(source, label, "exec"), {"__name__": "__docs__"})
            except Exception as error:  # noqa: BLE001 - reported, not raised
                failures.append(f"{label}: snippet raised {error!r}")
    return failures


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for one heading's text.

    Punctuation (including markup backticks/asterisks) drops out;
    underscores survive, as github-slugger keeps them.
    """
    text = re.sub(r"[^\w\s-]", "", heading.strip().lower())
    return text.replace(" ", "-")


@functools.lru_cache(maxsize=None)
def heading_anchors(path: pathlib.Path) -> set[str]:
    """Every anchor a Markdown file's headings define (``#``-less).

    Headings inside fenced code blocks do not anchor; duplicate
    headings get ``-1``, ``-2``, ... suffixes, GitHub-style.  Cached per
    path: a heavily cross-linked page is parsed once per run, not once
    per inbound link.
    """
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    for match in _HEADING.finditer(text):
        slug = _slugify(match.group(1))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def relative_links(path: pathlib.Path) -> list[tuple[str, str]]:
    """``(target, anchor)`` pairs for one file's relative links.

    ``target`` is empty for pure-anchor (same-file) links; ``anchor`` is
    empty when the link carries none.  Links inside fenced code blocks
    are illustrative, not navigation, and are skipped (matching
    :func:`heading_anchors`, which ignores fenced headings).
    """
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    links = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        links.append((base, anchor))
    return links


def check_links(paths: list[pathlib.Path]) -> list[str]:
    """Verify every relative link (and its anchor, for Markdown targets)
    resolves; return failure descriptions."""
    failures = []
    for path in paths:
        label = _label(path)
        for target, anchor in relative_links(path):
            resolved = (path.parent / target) if target else path
            if not resolved.exists():
                failures.append(f"{label}: broken link -> {target}")
                continue
            if anchor and (not target or target.endswith(".md")):
                if anchor not in heading_anchors(resolved):
                    failures.append(
                        f"{label}: broken anchor -> {target}#{anchor}"
                    )
    return failures


def _repro_argv(words: list[str]) -> "list[str] | None":
    """What follows ``python -m repro`` in one shell command, if it is one."""
    for index, word in enumerate(words):
        if word.startswith("python") and words[index + 1:index + 3] == [
            "-m", "repro",
        ]:
            return words[index + 3:]
    return None


def command_lines(path: pathlib.Path) -> list[tuple[int, list[str]]]:
    """``(line number, argv)`` for every ``python -m repro`` command a
    fenced block quotes; ``argv`` is what follows ``repro``."""
    text = path.read_text(encoding="utf-8")
    commands = []
    for match in _FENCE.finditer(text):
        if match.group("tag").strip() == "python":
            continue  # executed by check_snippets, not a shell transcript
        first = text.count("\n", 0, match.start()) + 2
        logical, start = "", first
        for number, line in enumerate(match.group("body").splitlines(), first):
            if not logical:
                start = number
            logical += line
            if logical.endswith("\\"):
                logical = logical[:-1] + " "
                continue
            try:
                tokens = shlex.split(logical, comments=True)
            except ValueError:  # prose with a stray quote, not a command
                tokens = []
            logical = ""
            for _, words in itertools.groupby(
                tokens, _SHELL_OPERATORS.__contains__
            ):
                argv = _repro_argv(list(words))
                if argv is not None:
                    commands.append((start, argv))
    return commands


def check_commands(paths: list[pathlib.Path]) -> list[str]:
    """Parse every quoted ``repro`` command line; return the rejections."""
    from repro.cli import build_parser

    parser = build_parser()
    failures = []
    for path in paths:
        label = _label(path)
        for line, argv in command_lines(path):
            errors = io.StringIO()
            try:
                with contextlib.redirect_stderr(errors):
                    parser.parse_args(argv)
            except SystemExit as stop:
                if stop.code:
                    reason = errors.getvalue().strip().splitlines()[-1]
                    failures.append(
                        f"{label}:{line}: `repro {' '.join(argv)}` does "
                        f"not parse: {reason}"
                    )
    return failures


def docstring_references(source: pathlib.Path) -> list[tuple[int, str]]:
    """``(line number, name)`` for every ``*.md`` a docstring of one
    Python file names (module, class and function docstrings)."""
    references = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if ast.get_docstring(node, clean=False) is None:
            continue
        literal = node.body[0].value
        for offset, line in enumerate(literal.value.splitlines()):
            for name in _MD_NAME.findall(line):
                references.append((literal.lineno + offset, name))
    return references


def check_docstring_references(
    sources: list[pathlib.Path], root: pathlib.Path = REPO_ROOT
) -> list[str]:
    """Every Markdown file a docstring names must exist under ``root``."""
    failures = []
    for source in sources:
        label = _label(source)
        for line, name in docstring_references(source):
            if not (root / name).is_file():
                failures.append(
                    f"{label}:{line}: docstring cites {name}, which is "
                    f"not in the tree"
                )
    return failures


def main() -> int:
    paths = markdown_files()
    sources = sorted((REPO_ROOT / "src").rglob("*.py"))
    failures = (
        check_links(paths) + check_snippets(paths) + check_commands(paths)
        + check_docstring_references(sources)
    )
    snippet_count = sum(len(python_blocks(path)) for path in paths)
    command_count = sum(len(command_lines(path)) for path in paths)
    for failure in failures:
        print(f"FAIL: {failure}")
    print(
        f"checked {len(paths)} markdown files, {snippet_count} python "
        f"snippets, {command_count} repro command lines, "
        f"{len(sources)} source files' docstrings: "
        f"{'FAILED' if failures else 'ok'}"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
