"""Documentation health: snippets execute, links resolve (tier-1 copy).

The CI docs job runs ``tools/check_docs.py`` standalone; running the same
checks here keeps them enforced by the local tier-1 suite too, so a
README edit cannot rot between pushes.
"""

from __future__ import annotations

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_markdown_discovered():
    names = {path.name for path in check_docs.markdown_files()}
    assert {"README.md", "ARCHITECTURE.md", "protocol.md"} <= names


def test_readme_has_executable_snippets():
    blocks = check_docs.python_blocks(REPO_ROOT / "README.md")
    assert len(blocks) >= 2, "README quickstart must show runnable Python"


def test_relative_links_resolve():
    assert check_docs.check_links(check_docs.markdown_files()) == []


def test_heading_anchors_github_slugs():
    anchors = check_docs.heading_anchors(REPO_ROOT / "ARCHITECTURE.md")
    assert "the-protocol-seam-srcreprocoreprotocolpy" in anchors
    assert "runtime-srcreproruntime" in anchors


def test_broken_anchor_detected(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "# Title\n\n[ok](#title) [bad](#nope) [x](other.md#missing)\n",
        encoding="utf-8",
    )
    (tmp_path / "other.md").write_text("# Other\n", encoding="utf-8")
    failures = check_docs.check_links([page])
    assert len(failures) == 2
    assert any("#nope" in failure for failure in failures)
    assert any("other.md#missing" in failure for failure in failures)


def test_duplicate_headings_numbered(tmp_path):
    page = tmp_path / "dup.md"
    page.write_text("# Same\n\n# Same\n", encoding="utf-8")
    assert {"same", "same-1"} <= check_docs.heading_anchors(page)


def test_underscores_survive_slugs(tmp_path):
    """github-slugger keeps underscores: `run_campaign` anchors with one."""
    page = tmp_path / "api.md"
    page.write_text(
        "# The `run_campaign` API\n\n[ok](#the-run_campaign-api)\n",
        encoding="utf-8",
    )
    assert check_docs.check_links([page]) == []


def test_python_snippets_execute():
    assert check_docs.check_snippets(check_docs.markdown_files()) == []


def test_documented_command_lines_parse():
    paths = check_docs.markdown_files()
    assert sum(len(check_docs.command_lines(path)) for path in paths) >= 30
    assert check_docs.check_commands(paths) == []


def test_stale_flag_in_a_command_line_detected(tmp_path):
    """A removed flag (`--mobility`) fails with file:line; continuations,
    trailing comments and `&&` chains are handled, nothing is executed."""
    page = tmp_path / "page.md"
    page.write_text(
        "# Title\n\n```bash\n"
        "python -m repro run --n 4 --f 1 \\\n"
        "    --link mobility   # the canonical spelling\n"
        "PYTHONPATH=src python -m repro protocols && \\\n"
        "python -m repro run --n 4 \\\n"
        "    --mobility  # removed shorthand\n"
        "```\n",
        encoding="utf-8",
    )
    assert [line for line, _ in check_docs.command_lines(page)] == [4, 6, 6]
    (failure,) = check_docs.check_commands([page])
    assert failure.startswith(f"{page}:6:")
    assert "--mobility" in failure


def test_source_docstrings_cite_existing_markdown():
    clock4 = REPO_ROOT / "src" / "repro" / "core" / "clock4.py"
    assert (7, "docs/protocol.md") in check_docs.docstring_references(clock4)
    sources = sorted((REPO_ROOT / "src").rglob("*.py"))
    assert check_docs.check_docstring_references(sources) == []


def test_dangling_markdown_in_a_docstring_detected(tmp_path):
    """Module, class and function docstrings are all read; a comment or an
    ordinary string is not a citation; paths resolve against the root."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "there.md").write_text("# There\n", encoding="utf-8")
    module = tmp_path / "module.py"
    module.write_text(
        '"""Module: see docs/there.md,\nnot GONE.md."""\n'
        "# a comment naming COMMENT.md\n"
        'NAME = "STRING.md"\n'
        "class Thing:\n"
        '    """Class: docs/there.md."""\n'
        "    def method(self):\n"
        '        """Method: docs/missing.md."""\n',
        encoding="utf-8",
    )
    failures = check_docs.check_docstring_references([module], root=tmp_path)
    assert len(failures) == 2
    assert failures[0].startswith(f"{module}:2:") and "GONE.md" in failures[0]
    assert failures[1].startswith(f"{module}:8:") and "docs/missing.md" in failures[1]
