"""Source hygiene: the package's checks survive ``python -O`` and its
refusals use the package's own error types."""

from __future__ import annotations

import ast
from pathlib import Path

import treealpha

SOURCES = sorted(Path(treealpha.__file__).resolve().parent.glob("*.py"))
BUILTIN_RAISES = {"ValueError", "TypeError", "KeyError", "IndexError"}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"graphs.py", "patterns.py", "treedecomp.py"}


def test_no_assert_and_no_builtin_raise():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                if _raised_name(node) in BUILTIN_RAISES:
                    found.append(f"{path.name}:{node.lineno}: raise {_raised_name(node)}")
    assert found == []


def test_no_environment_reads():
    # every cap and option is a call argument: no source reads the
    # process environment
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [node.attr] if isinstance(node, ast.Attribute) else (
                [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
            if {"environ", "environb", "getenv", "getenvb"} & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
