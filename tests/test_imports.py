"""The package runs on the standard library alone, whatever is installed
in the test environment, and keeps every check under `python -O`."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "stackyfan").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_standard_library_or_package_relative(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno} imports {name}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements; checks raise StackyFanErrors
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        assert not isinstance(node, ast.Assert), \
            f"{path.name}:{node.lineno} uses assert"
