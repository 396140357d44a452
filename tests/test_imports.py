"""The runtime is stdlib-only: every import in the package is relative or
names a standard-library module."""

import ast
import sys
from pathlib import Path

import bchrom


def test_runtime_imports_are_relative_or_stdlib():
    sources = sorted(Path(bchrom.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
