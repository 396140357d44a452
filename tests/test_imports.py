"""The runtime is stdlib-only: every import in the package is relative or
names a standard-library module.  Each module stays small enough for
CPython 3.11's parser to compile it in its first token array."""

import ast
import sys
import tokenize
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


def test_modules_stay_under_the_parser_token_step():
    # the parser doubles its token array past 4,096 tokens, which raises
    # the peak memory of each import that compiles the module; it is fed
    # no comment, non-logical newline or encoding token
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in sorted(Path(bchrom.__file__).parent.glob("*.py")):
        with path.open("rb") as f:
            count = sum(t.type not in skipped for t in tokenize.tokenize(f.readline))
        assert count < 4096, (path.name, count)
