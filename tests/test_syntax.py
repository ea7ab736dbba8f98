"""The package, its tests, the benchmark harness and the tools parse as
Python 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_with_the_python_3_10_grammar():
    """``ast.parse`` with ``feature_version=(3, 10)`` rejects grammar that
    3.10 lacks, such as ``except*``.  It is best effort: run on 3.11, some
    3.11-only forms still pass (a PEP 646 star annotation, ``*args: *Ts``),
    and it sees no runtime API, so a call to a function added in 3.11
    passes too."""
    sources = sorted(p for d in ("src", "tests", "perfbench", "tools")
                     for p in (ROOT / d).rglob("*.py"))
    assert ROOT / "src" / "dualquasi" / "cli.py" in sources
    assert ROOT / "tools" / "command_matrix.py" in sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_check_rejects_newer_grammar():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
