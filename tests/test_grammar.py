"""Every Python file of the project parses under the Python 3.10 grammar, the
oldest version pyproject.toml accepts.

``ast.parse(..., feature_version=(3, 10))`` rejects syntax added later, such
as ``except*`` (3.11). It checks the grammar only: a call to a library
function that 3.10 lacks (``tomllib``, ``datetime.UTC``, ``asyncio.TaskGroup``)
parses and would still fail when it runs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "bench", "tools") for path in (ROOT / folder).rglob("*.py"))


def test_there_are_sources_to_check():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "bench", "tools"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.relative_to(ROOT).as_posix() for path in SOURCES])
def test_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_check_rejects_later_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
