"""The package source against the Python versions it declares."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dgq"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_as_the_oldest_supported_python(path):
    """``requires-python = ">=3.10"`` in pyproject.toml: no newer syntax."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
