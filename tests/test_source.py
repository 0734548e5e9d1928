"""The package source against the Python versions it declares."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dgq"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_as_the_oldest_supported_python(path):
    """``requires-python = ">=3.10"`` in pyproject.toml: no newer syntax."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_package_imports_only_the_standard_library():
    """``dependencies = []`` in pyproject.toml: every module that
    ``src/dgq`` imports, at any depth of its code, is in the standard
    library or is ``dgq`` itself."""
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    tops = {name.partition(".")[0] for name in imported}
    assert "json" in tops
    assert tops - sys.stdlib_module_names - {"dgq"} == set()


def _calls(name, node, where, path, found):
    """(file, innermost enclosing function) of each call of ``name``, called
    bare or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            called = getattr(child.func, "id", getattr(child.func, "attr", None))
            if called == name:
                found.add((path.name, where))
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else where)
        _calls(name, child, inner, path, found)


def _callers(name):
    found = set()
    for path in sorted(SRC.glob("*.py")):
        _calls(name, ast.parse(path.read_text(), filename=str(path)),
               "<module>", path, found)
    return found


def test_groupoid_tables_are_built_behind_groupoid_on():
    """The dense compose format stays behind ``groupoids.groupoid_on``: the
    ``Groupoid`` constructor is called only in ``groupoids.py``, in the
    parser of ``io.py`` and in ``double._box_groupoid``."""
    found = _callers("Groupoid")
    assert ("groupoids.py", "groupoid_on") in found
    assert {c for c in found if c[0] != "groupoids.py"} == {
        ("io.py", "_groupoid_from_obj"), ("double.py", "_box_groupoid")}


def test_the_double_groupoid_axioms_are_checked_behind_double():
    """The routines of ``double.py`` that assume the axioms check them;
    elsewhere ``validate_double_groupoid`` is called only by the two commands
    that report it, ``validate`` and ``vacant``."""
    found = _callers("validate_double_groupoid")
    assert {("double.py", "is_vacant"),
            ("double.py", "cocycle_identities")} <= found
    assert {c for c in found if c[0] != "double.py"} == {
        ("cli.py", "cmd_validate"), ("cli.py", "cmd_vacant")}


def test_the_identities_are_compiled_once():
    """The cocycle and compatibility identities become linear forms in one
    place: ``_identity_forms`` is called only by
    ``cocycles._constraint_system``, whose rows, column count and column
    map the solver, the block check, the writer and the gauge map read."""
    assert _callers("_identity_forms") == {
        ("cocycles.py", "_constraint_system")}


def test_the_smith_form_serves_only_integral_complexes():
    """No count and no groupoid takes a Smith form: ``elementary_divisors``
    is called only by ``cohomology._cohomology``, for a complex over Z, and
    ``smith_diagonal`` only by ``linalg.elementary_divisors``."""
    assert _callers("elementary_divisors") == {
        ("cohomology.py", "_cohomology")}
    assert _callers("smith_diagonal") == {("linalg.py", "elementary_divisors")}


def test_every_echelon_form_is_made_by_linalg_echelon():
    """The row store of an elimination, dict rows or bit planes, is chosen
    in one place: ``_Echelon`` and ``_Planes`` are constructed only by
    ``linalg._echelon``, and no ``_echelon_fp`` is left beside it."""
    assert _callers("_Echelon") == _callers("_Planes") == {
        ("linalg.py", "_echelon")}
    assert not any("_echelon_fp" in path.read_text()
                   for path in SRC.glob("*.py"))
