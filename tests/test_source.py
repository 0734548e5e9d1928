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


def test_the_block_format_is_known_by_linalg_alone():
    """A block of solutions has one shape, decided in ``linalg``: ``_Block``
    is constructed only there, and ``cocycles.py`` and ``io.py``, which read
    blocks, ask no block and no ``solutions`` what it holds."""
    assert {path for path, _ in _callers("_Block")} == {"linalg.py"}
    for name in ("cocycles.py", "io.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        probed = {ast.unparse(node.args[0]) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in ("getattr", "hasattr")}
        assert not {p for p in probed
                    if p.split(".")[-1] in ("block", "solutions")}, name


def _trial_divisions(tree):
    """The variables of loops and comprehensions over ``range(...)`` that
    divide something within them."""
    for node in ast.walk(tree):
        loops = (node.generators if isinstance(node, (
            ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
                 else [node] if isinstance(node, ast.For) else [])
        for loop in loops:
            var = ast.unparse(loop.target)
            if "range(" in ast.unparse(loop.iter) and any(
                    isinstance(op, ast.BinOp)
                    and isinstance(op.op, (ast.Mod, ast.FloorDiv))
                    and ast.unparse(op.right) == var
                    for op in ast.walk(node)):
                yield var


def test_moduli_are_factored_only_in_fields():
    """One factoriser: trial division runs only in ``fields``, and no
    ``squarefree_primes`` is left beside its ``prime_powers``."""
    divided = {path.name for path in SRC.glob("*.py")
               if any(_trial_divisions(ast.parse(path.read_text())))}
    assert divided == {"fields.py"}
    assert not any("squarefree_primes" in path.read_text()
                   for path in SRC.glob("*.py"))


def test_one_count_of_solutions_mod_m():
    """A count mod m takes one route, the Howell form of
    ``solutions_mod_m`` checked by that of its transpose: ``linalg.py``
    imports nothing from ``fields``, so it factors no modulus; no
    ``_squarefree``, ``_rank_count``, ``_checked_rank`` or
    ``_howell_solutions`` is left in ``src``; and ``count_solutions_mod_m``
    calls only ``solutions_mod_m``."""
    tree = ast.parse((SRC / "linalg.py").read_text(), filename="linalg.py")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2]
                            for alias in node.names)
    assert "fields" not in imported
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert not [name for name in ("_squarefree", "_rank_count",
                                      "_checked_rank", "_howell_solutions")
                    if name in text], path.name
    count, = (node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "count_solutions_mod_m")
    assert {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(count) if isinstance(node, ast.Call)} == {
        "solutions_mod_m"}


def test_group_cohomology_is_bounded_by_its_resolutions():
    """One budget for a group's cohomology, on what its resolution builds:
    in ``cohomology.py`` only ``_resolution_cohomology``, on the cells of
    each free module, and ``build_double_complex``, on each grid basis,
    raise a ``ResourceBudgetError``; ``groupoid_cohomology`` raises none of
    its own."""
    assert {c for c in _callers("ResourceBudgetError")
            if c[0] == "cohomology.py"} == {
        ("cohomology.py", "_resolution_cohomology"),
        ("cohomology.py", "build_double_complex")}
