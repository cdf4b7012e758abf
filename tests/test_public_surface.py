"""Every public module-level function and class of the package is used by
the package, a demo or the benchmark, not only by tests.

Code that only tests reach is a second implementation of something the
program computes elsewhere, or dead.  A use is any ``Name`` or
``Attribute`` with the same identifier, outside the definition itself.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shapegrad"
USERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]

#: "module.name" -> why it stays public although only tests call it
TEST_ONLY = {
    "reports.load_field": "the reader of the field format that solve writes",
    "elliptic_problems.dirichlet_energy_boundary_dJ":
        "the paper's boundary form, the criterion-7 reference",
    "tensor_calc.apply3": "a tool of the criterion-1 identity battery",
    "tensor_calc.outer": "a tool of the criterion-1 identity battery",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                yield f"{path.stem}.{stmt.name}"


def _uses():
    """Identifiers used in each top-level statement, except the name it defines."""
    used = set()
    for folder in USERS:
        for path in sorted(folder.rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                names = {node.id if isinstance(node, ast.Name) else node.attr
                         for node in ast.walk(stmt)
                         if isinstance(node, (ast.Name, ast.Attribute))}
                used |= names - {getattr(stmt, "name", None)}
    return used


def test_no_public_code_only_tests_reach():
    used = _uses()
    unused = [q for q in _public_definitions()
              if q.split(".")[1] not in used and q not in TEST_ONLY]
    assert unused == [], f"public but used only by tests: {unused}"


def test_exceptions_are_current():
    """Each listed exception still exists and is still used only by tests."""
    used = _uses()
    defined = set(_public_definitions())
    stale = [q for q in TEST_ONLY if q not in defined or q.split(".")[1] in used]
    assert stale == []
