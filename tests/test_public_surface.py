"""Every public module-level function and class of the package, and every
public member of a package class, is used by the package, a demo or the
benchmark, not only by tests.

Code that only tests reach is a second implementation of something the
program computes elsewhere, or dead.  A use of a module-level name is any
``Name`` or ``Attribute`` with the same identifier, outside the definition
itself.  The members of a class are its methods, its class attributes and
the ``self.<name>`` attributes its methods assign; a use of one is an
attribute read ``<expr>.<name>`` with the same identifier (matched by name
only, so a read of a like-named member of another class also counts).
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

#: "module.Class.member" -> why it stays although only tests read it
TEST_ONLY_MEMBERS = {
    "fem_core.Factorized.ordering": "solver statistics, for the observability item",
    "fem_core.Factorized.fill": "solver statistics, for the observability item",
    "fem_core.NewtonError.history": "the payload of the exception, for its catcher",
    "elliptic_problems._EllipticProblem.newton_history":
        "the Newton history, to be reported with the observability item",
    "mesh.Mesh.areas": "per-element areas, which the transport-lemma tests read",
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


def _public_members():
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = set()
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    names.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    names |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            names |= {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"}
            yield from (f"{path.stem}.{cls.name}.{n}" for n in sorted(names)
                        if not n.startswith("_"))


def _attribute_reads():
    return {node.attr
            for folder in USERS for path in sorted(folder.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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


def test_no_class_member_only_tests_read():
    read = _attribute_reads()
    unread = [q for q in _public_members()
              if q.rsplit(".", 1)[1] not in read and q not in TEST_ONLY_MEMBERS]
    assert unread == [], f"class members read only by tests: {unread}"


def test_member_exceptions_are_current():
    """Each listed member still exists and is still read only by tests."""
    read = _attribute_reads()
    defined = set(_public_members())
    stale = [q for q in TEST_ONLY_MEMBERS
             if q not in defined or q.rsplit(".", 1)[1] in read]
    assert stale == []
