"""Every public module-level function and class of the package, and every
public member of a package class, is used by the package, a demo or the
benchmark, not only by tests.

Code that only tests reach is a second implementation of something the
program computes elsewhere, or dead.  A use of a module-level name is any
``Name`` or ``Attribute`` with the same identifier, outside the definition
itself.  The members of a class are its methods, its class attributes and
the ``self.<name>`` attributes its methods assign; a use of one is an
attribute read ``<expr>.<name>`` with the same identifier.  Where the
owner of ``<expr>`` is known statically, the read counts only for that
class and the classes it inherits from or that inherit from it: ``self``
in a method of class C is an instance of C or of a subclass, and the name
of an ``except X as <name>`` handler is an X.  Any other read is matched by
name only, so it counts for every class with a member of that name.
"""

import ast
import pathlib
import textwrap

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


def _user_trees():
    return [ast.parse(path.read_text())
            for folder in USERS for path in sorted(folder.rglob("*.py"))]


def _identifier(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _attribute_reads(trees):
    """(owner, name) of every attribute read ``<expr>.<name>``: the owner is
    the class C when ``<expr>`` is ``self`` in a method of C, the class X
    when it is the name of an ``except X as <expr>`` handler, else None."""
    reads = set()

    def visit(node, owners):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.FunctionDef) and stmt.args.args
                        and stmt.args.args[0].arg == "self"):
                    visit(stmt, {**owners, "self": node.name})
                else:
                    visit(stmt, owners)
            return
        if isinstance(node, ast.ExceptHandler) and node.name and _identifier(node.type):
            owners = {**owners, node.name: _identifier(node.type)}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((owners.get(_identifier(node.value)) if isinstance(node.value, ast.Name)
                       else None, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for tree in trees:
        visit(tree, {})
    return reads


def _relatives(trees):
    """Class name -> the class, its ancestors and its descendants, by name."""
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(map(_identifier, node.bases))

    def closure(start, step):
        seen, todo = set(), [start]
        while todo:
            for other in step(todo.pop()) - seen:
                seen.add(other)
                todo.append(other)
        return seen

    def subclasses(name):
        return {c for c, b in bases.items() if name in b}

    return {c: {c} | closure(c, lambda n: bases.get(n, set())) | closure(c, subclasses)
            for c in bases}


def _unread(members):
    """The members ("module.Class.member") that no attribute read reaches."""
    trees = _user_trees()
    reads, relatives = _attribute_reads(trees), _relatives(trees)
    owners_of = {}
    for owner, name in reads:
        owners_of.setdefault(name, set()).add(owner)
    unread = []
    for q in members:
        cls, name = q.split(".")[1:]
        owners = owners_of.get(name, set())
        if None not in owners and not owners & relatives.get(cls, {cls}):
            unread.append(q)
    return unread


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
    unread = [q for q in _unread(_public_members()) if q not in TEST_ONLY_MEMBERS]
    assert unread == [], f"class members read only by tests: {unread}"


def test_member_exceptions_are_current():
    """Each listed member still exists and is still read only by tests."""
    defined = set(_public_members())
    unread = set(_unread(TEST_ONLY_MEMBERS))
    stale = [q for q in TEST_ONLY_MEMBERS if q not in defined or q not in unread]
    assert stale == []


def test_reads_are_matched_to_their_owners():
    """The guard's own rule, on a snippet: ``self`` reads belong to the
    method's class, handler-name reads to the exception class, other reads
    to no class; relatives are ancestors and descendants, not siblings."""
    tree = ast.parse(textwrap.dedent("""
        class A:
            def f(self):
                return self.x
        class B(A):
            pass
        class C(mod.B):
            pass
        class D(A):
            pass
        try:
            pass
        except E as exc:
            exc.y
        z.w
    """))
    assert _attribute_reads([tree]) == {("A", "x"), ("E", "y"), (None, "w")}
    assert _relatives([tree])["B"] == {"A", "B", "C"}
