"""Library code reached only by tests does not grow back.

Every function or method under src/transportlab must be referenced by
other package code, or else by the acceptance battery. A reference is any
use of the name, as a plain name or an attribute, outside the function's
own body; dunder methods are called by the language and are exempt.

A name defined more than once (two classes' `jacobian`, a module's `run`
and a class's `run`, a method and a dataclass field or `self.<name> = ...`
target of the same name) counts only the uses the guard can tie to the
owner:
`self.name`, `cls.name` or `super().name` inside the owner, a class it
derives from or a class derived from it; `Owner.name`; `var.name` where
`var` was bound from `Owner(...)` or `module.Owner(...)` in the same or an
enclosing function; and, for a module function, a plain name in its module
(or imported from it) or `module.name`. Any other use of such a name
counts only for the owners in CALLERS, each listed with the callers that
reach it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "transportlab"
ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"

EXEMPT = {
    # the console entry `transportlab = "transportlab.cli:main"` in
    # pyproject.toml; its only package use is the `__main__` guard
    "cli.main",
}

# owner of a shared name -> its callers that reach it through a value the
# guard cannot type (a parameter or a function's result), so any use of the
# name counts for it
CALLERS = {
    "brenier.TransportMap.jacobian":
        "the solvers' maps: cli._bound_suite, majorize.Geodesic, "
        "calculus.map_statistics, brenier.monge_ampere_residual",
    "entropic.SampleSinkhorn.run": "entropic.continuation's stage solvers",
    "entropic.GridSinkhorn.barycentric":
        "brenier.solve_entropic_schedule's stage solvers",
    "entropic.SampleSinkhorn.barycentric":
        "brenier.solve_entropic_sample's stage solvers",
    "heatflow.FlowSchedule.times": "the schedule integrate_flow gets",
    "measures.TruncationBox.dim":
        "boxes passed to brenier.grid_measure and verify.probe_points",
    "measures.TruncationBox.to_dict": "the box in a grid map's details",
    "polyexp.PolyExp.value": "families semigroup._as_callable wraps",
    "scenarios.FockInstance.direct_check":
        "built instances: cli._growth_direct, acceptance criterion 12",
    "scenarios.LshInstance.direct_check":
        "built instances: cli._growth_direct, acceptance criterion 12",
    "scenarios.CoulombSpec.dim": "the spec a CoulombInstance keeps",
    "verify.BoundCertificate.to_dict": "check results: cli._run_checks",
}


def _classes(trees):
    """class name -> names of the classes it derives from or that derive
    from it, itself included, across the given modules."""
    bases = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases
                                    if isinstance(b, ast.Name)}

    def ancestors(name):
        found = set()
        for base in bases.get(name, ()):
            found |= {base} | ancestors(base)
        return found

    up = {name: ancestors(name) for name in bases}
    return {name: {name} | up[name] | {k for k, v in up.items() if name in v}
            for name in bases}


def _uses(tree, module, classes, modules):
    """(line, name, tie) of every plain name and attribute used in the
    tree; tie is ("class", C) or ("module", M) where the guard can tell
    the owner the use reaches, else None."""
    imported = {alias.asname or alias.name: node.module.rpartition(".")[2]
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module for alias in node.names}
    scopes = {}                  # node id -> (enclosing class, bindings)

    def constructed(call):
        """The package class `call` constructs, as Owner(...) or
        module.Owner(...), else None."""
        func = call.func if isinstance(call, ast.Call) else None
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        return name if name in classes else None

    def visit(node, cls, bound):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            bound = dict(bound)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and constructed(sub.value):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            bound[target.id] = constructed(sub.value)
        scopes[id(node)] = (cls, bound)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, bound)

    visit(tree, None, {})
    for node in ast.walk(tree):
        cls, bound = scopes[id(node)]
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, (
                "module", imported.get(node.id, module))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) \
                else "super" if isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and node.value.func.id == "super" else None
            tie = None
            if owner in ("self", "cls", "super") and cls is not None:
                tie = ("class", cls)
            elif owner in classes:
                tie = ("class", owner)
            elif owner in bound:
                tie = ("class", bound[owner])
            elif owner in modules:
                tie = ("module", owner)
            yield node.lineno, node.attr, tie


def _definitions(tree):
    """(qualified suffix, owning class or None, node) of module functions
    and class methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", node.name, sub


def _fields(tree):
    """Names bound on instances: class-body annotated names (dataclass
    fields) and `self.<name> = ...` targets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) \
                        and isinstance(sub.target, ast.Name):
                    yield sub.target.id
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) \
                            and isinstance(sub.value, ast.Name) \
                            and sub.value.id == "self":
                        yield sub.attr


def _unreferenced(trees, acceptance=None, callers=CALLERS):
    """Qualified names of the definitions in `trees` (module -> AST) that
    no other code, nor the `acceptance` AST, references."""
    classes = _classes(trees)
    uses = [(module, line, name, tie)
            for module, tree in trees.items()
            for line, name, tie in _uses(tree, module, classes, set(trees))]
    if acceptance is not None:
        uses += [(None, line, name, tie) for line, name, tie
                 in _uses(acceptance, None, classes, set(trees))]
    defined = {}
    for tree in trees.values():
        names = [node.name for _, _, node in _definitions(tree)]
        for name in names + list(_fields(tree)):
            defined[name] = defined.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for qualified, cls, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            owner = ("module", module) if cls is None else ("class", cls)
            related = {owner} if cls is None else {
                ("class", c) for c in classes[cls]}
            untied = defined[name] == 1 or f"{module}.{qualified}" in callers
            used = any(
                used_name == name
                and (untied or tie in related)
                and not (other == module
                         and node.lineno <= line <= node.end_lineno)
                for other, line, used_name, tie in uses)
            if not used:
                found.append(f"{module}.{qualified}")
    return found


def test_every_function_is_reached_by_the_package_or_an_acceptance_criterion():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    stray = [qualified for qualified in _unreferenced(
        trees, ast.parse(ACCEPTANCE.read_text()))
        if qualified not in EXEMPT]
    assert stray == []


def test_a_method_used_only_by_tests_cannot_hide_behind_a_namesake():
    trees = {
        "a": ast.parse("class A:\n"
                       "    def scaled(self):\n"
                       "        return self\n"),
        "b": ast.parse("class B:\n"
                       "    def scaled(self):\n"
                       "        return self\n"
                       "\n"
                       "\n"
                       "def grow():\n"
                       "    box = B()\n"
                       "    return box.scaled()\n"),
    }
    assert _unreferenced(trees, callers={}) == ["a.A.scaled", "b.grow"]
    # a use on an untyped value reaches an owner only through CALLERS
    trees["b"] = ast.parse("class B:\n"
                           "    def scaled(self):\n"
                           "        return self\n"
                           "\n"
                           "\n"
                           "def grow(box):\n"
                           "    return box.scaled()\n")
    trees["c"] = ast.parse("from .b import grow\n\n\ngrow(None)\n")
    assert _unreferenced(trees, callers={}) == ["a.A.scaled", "b.B.scaled"]
    assert _unreferenced(
        trees, callers={"b.B.scaled": "called on the boxes grow gets"}) == [
        "a.A.scaled"]
    # a dataclass field or an instance attribute of the same name is a
    # namesake too: reading it off a parameter does not reach the method
    trees = {
        "a": ast.parse("class A:\n"
                       "    def grad(self):\n"
                       "        return self\n"),
        "b": ast.parse("from dataclasses import dataclass\n"
                       "\n"
                       "\n"
                       "@dataclass\n"
                       "class E:\n"
                       "    grad: float\n"
                       "\n"
                       "\n"
                       "def slope(e):\n"
                       "    return e.grad\n"),
        "c": ast.parse("from .b import slope\n\n\nslope(None)\n"),
    }
    assert _unreferenced(trees, callers={}) == ["a.A.grad"]
    trees["b"] = ast.parse("class E:\n"
                           "    def __init__(self):\n"
                           "        self.grad = 0.0\n"
                           "\n"
                           "\n"
                           "def slope(e):\n"
                           "    return e.grad\n")
    assert _unreferenced(trees, callers={}) == ["a.A.grad"]
    # with no namesake, the use on the parameter reaches the only owner
    trees["b"] = ast.parse("def slope(e):\n"
                           "    return e.grad\n")
    assert _unreferenced(trees, callers={}) == []
