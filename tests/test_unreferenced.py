"""Library code reached only by tests does not grow back.

Every function or method under src/transportlab must be referenced by
other package code, or else by the acceptance battery. A reference is any
use of the name, as a plain name or an attribute, outside the function's
own body; dunder methods are called by the language and are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "transportlab"
ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"

EXEMPT = {
    # the console entry `transportlab = "transportlab.cli:main"` in
    # pyproject.toml; its only package use is the `__main__` guard
    "cli.main",
    # the finite-t reference of the heat-flow moment check; the rework of
    # `km_pushforward_moments` (ROADMAP item 2) wires it in or deletes it
    "heatflow.midflow_moment_check",
}


def _names(tree):
    """(line, name) of every plain name and attribute used in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def _definitions(tree):
    """(qualified suffix, node) of module functions and class methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _unreferenced():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    uses = {module: list(_names(tree)) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            used = any(
                used_name == name and not (
                    other == module
                    and node.lineno <= line <= node.end_lineno)
                for other, names in uses.items()
                for line, used_name in names)
            if not used:
                found.append((f"{module}.{qualified}", name))
    return found


def test_every_function_is_reached_by_the_package_or_an_acceptance_criterion():
    acceptance = {name for _, name in _names(ast.parse(ACCEPTANCE.read_text()))}
    stray = [qualified for qualified, name in _unreferenced()
             if qualified not in EXEMPT and name not in acceptance]
    assert stray == []

