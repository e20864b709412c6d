"""Every name that udnet exports has a caller inside the package.

A name in udnet.__all__ has a caller when another module of src/udnet
imports it (``from .mod import name``, or ``mod.name`` after importing the
module), or when its own module loads it outside its own definition.
__init__.py, which re-exports everything, does not count. The few names
kept without a caller are listed below with the reason; the list may only
shrink.
"""

from __future__ import annotations

import ast
import pathlib

import udnet

_SRC = pathlib.Path(udnet.__file__).parent

_UNCALLED = {
    "bound_L1_trimmed": "lemma calculator, waits for the bounds --chain output",
    "bound_L2": "lemma calculator, waits for the bounds --chain output",
    "ratio_R_over_I0_ok": "lemma calculator, waits for the bounds --chain output",
    "volume_lower_bound": "lemma calculator, waits for the bounds --chain output",
    "net_probe": "the package's only epsilon-net measurement",
    "enumerate_projective_weights": "public label enumerator the acceptance tests call; src reads _projective_tuples",
}


def _exports() -> dict[str, str]:
    """Exported name -> the module it is re-exported from."""
    tree = ast.parse((_SRC / "__init__.py").read_text())
    owner = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                owner[alias.asname or alias.name] = node.module
    return {name: owner[name] for name in udnet.__all__}


def _own_loads(tree: ast.Module, name: str) -> bool:
    """name is loaded somewhere outside its own def or class statement."""

    def visit(node) -> bool:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            return False
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        return any(visit(child) for child in ast.iter_child_nodes(node))

    return visit(tree)


def _imported_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs a module takes from its sibling modules."""
    found = set()
    modules = {}  # local alias -> sibling module imported whole
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    found.add((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add((modules[node.value.id], node.attr))
    return found


def _uncalled() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in _SRC.glob("*.py") if p.name != "__init__.py"}
    imported = set().union(*(_imported_names(tree) for tree in trees.values()))
    return {
        name
        for name, module in _exports().items()
        if (module, name) not in imported and not _own_loads(trees[module], name)
    }


def test_public_names_have_callers():
    uncalled = _uncalled()
    assert sorted(uncalled - set(_UNCALLED)) == [], "exported without a caller in src/udnet"
    assert sorted(set(_UNCALLED) - set(udnet.__all__)) == [], "allowlisted but no longer exported"
    assert sorted(set(_UNCALLED) - uncalled) == [], "allowlisted but now called; drop it from the list"
