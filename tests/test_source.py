"""Static checks over the package source, with the standard library's ast:
no module-level import that its module never uses, and no private
top-level name that nothing in the package references.  Both catch code
left behind when a second copy of something is deleted."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorint"
TREES = {p.name: ast.parse(p.read_text(), str(p))
         for p in sorted(SRC.glob("*.py"))}


def loaded_names(tree) -> set:
    """Every name the tree reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def top_level_names(tree) -> list:
    """Names a module binds at top level by def, class or assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return out


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_no_unused_module_level_import(name):
    tree = TREES[name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{name} imports but never uses {unused}"


def test_every_private_top_level_name_is_referenced():
    loaded = set().union(*map(loaded_names, TREES.values()))
    orphans = [f"{name}:{n}" for name, tree in TREES.items()
               for n in top_level_names(tree)
               if n.startswith("_") and not n.startswith("__")
               and n not in loaded]
    assert not orphans, f"defined but never referenced: {orphans}"
