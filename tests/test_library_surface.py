"""The library has no public surface that only the tests use."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "attnpool"


def _references(node, modules):
    """Names that ``node`` reads: bare names, and attributes of a package
    module (``covid.impute_missing``)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            if n.value.id in modules:
                yield n.attr


def unreferenced_public_definitions(src=SRC):
    """``module.name`` of every module-level public function or class in
    ``src`` that no code in ``src`` refers to outside its own definition.

    Only what is still a function or a class after decoration counts: a
    click command is registered by its decorator, not called by name.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _references(tree, trees))
    unused = []
    for stem, tree in trees.items():
        module = importlib.import_module(f"attnpool.{stem}")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            obj = getattr(module, node.name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            own = Counter(_references(node, trees))[node.name]
            if uses[node.name] == own:
                unused.append(f"{stem}.{node.name}")
    return unused


def test_every_public_definition_is_used_by_the_library():
    assert unreferenced_public_definitions() == []
