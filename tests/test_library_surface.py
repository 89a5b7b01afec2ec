"""The library has no public surface that only the tests use, and no
module imports a name it never reads."""

import ast
import importlib
import inspect
import textwrap
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "attnpool"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _binds(fn) -> set[str]:
    """Names that function ``fn`` binds: its arguments and the targets of
    its own assignments, loops and comprehensions (not those of functions
    nested in it), less what it declares global."""
    a = fn.args
    names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}
    declared_global = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.add(getattr(node, "name", ""))
        else:
            todo.extend(ast.iter_child_nodes(node))
    return names - declared_global


def _module_names(tree, modules) -> set[str]:
    """Names a module defines at its top level or imports from a package
    module (``from .covid import ingest``)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module in modules):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _references(node, names, modules, bound=frozenset()):
    """Names that ``node`` reads: bare names in ``names`` that no enclosing
    function binds, and attributes of a package module
    (``covid.impute_missing``)."""
    if isinstance(node, FUNCTIONS):
        bound = bound | _binds(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id in names and node.id not in bound:
            yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id in modules:
            yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, names, modules, bound)


def unreferenced_public_definitions(src=SRC, package="attnpool"):
    """``module.name`` of every module-level public function or class in
    ``src`` (the directory of ``package``) that no code in ``src`` refers to
    outside its own definition.

    A bare name counts only in a module that defines it or imports it from a
    package module, and only where no enclosing function binds it, so a
    local variable does not hide an unused function of the same name. Only
    what is still a function or a class after decoration counts: a click
    command is registered by its decorator, not called by name.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    names = {stem: _module_names(tree, trees) for stem, tree in trees.items()}
    uses = Counter(
        name for stem, tree in trees.items() for name in _references(tree, names[stem], trees)
    )
    unused = []
    for stem, tree in trees.items():
        module = importlib.import_module(f"{package}.{stem}")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            obj = getattr(module, node.name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            own = Counter(_references(node, names[stem], trees))[node.name]
            if uses[node.name] == own:
                unused.append(f"{stem}.{node.name}")
    return unused


def test_every_public_definition_is_used_by_the_library():
    assert unreferenced_public_definitions() == []


def unused_imports(src=SRC) -> list[str]:
    """``module.name`` of every name a module in ``src`` imports and never
    reads; ``from __future__`` imports are directives, not names."""
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    return unused


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports() == []


def test_an_import_left_behind_is_found(tmp_path):
    """A deleted reader leaves ``csv`` and ``Path`` imported; a dotted
    import counts by its first name, an aliased one by its alias."""
    (tmp_path / "traj.py").write_text(textwrap.dedent("""
        from __future__ import annotations

        import csv
        import os.path
        import numpy as np
        from pathlib import Path

        def exists(p):
            return os.path.exists(p) and np.ndim(p) == 0
    """))
    assert unused_imports(tmp_path) == ["traj.Path", "traj.csv"]


PACKAGE = {
    "scores": """
        def wis(x):
            return x

        def mean(xs):
            return sum(xs) / len(xs)

        def total(xs):
            return sum(xs)
    """,
    "report": """
        from statistics import mean

        from .scores import total

        def summary(rows):
            wis = total(rows)
            return wis + mean(rows)

        def per_row(rows):
            return [wis for wis in rows]

        def scaled(wis):
            return 2 * wis

        def last(rows):
            for wis in rows:
                pass
            return wis

        DEFAULT = (summary([1.0]), per_row([1.0]), scaled(1.0), last([1.0]))
    """,
}


def test_a_local_or_foreign_name_does_not_hide_an_unused_function(tmp_path, monkeypatch):
    """In a generated package, ``scores.wis`` is read only as a local (an
    assignment, a comprehension target, an argument and a loop target), and
    the ``mean`` that ``report`` reads is the standard library's; both are
    unused, while ``scores.total``, imported and called, is used."""
    package = tmp_path / "surfacepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for stem, text in PACKAGE.items():
        (package / f"{stem}.py").write_text(textwrap.dedent(text))
    monkeypatch.syspath_prepend(str(tmp_path))
    found = unreferenced_public_definitions(package, package="surfacepkg")
    assert sorted(found) == ["scores.mean", "scores.wis"]
