"""The library has no public surface that only the tests use, no
parameter default that only the tests leave out or only the tests pass,
and no module imports a name it never reads."""

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


def _defined_functions(node, in_class=None):
    """``(qualified name, call name, function, in a class body)`` of every
    function and method defined under ``node``. A class's ``__init__`` is
    known by the class's name, the name its callers call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            for qual, name, fn, method in _defined_functions(child, child.name):
                yield f"{child.name}.{qual}", name, fn, method
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = in_class if in_class and child.name == "__init__" else child.name
            yield child.name, name, child, in_class is not None
            for qual, inner, fn, method in _defined_functions(child):
                yield f"{child.name}.{qual}", inner, fn, method
        else:
            yield from _defined_functions(child, in_class)


def _parameters(fn, method) -> tuple[list[str], set[str]]:
    """The names of ``fn``'s positional parameters, in order, less a
    method's ``self`` or ``cls``, and the names of all its parameters that
    carry a default."""
    a = fn.args
    positional = [x.arg for x in (*a.posonlyargs, *a.args)]
    if method and positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    defaulted = set(positional[len(positional) - len(a.defaults):]) if a.defaults else set()
    defaulted |= {x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return positional, defaulted


def _call_name(call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _unpacks(call) -> bool:
    """Whether ``call`` passes ``*args`` or ``**kwargs``, which may pass or
    leave out any parameter."""
    starred = any(isinstance(x, ast.Starred) for x in call.args)
    return starred or any(k.arg is None for k in call.keywords)


def _passed(call, positional) -> set[str]:
    """The parameters that ``call`` surely passes, given the callee's
    positional parameter names: none where it unpacks."""
    if _unpacks(call):
        return set()
    return set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def _trees_and_calls(src):
    """The parsed modules of ``src`` by stem, and every call in them by the
    bare or attribute name it calls."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    calls: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    return trees, calls


def defaults_no_call_leaves_out(src=SRC) -> list[str]:
    """``module.function: parameter`` of every parameter default, of a
    function or method defined in ``src``, that no call in ``src`` leaves
    out: a default only the tests rely on.

    A call resolves by its bare or attribute name to every function of that
    name, and calling a class calls its ``__init__``.
    """
    trees, calls = _trees_and_calls(src)
    found = []
    for stem, tree in trees.items():
        for qual, name, fn, method in _defined_functions(tree):
            positional, always_passed = _parameters(fn, method)
            for call in calls.get(name, ()):
                always_passed &= _passed(call, positional)
            found += [f"{stem}.{qual}: {p}" for p in sorted(always_passed)]
    return found


def test_every_parameter_default_is_left_out_by_a_library_call():
    assert defaults_no_call_leaves_out() == []


def defaults_no_call_passes(src=SRC) -> list[str]:
    """``module.function: parameter`` of every parameter default, of a
    function or method defined in ``src``, that no call in ``src`` passes:
    a knob only the tests turn. Calls resolve as in
    :func:`defaults_no_call_leaves_out`.
    """
    trees, calls = _trees_and_calls(src)
    found = []
    for stem, tree in trees.items():
        for qual, name, fn, method in _defined_functions(tree):
            positional, defaulted = _parameters(fn, method)
            never_passed = set(defaulted)
            for call in calls.get(name, ()):
                never_passed -= defaulted if _unpacks(call) else _passed(call, positional)
            found += [f"{stem}.{qual}: {p}" for p in sorted(never_passed)]
    return found


def test_every_parameter_default_is_passed_by_a_library_call():
    assert defaults_no_call_passes() == []


DEFAULTS_PACKAGE = {
    "fit": """
        class Model:
            def __init__(self, size, decay=0.0):
                self.size, self.decay = size, decay

            def run(self, steps=1):
                return steps

        def scale(x, factor=2.0):
            return factor * x

        def shift(x, *, by=1.0):
            return x + by

        def section(cls, optional=False):
            return cls, optional

        def report(rows, digits=3):
            return [round(r, digits) for r in rows]
    """,
    "runner": """
        from .fit import Model, report, scale, section, shift

        def main(rows):
            model = Model(3)
            model.run(5)
            section(Model)
            report(*rows, 2)
            return scale(shift(1.0, by=2.0), 3.0)
    """,
}


def _defaults_package(root, test):
    """Write ``DEFAULTS_PACKAGE`` as ``root/src/fitpkg`` beside a test
    module that holds ``test``, and return the package's directory."""
    package = root / "src" / "fitpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    for stem, text in DEFAULTS_PACKAGE.items():
        (package / f"{stem}.py").write_text(textwrap.dedent(text))
    (root / "tests").mkdir()
    (root / "tests" / "test_fit.py").write_text(textwrap.dedent(test))
    return package


def test_a_default_only_a_test_leaves_out_is_found(tmp_path):
    """In a generated package, the defaults that only its test leaves out
    are found: a method's, called without its ``self``, a positional one
    and a keyword-only one. Those a package call leaves out pass: a
    class's ``__init__``, called by the class's name; that of a module
    function whose first parameter is named ``cls``; and
    that of a function called with ``*rows`` before the argument that would
    otherwise fill it."""
    package = _defaults_package(tmp_path, """
        from fitpkg.fit import Model, scale, shift

        def test_defaults():
            assert scale(shift(1.0)) == 4.0 and Model(3).run() == 1
    """)
    assert defaults_no_call_leaves_out(package) == [
        "fit.Model.run: steps", "fit.scale: factor", "fit.shift: by",
    ]


def test_a_default_only_a_test_passes_is_found(tmp_path):
    """In the same generated package, the defaults that only its test
    passes are found: a class's ``__init__``'s, called by the class's name,
    and a module function's. Those a package call passes pass:
    positionally, by keyword, to a method called without its ``self``, and
    through ``*rows``, which may fill any parameter."""
    package = _defaults_package(tmp_path, """
        from fitpkg.fit import Model, section

        def test_knobs():
            assert Model(3, decay=0.1).decay == 0.1 and section(Model, optional=True)[1]
    """)
    assert defaults_no_call_passes(package) == [
        "fit.Model.__init__: decay", "fit.section: optional",
    ]
