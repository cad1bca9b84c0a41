"""Hygiene of the package source: what it imports, and code nothing refers to.

scipy and networkx serve the tests as oracles only, so the package imports
numpy and the standard library alone.  Every ``def`` and ``class`` in the
package is referred to by name somewhere in ``src/``, ``tests/`` or
``linfbench/``, other than by its own definition: a helper nothing names is
dead code.

A method is referred to by an attribute read ``r.m`` of its name.  When
several types have an attribute of that name (two classes define it, or
``dict``, numpy's arrays and the like have one), the read counts for class C
only where the receiver is C itself, is ``self`` / ``cls`` in C's body, or is
a name that some assignment binds to a C (``r = C(...)``, ``r = C.make(...)``
or ``r = f(...)`` with ``f`` returning ``C(...)``).

The benchmark's span tracer (``linfbench/spans.py``) imports every module
named in its ``MODULES`` by name, so each must stay importable.

Each CLI command declares only the flags it reads: every flag of a
subparser is read as ``args.<dest>`` by the ``_run_*`` function that
``cli.main`` dispatches the command to, or by a function of ``cli.py`` that
it passes ``args`` on to.
"""

import argparse
import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from linfflow import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linfflow"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "linfbench")
BUILTIN_ATTRS = set().union(*(dir(t) for t in (
    object, dict, list, set, tuple, str, bytes, int, float, np.ndarray,
    np.random.Generator)))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def scanned_trees():
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            if "out" not in path.relative_to(top).parts:  # benchmark outputs
                yield parse(path)


def key(node):
    """The name a receiver or an assignment target goes by, if it has one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def mentioned(tree):
    """Every name read or imported, and every attribute read, in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def attribute_reads(tree):
    """``(attr, receiver key, enclosing class)`` of every attribute read."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, key(node.value), cls))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def package_definitions():
    """``(module, class or None, name)`` of every def and class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        methods = set()
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ClassDef):
                yield path.stem, None, node.name
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.add(item)
                        yield path.stem, node.name, item.name
            elif isinstance(node, ast.FunctionDef) and node not in methods:
                yield path.stem, None, node.name


def bindings(trees, classes):
    """Receiver key -> the classes an assignment somewhere binds it to."""
    returns = defaultdict(set)  # function name -> classes it returns an instance of
    for tree in trees:
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                            and key(node.value.func) in classes):
                        returns[func.name].add(key(node.value.func))
    bound = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = node.value.func
                made = set(returns[key(func)])
                if key(func) in classes:
                    made.add(key(func))
                if isinstance(func, ast.Attribute) and key(func.value) in classes:
                    made.add(key(func.value))  # r = C.from_x(...)
                for target in node.targets:
                    if key(target) is not None:
                        bound[key(target)] |= made
    return bound


def test_package_imports_numpy_and_the_standard_library_only():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            bad += [f"{path.name}:{node.lineno} imports {module}" for module in modules
                    if module.split(".")[0] not in allowed]
    assert bad == []


def test_every_module_the_tracer_wraps_imports():
    tree = parse(ROOT / "linfbench" / "spans.py")
    modules = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and key(node.targets[0]) == "MODULES")
    assert modules
    for name in modules:
        importlib.import_module(f"linfflow.{name}")


def test_every_definition_is_referenced():
    trees = list(scanned_trees())
    owners = defaultdict(set)  # method name -> the classes that define it
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owners[item.name].add(node.name)
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    bound = bindings(trees, classes)
    names = set().union(*(mentioned(tree) for tree in trees))
    reads = defaultdict(list)  # attribute -> (receiver, class) of its reads
    for tree in trees:
        for attr, *where in attribute_reads(tree):
            reads[attr].append(where)

    def counts_for(cls, receiver, enclosing):
        return (receiver == cls or cls in bound[receiver]
                or (receiver in ("self", "cls") and enclosing == cls))

    unreferenced = []
    for module, cls, name in package_definitions():
        if name.startswith("__") and name.endswith("__"):
            continue  # called by the language, not by name
        if cls is None:
            if name not in names:
                unreferenced.append(f"{module}.{name}")
        elif len(owners[name]) > 1 or name in BUILTIN_ATTRS:
            if not any(counts_for(cls, *where) for where in reads[name]):
                unreferenced.append(f"{module}.{cls}.{name}")
        elif not reads[name]:
            unreferenced.append(f"{module}.{cls}.{name}")
    assert unreferenced == []


def test_every_cli_flag_is_read_by_its_command():
    funcs = {node.name: node for node in parse(PACKAGE / "cli.py").body
             if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        """``args.<attr>`` reads in function name and the functions it passes args to."""
        out = set()
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                out.add(node.attr)
            elif (isinstance(node, ast.Call) and key(node.func) in funcs
                  and key(node.func) not in seen
                  and any(key(arg) == "args" for arg in node.args)):
                out |= reads(key(node.func), seen | {name})
        return out

    dispatch = {}  # command -> the function main returns the result of
    for node in ast.walk(funcs["main"]):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and key(node.test.left) == "command"):
            dispatch[node.test.comparators[0].value] = key(node.body[0].value.func)
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(dispatch) == set(subparsers.choices)
    unread = []
    for command, parser in sorted(subparsers.choices.items()):
        declared = {action.dest for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)}
        unread += [f"{command} --{dest.replace('_', '-')}"
                   for dest in sorted(declared - reads(dispatch[command], set()))]
    assert unread == []
