"""Hygiene of the package source: what it imports, and code nothing refers to.

scipy and networkx serve the tests as oracles only, so the package imports
numpy and the standard library alone.  Every ``def`` and ``class`` in the
package is referred to by name somewhere in ``src/``, ``tests/`` or
``linfbench/``, other than by its own definition: a helper nothing names is
dead code.  A module-level function or class must moreover be named from the
package itself (``__init__.py`` aside) or from ``linfbench/``: one that only
tests name is a test oracle, and it belongs under ``tests/``.

A method is referred to by an attribute read ``r.m`` of its name.  When
several types have an attribute of that name (two classes define it, or
``dict``, numpy's arrays and the like have one), the read counts for class C
only where the receiver is C itself, is ``self`` / ``cls`` in C's body, or is
a name that some assignment binds to a C (``r = C(...)``, ``r = C.make(...)``
or ``r = f(...)`` with ``f`` returning ``C(...)``).

The benchmark's span tracer (``linfbench/spans.py``) imports every module
named in its ``MODULES`` by name, so each must stay importable.

Every attribute the package stores on ``self`` is read as ``.name``
somewhere in ``src/`` or ``linfbench/``: state that only tests read is
state the program never uses.

Every parameter with a default, of a package function or method, is set by
some call in ``src/`` (outside the function itself) or in ``linfbench/``,
apart from a commented list of test seams and library entry points.

Each CLI command declares only the flags it reads: every flag of a
subparser is read as ``args.<dest>`` by the ``_run_*`` function that
``cli.main`` dispatches the command to, or by a function of ``cli.py`` that
it passes ``args`` on to.
"""

import argparse
import ast
import fnmatch
import importlib
import inspect
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


# span names the tracer reads that name no definition at this head: the
# per-step kernels were fused into ``lcd_steps`` / ``phase_iterates``, and
# SimplexMaintainer moved under tests/; the benchmark drops or mends them
DEAD_SPAN_NAMES = ("cdsolver.lcd_step", "mirrorprox.phase_iterate",
                   "sampling.DynamicTree.get", "simplexmaint.SimplexMaintainer.*")
SPAN_READERS = {"count", "outer_ms", "self_ms", "mean_self_us", "total_ms",
                "outside_children_ms"}


def traced_names():
    """Every span name ``spans.layer_metrics`` reads, with ``probe_sites``,
    ``COUNTED`` and ``UNWRAPPED``."""
    tree = parse(ROOT / "linfbench" / "spans.py")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and key(node.targets[0]) in (
                "COUNTED", "UNWRAPPED", "probe_sites"):
            names |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and node.name == "layer_metrics":
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and key(call.func) in SPAN_READERS:
                    names |= {arg.value for arg in call.args
                              if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return names


def resolves(name):
    """True when ``module.f``, ``module.C.m`` or ``name@site`` names a
    function or method that the tracer would wrap under that name."""
    name, _, site = name.partition("@")
    module, *path = name.split(".")
    obj = importlib.import_module(f"linfflow.{module}")
    for attr in path:
        obj = vars(obj).get(attr)
        if obj is None:
            return False
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if not inspect.isfunction(obj) or (
            len(path) == 1 and obj.__module__ != f"linfflow.{module}"):
        return False
    return not site or getattr(importlib.import_module(f"linfflow.{site}"),
                               path[-1], None) is obj


def test_every_traced_name_resolves():
    names = traced_names()
    assert "cdsolver.SubproblemSolver.solve" in names
    unresolved = {n for n in names if not resolves(n)}
    assert {n for n in unresolved
            if not any(fnmatch.fnmatchcase(n, p) for p in DEAD_SPAN_NAMES)} == set()


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


def test_every_stored_attribute_is_read():
    trees = [parse(path) for top in (ROOT / "src", ROOT / "linfbench")
             for path in sorted(top.rglob("*.py"))
             if "out" not in path.relative_to(top).parts]
    read = {attr for tree in trees for attr, _, _ in attribute_reads(tree)}
    stored = set()  # (module, class, attribute) of every self.<attribute> store

    def visit(node, module, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and key(node.value) == "self"):
            stored.add((module, cls, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, module, cls)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(parse(path), path.stem, None)
    assert stored
    assert sorted(f"{module}.{cls}.{attr}" for module, cls, attr in stored
                  if attr not in read) == []


# module-level definitions that only tests name, kept in the package on purpose
TEST_ONLY_NAMES = (
    "reduce_to_unit_box", "write_matrix_file",  # library entry points
    "sample_pj", "ReferenceSimplex",  # span names the benchmark still reads
)


def test_no_definition_serves_only_the_tests():
    trees = [parse(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    trees += [parse(path) for path in sorted((ROOT / "linfbench").rglob("*.py"))
              if "out" not in path.relative_to(ROOT / "linfbench").parts]
    names = set().union(*(mentioned(tree) for tree in trees))
    test_only = [f"{module}.{name}" for module, cls, name in package_definitions()
                 if cls is None and name not in names and name not in TEST_ONLY_NAMES]
    assert test_only == []


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


# defaulted parameters that no package or benchmark call sets, kept on purpose
UNSET_DEFAULTS = (
    # test seams that reach real stop reasons and refills
    "solve_box_linf.max_outer", "solve_flow_regress.max_outer",
    "plain_cd.x0", "plain_cd.uniforms", "BufferedUniforms.__init__.block",
    # library entry points
    "reduce_to_unit_box.x0", "write_matrix_file.b",
)


def sets_parameter(call, index, name):
    """True when ``call`` passes the parameter at positional ``index`` (None
    for keyword-only) or named ``name``, or splats arguments it may hold."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_set_by_some_caller():
    """Each option doubles the configurations to test: a parameter with a
    default that no call in ``src/`` (outside its own function) or in
    ``linfbench/`` sets is an option no caller takes.  A call is matched to
    a definition by name, and sets a parameter by keyword, by position or
    through a splat.  Every exception must still be one."""
    trees = {path: parse(path) for top in (ROOT / "src", ROOT / "linfbench")
             for path in sorted(top.rglob("*.py"))
             if "out" not in path.relative_to(top).parts}
    calls = defaultdict(list)  # callee key -> (call, the defs enclosing it)

    def visit(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing + (node,)
        elif isinstance(node, ast.Call) and key(node.func) is not None:
            calls[key(node.func)].append((node, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees.values():
        visit(tree, ())
    unset, excused = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        owner = {}  # method def -> its class name
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update((item, node.name) for item in node.body
                             if isinstance(item, ast.FunctionDef))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or (
                    func not in owner and func not in tree.body):
                continue  # a closure: its callers are in its own function
            cls = owner.get(func)
            static = any(key(d) == "staticmethod" for d in func.decorator_list)
            skip = 1 if cls is not None and not static else 0  # self / cls
            callee = cls if func.name == "__init__" else func.name
            positional = func.args.posonlyargs + func.args.args
            defaulted = [(positional.index(a) - skip, a.arg) for a in
                         positional[len(positional) - len(func.args.defaults):]]
            defaulted += [(None, a.arg) for a, d in
                          zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None]
            for index, name in defaulted:
                label = ".".join(filter(None, (cls, func.name, name)))
                if any(sets_parameter(call, index, name)
                       for call, enclosing in calls[callee] if func not in enclosing):
                    continue
                if label in UNSET_DEFAULTS:
                    excused.add(label)
                else:
                    unset.append(f"{path.stem}.{label}")
    assert unset == []
    assert excused == set(UNSET_DEFAULTS)
