"""Every function, class, method and property the package defines has a
caller in the package, its scripts or its benchmark.  This test fails when
a definition in src/sphertrans (apart from __init__.py and dunders) is
referenced nowhere in src/, scripts/ or perfbench/ outside its own body;
the tests and the __init__ exports do not count as callers.  A reference
is a Name, an Attribute, an import alias, or a string constant naming it
(the benchmark tracer wraps library functions by name).

A reference is a bare name, so `.d` on any object counts for every
member named d.  A method or property that shares its name with another
definition in the package, another class's member, an annotated class
field or a module function, could lose its last caller unseen; such a
name fails the test unless ALLOWED_SHARED gives the reason it stays.

No module of src/sphertrans (apart from the __init__.py re-exports),
scripts/ or tests/ imports a name that it never reads as a Name."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sphertrans"

ALLOWED = {
    "tuples.defect_operator": "the paper's defect operator P, documented in README",
    "tuples.block_embedding": "the paper's block matrices of T, V and P, documented in README",
    "predicates.is_normal_single": "single-matrix normality, documented in README",
    "predicates.is_quasinormal_single": "single-matrix quasinormality, documented in README",
    "predicates.is_hyponormal_single": "single-matrix hyponormality, documented in README",
    "predicates.is_normal_tuple": "tuple normality, public API and the reference that "
                                  "test_predicates checks classify(t).normal against",
    "norms.numerical_radius": "the paper's numerical radius omega(A) of one matrix",
    "optimize.grid_supremum": "the tests' grid oracle, until an enclosure replaces it",
}

ALLOWED_SHARED = {
    "suites.SuiteConfig.opt_tol": "a suite's optimizer tolerance, which each report "
                                  "records as its SuiteReport.opt_tol field",
    "suites._Store.artifact": "the sampled object that a row's Row.artifact field names, "
                              "as a tuple",
    "suites._Store.psd_powers": "the trial's linalg.psd_powers of the PSD family and of "
                                "its sum, cached",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _references(root, skip=frozenset()) -> Counter:
    """How often each name is referenced under an AST node, leaving out
    the subtrees of the nodes in skip."""
    refs = Counter()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            refs[node.value.rsplit(".", 1)[-1]] += 1
        stack.extend(ast.iter_child_nodes(node))
    return refs


def _definitions(module: str, tree):
    """(module.qualified name, node) of the top-level functions and classes
    of a module and of their methods and properties, without dunders."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if (isinstance(item, (ast.FunctionDef, ast.ClassDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))):
                name = item.name if item is node else f"{node.name}.{item.name}"
                yield f"{module}.{name}", item


def orphans(modules: dict, callers: list, allowed=()) -> list[str]:
    """The qualified names of the definitions in modules (name -> source)
    that nothing references outside their own bodies.  A reference from
    the body of an orphan does not count, so a function called only by an
    orphan is one too; the bodies of the allowed names count."""
    trees = [ast.parse(source) for source in [*modules.values(), *callers]]
    defs = [d for module, tree in zip(modules, trees) for d in _definitions(module, tree)]
    dead = {}
    while True:
        skip = frozenset(dead.values())
        refs = sum((_references(tree, skip) for tree in trees), Counter())
        found = {name: node for name, node in defs if name not in allowed
                 and refs[node.name] <= _references(node, skip)[node.name]}
        if found.keys() == dead.keys():
            return list(found)
        dead = found


def _named(module: str, tree):
    """(module.qualified name, name, whether it is a method or property) of
    the top-level functions of a module and of its classes' members and
    annotated fields, without dunders."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, False
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(item, ast.FunctionDef):
                name, member = item.name, True
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name, member = item.target.id, False
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{module}.{node.name}.{name}", name, member


def shared_names(modules: dict, allowed=()) -> list[str]:
    """The qualified names of the methods and properties in modules (name
    -> source) that share their name with another definition in them."""
    named = {qualified: (name, member) for module, source in modules.items()
             for qualified, name, member in _named(module, ast.parse(source))}
    count = Counter(name for name, _ in named.values())
    return [qualified for qualified, (name, member) in named.items()
            if member and count[name] > 1 and qualified not in allowed]


def _package_modules() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_every_definition_has_a_caller():
    modules = _package_modules()
    callers = [path.read_text() for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    found = orphans(modules, callers, ALLOWED)
    assert not found, f"no caller: {', '.join(found)}"


_SNIPPET = """
def used():
    return 1

def helper():
    return 2

def unused():
    return unused() + helper()

class Box:
    @property
    def size(self):
        return 0

    def __len__(self):
        return 0
"""


def test_the_guard_sees_each_orphan():
    # helper's one caller is an orphan, so helper is one too
    assert orphans({"m": _SNIPPET}, ["used()"]) == ["m.helper", "m.unused", "m.Box",
                                                    "m.Box.size"]


def test_the_guard_counts_callers_outside_the_package():
    callers = ["from m import Box, used\nbox = Box()\nbox.size + used()\n",
               "wrap(m, 'unused')\n"]
    assert orphans({"m": _SNIPPET}, callers) == []


def test_an_allowed_body_counts():
    assert orphans({"m": _SNIPPET}, ["used()"], {"m.unused"}) == ["m.Box", "m.Box.size"]


def test_a_docstring_is_not_a_reference():
    callers = ["used()", '"""unused is not called here."""\n']
    assert orphans({"m": _SNIPPET}, callers) == ["m.helper", "m.unused", "m.Box",
                                                 "m.Box.size"]


def test_every_shared_member_name_has_a_reason():
    found = shared_names(_package_modules(), ALLOWED_SHARED)
    assert not found, f"shares its name with another definition: {', '.join(found)}"
    assert not set(ALLOWED_SHARED) - set(shared_names(_package_modules())), \
        "an ALLOWED_SHARED entry no longer shares its name"


_SHARED = """
from dataclasses import dataclass

def size():
    return 0

@dataclass
class Point:
    dim: int

class Box:
    @property
    def size(self):
        return 0

    def dim(self):
        return 1

    def area(self):
        return 2

class Sheet:
    def area(self):
        return 3

    def __len__(self):
        return 0
"""


def test_the_guard_sees_each_shared_name():
    # a module function, a dataclass field and another class's member
    assert shared_names({"m": _SHARED}) == ["m.Box.size", "m.Box.dim", "m.Box.area",
                                            "m.Sheet.area"]
    assert shared_names({"m": _SHARED}, {"m.Box.dim", "m.Box.area"}) == ["m.Box.size",
                                                                         "m.Sheet.area"]


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind, anywhere in it, that no Name
    node of the module reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(bound) if name not in read]


def test_every_import_is_used():
    paths = [*(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
             *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    found = [f"{path.relative_to(ROOT)}: {name}" for path in paths
             for name in unused_imports(path.read_text())]
    assert not found, f"imported and never used: {', '.join(found)}"


_IMPORTS = """
from __future__ import annotations

import os.path
import numpy as np
import json as js
from pathlib import Path, PurePath as Pure
from .errors import *


def f(root: Path) -> float:
    import re
    return np.pi + len(os.sep)
"""


def test_the_guard_sees_each_unused_import():
    # a dotted import binds its first name, an alias its own, a star and
    # __future__ bind nothing a module reads; annotations are reads
    assert unused_imports(_IMPORTS) == ["js", "Pure", "re"]
