"""Every function, class, method and property the package defines has a
caller in the package, its scripts or its benchmark.  This test fails when
a definition in src/sphertrans (apart from __init__.py and dunders) is
referenced nowhere in src/, scripts/ or perfbench/ outside its own body;
the tests and the __init__ exports do not count as callers.  A reference
is a Name, an Attribute, an import alias, or a string constant naming it
(the benchmark tracer wraps library functions by name)."""

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
    "norms.numerical_radius": "the paper's numerical radius omega(A) of one matrix",
    "optimize.grid_supremum": "the tests' grid oracle, until an enclosure replaces it",
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


def test_every_definition_has_a_caller():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
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
