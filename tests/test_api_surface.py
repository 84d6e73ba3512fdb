"""Every function, class and method in ``src/negir`` has a caller in ``src/negir``.

A definition that only tests reach is API kept alive for the tests
alone. A reference is any ``ast.Name`` or ``ast.Attribute`` carrying the
definition's name outside the definition itself, so the check is by
name, not by type: two methods sharing a name share their references.
Dunder methods are exempt, because Python calls them implicitly.
"""

import ast
from collections import Counter
from pathlib import Path

import negir

PACKAGE = Path(negir.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node):
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
    return names


def test_every_definition_is_referenced_in_the_package():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    references = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if references[name] - _referenced_names(node)[name] <= 0:
                unreferenced.append(f"{filename}:{node.lineno} {name}")
    assert not unreferenced, "defined but never referenced in src/negir: " + ", ".join(unreferenced)
