"""Module boundaries inside the package: no module reads a sibling's private names
or imports a name it does not use."""

import ast
from pathlib import Path

import convexdiff

SRC = Path(convexdiff.__file__).parent


def test_no_private_names_imported_from_siblings():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "convexdiff"
            ):
                found += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert found == []


def _bound_names(node):
    """The names an import statement binds, one per alias."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


def test_every_imported_name_is_used():
    # No linter is installed; this stands in for its unused-import rule. A
    # name listed in __all__ is a re-export and counts as used.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        found += [
            f"{path.name}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for name in _bound_names(node)
            if name not in used
        ]
    assert found == []
