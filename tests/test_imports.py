"""Module boundaries inside the package: no module reads a sibling's private names."""

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
