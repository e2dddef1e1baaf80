"""Module boundaries inside the package: no module reads a sibling's private names,
imports a name it does not use, or loads numpy for a command that never needs it."""

import ast
import json
import os
import subprocess
import sys
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


def test_numpy_loads_only_with_the_lcs_kernel(tmp_path):
    # Only kernels uses numpy, and only lcs_convex imports kernels. A fresh
    # interpreter shows what each command loads; this one already holds numpy.
    inp = tmp_path / "b.json"
    inp.write_text(json.dumps(convexdiff.RealSet.from_values([1, 2, 3, 5]).to_json()))
    script = (
        "import sys\n"
        "from convexdiff.cli import main\n"
        "assert main(['verify', 'claim22', '--n', '1000']) == 0\n"
        "before = 'numpy' in sys.modules\n"
        f"assert main(['oracle', 'lcs', '--in', {str(inp)!r}]) == 0\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines()[-1] == "False True"
