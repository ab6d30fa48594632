"""What ``import irrtop.cli`` loads is what the commands run. The brute-force
and enumeration oracles and the acceptance criteria that ``selftest`` runs
live in ``irrtop.oracles``; no other module imports it, except the
``selftest`` handler in its body, so a fresh import of the CLI leaves it
unloaded. Every name a module imports is used in it."""

import ast
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import irrtop
from irrtop.oracles import CRITERIA

PACKAGE = Path(irrtop.__file__).parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imports_oracles(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "irrtop.oracles" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if (node.level, module) in ((1, "oracles"), (0, "irrtop.oracles")):
            return True
        return (node.level, module) in ((1, ""), (0, "irrtop")) and any(a.name == "oracles" for a in node.names)
    return False


def test_only_the_selftest_handler_imports_the_oracles():
    found = []
    for path, tree in _modules():
        if path.name == "oracles.py":
            continue
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if _imports_oracles(node):
                owner = [f.name for f in functions if node in ast.walk(f)]
                found.append((path.name, owner[0] if owner else None))
    assert found == [("cli.py", "_cmd_selftest")]


def test_a_fresh_cli_import_leaves_the_oracles_unloaded():
    probe = "import sys, irrtop.cli; print(sorted(m for m in sys.modules if m.startswith('irrtop')))"
    out = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, check=True).stdout
    loaded = ast.literal_eval(out)
    assert "irrtop.cli" in loaded and "irrtop.oracles" not in loaded


@pytest.mark.parametrize("seed", ["0", "7"])
def test_selftest_runs_the_criteria_in_order_within_5_s(seed):
    argv = [sys.executable, "-m", "irrtop", "selftest", "--seed", seed, "--format", "structured"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=ENV, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0 and proc.stdout.endswith(f"  passed: {len(CRITERIA)}\n  failed: 0\n")
    assert re.findall(r"^    name: (.*)$", proc.stdout, re.M) == [c.name for c in CRITERIA]
    assert elapsed <= 5, elapsed


def _imported_names(tree) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_imported_name_is_used():
    unused = []
    for path, tree in _modules():
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []
