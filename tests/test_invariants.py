"""Invariant checks are explicit raises, so they survive python -O; the
package runs on numpy and the standard library alone; its one module-level
cache is the bounded table cache in factor."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import eisen

SRC = Path(eisen.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _module_dicts(source: str) -> list[str]:
    """Names bound at module level to an empty {} or a dict() call."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            v = node.value
            if (isinstance(v, ast.Dict) and not v.keys) or (
                isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "dict"
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [ast.unparse(t) for t in targets]
    return found


def test_one_module_level_cache():
    # any other cache goes through factor._prefix_cached or functools.lru_cache
    found = [f"{path.name}:{name}" for path in sorted(SRC.glob("*.py")) for name in _module_dicts(path.read_text())]
    assert found == ["factor.py:_tables"]
    assert _module_dicts("_split_record_cache: dict[int, object] = {}\nx = dict()") == ["_split_record_cache", "x"]


def test_import_loads_no_scipy():
    code = "import sys, eisen, eisen.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
