"""Invariant checks are explicit raises, so they survive python -O; the
package runs on numpy and the standard library alone, and loads numpy only
for the lattice statistics; its one module-level cache is the bounded table
cache in factor."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _loaded(code: str) -> set[str]:
    """Top-level packages loaded in a fresh interpreter after running code."""
    code += "\nimport sys; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_scipy():
    # scipy is never loaded, and numpy only by the lattice statistics
    everything = _loaded("from eisen import *")
    assert "numpy" in everything and "scipy" not in everything
    assert {"numpy", "scipy"}.isdisjoint(_loaded("import eisen, eisen.cli"))
    for argv in (["rq", "441"], ["points", "4921"], ["factor", "997002999"], ["expsum", "4921", "6"], ["li", "1e6"]):
        assert {"numpy", "scipy"}.isdisjoint(_loaded(f"from eisen import cli; cli.run({argv!r})")), argv


def test_sector_rejects_li_2_before_loading_numpy():
    # Li(2) = 0 leaves the ratio undefined, and an x below 2 or an empty phi
    # range is rejected too; all of it is known before the prime table is built
    for argv in (["sector", "2", "-0.1", "0.1"], ["sector", "1000", "0.3", "0.1"], ["sector", "1", "-0.1", "0.1"]):
        code = f"from eisen import cli\nif cli.run({argv!r}) != 2: raise SystemExit(1)"
        assert {"numpy", "scipy"}.isdisjoint(_loaded(code)), argv


def test_lazy_namespace_resolves_every_name_and_submodule():
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            assert getattr(eisen, path.stem) is importlib.import_module(f"eisen.{path.stem}")
    for name in eisen.__all__:
        owner = eisen._OWNER.get(name)
        value = getattr(eisen, name)
        if owner is not None:
            assert value is getattr(importlib.import_module(f"eisen.{owner}"), name), name
    star: dict = {}
    exec("from eisen import *", star)
    assert set(eisen.__all__) <= set(star) and set(eisen.__all__) <= set(dir(eisen))
    assert "__all__" in dir(eisen)
    with pytest.raises(AttributeError):
        eisen.no_such_name
