"""Invariant checks are explicit raises, so they survive python -O; the
package runs on numpy and the standard library alone, and loads numpy only
for the lattice statistics; its one module-level cache is the bounded
split-prime table in factor; the eisen process runs on one thread unless
the caller sets OPENBLAS_NUM_THREADS, and no output depends on the BLAS
thread count."""

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
    paths = sorted(SRC.glob("*.py"))
    assert {"angles.py", "analytic.py", "cli.py", "factor.py"} <= {p.name for p in paths}  # the scan reads the package
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _module_caches(source: str) -> list[str]:
    """Names bound at module level to an empty {} or a dict() call, or
    rebound by a function through a global statement."""
    found = []
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            v = node.value
            if (isinstance(v, ast.Dict) and not v.keys) or (
                isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "dict"
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [ast.unparse(t) for t in targets]
    found += [name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names]
    return found


def test_one_module_level_cache():
    # any other cache goes through functools.lru_cache
    found = [f"{path.name}:{name}" for path in sorted(SRC.glob("*.py")) for name in _module_caches(path.read_text())]
    assert found == ["factor.py:_split_primes"]
    source = "_split_record_cache: dict[int, object] = {}\nx = dict()\ndef f():\n    global kept\n    kept = 1"
    assert _module_caches(source) == ["_split_record_cache", "x", "kept"]


def _fresh(code: str, **env: str) -> str:
    """stdout of code run in a fresh interpreter on this package, with
    OPENBLAS_NUM_THREADS unset unless given in env."""
    full = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    full.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=full | env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str) -> set[str]:
    """Top-level packages loaded in a fresh interpreter after running code."""
    code += "\nimport sys; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    return set(_fresh(code).splitlines()[-1].split())


def test_import_loads_no_scipy():
    # scipy is never loaded, and numpy only by the lattice statistics
    everything = _loaded("from eisen import *")
    assert "numpy" in everything and "scipy" not in everything
    assert {"numpy", "scipy"}.isdisjoint(_loaded("import eisen, eisen.cli"))
    for argv in (["rq", "441"], ["points", "4921"], ["factor", "997002999"], ["expsum", "4921", "6"], ["li", "1e6"],
                 ["bad-circle", "0.2", "12"], ["theta", "1.5", "1"], ["theta", "0.05", "4"],
                 ["theta-check", "0.5", "2"]):
        assert {"numpy", "scipy"}.isdisjoint(_loaded(f"from eisen import cli; cli.run({argv!r})")), argv


def test_analytic_loads_no_numpy_and_no_prime_sieve():
    # theta sums its sector table in pure Python; only xi and the lattice route of L load numpy
    code = "from eisen import analytic\nimport sys; print('numpy' in sys.modules, 'eisen.factor' in sys.modules)"
    assert _fresh(code).split() == ["False", "False"]


def test_value_types_load_no_dataclasses():
    # the records are named tuples and EisensteinInt a slotted class, so
    # the modules that load no numpy load no dataclasses (nor its inspect)
    assert {"dataclasses", "inspect", "numpy"}.isdisjoint(_loaded("from eisen import analytic, angles, cli, core"))


def test_records_are_immutable_named_tuples():
    from eisen import angles, discrepancy, expsum, factor
    records = [factor.circle_points(7), factor.prime_record(7), factor.factor_eisenstein(21),
               expsum.exp_sum(7, 6), expsum.avg_exp_sum(2000, 6, [1000, 2000]),
               angles.SectorQuery(100, -0.1, 0.1), angles.chi_prime_sum(100, 1), angles.bad_circle(0.3, 12),
               discrepancy.discrepancy_exact(7), discrepancy.discrepancy_survey(1000, 0.5)]
    assert len({type(rec) for rec in records}) == 10
    for rec in records:
        name = type(rec).__name__
        assert isinstance(rec, tuple) and name in eisen.__all__, name
        fields = ", ".join(f"{f}={getattr(rec, f)!r}" for f in rec._fields)
        assert repr(rec) == f"{name}({fields})"
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], 0)
    assert repr(records[5]) == "SectorQuery(x=100, phi1=-0.1, phi2=0.1)"
    # a query is checked however it is made
    with pytest.raises(ValueError, match="phi1 < phi2"):
        records[5]._replace(phi1=0.2)
    with pytest.raises(ValueError, match="x >= 2"):
        angles.SectorQuery(x=1, phi1=-0.1, phi2=0.1)


def test_sector_rejects_li_2_before_loading_numpy():
    # Li(2) = 0 leaves the ratio undefined, and an x below 2 or an empty phi
    # range is rejected too; all of it is known before the prime table is built.
    # So is a theta whose every term underflows, from its n = 1 term
    for argv in (["sector", "2", "-0.1", "0.1"], ["sector", "1000", "0.3", "0.1"], ["sector", "1", "-0.1", "0.1"],
                 ["theta", "1e-06", "1"]):
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


def _threads_after(code: str, **env: str) -> int:
    """OS threads of a fresh interpreter after running code."""
    return int(_fresh(code + "\nimport os; print(len(os.listdir('/proc/self/task')))", **env).split()[-1])


@pytest.fixture(scope="module")
def blas_pool():
    """Skips unless a bare import numpy starts a BLAS thread pool here."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    if _threads_after("import numpy") == 1:
        pytest.skip("import numpy starts no extra thread on this machine")


def _main(argv: list[str]) -> str:
    return f"import sys\nfrom eisen import cli\nsys.argv = ['eisen', *{argv!r}]\nif cli.main(): raise SystemExit(1)"


def test_eisen_process_runs_on_one_thread(blas_pool):
    # main() keeps numpy's OpenBLAS from starting its pool; a caller's value wins
    code = _main(["bq", "1000"]) + "\nif 'numpy' not in sys.modules: raise SystemExit(1)"
    assert _threads_after(code) == 1
    assert _threads_after(code, OPENBLAS_NUM_THREADS="2") == 2


def test_cli_stdout_does_not_depend_on_blas_threads(blas_pool):
    for argv in (["avg-expsum", "20000", "6"], ["xi-check", "0.5", "40", "8"], ["lfunc", "2", "0", "1"],
                 ["equi-stat", "20000"]):
        assert _fresh(_main(argv)) == _fresh(_main(argv), OPENBLAS_NUM_THREADS="2"), argv


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: BLAS has no second thread to split a sum over")
def test_library_xi_and_l_do_not_depend_on_blas_threads():
    code = ("from eisen import analytic\nv = analytic.xi_integral(0.5 + 40j, 8)\n"
            "L, e = analytic.l_dirichlet_with_error(1.1 + 5j, 8)\n"
            "print(*(x.hex() for x in (v.real, v.imag, L.real, L.imag, e)))")
    assert _fresh(code, OPENBLAS_NUM_THREADS="1") == _fresh(code, OPENBLAS_NUM_THREADS="2")
