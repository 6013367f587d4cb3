"""CLI behaviour: record formats, exit codes, flag placement, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from datetime import timedelta

import numpy as np
import pytest
from bruteforce import equi_stat_by_sort
from hypothesis import given, settings, strategies as st

import eisen
from eisen import cli
from eisen.cli import run
from eisen.core import EisensteinInt


def _lines(capsys):
    out = capsys.readouterr().out
    return [ln for ln in out.splitlines() if ln]


def test_rq_json(capsys):
    assert run(["rq", "441"]) == 0
    (line,) = _lines(capsys)
    rec = json.loads(line)
    assert rec == {"command": "rq", "params": {"n": 441}, "result": 18}


def test_points_json_and_count(capsys):
    assert run(["points", "12"]) == 0
    recs = [json.loads(ln) for ln in _lines(capsys)]
    assert len(recs) == 6
    pts = {(r["result"]["a"], r["result"]["b"]) for r in recs}
    assert pts == {(-2, -2), (2, -4), (4, -2), (2, 2), (-2, 4), (-4, 2)}
    angles = [r["result"]["angle"] for r in recs]
    assert angles == sorted(angles)


def test_points_csv(capsys):
    assert run(["--format", "csv", "points", "12"]) == 0
    lines = _lines(capsys)
    assert lines[0].rstrip("\r") == "a,b,angle"
    assert len(lines) == 7


def test_format_flag_after_subcommand(capsys):
    assert run(["points", "12", "--format", "csv"]) == 0
    lines = _lines(capsys)
    assert lines[0].rstrip("\r") == "a,b,angle"


def test_expsum_near_zero(capsys):
    assert run(["expsum", "10", "1"]) == 0
    rec = json.loads(_lines(capsys)[0])
    assert abs(rec["result"]["re"]) < 1e-9
    assert abs(rec["result"]["im"]) < 1e-9


def test_factor_record(capsys):
    assert run(["factor", "441"]) == 0
    rec = json.loads(_lines(capsys)[0])
    r = rec["result"]
    assert r["n"] == 441
    assert r["alpha3"] == 4
    assert r["split"] == [{"p": 7, "pi": [2, 1], "exp_pi": 2, "exp_conj": 2}]
    assert r["inert"] == []


def test_json_round_trip(capsys):
    samples = [
        ["rq", "91"],
        ["points", "7"],
        ["discrepancy", "49"],
        ["theta", "2.0", "1"],
        ["lfunc", "2.0", "0.0", "0"],
        ["sector", "1000", "-0.2", "0.3"],
        ["survey", "500", "0.5"],
        ["bad-circle", "0.26", "48"],
        ["li", "100"],
    ]
    for argv in samples:
        assert run(argv) == 0, argv
        for line in _lines(capsys):
            assert json.dumps(json.loads(line), separators=(", ", ": ")) == line


def test_theta_record_carries_error_estimate(capsys):
    assert run(["theta", "1.0", "1", "--tol", "1e-10"]) == 0
    rec = json.loads(_lines(capsys)[0])
    assert 0 < rec["error_estimate"] <= 1e-10  # the bound theta reached, not the tol asked for
    assert rec["params"] == {"t": 1.0, "a": 1}


def test_lfunc_error_estimate_meets_tol(capsys):
    assert run(["lfunc", "2.0", "0.0", "0", "--tol", "1e-8"]) == 0
    rec = json.loads(_lines(capsys)[0])
    assert rec["error_estimate"] <= 1e-8
    assert abs(rec["result"]["re"] - 1.2851909554841494) < 1e-8


def test_xi_check_record(capsys):
    assert run(["xi-check", "0.3", "0.7", "1"]) == 0
    rec = json.loads(_lines(capsys)[0])
    assert rec["result"]["residual"] < 1e-6


def test_xi_check_evaluates_xi_twice(capsys, monkeypatch):
    calls = []
    xi_integral = eisen.analytic.xi_integral

    def counted(*args):
        calls.append(args)
        return xi_integral(*args)

    monkeypatch.setattr(eisen.analytic, "xi_integral", counted)
    assert run(["xi-check", "3.2", "5", "1"]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == (
        '{"command": "xi-check", "params": {"re": 3.2, "im": 5.0, "a": 1}, '
        '"result": {"residual": 0.0, "xi_re": -0.352049897626107, "xi_im": 0.138854537019001}}\n'
    )


def test_equi_stat_builds_the_ideal_angles_once(capsys, monkeypatch):
    # one split-prime table, and the statistic and count of the sort reference
    calls = []
    split_prime_angles = eisen.factor.split_prime_angles

    def counted(x):
        calls.append(x)
        return split_prime_angles(x)

    monkeypatch.setattr(eisen.factor, "split_prime_angles", counted)
    eisen.angles._kept_index.cache_clear()
    assert run(["equi-stat", "100000"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        '{"command": "equi-stat", "params": {"x": 100000}, '
        '"result": {"statistic": 0.00314112645166553, "ideals": 9603}}\n'
    )
    stat, count = equi_stat_by_sort(100000)
    assert (float(f"{stat:.15g}"), count) == (0.00314112645166553, 9603)


def test_avg_expsum_checkpoint_rows(capsys):
    assert run(["avg-expsum", "10000", "6", "--checkpoints", "1000,10000"]) == 0
    recs = [json.loads(ln) for ln in _lines(capsys)]
    assert [r["result"]["x"] for r in recs] == [1000, 10000]
    assert recs[0]["result"]["mean"] > recs[1]["result"]["mean"]
    assert recs[0]["result"]["fitted_exponent"] < -0.25


def test_discrepancy_with_random_arcs_seeded(capsys):
    assert run(["discrepancy", "91", "--random-arcs", "500", "--seed", "11"]) == 0
    first = json.loads(_lines(capsys)[0])
    assert run(["--seed", "11", "discrepancy", "91", "--random-arcs", "500"]) == 0
    second = json.loads(_lines(capsys)[0])
    assert first == second
    assert first["result"]["random_lower_bound"] <= first["result"]["delta"] + 1e-12


def test_threads_do_not_change_output(capsys):
    argv = ["avg-expsum", "20000", "6"]
    assert run(argv + ["--threads", "1"]) == 0
    one = _lines(capsys)
    assert run(argv + ["--threads", "4"]) == 0
    four = _lines(capsys)
    assert one == four

    assert run(["survey", "30000", "0.65", "--threads", "1"]) == 0
    s_one = _lines(capsys)
    assert run(["survey", "30000", "0.65", "--threads", "4"]) == 0
    s_four = _lines(capsys)
    assert s_one == s_four


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("EISEN_THREADS", "2")
    assert run(["survey", "5000", "0.5"]) == 0
    env_out = _lines(capsys)
    monkeypatch.delenv("EISEN_THREADS")
    assert run(["survey", "5000", "0.5"]) == 0
    assert env_out == _lines(capsys)
    monkeypatch.setenv("EISEN_THREADS", "0")
    assert run(["survey", "5000", "0.5"]) == 2


def test_rejected_arguments_exit_2(capsys):
    assert run(["rq", "-5"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["survey", "1000", "0.7"]) == 2
    capsys.readouterr()
    assert run(["li", "1"]) == 2
    capsys.readouterr()
    assert run(["expsum", "10", "0"]) == 2
    capsys.readouterr()
    assert run(["theta", "-1.0", "0"]) == 2
    capsys.readouterr()
    # every term of theta(1e-6, 1) = t^{-7} theta(1e6, 1) is below the smallest double
    assert run(["theta", "1e-06", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    # Li(2) = 0 leaves the observed/expected ratio undefined
    assert run(["sector", "2", "-0.1", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    # a theta beyond the double range is not finite
    assert run(["theta", "0.3", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    # no split prime below 1e8 has an angle as small as 1e-9, or as 8.66e-5
    for eps in ("1e-9", "8.66e-5"):
        assert run(["bad-circle", eps, "12"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    # past |Im s| = 2^53 / log(2e6) the phases t log n keep no correct bit: rejected before numpy warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["lfunc", "2", "1e308", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("command, plain, spelled, code", [
    ("sector 1000 {} 0.1", "-0.00001", "-1e-05", 0),
    ("sector 1000 -0.2 {}", "-0.1", "-1E-1", 0),
    ("lfunc 2 {} 0", "-0.00001", "-1e-05", 0),
    ("lfunc 3 {} 1", "-25.0", "-2.5e+01", 0),
    ("lfunc 3 {} 1", "-5", "-.5e1", 0),
    ("bad-circle {} 12", "-0.0001", "-1e-4", 2),  # rejected by the command, not by argparse
])
def test_negative_positional_in_exponent_form(capsys, command, plain, spelled, code):
    # argparse's own negative-number pattern has no exponent: -1e-05 was read as an option
    assert run(command.format(plain).split()) == code
    want = capsys.readouterr()
    assert run(command.format(spelled).split()) == code
    assert capsys.readouterr() == want
    assert want.err.startswith("error:") if code else want.out.startswith('{"command"')


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("argv", [["theta", "1.5", "1"], ["theta-check", "1.5", "1"],
                                  ["lfunc", "2", "0", "1"], ["xi-check", "3", "7", "1"]])
def test_tol_not_finite_and_positive_exits_2(capsys, argv, tol):
    assert run(argv + [f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_random_arcs_below_1_exit_2(capsys):
    for arcs in ("0", "-1"):
        assert run(["discrepancy", "91", "--random-arcs", arcs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == "", arcs


def test_random_arcs_past_the_cap_exit_2(capsys):
    # 2 * 10^6 arcs would allocate 32 MB of arc ends; the cap rejects them first
    tracemalloc.start()
    try:
        code = run(["discrepancy", "7", "--random-arcs", "2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == "error: arcs <= 1000000, got 2000000\n"
    assert peak < 2**20


def test_threads_below_1_exit_2_on_every_command(capsys, monkeypatch):
    # validated once in run(), not by the few handlers that pass threads on
    assert run(["rq", "441", "--threads", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    monkeypatch.setenv("EISEN_THREADS", "0")
    assert run(["rq", "441"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert run(["rq", "441", "--threads", "2"]) == 0  # the flag wins over the variable


def test_json_writer_refuses_non_finite_values(capsys, monkeypatch):
    # a NaN or an infinity would print a record that is not JSON
    monkeypatch.setattr(eisen.analytic, "li", lambda x: float("nan"))
    assert run(["li", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_census_bounds_exit_2(capsys):
    for x in ("0", "10000001"):
        assert run(["bq", x]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == "", x


def test_bad_usage_exits_2(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["rq"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()


def test_internal_error_exits_1(capsys, monkeypatch):
    def broken(args, out):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli, "_cmd_rq", broken)
    assert run(["rq", "441"]) == 1
    captured = capsys.readouterr()
    assert "internal error: RuntimeError" in captured.err and captured.out == ""


def test_xi_check_writes_nothing_to_stderr():
    # a fresh process, so any warning the numerics emit reaches stderr
    src = os.path.dirname(os.path.dirname(eisen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "eisen.cli", "xi-check", "0.5", "40", "8"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["command"] == "xi-check"


def test_survey_csv(capsys):
    assert run(["--format", "csv", "survey", "20000", "0.65"]) == 0
    lines = [ln.rstrip("\r") for ln in _lines(capsys)]
    assert lines[0] == "b_q,m_gamma,fraction"
    b, m, frac = lines[1].split(",")
    assert (int(b), int(m)) == (4397, 11)
    assert float(frac) == pytest.approx(11 / 4397)


_SPLIT = [p for p in range(7, 200) if p % 3 == 1 and all(p % d for d in range(2, p))]


@st.composite
def _circle_n(draw):
    """n <= 1e15, or a product of small split primes, an inert square and a
    power of 3 with r_Q up to 6 * 486 = 2916."""
    if draw(st.booleans()):
        return draw(st.integers(min_value=-3, max_value=10**15))
    ps = draw(st.lists(st.sampled_from(_SPLIT), min_size=0, max_size=6, unique=True))
    exps = [draw(st.integers(min_value=1, max_value=3)) for _ in ps]
    while math.prod(e + 1 for e in exps) > 486:
        exps[exps.index(max(exps))] -= 1
    n = math.prod(p**e for p, e in zip(ps, exps))
    return n * draw(st.sampled_from((1, 4, 25, 121, 2))) * 3 ** draw(st.integers(min_value=0, max_value=3))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _full_circle_delta(angles):
    """The full-circle sweep: sup - inf of G over the N angles mod 2 pi,
    G(0) = 0 joining both."""
    u = np.sort(np.mod(angles, 2.0 * math.pi))
    i = np.arange(1, u.size + 1)
    turns = u / (2.0 * math.pi)
    return max(0.0, float(np.max(i / u.size - turns))) - min(0.0, float(np.min((i - 1) / u.size - turns)))


@given(st.sampled_from(("rq", "points", "factor", "expsum", "discrepancy")), _circle_n(),
       st.integers(min_value=-40, max_value=40))
@settings(max_examples=80, deadline=timedelta(seconds=3))
def test_circle_commands_exit_0_with_records_or_2_with_a_reason(command, n, A):
    argv = [command, str(n)] + ([str(A)] if command == "expsum" else [])
    code, out, err = _run_captured(argv)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error:") and out == ""
        return
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs or command == "points"  # an empty circle has no points
    assert all(r["command"] == command and r["params"]["n"] == n for r in recs)
    if command == "discrepancy":
        code, out, _ = _run_captured(["points", str(n)])
        pts = [json.loads(line)["result"] for line in out.splitlines()]
        angles = [EisensteinInt(p["a"], p["b"]).arg() for p in pts]
        assert recs[0]["result"]["count"] == len(pts)
        assert abs(recs[0]["result"]["delta"] - _full_circle_delta(angles)) <= 1e-12


def _num(v: float, spelling: str) -> str:
    """v as an argument: its repr, positional (no exponent) or exponent notation."""
    if spelling == "positional":
        return np.format_float_positional(v, trim="-")
    return f"{v:e}" if spelling == "exponent" else repr(v)


def _ints(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(str)


def _floats(lo, hi):
    values = st.floats(min_value=lo, max_value=hi) | st.sampled_from((math.nan, math.inf))
    return st.tuples(values, st.sampled_from(("repr", "positional", "exponent"))).map(lambda vs: _num(*vs))


def _opt(flag, values):
    """No flag, or flag=value (the = lets a value start with a dash)."""
    return st.just([]) | values.map(lambda v: [f"{flag}={v}"])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [w for p in ps for w in ([p] if isinstance(p, str) else p)])


# one cheap, bounded argv strategy per subcommand, valid and rejected values alike
_FUZZ = {
    "points": _argv(_circle_n().map(str)),
    "rq": _argv(_ints(-3, 10**15)),
    "factor": _argv(_ints(-3, 10**15)),
    "expsum": _argv(_circle_n().map(str), _ints(-40, 40)),
    "avg-expsum": _argv(_ints(-2, 30000), _ints(-12, 12), _opt("--checkpoints", st.lists(
        st.integers(min_value=-2, max_value=30000), min_size=1, max_size=3).map(lambda c: ",".join(map(str, c))))),
    "sector": _argv(_ints(-2, 10**5), _floats(-0.6, 0.6), _floats(-0.6, 0.6)),
    "chi-sum": _argv(_ints(-2, 10**5), _ints(-10, 10)),
    "equi-stat": _argv(_ints(-2, 10**5)),
    "bad-circle": _argv(_floats(-0.1, 0.6), _ints(-2, 200)),
    "discrepancy": _argv(_circle_n().map(str), _opt("--random-arcs", _ints(-2, 300)), _opt("--seed", _ints(-2, 99))),
    "survey": _argv(_ints(-2, 20000), _floats(0.0, 1.0)),
    "bq": _argv(_ints(-2, 10**5)),
    "theta": _argv(_floats(-0.5, 10.0), _ints(-1, 9)),
    "theta-check": _argv(_floats(0.1, 6.0), _ints(-1, 4)),
    "lfunc": _argv(_floats(0.5, 8.0), _floats(-60.0, 60.0) | _floats(-1e300, 1e300), _ints(-9, 9)),
    "xi-check": _argv(_floats(-40.0, 40.0), _floats(-55.0, 55.0), _ints(-1, 9)),
    "li": _argv(_floats(-1.0, 1e300)),
}

_TOL = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -1.0)) | st.floats(min_value=1e-300, max_value=1.0)


def test_fuzz_covers_every_command():
    assert set(_FUZZ) == set(cli._COMMANDS)


@given(st.sampled_from(sorted(_FUZZ)).flatmap(lambda c: _argv(st.just(c), _FUZZ[c], _opt("--tol", _TOL.map(repr)))))
@settings(max_examples=200, deadline=timedelta(seconds=3))
def test_every_command_exits_0_with_records_or_2_with_a_reason(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error:") and out == ""
        return
    assert all(json.loads(line)["command"] == argv[0] for line in out.splitlines())
