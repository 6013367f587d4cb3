"""Span recorder for the traced run.

install() replaces each layer's public function, wherever an eisen
module or the package namespace binds it, with a wrapper that records a
span (id, parent id, name, start ns, end ns, child ns) in memory, so
calls the program makes internally (factor_int inside circle_points)
are recorded with their parent.  Nothing in eisen is edited; a target
missing from the program is skipped and its metric reads 0.

EisensteinInt.arg runs once per point and per sort key, so it is
counted (total ns and calls) instead of spanned; its time still counts
as child time of the enclosing span.  A generator is spanned once per
next() call, which is where its work happens.
"""

from __future__ import annotations

import importlib
import threading
import time

MODULES = ("core", "factor", "expsum", "angles", "analytic", "discrepancy", "cli")

# (module, attribute, span name, how)
TARGETS = (
    ("cli", "run", "cli.run", "call"),
    ("factor", "iter_lattice_blocks", "factor.iter_lattice_blocks", "gen"),
    ("factor", "lattice_norms_angles", "factor.lattice_norms_angles", "lattice"),
    ("factor", "split_prime_angles", "factor.split_prime_angles", "call"),
    ("factor", "primes_up_to", "factor.primes_up_to", "call"),
    ("factor", "is_prime", "factor.is_prime", "call"),
    ("factor", "factor_int", "factor.factor_int", "call"),
    ("factor", "split_prime_generator", "factor.split_prime_generator", "call"),
    ("factor", "circle_points", "factor.circle_points", "call"),
    ("core", "EisensteinInt.arg", "core.arg", "hot"),
    ("expsum", "circle_sums", "expsum.circle_sums", "call"),
    ("expsum", "exp_sum", "expsum.exp_sum", "call"),
    ("angles", "prime_ideals_up_to", "angles.ideal_stats", "call"),
    ("angles", "sector_count", "angles.ideal_stats", "call"),
    ("angles", "chi_prime_sum", "angles.ideal_stats", "call"),
    ("angles", "theta_equidistribution_stat", "angles.ideal_stats", "call"),
    ("angles", "bad_circle", "angles.bad_circle", "call"),
    ("discrepancy", "discrepancy_survey", "discrepancy.survey", "survey"),
    ("discrepancy", "representable_sieve", "discrepancy.representable_sieve", "call"),
    ("discrepancy", "discrepancy_exact", "discrepancy.discrepancy_exact", "call"),
    ("discrepancy", "erdos_turan_bound", "discrepancy.erdos_turan_bound", "call"),
    ("analytic", "theta", "analytic.theta", "call"),
    ("analytic", "xi_integral", "analytic.xi_integral", "call"),
    ("analytic", "li", "analytic.li", "call"),
    ("analytic", "l_dirichlet_with_error", "analytic.l_dirichlet", "call"),
    ("analytic", "l_dirichlet", "analytic.l_dirichlet", "call"),
)


class Recorder:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, child_ns)
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._next_id = 0
        self._lattice_max = 0

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def enter(self, name: str) -> list:
        self._next_id += 1
        st = self._stack()
        frame = [self._next_id, st[-1][0] if st else 0, name, 0, 0]
        st.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter_ns()
        st = self._stack()
        st.pop()
        if st:
            st[-1][4] += end - frame[3]
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end, frame[4]))

    def span(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span measured by the caller, such as the import of eisen."""
        self._next_id += 1
        self.spans.append((self._next_id, 0, name, start_ns, end_ns, 0))

    def wrap(self, fn, name: str, how: str):
        rec = self

        if how == "gen":
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = rec.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.leave(frame)
                    yield item
        elif how == "hot":
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter_ns() - t0
                    st = rec._stack()
                    if st:
                        st[-1][4] += dt
                    rec.counts[name + "_ns"] = rec.counts.get(name + "_ns", 0) + dt
                    rec.counts[name + "_calls"] = rec.counts.get(name + "_calls", 0) + 1
        elif how == "lattice":
            # cold: a larger x than any earlier call in this process asked for
            def wrapper(x, *args, **kwargs):
                cold = x > rec._lattice_max
                rec._lattice_max = max(rec._lattice_max, x)
                frame = rec.enter(name + (".cold" if cold else ".warm"))
                try:
                    norms, angles = fn(x, *args, **kwargs)
                finally:
                    rec.leave(frame)
                if cold:
                    rec.count("factor.lattice_points", int(norms.size))
                    rec.count("factor.lattice_bytes", int(norms.nbytes + angles.nbytes))
                return norms, angles
        elif how == "survey":
            def wrapper(*args, **kwargs):
                frame = rec.enter(name)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    rec.leave(frame)
                rec.count("discrepancy.survey_circles", int(report.b_q))
                return report
        else:
            def wrapper(*args, **kwargs):
                frame = rec.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.leave(frame)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every module of the already imported eisen."""
        pkg = importlib.import_module("eisen")
        mods = [pkg] + [importlib.import_module(f"eisen.{m}") for m in MODULES]
        for mod_name, attr, name, how in TARGETS:
            owner = importlib.import_module(f"eisen.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and hasattr(cls, meth):
                    setattr(cls, meth, self.wrap(getattr(cls, meth), name, how))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(orig, name, how)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one process or pass

# metric -> span name whose inclusive time it sums
INCLUSIVE = {
    "cli.run_s": "cli.run",
    "factor.iter_lattice_blocks_s": "factor.iter_lattice_blocks",
    "factor.lattice_norms_angles_cold_s": "factor.lattice_norms_angles.cold",
    "factor.lattice_norms_angles_warm_s": "factor.lattice_norms_angles.warm",
    "factor.split_prime_angles_s": "factor.split_prime_angles",
    "factor.primes_up_to_s": "factor.primes_up_to",
    "factor.is_prime_s": "factor.is_prime",
    "factor.factor_int_s": "factor.factor_int",
    "factor.split_prime_generator_s": "factor.split_prime_generator",
    "factor.circle_points_s": "factor.circle_points",
    "expsum.circle_sums_s": "expsum.circle_sums",
    "expsum.exp_sum_s": "expsum.exp_sum",
    "angles.ideal_stats_s": "angles.ideal_stats",
    "angles.bad_circle_s": "angles.bad_circle",
    "discrepancy.representable_sieve_s": "discrepancy.representable_sieve",
    "discrepancy.discrepancy_exact_s": "discrepancy.discrepancy_exact",
    "discrepancy.erdos_turan_bound_s": "discrepancy.erdos_turan_bound",
    "analytic.theta_s": "analytic.theta",
    "analytic.xi_integral_s": "analytic.xi_integral",
    "analytic.li_s": "analytic.li",
    "analytic.l_dirichlet_s": "analytic.l_dirichlet",
}
COUNTS = ("factor.lattice_points", "factor.lattice_bytes", "discrepancy.survey_circles")


def summarize(dumps: list[dict]) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics and per-span-name (inclusive, self, calls) over
    the dumps of the processes of one pass.

    Inclusive time counts a span only when no ancestor has the same name,
    so a function that reaches itself through another layer is not
    counted twice.  Self time is duration minus child time.
    """
    incl: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    imports: list[int] = []
    for d in dumps:
        by_id = {s[0]: s for s in d["spans"]}
        for sid, parent, name, t0, t1, child in d["spans"]:
            if name == "import.eisen":
                imports.append(t1 - t0)
                continue
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (t1 - t0 - child)
            p = by_id.get(parent)
            while p is not None and p[2] != name:
                p = by_id.get(p[1])
            if p is None:
                incl[name] = incl.get(name, 0) + (t1 - t0)
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
    arg_ns = counts.get("core.arg_ns", 0)
    metrics = {m: incl.get(n, 0) / 1e9 for m, n in INCLUSIVE.items()}
    metrics["core.arg_s"] = arg_ns / 1e9
    metrics["discrepancy.survey_sweep_s"] = self_ns.get("discrepancy.survey", 0) / 1e9
    for c in COUNTS:
        metrics[c] = counts.get(c, 0)
    metrics["import.eisen_s"] = sorted(imports)[len(imports) // 2] / 1e9 if imports else 0.0
    names = {n: {"inclusive_s": incl.get(n, 0) / 1e9, "self_s": self_ns[n] / 1e9,
                 "calls": calls[n]} for n in calls}
    if arg_ns:
        names["core.arg"] = {"inclusive_s": arg_ns / 1e9, "self_s": arg_ns / 1e9,
                             "calls": counts.get("core.arg_calls", 0)}
    return metrics, names
