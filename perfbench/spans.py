"""Span recording for the traced run, and the per-layer metrics derived from spans.

The traced run wraps the public functions at each module boundary of the
package from outside it: every wrapper is installed on the module attribute
its caller looks up at call time, and removed again after the job.  Untraced
runs install nothing.

A span is (id, parent id, job id, name, start, end, attributes, error).  Spans
are kept in memory and written out as JSON lines when the run ends.  A span's
self time is its duration minus the durations of the spans it called; calls
never overlap, since every job runs on one thread.
"""

from __future__ import annotations

import contextlib
import json
import time

from alphasectors import checks, cli, qseries, solver, winding


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.job, name, time.perf_counter(), 0.0, None, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, attrs=None, error=None) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter()
        span[6] = attrs
        span[7] = error
        self.stack.pop()

    def wrap(self, fn, name: str, attrs):
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, None, type(exc).__name__)
                raise
            self.close(sid, attrs(args, out) if attrs else None)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, attrs in _BOUNDARIES:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, attrs))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path: str) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "job", "name", "start", "end", "attrs", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _points(args, out):
    return {"points": int(getattr(args[1], "size", 1))}


def _roots(args, out):
    returned = sum(cl.multiplicity for cl in out)
    return {"degree": len(args[0]) - 1, "returned": returned,
            "multiple": sum(1 for cl in out if cl.multiplicity > 1)}


def _padding(args, out):
    # the binomial q-polynomial has degree N; cli pads it with exact zeros up
    # to N + 10, which find_roots strips like underflowed coefficients
    qspec = args[0]
    return {"padding": len(out) - (qspec.N + 1) if qspec.family == "sokal-poly" else 0}


def _report(args, out):
    return {"checks_run": out.checks_run, "violations": len(out.violations)}


def _census(args, out):
    return {"slices": len(out)}


# (module whose attribute the caller looks up, attribute, span name, attribute extractor)
_BOUNDARIES = [
    (cli, "main", "cli.main", None),
    (cli, "spec_from_dict", "cli.spec_from_dict", None),
    (cli, "_family_source", "cli.family_source", _padding),
    (cli, "truncate_series", "functions.truncate_series", None),
    (solver, "alpha_polynomial", "functions.alpha_polynomial", None),
    (solver, "evaluate_G", "functions.evaluate_G", None),
    (winding, "eval_many", "functions.eval_many", _points),
    (winding, "log_derivative_many", "functions.log_derivative_many", _points),
    (solver, "find_roots", "solver.find_roots", _roots),
    (solver, "alpha_points", "solver.alpha_points", None),
    (cli, "alpha_points", "solver.alpha_points", None),
    (cli, "sector_census", "winding.sector_census", _census),
    (winding, "count_in_contour", "winding.count_in_contour", None),
    (cli, "verify_generic_interlacing", "checks.verify", _report),
    (cli, "verify_real_power_case", "checks.verify", _report),
    (cli, "verify_first_location", "checks.verify", _report),
    (cli, "verify_k2_distribution", "checks.verify", _report),
    (checks, "verify_k2_distribution", "checks.verify", _report),
    (qseries, "disturbed_exp_coeffs", "qseries.coeffs", None),
    (qseries, "sokal_poly_coeffs", "qseries.coeffs", None),
    (qseries, "partial_theta_coeffs", "qseries.coeffs", None),
]

# name, unit, better: the per-layer metrics of a traced run, in print order
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("functions.truncate_series.calls", "count", "lower"),
    ("functions.truncate_series.self_s", "s", "lower"),
    ("functions.alpha_polynomial.s", "s", "lower"),
    ("functions.evaluate_G.calls", "count", "lower"),
    ("functions.evaluate_G.s", "s", "lower"),
    ("functions.eval_many.calls", "count", "lower"),
    ("functions.eval_many.points", "count", "lower"),
    ("functions.eval_many.s", "s", "lower"),
    ("functions.log_derivative_many.calls", "count", "lower"),
    ("functions.log_derivative_many.points", "count", "lower"),
    ("functions.log_derivative_many.s", "s", "lower"),
    ("solver.find_roots.calls", "count", "lower"),
    ("solver.find_roots.s", "s", "lower"),
    ("solver.find_roots.degree_sum", "count", "lower"),
    ("solver.find_roots.degree_lost", "count", "lower"),
    ("solver.find_roots.errors", "count", "lower"),
    ("solver.find_roots.multiple_clusters", "count", "lower"),
    ("solver.alpha_points.self_s", "s", "lower"),
    ("winding.sector_census.s", "s", "lower"),
    ("winding.count_in_contour.calls", "count", "lower"),
    ("winding.count_in_contour.s", "s", "lower"),
    ("winding.count_in_contour.inconclusive", "count", "lower"),
    ("winding.census_useful_ratio", "ratio", "higher"),
    ("winding.evals_per_slice", "count", "lower"),
    ("winding.self_s", "s", "lower"),
    ("checks.verify.calls", "count", "lower"),
    ("checks.verify.s", "s", "lower"),
    ("checks.verify.checks_run", "count", "higher"),
    ("checks.verify.violations", "count", "lower"),
    ("qseries.coeffs.s", "s", "lower"),
    ("trace.jobs", "count", "higher"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("edge.attempted", "count", "higher"),
    ("edge.failed", "count", "lower"),
]


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics over every traced job (the names of PER_LAYER but trace.overhead_frac and edge.*)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, parent, _, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    attr_sum: dict[tuple[str, str], int] = {}
    errors: dict[str, int] = {}
    for sid, _, _, name, t0, t1, attrs, error in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + (t1 - t0 - child[sid])
        for key, value in (attrs or {}).items():
            attr_sum[name, key] = attr_sum.get((name, key), 0) + value
        if error:
            errors[name] = errors.get(name, 0) + 1

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    slices = n("winding.count_in_contour")
    return {
        "cli.self_s": sum(own.get(name, 0.0) for name in ("cli.main", "cli.spec_from_dict", "cli.family_source")),
        "functions.truncate_series.calls": n("functions.truncate_series"),
        "functions.truncate_series.self_s": own.get("functions.truncate_series", 0.0),
        "functions.alpha_polynomial.s": s("functions.alpha_polynomial"),
        "functions.evaluate_G.calls": n("functions.evaluate_G"),
        "functions.evaluate_G.s": s("functions.evaluate_G"),
        "functions.eval_many.calls": n("functions.eval_many"),
        "functions.eval_many.points": a("functions.eval_many", "points"),
        "functions.eval_many.s": s("functions.eval_many"),
        "functions.log_derivative_many.calls": n("functions.log_derivative_many"),
        "functions.log_derivative_many.points": a("functions.log_derivative_many", "points"),
        "functions.log_derivative_many.s": s("functions.log_derivative_many"),
        "solver.find_roots.calls": n("solver.find_roots"),
        "solver.find_roots.s": s("solver.find_roots"),
        "solver.find_roots.degree_sum": a("solver.find_roots", "degree"),
        "solver.find_roots.degree_lost": a("solver.find_roots", "degree") - a("solver.find_roots", "returned")
        - a("cli.family_source", "padding"),
        "solver.find_roots.errors": errors.get("solver.find_roots", 0),
        "solver.find_roots.multiple_clusters": a("solver.find_roots", "multiple"),
        "solver.alpha_points.self_s": own.get("solver.alpha_points", 0.0),
        "winding.sector_census.s": s("winding.sector_census"),
        "winding.count_in_contour.calls": slices,
        "winding.count_in_contour.s": s("winding.count_in_contour"),
        "winding.count_in_contour.inconclusive": errors.get("winding.count_in_contour", 0),
        "winding.census_useful_ratio": a("winding.sector_census", "slices") / slices if slices else 0.0,
        "winding.evals_per_slice": a("functions.log_derivative_many", "points") / slices if slices else 0.0,
        "winding.self_s": own.get("winding.sector_census", 0.0) + own.get("winding.count_in_contour", 0.0),
        "checks.verify.calls": n("checks.verify"),
        "checks.verify.s": s("checks.verify"),
        "checks.verify.checks_run": a("checks.verify", "checks_run"),
        "checks.verify.violations": a("checks.verify", "violations"),
        "qseries.coeffs.s": s("qseries.coeffs"),
        "trace.jobs": n("job"),
        "trace.job_s": s("job"),
    }
