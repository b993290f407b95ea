"""Seeded inputs, job runners and per-job correctness checks for the three workloads.

Each workload is a pool of jobs built from the seed at set-up.  A job is one
user-level operation: a ``verify`` or ``census`` command run in-process
through ``alphasectors.cli.main``, or the q-series certification pipeline of
the ``theta``/``dexp`` demos (family spec -> truncate_series -> solve to the
trust radius -> rotate by exp(i pi/4) -> k=2 verify).  The program receives
only the generated specs and arguments; reference answers are computed here.

Library functions are looked up as module attributes at call time, so the
traced run can wrap them from outside the package (see spans.py).

Pool order is fixed per workload, not shuffled by the seed: each slot fixes
the shape of its input and the seed picks the values.  The pool is laid out in
rounds that each hold the workload's whole mix of sizes, and a timed run ends
on a round boundary, so the completed mix, and with it the medians, stays the
same across seeds and run lengths.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from alphasectors import checks, cli, functions, solver
from alphasectors.sectors import classify_sector, real_direction_index, unit_rotation

WORKLOADS = ("verify-highdeg", "census-sectors", "qseries-certify")

_MU = cmath.exp(1j * math.pi / 4)


@dataclass
class Job:
    kind: str  # "verify", "census", "solve" or "qseries"
    label: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    points: int
    reason: str = ""


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------


def _coprime_p(rng: np.random.Generator, k: int, choices) -> int:
    return int(rng.choice([p for p in choices if math.gcd(abs(p), k) == 1]))


def _positive(rng: np.random.Generator, n: int, spread: float) -> tuple[float, ...]:
    return tuple(float(x) for x in np.exp(rng.uniform(-spread, spread, n)))


def generic_alpha(rng: np.random.Generator, spec) -> complex:
    """alpha whose normalized direction is off every one of the 2k rays.

    The margin stays below pi/(2k), the largest distance any direction can
    have from the nearest ray, so the draw terminates for every k.
    """
    k = spec.k
    margin = min(0.05, math.pi / (4 * k))
    while True:
        theta = rng.uniform(-math.pi, math.pi)
        if abs(math.remainder(theta, math.pi / k)) < margin:
            continue
        alpha_norm = float(np.exp(rng.uniform(-1.0, 1.0))) * cmath.exp(1j * theta)
        if real_direction_index(alpha_norm, spec.p, k) is None:
            return alpha_norm * functions.normalization_constant(spec)


def real_direction_alpha(rng: np.random.Generator, spec) -> complex:
    """alpha with Im(alpha_norm * e_{ps}) = 0, the reflection-pairing case."""
    s = int(rng.integers(0, spec.k))
    t = float(np.exp(rng.uniform(-1.0, 1.0)))
    return t * unit_rotation(-spec.p * s, spec.k) * functions.normalization_constant(spec)


def _alpha_arg(alpha: complex) -> str:
    return f"--alpha={alpha.real!r}{alpha.imag:+.17g}i"


def _cauchy_radius(poly: np.ndarray) -> float:
    """Every root of the polynomial lies within this radius."""
    return 1.0 + float(np.max(np.abs(poly[:-1] / poly[-1])))


def _write_spec(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


# ---------------------------------------------------------------------------
# verify-highdeg
# ---------------------------------------------------------------------------

# One round: (target alpha-polynomial degree, generic alpha).  Every round
# holds the same degrees and theorems, so any number of whole rounds has the
# same mix.  The median job falls among the four degree-96 jobs of each
# round, so it is a median over many like jobs (about 24 in a 30 s run), not
# the boundary between two sizes; the degree-192 job carries about half of
# the solver time.  Two of the six alphas are real-direction (theorem main2).
VERIFY_ROUND = ((64, True), (96, True), (96, False), (96, True), (96, True), (192, False))
VERIFY_ROUNDS = 8
VERIFY_P = (-1, 1)  # |p| >= 2 puts |p| nearly equal moduli next to the origin: see VERIFY_EDGE
_DEGREE_TOL = 0.02  # relative; job cost grows as the square of the degree


def _verify_shape(slot: int, target: int) -> tuple[int, int, int, int, int, int]:
    """(k, p, na, nb, nc, nd) of a slot, alpha-polynomial degree within _DEGREE_TOL of target.

    Drawn from the slot number alone, not from the seed: at one degree the
    solve costs up to 1.5 times more at k = 23 than at k = 21, so a shape
    drawn per seed would make the runs of different seeds measure different
    work.  Across the pool's slots k spans 8-24.
    """
    rng = np.random.default_rng([WORKLOADS.index("verify-highdeg"), slot])
    while True:
        k = int(rng.integers(8, 25))
        na = int(rng.integers(4, 11))
        nb = int(rng.integers(3, 9))
        nc = nd = 0
        if rng.random() < 0.3:
            nc, nd = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        p = _coprime_p(rng, k, VERIFY_P)
        hi = max(max(p, 0) + k * (na + nc + nd), max(-p, 0) + k * (nb + nc + nd))
        lo = min(max(p, 0) + k * nd, max(-p, 0) + k * nc)
        if abs((hi - lo) - target) <= _DEGREE_TOL * target:
            return k, p, na, nb, nc, nd


def _verify_spec(rng: np.random.Generator, shape):
    """Random rational spec of the given shape; the seed picks every value."""
    k, p, na, nb, nc, nd = shape
    return functions.StructuredFunction(
        p=p,
        k=k,
        a=_positive(rng, na, 1.5),
        b=_positive(rng, nb, 1.5),
        c=_positive(rng, nc, 1.0),
        d=_positive(rng, nd, 1.0),
    )


def _moduli_resolved(poly: np.ndarray, pairs: bool) -> bool:
    """Whether consecutive root moduli differ by twice the verifier's gap tolerance.

    Screened with LAPACK eigenvalues (np.roots), independent of the solver
    under test.  Theorem main2 expects equal-modulus pairs, so there only
    groups of three or more count as unresolved.  Inputs that fail the screen
    are the edge class of VERIFY_EDGE.
    """
    mods = np.sort(np.abs(np.roots(poly[::-1])))
    close = np.diff(mods) <= 2 * checks.DEFAULT_GAP_TOL * mods[1:]
    if pairs:
        close = close[1:] & close[:-1]
    return not close.any()


def _verify_job(workdir: str, name: str, spec, alpha: complex, label: str) -> Job:
    poly = functions.alpha_polynomial(spec, alpha)
    degree = len(poly) - 1
    path = _write_spec(workdir, f"{name}.json", cli.spec_to_dict(spec))
    csv = os.path.join(workdir, "verify.csv")
    argv = ["verify", "--spec", path, _alpha_arg(alpha), "--radius", repr(_cauchy_radius(poly)),
            "--theorem", "auto", "--csv", csv]
    return Job("verify", f"{label} k={spec.k} p={spec.p} deg={degree}", argv, {"csv": csv}, {"degree": degree})


def build_verify(rng: np.random.Generator, workdir: str) -> list[Job]:
    jobs = []
    for slot in range(VERIFY_ROUNDS * len(VERIFY_ROUND)):
        target, generic = VERIFY_ROUND[slot % len(VERIFY_ROUND)]
        shape = _verify_shape(slot, target)
        while True:
            spec = _verify_spec(rng, shape)
            alpha = generic_alpha(rng, spec) if generic else real_direction_alpha(rng, spec)
            if _moduli_resolved(functions.alpha_polynomial(spec, alpha), pairs=not generic):
                break
        jobs.append(_verify_job(workdir, f"verify{slot}", spec, alpha, "verify main" if generic else "verify main2"))
    return jobs


# Known failures, kept out of the timed pool and run as edge probes.  In
# both, consecutive alpha-points have moduli closer than the verifier's gap
# tolerance (1e-6 relative), so verify exits 1:
#   * |p| = 5, k = 22, real-direction alpha: the five smallest points form one
#     modulus group of multiplicity 5;
#   * k = 8, |alpha| = 3.7e-4: points crowd the zero circles and three
#     consecutive moduli agree to 6e-7.
VERIFY_EDGE = (
    (
        {"type": "rational", "p": 5, "k": 22,
         "a": [0.9480359690585709, 3.267900032071654, 0.7930656458165788, 1.3080090686794532,
               0.24014125470107528, 1.6826663720115913, 3.515795652778618, 2.6657247947971667,
               3.178981301816524, 1.617798285067962],
         "b": [0.46610553605777616, 2.2379292507745383, 0.42106175391319184, 2.7015468165669745,
               0.2693223654526237, 2.655049875935832, 0.36550394713425205, 0.6875924329784499]},
        complex(-0.28426272294451616, -0.4423214308063702),
    ),
    (
        {"type": "rational", "p": 1, "k": 8,
         "a": [0.3704369484017852, 0.36479902195517294, 4.061922641784048, 0.28958589539272356,
               0.4456410682575378, 1.0654560393691501, 0.8007110969265037, 0.4210898742340765],
         "b": [1.625668086433347, 2.276014077402651, 1.6976606048929344, 4.381899103756754]},
        complex(0.00034906168352944584, 0.00011374244554059882),
    ),
)


def build_verify_edge(workdir: str) -> list[Job]:
    return [
        _verify_job(workdir, f"verify_edge{i}", cli.spec_from_dict(data), alpha, "edge verify")
        for i, (data, alpha) in enumerate(VERIFY_EDGE)
    ]


# ---------------------------------------------------------------------------
# census-sectors
# ---------------------------------------------------------------------------

CENSUS_POOL = 480  # ten rounds: a 30 s run measures 8-9 of them, each spec once
CENSUS_ROUND = 48  # slots per round; every round holds the same mix of shapes
CENSUS_P = (-5, -2, -1, 1, 2, 5)
_NUDGE_SLOT = 28  # position in each round; a k = 2 slot
_CLEARANCE = 1.03  # relative distance kept between a contour circle and any singular modulus
_RAY_CLEARANCE = 2e-3  # least angle between a point and a sector ray, as a share of pi/k
_SINGULAR_GAP = 2e-3  # least relative gap between two zero/pole moduli of G: see CENSUS_EDGE


def _census_spec(rng: np.random.Generator, slot: int):
    """Spec for one pool slot.

    The last slot of each round has a large k, one zero and one pole, with k
    stepping through 13..40 from round to round.  The other slots fix k in
    2..5, the number of a/b factors and whether c/d factors are present (a
    quarter of them); the seed picks the split and every value.  The nudge
    slot has the simplest shape, k = 2 with one factor, whose retry cost
    varies least between seeds.  Large-k and nudge jobs together stay under
    5 % of the pool, so the p95 tail falls among the ordinary censuses.
    """
    if slot % CENSUS_ROUND == CENSUS_ROUND - 1:
        k = 13 + round(27 * (slot // CENSUS_ROUND) / (CENSUS_POOL // CENSUS_ROUND - 1))
        return functions.StructuredFunction(
            p=_coprime_p(rng, k, CENSUS_P), k=k, a=_positive(rng, 1, 1.5), b=_positive(rng, 1, 1.5)
        )
    k = 2 + slot % 4
    factors = 1 if slot % CENSUS_ROUND == _NUDGE_SLOT else 1 + (slot // 4) % 6
    na = int(rng.integers(max(0, factors - 4), min(factors, 4) + 1))
    c = d = ()
    if (slot // 4) % 4 == 0:
        c = _positive(rng, int(rng.integers(1, 3)), 1.0)
        d = _positive(rng, int(rng.integers(0, 3)), 1.0)
    return functions.StructuredFunction(
        p=_coprime_p(rng, k, CENSUS_P), k=k, a=_positive(rng, na, 1.5), b=_positive(rng, factors - na, 1.5), c=c, d=d
    )


def _singular_moduli(spec) -> list[float]:
    k = spec.k
    return [x ** (1.0 / k) for x in spec.a + spec.b] + [x ** (-1.0 / k) for x in spec.c + spec.d]


def _clear_radius(r: float, blocked: list[float], step: float) -> float:
    """Move r by factors of step until it is _CLEARANCE away from every blocked modulus."""
    while any(r / _CLEARANCE < rho < r * _CLEARANCE for rho in blocked):
        r *= step
    return r


def _census_reference(spec, alpha: complex):
    """Reference roots and annulus, radii off every modulus.

    The alpha-points are the roots of the alpha-polynomial, found here with
    LAPACK eigenvalues (np.roots), independent of both the solver and the
    winding count.  Returns None when a point lies almost on a sector ray:
    the radial edges would pass next to it, which makes one census cost up
    to hundreds of ordinary ones.  The nudge slots cover contours through a
    point.
    """
    roots = np.roots(functions.alpha_polynomial(spec, alpha)[::-1])
    sector = math.pi / spec.k
    if np.any(np.abs(np.remainder(np.angle(roots) + 0.5 * sector, sector) - 0.5 * sector) < _RAY_CLEARANCE * sector):
        return None
    mods = sorted(float(m) for m in np.abs(roots))
    blocked = mods + _singular_moduli(spec)
    r_in = _clear_radius(0.5 * mods[0], blocked, 1 / _CLEARANCE)
    r_out = _clear_radius(1.5 * mods[-1], blocked, _CLEARANCE)
    return roots, mods, blocked, r_in, r_out


def _reference_counts(roots: np.ndarray, k: int, r_in: float, r_out: float) -> list[int]:
    """Per-sector counts of roots with r_in < |z| < r_out; sector s spans [s, s+1) * pi/k."""
    counts = [0] * (2 * k)
    for z in roots:
        if r_in < abs(z) < r_out:
            counts[math.floor(np.angle(z) / (math.pi / k)) % (2 * k)] += 1
    return counts


def build_census(rng: np.random.Generator, workdir: str) -> list[Job]:
    jobs = []
    for slot in range(CENSUS_POOL):
        while True:
            spec = _census_spec(rng, slot)
            if np.any(np.diff(np.log(sorted(_singular_moduli(spec)))) < _SINGULAR_GAP):
                continue
            alpha = generic_alpha(rng, spec)
            reference = _census_reference(spec, alpha)
            if reference is None:
                continue
            roots, mods, blocked, r_in, r_out = reference
            nudge = slot % CENSUS_ROUND == _NUDGE_SLOT
            if not nudge:
                refs = [_reference_counts(roots, spec.k, r_in, r_out)]
                break
            # outer circle exactly through one isolated point, so a slice is
            # inconclusive and the census retries with nudged radii
            isolated = [
                m for m in mods
                if m > r_in * _CLEARANCE
                and sum(1 for rho in blocked if m / _CLEARANCE < rho < m * _CLEARANCE) == 1
            ]
            if isolated:
                r_out = isolated[-1]
                refs = [_reference_counts(roots, spec.k, r_in, r_out * f) for f in (1 - 1e-3, 1 + 1e-3)]
                break
        label = f"census k={spec.k} p={spec.p} deg={len(roots)}" + (" nudge" if nudge else "")
        jobs.append(_census_job(workdir, f"census{slot}", spec, alpha, r_in, r_out, refs, label))
    return jobs


def _census_job(workdir: str, name: str, spec, alpha: complex, r_in: float, r_out: float, refs, label: str) -> Job:
    path = _write_spec(workdir, f"{name}.json", cli.spec_to_dict(spec))
    argv = ["census", "--spec", path, _alpha_arg(alpha), "--rin", repr(r_in), "--rout", repr(r_out)]
    return Job("census", label, argv, {}, {"counts": refs})


# A known slow input, kept out of the timed pool by _SINGULAR_GAP and run as
# an edge probe.  The singularities of G lie on the sector rays, so the
# radial edges pass next to them; here two b factors 4.6e-4 apart put two
# pole moduli 9e-5 apart.  The census is right, but it integrates about
# 1.9 million points where an ordinary census of this size needs about 10^4.
# Factors 3e-3 apart cost nothing extra, 1e-3 apart some 40 times more.
CENSUS_EDGE = (
    {"type": "rational", "p": -2, "k": 5,
     "a": [2.8394625673170895, 3.8681466333533954], "b": [0.3616835377982176, 0.36151738769009023]},
    complex(81.68095347620363, -78.968319904649874),
    0.32430995871305845,
    1.4198959824153963,
)


def build_census_edge(workdir: str) -> list[Job]:
    data, alpha, r_in, r_out = CENSUS_EDGE
    spec = cli.spec_from_dict(data)
    roots = np.roots(functions.alpha_polynomial(spec, alpha)[::-1])
    refs = [_reference_counts(roots, spec.k, r_in, r_out)]
    return [_census_job(workdir, "census_edge", spec, alpha, r_in, r_out, refs, "edge census near-double pole")]


# ---------------------------------------------------------------------------
# qseries-certify
# ---------------------------------------------------------------------------

# (family, t for q = i t): partial theta below Q_STAR, the disturbed
# exponential up to |q| = 1, and the binomial q-polynomial at a parameter of
# the acceptance suite.  The grid is fixed; see build_qseries.  The first
# three entries, which the traced run measures, cover all families.  Of the
# 18 jobs, the eight cheapest (0.5-0.9 s) are the six at N = 40 and partial
# theta at q = 0.5i with N = 64 and 80; the median falls among the next four,
# which cost within 10 % of each other.  The binomial q-polynomial at q = 0.3i
# would add three cheap jobs and put the median in the 20 % gap between the
# two groups.
QSERIES_GRID = (
    ("disturbed-exp", 0.9),
    ("partial-theta", 0.5),
    ("sokal-poly", 0.6),
    ("disturbed-exp", 1.0),
    ("partial-theta", 0.7),
    ("disturbed-exp", 0.7),
)
QSERIES_N = (40, 64, 80)


def _qseries_job(family: str, t: float, n: int, prefix: str = "") -> Job:
    return Job("qseries", f"{prefix}qseries {family} q={t!r}i N={n}", [], {"family": family, "q": 1j * t, "N": n})


def build_qseries(rng: np.random.Generator, workdir: str) -> list[Job]:
    """The grid entries in order, each at its three truncation degrees in an order the seed picks.

    The parameters are the fixed grid, not drawn from the seed: nearby
    parameters fail the k=2 check at scattered points (see
    build_qseries_edge), and the timed workloads hold no failing job.
    """
    jobs = []
    for family, t in QSERIES_GRID:
        jobs += [_qseries_job(family, t, int(n)) for n in rng.permutation(QSERIES_N)]
    return jobs


def build_qseries_edge(workdir: str) -> list[Job]:
    """Known failures, run only as traced edge probes.

    * Real q = 0.9, 0.95 at N = 80: Aberth does not converge (SolverError).
    * Binomial q-polynomial at q = 0.7i, 0.75i (N = 80) and 0.29175...i
      (N = 40), disturbed exponential at q = 0.69521...i (N = 80): the k=2
      report fails; in the q = 0.29175...i case two returned zeros coincide.
    """
    jobs = []
    for q in (0.9, 0.95):
        data = {"type": "series", "family": "partial-theta", "q": q, "N": 80}
        path = _write_spec(workdir, f"edge_theta_{q}.json", data)
        argv = ["solve", "--spec", path, "--alpha=0", "--radius", "trust"]
        jobs.append(Job("solve", f"edge solve partial-theta q={q} N=80", argv))
    for family, t, n in (
        ("sokal-poly", 0.7, 80),
        ("sokal-poly", 0.75, 80),
        ("sokal-poly", 0.29175822380220895, 40),
        ("disturbed-exp", 0.6952190148257329, 80),
    ):
        jobs.append(_qseries_job(family, t, n, "edge "))
    return jobs


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


# Pool slots come in rounds that each hold the workload's whole mix of sizes;
# a timed run ends on a round boundary, so every run measures whole rounds.
# A qseries round is the whole pool.
ROUND_JOBS = {
    "verify-highdeg": len(VERIFY_ROUND),
    "census-sectors": CENSUS_ROUND,
    "qseries-certify": len(QSERIES_GRID) * len(QSERIES_N),
}

# Jobs from the front of the pool that a traced run measures: whole rounds.
TRACE_JOBS = {"verify-highdeg": len(VERIFY_ROUND), "census-sectors": CENSUS_ROUND, "qseries-certify": 9}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify-highdeg":
        return build_verify(rng, workdir)
    if workload == "census-sectors":
        return build_census(rng, workdir)
    return build_qseries(rng, workdir)


def build_edge(workload: str, workdir: str) -> list[Job]:
    if workload == "verify-highdeg":
        return build_verify_edge(workdir)
    if workload == "census-sectors":
        return build_census_edge(workdir)
    return build_qseries_edge(workdir)


def _qseries_pipeline(params: dict):
    q = params["q"]
    series = cli.spec_from_dict(
        {"type": "series", "family": params["family"], "q": {"re": q.real, "im": q.imag}, "N": params["N"]}
    )
    zeros = solver.alpha_points(series, 0.0, series.trust_radius, k=2)
    rotated = []
    for pt in zeros:
        z = _MU * pt.value
        sector, boundary = classify_sector(z, 2)
        rotated.append(functions.AlphaPoint(z, abs(z), sector, boundary, pt.multiplicity, pt.residual))
    report = checks.verify_k2_distribution(rotated, -_MU.conjugate(), j=-1, sign_of_p=-1)
    return series.trust_radius, zeros, report


def execute(job: Job):
    """Run one job; returns (result, error).  This is the timed part."""
    try:
        if job.kind == "qseries":
            return _qseries_pipeline(job.params), None
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(job.argv)
        return (rc, out.getvalue()), None
    except (Exception, SystemExit) as exc:
        # typed (SolverError, InconclusiveRegion, SystemExit) or not, a raised
        # error fails the job and is named in the output; it never stops the run
        return None, exc


def _error_name(exc: BaseException) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text}"[:200]


def check(job: Job, result, error) -> Outcome:
    """Per-job oracle; every failure carries a reason naming it."""
    if error is not None:
        return Outcome(False, 0, _error_name(error))
    if job.kind == "qseries":
        trust, zeros, report = result
        if not trust > 0:
            return Outcome(False, 0, "trust radius is 0")
        if not report.passed:
            return Outcome(False, 0, "k=2 report failed: " + "; ".join(str(v) for v in report.violations[:3]))
        return Outcome(True, sum(pt.multiplicity for pt in zeros))
    rc, text = result
    if rc != 0:
        return Outcome(False, 0, f"exit status {rc}: " + " | ".join(text.strip().splitlines()[:3]))
    if job.kind == "verify":
        with open(job.params["csv"]) as fh:
            rows = fh.read().splitlines()[1:]
        total = sum(int(row.split(",")[6]) for row in rows)
        if total != job.expect["degree"]:
            return Outcome(False, 0, f"multiplicity sum {total} != degree {job.expect['degree']}")
        return Outcome(True, total)
    if job.kind == "census":
        counts = [int(line.split(",")[1]) for line in text.splitlines() if line.startswith("Q")]
        if counts not in job.expect["counts"]:
            return Outcome(False, 0, f"census {counts} != reference {job.expect['counts'][0]}")
        return Outcome(True, sum(counts))
    return Outcome(True, sum(1 for line in text.splitlines() if ": z = " in line))
