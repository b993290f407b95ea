"""The verifiers agree, report for report, with a frozen copy of their earlier form.

reference_checks.py is a verbatim copy of checks.py as it stood while every
verifier still took gap_tol/angle_tol parameters and wrote out its own
modulus, direction and reflection tests.  On seeded specs, with generic,
real-direction and k = 2 axis alphas, and on the solver's lists as well as
broken ones (a point turned, moved or nudged, a multiplicity bumped, a
point duplicated, the first and last points swapped), every report, forecast and
raised message of the current module must be repr-equal to the copy's.  The
copy read a list out of modulus order without saying so, where every
verifier now reports each descent as a modulus-order violation; so the
broken lists are compared after sorting by (modulus, argument), as the solver
sorts, and the out-of-order lists are checked on their own below.  Last, each
predicate that no solved or broken list raises fires on a hand-built list,
with the copy's report.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from alphasectors import alpha_points, checks
from alphasectors.functions import AlphaPoint, StructuredFunction
from alphasectors.sectors import DEFAULT_ANGLE_TOL, SectorIndex, classify_sector
from alphasectors.solver import SolverError

from helpers import load_frozen, random_alpha_generic, random_alpha_real_direction, random_structured

REFERENCE = load_frozen("reference_checks.py")


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _results(module, spec, alpha, lists) -> list:
    """The forecast, then each list's modulus groups and every verifier's result (or raised message)."""
    forecast = _run(module.predict_first_location, spec, alpha)
    out = [forecast]
    an = module.normalized_alpha(spec, alpha)
    for pts in lists:
        out.append(module.group_by_modulus(pts))
        out.append(_run(module.verify_generic_interlacing, pts, alpha, spec))
        out.append(_run(module.verify_real_power_case, pts, alpha, spec))
        if not isinstance(forecast, str):
            out.append(module.verify_first_location(pts, forecast, spec.k))
        if spec.k == 2:
            for first_point_checks in (True, False):
                report = _run(
                    module.verify_k2_distribution, pts, an, j=(spec.p - 1) // 2,
                    sign_of_p=1 if spec.p > 0 else -1, first_point_checks=first_point_checks, notes=("n",),
                )
                out.append(report)
    return out


def _outcomes(module, spec, alpha, lists) -> list[str]:
    """repr of every result _results lists."""
    return [repr(result) for result in _results(module, spec, alpha, lists)]


def _moved(pt: AlphaPoint, z: complex, k: int) -> AlphaPoint:
    return AlphaPoint(z, abs(z), *classify_sector(z, k), pt.multiplicity, pt.residual)


def _broken_lists(pts: list[AlphaPoint], k: int, rng: np.random.Generator) -> list[list[AlphaPoint]]:
    """The solver's list and six damaged copies of it."""
    i = int(rng.integers(len(pts)))
    turn = cmath.exp(1j * math.pi * int(rng.integers(1, 2 * k)) / k)  # onto another ray or sector
    stretch = float(np.exp(rng.uniform(-0.7, 0.7))) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    # between one and two tolerances off: probes every tolerance boundary
    nudge = (1 + 1.5 * checks.DEFAULT_GAP_TOL) * cmath.exp(1.5j * DEFAULT_ANGLE_TOL)
    lists = [pts]
    for factor in (turn, stretch, nudge):
        lists.append(pts[:i] + [_moved(pts[i], pts[i].value * factor, k)] + pts[i + 1:])
    lists.append(pts[:i] + [replace(pts[i], multiplicity=pts[i].multiplicity + 1)] + pts[i + 1:])
    lists.append(pts[: i + 1] + [pts[i]] + pts[i + 1:])
    lists.append(pts[-1:] + pts[1:-1] + pts[:1] if len(pts) > 1 else pts)
    return lists


def _sorted(pts: list[AlphaPoint]) -> list[AlphaPoint]:
    return sorted(pts, key=lambda pt: (pt.modulus, pt.argument))


def test_verifiers_match_the_reference_copy():
    rng = np.random.default_rng(1010)
    done = 0
    while done < 40:
        spec = random_structured(rng, with_cd=rng.random() < 0.25)
        alphas = [random_alpha_generic(rng, spec), random_alpha_real_direction(rng, spec)]
        if spec.k == 2:
            t = float(np.exp(rng.uniform(-1.0, 1.0)))
            alphas += [t, -t, 1j * t, -1j * t]
        for alpha in alphas:
            try:
                pts = alpha_points(spec, alpha, 20.0)
            except SolverError:
                continue
            if not pts:
                continue
            lists = [_sorted(pts) for pts in _broken_lists(pts, spec.k, rng)]
            assert _outcomes(checks, spec, alpha, lists) == _outcomes(REFERENCE, spec, alpha, lists), (spec, alpha)
        done += 1


def test_every_verifier_names_each_modulus_descent():
    # the stretched point and the first-and-last swap: every verifier's
    # report opens with a modulus-order violation at each descending step
    rng = np.random.default_rng(1011)
    seen = 0
    for _ in range(30):
        spec = random_structured(rng, with_cd=rng.random() < 0.25)
        for alpha in (random_alpha_generic(rng, spec), random_alpha_real_direction(rng, spec)):
            try:
                pts = alpha_points(spec, alpha, 20.0)
            except SolverError:
                continue
            lists = _broken_lists(pts, spec.k, rng)
            for broken in (lists[2], lists[-1]):
                mods = [pt.modulus for pt in broken]
                steps = [(i, i + 1) for i in range(len(mods) - 1) if mods[i + 1] < mods[i]]
                if not steps:
                    continue
                reports = [r for r in _results(checks, spec, alpha, [broken]) if isinstance(r, checks.VerificationReport)]
                for report in reports:
                    order = [v.indices for v in report.violations[: len(steps)] if v.predicate == "modulus-order"]
                    assert order == steps and not report.passed, (spec, alpha, report)
                    assert sum(v.predicate == "modulus-order" for v in report.violations) == len(steps)
                    seen += 1
    assert seen > 200


def test_swapped_fig3_list_gets_one_verdict_from_both_verifiers():
    # fig3 at alpha = 1i, first and last points swapped (moduli 2.52, 0.89,
    # 2.52, 0.89): both verifiers tie the pair at (0, 1) by the signed
    # modulus test, and both name the descent there
    spec = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))
    pts = alpha_points(spec, 1j, 10.0)
    swapped = pts[-1:] + pts[1:-1] + pts[:1]
    pairing = checks.verify_real_power_case(swapped, 1j, spec)
    quadrant = checks.verify_k2_distribution(swapped, checks.normalized_alpha(spec, 1j), j=0, sign_of_p=1)

    def at_first_pair(report):
        return [(v.predicate, v.values) for v in report.violations if v.indices == (0, 1)]

    assert at_first_pair(pairing) == at_first_pair(quadrant)
    assert [name for name, _ in at_first_pair(pairing)] == ["modulus-order", "pair-reflection"]


# ---------------------------------------------------------------------------
# the predicates no solved list raises, each on a hand-built list
# ---------------------------------------------------------------------------

FIG1 = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))
FIG2A = StructuredFunction(p=1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG3 = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))
FIG3_ALPHA = 0.2j  # Im alpha^2 = 0 with s = 1: the mirror is z -> -conj(z), the line the imaginary axis


def _point(z: complex, k: int, multiplicity: int = 1, sector: int | None = None) -> AlphaPoint:
    """An alpha-point at z, labelled by classify_sector unless sector overrides its sector."""
    s, boundary = classify_sector(z, k)
    if sector is not None:
        s = SectorIndex(sector, k)
    return AlphaPoint(complex(z), abs(z), s, boundary, multiplicity, 0.0)


_NEAR_RAY = 1.5 * cmath.exp(1e-7j)  # in Q0, 1e-7 rad off ray 0: no boundary point
# its mirror image turned 2e-7 rad across the negative real axis: still a mirror pair within
# DEFAULT_GAP_TOL, but in Q2, so both points of the pair lie in even sectors
_ACROSS = -_NEAR_RAY.conjugate() * cmath.exp(2e-7j)

# name: (the verifier run on a module, the (predicate, indices) of its report)
RARE_PREDICATES = {
    "off-boundary": (
        lambda m: m.verify_generic_interlacing([_point(1.0, 3)], -1 - 1j, FIG1),
        [("off-boundary", (0,))],
    ),
    # a pair of total multiplicity <= 2 with a multiplicity other than 1: reachable only below 1
    "pair-simple": (
        lambda m: m.verify_real_power_case([_point(_NEAR_RAY, 2, 2), _point(-_NEAR_RAY.conjugate(), 2, 0)], FIG3_ALPHA, FIG3),
        [("pair-simple", (0, 1))],
    ),
    "pair-sectors-both-even": (
        lambda m: m.verify_real_power_case([_point(_NEAR_RAY, 2), _point(_ACROSS, 2)], FIG3_ALPHA, FIG3),
        [("pair-sectors", (0, 1))],
    ),
    # the partner of Q0 is Q1; the mirror image labelled Q3
    "pair-sectors-wrong-partner": (
        lambda m: m.verify_real_power_case(
            [_point(_NEAR_RAY, 2), _point(-_NEAR_RAY.conjugate(), 2, sector=3)], FIG3_ALPHA, FIG3
        ),
        [("pair-sectors", (0, 1))],
    ),
    # three simple points on the ray {z e_1 > 0}, the negative imaginary axis
    "ray-alternation": (
        lambda m: m.verify_real_power_case([_point(-1j * t, 2) for t in (1.0, 2.0, 3.0)], FIG3_ALPHA, FIG3),
        [("ray-alternation", (1,))],
    ),
    "empty-alpha-set": (
        lambda m: m.verify_first_location([], m.predict_first_location(FIG2A, cmath.exp(1j * math.pi / 3)), 3),
        [("empty-alpha-set", ())],
    ),
    # the forecast allows a double on ray 1 (arg pi/3) only; this one lies on ray 0
    "first-double-ray": (
        lambda m: m.verify_first_location(
            [_point(0.5, 3, 2), _point(2 * cmath.exp(0.5j), 3)], m.predict_first_location(FIG2A, cmath.exp(1j * math.pi / 3)), 3
        ),
        [("first-double-ray", (0,))],
    ),
    # alpha imaginary, p = 3: a first pair at distinct moduli on one ray is the p = +-1 pattern only
    "distinct-first-pair-power": (
        lambda m: m.verify_k2_distribution([_point(1j, 2), _point(2j, 2)], 1j, j=1, sign_of_p=1),
        [("distinct-first-pair-power", (0, 1))],
    ),
    "axis-multiplicity": (
        lambda m: m.verify_k2_distribution([_point(2.0, 2, 3)], 1.0, j=-1, sign_of_p=-1),
        [("axis-multiplicity", (0,))],
    ),
    # alpha real, p = -1: (-1)^j alpha Re z1 must be negative
    "first-sign-real-axis-negative-power": (
        lambda m: m.verify_k2_distribution([_point(-1.0, 2)], 1.0, j=-1, sign_of_p=-1),
        [("first-sign", (0,))],
    ),
    "off-axes": (
        lambda m: m.verify_k2_distribution([_point(1.0, 2)], 1 + 1j, j=0, sign_of_p=1, first_point_checks=False),
        [("off-axes", (0,))],
    ),
}


@pytest.mark.parametrize("name", sorted(RARE_PREDICATES))
def test_each_rare_predicate_fires_on_a_hand_built_list(name):
    run, want = RARE_PREDICATES[name]
    report = run(checks)
    assert not report.passed
    assert [(v.predicate, v.indices) for v in report.violations] == want
    assert repr(report) == repr(run(REFERENCE))
