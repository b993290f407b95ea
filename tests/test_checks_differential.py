"""The verifiers agree, report for report, with a frozen copy of their earlier form.

reference_checks.py is a verbatim copy of checks.py as it stood while every
verifier still took gap_tol/angle_tol parameters and wrote out its own
modulus, direction and reflection tests.  On seeded specs, with generic,
real-direction and k = 2 axis alphas, and on the solver's lists as well as
broken ones (a point turned, moved or nudged, a multiplicity bumped, a
point duplicated, the first and last points swapped), every report, forecast and
raised message of the current module must be repr-equal to the copy's.
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from alphasectors import alpha_points, checks
from alphasectors.functions import AlphaPoint
from alphasectors.sectors import DEFAULT_ANGLE_TOL, classify_sector
from alphasectors.solver import SolverError

from helpers import load_frozen, random_alpha_generic, random_alpha_real_direction, random_structured

REFERENCE = load_frozen("reference_checks.py")


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _outcomes(module, spec, alpha, lists) -> list[str]:
    """repr of every verifier's result (or raised message) on each list."""
    out = []
    forecast = _run(module.predict_first_location, spec, alpha)
    out.append(repr(forecast))
    an = module.normalized_alpha(spec, alpha)
    for pts in lists:
        out.append(repr(module.group_by_modulus(pts)))
        out.append(repr(_run(module.verify_generic_interlacing, pts, alpha, spec)))
        out.append(repr(_run(module.verify_real_power_case, pts, alpha, spec)))
        if not isinstance(forecast, str):
            out.append(repr(module.verify_first_location(pts, forecast, spec.k)))
        if spec.k == 2:
            for first_point_checks in (True, False):
                report = _run(
                    module.verify_k2_distribution, pts, an, j=(spec.p - 1) // 2,
                    sign_of_p=1 if spec.p > 0 else -1, first_point_checks=first_point_checks, notes=("n",),
                )
                out.append(repr(report))
    return out


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
            lists = _broken_lists(pts, spec.k, rng)
            assert _outcomes(checks, spec, alpha, lists) == _outcomes(REFERENCE, spec, alpha, lists), (spec, alpha)
        done += 1
