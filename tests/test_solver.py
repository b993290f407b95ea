import cmath
import contextlib
import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphasectors
from alphasectors import (
    SeriesFunction,
    QSeriesSpec,
    SolverError,
    StructuredFunction,
    alpha_points,
    disturbed_exp_coeffs,
    evaluate_G,
    find_roots,
    partial_theta_coeffs,
    sokal_poly_coeffs,
    truncate_series,
    unit_rotation,
)
from alphasectors.cli import FIG2_A, FIG2_B, FIG3_SPEC, _family_source, _parse_complex, parse_spec_file, spec_from_dict
from alphasectors.functions import alpha_polynomial
from alphasectors import solver
from alphasectors.solver import DEGREE_CAP, _check_simple

from helpers import (
    QSERIES_GRID,
    clusters_bytes,
    load_frozen,
    load_workloads,
    random_alpha_generic,
    random_structured,
)
from alphasectors.checks import normalized_alpha, predict_sectors
from alphasectors.sectors import real_direction_index
from alphasectors.winding import sector_census

REFERENCE = load_frozen("reference_solver.py")

FIG1 = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))


def test_find_roots_quadratic():
    clusters = find_roots([1, 0, 1])
    roots = sorted((cl.center for cl in clusters), key=lambda z: z.imag)
    assert len(clusters) == 2
    assert all(cl.multiplicity == 1 for cl in clusters)
    assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12


def test_find_roots_double_root():
    # a double at every scale of the coefficients: scaled in log space, the scaled copy's
    # double split at 201 of these 601 scales, and the polish called each half no root of its own
    for e in range(-300, 301):
        clusters = find_roots(np.array([4.0, -4.0, 1.0]) * 10.0**e)
        assert len(clusters) == 1, e
        cl = clusters[0]
        assert cl.multiplicity == 2, e
        assert abs(cl.center - 2) <= 1e-15, (e, cl.center)


def test_a_degree_one_root_is_the_quotient_bit_for_bit():
    # scaled by powers of two, the root of c0 + c1 z is numpy's -c0 / c1 wherever its parts stay
    # normal; the log-space scale gave [1e-300, 1] the root -1.0000000000000237e-300
    rng = np.random.default_rng(0)
    parts = rng.normal(size=(2000, 2, 2)) * 10.0 ** rng.uniform(-300, 300, size=(2000, 2, 1))
    checked = 0
    for c0, c1 in parts[..., 0] + 1j * parts[..., 1]:
        with np.errstate(all="ignore"):
            root = -c0 / c1
        if 1e-300 <= abs(root) <= 1e300:
            checked += 1
            assert np.complex128(find_roots([c0, c1])[0].center).tobytes() == root.tobytes(), (c0, c1)
    assert checked >= 1000
    # the root needs the scale 2^1024, which is no double
    assert np.complex128(find_roots([1.5e308, -1.0])[0].center).tobytes() == np.complex128(1.5e308).tobytes()


def test_find_roots_triple_root_and_cap():
    # (z-1)^3, and z^3: stripped to a constant, it has no root left to iterate
    for coeffs in (np.convolve(np.convolve([-1, 1], [-1, 1]), [-1, 1]), [0, 0, 0, 1]):
        clusters = find_roots(coeffs)
        assert len(clusters) == 1 and clusters[0].multiplicity == 3
        with pytest.raises(SolverError, match="exceeds the admissible bound 2"):
            find_roots(coeffs, max_multiplicity=2)


def test_find_roots_origin_roots():
    # z^2 (z - 3): stripped origin roots come back as a multiplicity-2 cluster
    clusters = find_roots([0, 0, -3, 1])
    assert clusters[0].center == 0 and clusters[0].multiplicity == 2
    assert abs(clusters[1].center - 3) < 1e-12


def test_find_roots_close_pair_not_merged():
    # distinct roots 1e-5 apart must not be reported as a double
    r1, r2 = 1.0, 1.0 + 1e-5
    coeffs = np.convolve([-r1, 1], [-r2, 1])
    clusters = find_roots(coeffs)
    assert sorted(cl.multiplicity for cl in clusters) == [1, 1]
    got = sorted(cl.center.real for cl in clusters)
    assert abs(got[0] - r1) < 1e-10 and abs(got[1] - r2) < 1e-10


def test_find_roots_close_pairs_settle():
    # a pair 1e-6 apart is slow to polish; some of these need a third
    # Newton step and must not be mistaken for a root found twice
    for coeffs in _close_pair_polynomials():
        clusters = find_roots(coeffs)
        assert sum(cl.multiplicity for cl in clusters) == 13


def test_find_roots_reconstruction():
    rng = np.random.default_rng(42)
    for _ in range(25):
        deg = int(rng.integers(2, 31))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        clusters = find_roots(coeffs)
        assert sum(cl.multiplicity for cl in clusters) == deg
        rebuilt = np.array([1.0 + 0j])
        for cl in clusters:
            for _ in range(cl.multiplicity):
                rebuilt = np.convolve(rebuilt, [-cl.center, 1.0])
        rebuilt = rebuilt * coeffs[-1]
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-8 * scale


def test_find_roots_strided_input():
    # np.poly lists coefficients descending; reversing gives a negative-stride view
    clusters = find_roots(np.poly([1.0, 2.0, 3j])[::-1])
    got = sorted((cl.center for cl in clusters), key=abs)
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, [1.0, 2.0, 3j]))


def test_find_roots_deterministic():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=21) + 1j * rng.normal(size=21)
    a = find_roots(coeffs)
    b = find_roots(coeffs)
    assert [(cl.center, cl.multiplicity) for cl in a] == [(cl.center, cl.multiplicity) for cl in b]


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots([3.0])


@pytest.mark.parametrize("coeffs", [[1, math.nan], [1, math.inf, 1], [complex(0, -math.inf), 1]])
def test_find_roots_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="not a finite number"):
        find_roots(coeffs)


@pytest.mark.parametrize(
    "coeffs, i", [([1, 1.5e308 + 1.5e308j], 1), ([1.5e308 + 1.5e308j, 1], 0), ([1, 1.5e308 - 1.5e308j, 1], 1)]
)
def test_find_roots_rejects_a_coefficient_whose_modulus_overflows(coeffs, i):
    # finite parts, infinite modulus: the scale's log2 |c_i| read inf and named 2^9223372036854775808
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"polynomial coefficient {i} is {complex(coeffs[i])}, of modulus beyond double range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_roots(coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        [1e308, 1e-300],  # the geometric-mean root modulus e^1400 overflows
        [1e-300, 1e10, 1e-308],  # one root near 1e318: its start circle overflows
        # both end coefficients scale to 0, which would drop roots (a cubic
        # would return one root at 0) or leave a one-vertex Newton polygon
        [1e-320, 1e300, 1e300, 1e-300],
        [1e-320, 1e300, 1e-300],
    ],
)
def test_find_roots_beyond_double_range_is_a_solver_error(coeffs):
    with pytest.raises(SolverError, match="beyond double range"):
        find_roots(coeffs)


def test_alpha_points_refuses_a_k_that_disagrees_with_the_spec():
    # the census refused it already; alpha_points classified with spec.k and said nothing
    for count in (lambda k: alpha_points(FIG1, -1 - 1j, 10.0, k=k), lambda k: sector_census(FIG1, -1 - 1j, 0.01, 10.0, k=k)):
        with pytest.raises(ValueError, match="^k disagrees with the spec$"):
            count(5)
    assert alpha_points(FIG1, -1 - 1j, 10.0, k=3) == alpha_points(FIG1, -1 - 1j, 10.0)


@pytest.mark.parametrize("k", [0, 2.5, -1, True, 10**9])
def test_alpha_points_refuses_a_series_sector_index_classify_sector_refuses(monkeypatch, k):
    # k = 0 divided by zero in the sector step; k = 2.5 labelled points SectorIndex(s=2.0, k=2.5)
    monkeypatch.setattr(solver, "find_roots", lambda *args, **kwargs: pytest.fail("solved before checking k"))
    with pytest.raises(ValueError, match=r"^k must be an integer in \[1, 785398163.4\), .*got " + repr(k)):
        alpha_points(SeriesFunction((1, 2, 1.5, 0.3), 5.0), 0, 5, k=k)


def test_alpha_points_takes_a_series_sector_index_in_range():
    series = SeriesFunction((1, 2, 1.5, 0.3), 5.0)
    for k in (1, 2, 7):
        pts = alpha_points(series, 0, 5, k=k)
        assert len(pts) == 3 and all(pt.sector.k == k for pt in pts)


def test_alpha_points_fig1():
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    assert len(pts) == 9
    mods = [pt.modulus for pt in pts]
    assert all(mods[i] < mods[i + 1] for i in range(8))
    assert all(pt.multiplicity == 1 for pt in pts)
    assert all(pt.residual <= 1e-9 * (1 + abs(-1 - 1j)) for pt in pts)


def test_alpha_points_empty_when_alpha_unreachable():
    # |G| <= 0.5 * 1.25 / 4.75 < 0.14 on |z| <= 0.5, so alpha = 10 is unreachable
    spec = StructuredFunction(p=1, k=2, a=(1.0,), b=(5.0,))
    pts = alpha_points(spec, 10.0, 0.5)
    assert pts == []


def test_alpha_points_conjugation_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(5):
        spec = random_structured(rng)
        alpha = random_alpha_generic(rng, spec)
        pts = alpha_points(spec, alpha, 50.0)
        pts_conj = alpha_points(spec, alpha.conjugate(), 50.0)
        assert len(pts) == len(pts_conj)
        got = sorted((pt.value for pt in pts_conj), key=lambda z: (abs(z), z.real, z.imag))
        want = sorted((pt.value.conjugate() for pt in pts), key=lambda z: (abs(z), z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * (1 + abs(w))


def test_alpha_points_rotation_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(5):
        spec = random_structured(rng)
        alpha = random_alpha_generic(rng, spec)
        e2 = unit_rotation(2, spec.k)
        e2p = unit_rotation(2 * spec.p, spec.k)
        pts = alpha_points(spec, alpha, 50.0)
        pts_rot = alpha_points(spec, alpha * e2p, 50.0)
        assert len(pts) == len(pts_rot)
        got = sorted((pt.value for pt in pts_rot), key=lambda z: (abs(z), round(z.real, 6), round(z.imag, 6)))
        want = sorted((pt.value * e2 for pt in pts), key=lambda z: (abs(z), round(z.real, 6), round(z.imag, 6)))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * (1 + abs(w))


def test_alpha_points_residual_matches_function():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = random_structured(rng, with_cd=True)
        alpha = random_alpha_generic(rng, spec)
        for pt in alpha_points(spec, alpha, 20.0):
            assert abs(evaluate_G(spec, pt.value) - alpha) <= 1e-8 * (1 + abs(alpha))


def test_alpha_points_series_requires_trust():
    series = SeriesFunction((1.0, 1.0, 0.5), trust_radius=2.0)
    with pytest.raises(ValueError):
        alpha_points(series, 0.0, 3.0)
    pts = alpha_points(series, 0.0, 2.0)
    assert all(abs(pt.value) <= 2.0 for pt in pts)


@pytest.mark.parametrize(
    "spec, alpha",
    [(SeriesFunction((1.0, 2.0, 1.5), 5.0), 0.0), (FIG1, -1 - 1j)],
    ids=["series", "fig1"],
)
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_alpha_points_refuses_a_radius_that_is_not_positive(spec, alpha, radius):
    # NaN compares false either way, so it would pass both range checks
    with pytest.raises(ValueError, match="radius must be positive"):
        alpha_points(spec, alpha, radius)


def test_alpha_points_rejects_zero_alpha_for_structured():
    with pytest.raises(ValueError):
        alpha_points(FIG1, 0.0, 1.0)


def test_alpha_points_degree_cap():
    spec = StructuredFunction(p=1, k=2, a=(1.0,) * 300, b=())
    with pytest.raises(ValueError):
        alpha_points(spec, 1.0, 1.0)


def test_find_roots_nonconvergence_reports_residuals(monkeypatch):
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=25) + 1j * rng.normal(size=25)
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    with pytest.raises(SolverError) as exc:
        find_roots(coeffs)
    assert len(exc.value.residuals) == 24


def test_alpha_points_true_double_on_ray():
    # alpha tuned to the critical level where the two on-ray points collide:
    # on the imaginary axis F(iy) = i y(3-y^2)/((1+y^2)(5+y^2)) peaks at y*
    spec = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))
    with mp.workdps(40):
        g = lambda y: y * (3 - y * y) / ((1 + y * y) * (5 + y * y))
        y_star = mp.findroot(lambda y: mp.diff(g, y), mp.mpf("0.65"))
        alpha = complex(0, float(g(y_star)))
    pts = alpha_points(spec, alpha, 10.0)
    assert pts[0].multiplicity == 2 and pts[0].boundary
    # polished as the simple root of P' by the compensated Newton step: the
    # critical point itself to rounding, and on the ray
    z = pts[0].value
    assert float(abs(mp.mpc(z) - 1j * y_star)) <= 1e-15 * float(y_star)
    assert abs(z.real) <= 1e-15 * abs(z)

    from alphasectors import predict_first_location, verify_first_location, verify_real_power_case

    assert verify_real_power_case(pts, alpha, spec).passed
    fc = predict_first_location(spec, alpha)
    assert fc.kind == "ray-pair-possible"
    assert verify_first_location(pts, fc, 2).passed


def test_near_double_centres_are_critical_points():
    # a repeated root of a polynomial built in double: rounding splits it into
    # a pair about sqrt(eps) apart, clustered as one double, whose centre is
    # the root of P' between them (modified Newton, nu P / P', oscillates
    # across the pair), to about cond(P') eps
    rng = np.random.default_rng(2027)
    for _ in range(20):
        deg = int(rng.integers(8, 41))
        roots = rng.normal(size=deg - 1) + 1j * rng.normal(size=deg - 1)
        coeffs = np.poly(np.append(roots, roots[0]))[::-1]
        doubles = [cl for cl in find_roots(coeffs) if cl.multiplicity == 2]
        assert len(doubles) == 1
        with mp.workdps(60):
            dp = [i * mp.mpc(complex(c)) for i, c in enumerate(coeffs)][:0:-1]
            ref = mp.findroot(lambda x: mp.polyval(dp, x), mp.mpc(doubles[0].center))
            assert abs(doubles[0].center - ref) <= 1e-11 * abs(ref), (doubles[0].center, ref)


def test_exponential_growth_series_route():
    # exp(A z^k) factors go through the certified series path; the winding
    # oracle evaluates the function directly and provides the second route
    from alphasectors import (
        AnnularSector,
        count_in_contour,
        exponential_alpha_series,
        truncate_series,
        verify_generic_interlacing,
    )

    spec = StructuredFunction(p=1, k=2, a=(1.0,), b=(4.0,), A=0.3)
    alpha = 0.7 + 0.4j
    series = truncate_series(exponential_alpha_series(spec, alpha, 50), 40, 1e-9)
    assert series.trust_radius > 2
    radius = min(series.trust_radius, 4.0)
    zeros = alpha_points(series, 0.0, radius, k=2)
    assert zeros
    for pt in zeros:
        assert abs(evaluate_G(spec, pt.value) - alpha) <= 1e-8 * (1 + abs(alpha))
    count = count_in_contour(spec, alpha, AnnularSector(0.05, radius * 0.999, 0, 3, 2))
    inside = sum(1 for pt in zeros if 0.05 < pt.modulus < radius * 0.999)
    assert count == inside
    assert verify_generic_interlacing(zeros, alpha, spec).passed


def _mp_abs_value(coeffs, z: complex, derivative: bool = False) -> float:
    """|p(z)| (or |p'(z)|) evaluated in 50 digits, so rounding plays no part."""
    with mp.workdps(50):
        acc = mp.mpc(0)
        for i in range(len(coeffs) - 1, -1 if not derivative else 0, -1):
            acc = acc * z + (i if derivative else 1) * mp.mpc(coeffs[i])
        return float(abs(acc))


def _random_poly(seed: int, degree: int):
    rng = np.random.default_rng(seed)
    return rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)


_THIRDS = [cmath.exp(1j * math.pi * t) for t in (1 / 3, 1 / 2, 2 / 3)]

# name -> (ascending coefficients, roots to compare: "all", "far" or a stride)
DIFFERENTIAL_CASES = {
    "fig1": lambda: (alpha_polynomial(FIG1, -1 - 1j), "all"),
    **{f"fig2a-{i}": (lambda a=a: (alpha_polynomial(FIG2_A, a), "all")) for i, a in enumerate(_THIRDS)},
    **{f"fig2b-{i}": (lambda a=a: (alpha_polynomial(FIG2_B, a), "all")) for i, a in enumerate(_THIRDS)},
    "fig3-1j": lambda: (alpha_polynomial(FIG3_SPEC, 1j), "all"),
    "fig3-0.2j": lambda: (alpha_polynomial(FIG3_SPEC, 0.2j), "all"),
    "theta": lambda: (partial_theta_coeffs(0.7j, 64), "all"),
    "dexp": lambda: (disturbed_exp_coeffs(1j, 40), "all"),
    # roots at |z| ~ 1e11-1e13: without each root's own power-of-two scale
    # the polish leaves some binomial ones 50-200 ulp off
    "far-theta": lambda: (partial_theta_coeffs(0.5j, 64), "far"),
    "far-binomial": lambda: (QSeriesSpec("sokal-poly", 0.6j, 64).coefficients(), "far"),
    # dense input takes its compensated polish at stride 3
    "theta-0.5i-80": lambda: (partial_theta_coeffs(0.5j, 80), "all"),
    "theta-0.7i-80": lambda: (partial_theta_coeffs(0.7j, 80), "all"),
    "dexp-0.7i-80": lambda: (disturbed_exp_coeffs(0.7j, 80), "all"),
    "dexp-0.9i-80": lambda: (disturbed_exp_coeffs(0.9j, 80), "all"),
    "binomial-0.6i-80": lambda: (sokal_poly_coeffs(0.6j, 80), "all"),
    **{f"random-{d}": (lambda d=d: (_random_poly(100 + d, d), max(1, d // 12))) for d in (16, 32, 48, 96, 160, 256, 512)},
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_compensated_polish_matches_extended_precision(name):
    coeffs, pick = DIFFERENTIAL_CASES[name]()
    coeffs = np.asarray(coeffs, complex)
    simple = [cl for cl in find_roots(coeffs) if cl.multiplicity == 1 and cl.center != 0]
    if pick == "far":
        simple = [cl for cl in simple if abs(cl.center) > 1e11]
        assert len(simple) >= 6
    elif pick != "all":
        simple = simple[::pick]
    assert simple
    for cl in simple:
        # a simple cluster's one member is the iterate both polishes start from
        ref = REFERENCE._extended_polish(coeffs, [cl.members[0]], [1])[0]
        ulp = np.spacing(abs(ref))
        assert abs(cl.center - ref) <= 4 * ulp, (cl.center, ref)
        # no worse than the reference, or than a root one ulp from exact
        floor = _mp_abs_value(coeffs, ref, derivative=True) * ulp
        assert _mp_abs_value(coeffs, cl.center) <= max(_mp_abs_value(coeffs, ref), floor)


# ---------------------------------------------------------------------------
# Aberth's iterates polished once, against the solve that first took three
# plain Newton steps on them (REFERENCE.find_roots)
# ---------------------------------------------------------------------------


def _verify_pool_cases(seed: int, workdir) -> list:
    """(spec, alpha) of each job of the verify-highdeg bench pool of a seed."""
    cases = []
    for job in load_workloads().build("verify-highdeg", seed, str(workdir)):
        spec = parse_spec_file(job.argv[job.argv.index("--spec") + 1])
        alpha = _parse_complex(next(arg for arg in job.argv if arg.startswith("--alpha=")).split("=", 1)[1])
        cases.append((spec, alpha))
    return cases


def _verify_pool_polynomials(seed: int, workdir) -> list:
    """The alpha-polynomial of each job of the verify-highdeg bench pool of a seed."""
    return [alpha_polynomial(spec, alpha) for spec, alpha in _verify_pool_cases(seed, workdir)]


def test_one_polish_keeps_the_verify_pool_centres(tmp_path):
    # sparse solves at strides k = 8-24, as verify runs them
    polys = _verify_pool_polynomials(1, tmp_path)
    assert len(polys) == 48
    for coeffs in polys:
        got, want = (solve(coeffs, max_multiplicity=2) for solve in (find_roots, REFERENCE.find_roots))
        assert [(np.complex128(cl.center).tobytes(), cl.multiplicity) for cl in got] == [
            (np.complex128(cl.center).tobytes(), cl.multiplicity) for cl in want
        ]


def _assert_centres_agree_to_rounding(coeffs):
    got, want = find_roots(coeffs), REFERENCE.find_roots(coeffs)
    assert [cl.multiplicity for cl in got] == [cl.multiplicity for cl in want]
    for a, b in zip(got, want):
        # the plain pass moved at most the smaller component of a centre, within its rounding
        assert abs(a.center - b.center) <= 1e-28 * abs(b.center), (a.center, b.center)


@pytest.mark.parametrize("family, t, N", QSERIES_GRID, ids=[f"{f}-{t}i-{n}" for f, t, n in QSERIES_GRID])
def test_one_polish_moves_the_qseries_centres_by_rounding_only(family, t, N):
    src = np.asarray(_family_source(QSeriesSpec(family, 1j * t, N)), complex)
    for coeffs in (src[: N + 1], src[: N + 11]):
        _assert_centres_agree_to_rounding(coeffs)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_one_polish_moves_the_differential_centres_by_rounding_only(name):
    _assert_centres_agree_to_rounding(np.asarray(DIFFERENTIAL_CASES[name]()[0], complex))


# ---------------------------------------------------------------------------
# _group against its frozen copy, which ran every set of iterates through the
# union-find (REFERENCE._group)
# ---------------------------------------------------------------------------


def _close_pair_polynomials() -> list:
    """20 degree-13 polynomials, each with two simple roots 1e-6 apart (relative)."""
    rng = np.random.default_rng(2026)
    polys = []
    for _ in range(20):
        base = rng.normal(size=12) + 1j * rng.normal(size=12)
        polys.append(np.poly(np.append(base, base[0] * (1 + 1e-6)))[::-1])
    return polys


def _groups_bytes(members, centres, radii):
    """Every group's centre, members, size and radius, as bytes: clusters_bytes of _group's output."""
    return [
        (np.complex128(c).tobytes(), np.array(ms, complex).tobytes(), len(ms), np.float64(r).tobytes())
        for ms, c, r in zip(members, centres, radii)
    ]


@pytest.fixture(scope="module")
def screen_inputs(tmp_path_factory):
    """The verify pools of seeds 1-2, the 36 q-series truncations and the 20 close-pair inputs."""
    workdir = tmp_path_factory.mktemp("pools")
    qseries = []
    for family, t, N in QSERIES_GRID:
        src = np.asarray(_family_source(QSeriesSpec(family, 1j * t, N)), complex)
        qseries += [src[: N + 1], src[: N + 11]]
    return {
        "verify": _verify_pool_polynomials(1, workdir) + _verify_pool_polynomials(2, workdir),
        "qseries": qseries,
        "close-pair": _close_pair_polynomials(),
    }


def test_group_matches_the_union_find_grouping(screen_inputs, monkeypatch):
    unions = []
    components = solver._components
    monkeypatch.setattr(solver, "_components", lambda near: unions.append(1) or components(near))
    for name, polys in screen_inputs.items():
        for coeffs in polys:
            sc, e, m0 = solver._strip_and_scale(coeffs)
            lam = math.ldexp(1.0, e)  # the frozen copies take the scale as a float
            stride = solver._stride(np.asarray(coeffs, complex)[m0 : m0 + len(sc)])
            horner = solver._Horner([(sc, np.arange(1, len(sc)) * sc[1:])], stride)
            (u,) = solver._aberth(horner, solver.DEFAULT_ROOT_TOL)
            unions.clear()
            got = _groups_bytes(*solver._group(u, e, horner, 0))
            # distinct simple roots pass the screen and skip the union-find; a close pair is
            # joined, as the distance matrix joins it, then subsplit
            assert bool(unions) == REFERENCE.group_joins(u, lam) == (name == "close-pair"), name
            assert got == _groups_bytes(*REFERENCE._group(u, lam, horner, 0)), name


def _error_of(check, *args):
    """The text and residuals of the SolverError check(*args) raises, or None."""
    try:
        check(*args)
    except SolverError as exc:
        return str(exc), np.array(exc.residuals).tobytes()
    return None


def test_check_simple_matches_the_gap_matrix(screen_inputs, monkeypatch):
    seen = []
    check = solver._check_simple
    monkeypatch.setattr(solver, "_check_simple", lambda z, last: seen.append((z.copy(), last.copy())) or check(z, last))
    for polys in screen_inputs.values():
        for coeffs in polys:
            with contextlib.suppress(SolverError):
                find_roots(coeffs)
    assert len(seen) == sum(map(len, screen_inputs.values()))
    for z, last in seen:  # none of these settles as one root found twice: see the threshold test below
        assert _error_of(check, z, last) == _error_of(REFERENCE.check_simple, z, last) is None


def _ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


def test_screens_keep_every_pair_at_the_threshold(monkeypatch):
    # two points on one ray, the outer one a few ulps either side of the distance at which
    # the matrix calls them one root found twice (_check_simple) or joins them (_group)
    class Joined(Exception):
        pass

    def joined(near):
        raise Joined

    monkeypatch.setattr(solver, "_components", joined)
    rng = np.random.default_rng(2027)
    reach = math.sqrt(solver.DEFAULT_CLUSTER_TOL)
    twice = joins = 0
    for _ in range(300):
        r, turn = math.exp(rng.uniform(-5, 5)), cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        for outer in (r / (1 - solver._DUPLICATE_TOL), (r * (1 + reach / 2) + reach) / (1 - reach / 2)):
            for steps in range(-3, 4):
                z = np.array([r * turn, _ulps(outer, steps) * turn])
                last = np.full(2, 1e-16)
                want = _error_of(REFERENCE.check_simple, z, last)
                assert _error_of(solver._check_simple, z, last) == want, z
                twice += want is not None
                with contextlib.suppress(Joined):
                    solver._group(z, 0, None, 0)
                    assert not REFERENCE.group_joins(z, 1.0), z
                    continue
                assert REFERENCE.group_joins(z, 1.0), z
                joins += 1
    assert twice and joins


def _polyval_newton_terms(sc, dsc, u):
    """Reference: the four np.polyval loops the one-polynomial (N, D) ran before its stacked lanes."""
    n = len(sc) - 1
    num = np.empty_like(u)
    den = np.empty_like(u)
    small = np.abs(u) <= 1.0
    if small.any():
        us = u[small]
        num[small] = np.polyval(sc[::-1], us)
        den[small] = np.polyval(dsc[::-1], us)
    big = ~small
    if big.any():
        ub = u[big]
        v = 1.0 / ub
        qv = np.polyval(sc, v)
        dq = np.arange(1, n + 1) * sc[::-1][1:]
        num[big] = ub * qv
        den[big] = n * qv - v * np.polyval(dq[::-1], v)
    return num, den


def _sliced_compensated_step(cf, e, f, u):
    """Reference: the compensated Newton step before its four products shared one block."""
    m = len(u)
    n = len(cf) - 1
    uf = u.view(float).reshape(m, 2)
    iu = np.stack([-uf[:, 1], uf[:, 0]], axis=1)
    u_hi, u_lo = REFERENCE._split(uf)
    iu_hi, iu_lo = REFERENCE._split(iu)
    k = e * n + f
    s = np.ldexp(cf[n], k[:, None])
    err = np.zeros(m, complex)
    der = np.zeros(m, complex)
    for i in range(n - 1, -1, -1):
        der = der * u + s.view(complex)[:, 0]
        k -= e
        s_hi, s_lo = REFERENCE._split(s)
        a, ea = REFERENCE._two_prod(s[:, :1], s_hi[:, :1], s_lo[:, :1], uf, u_hi, u_lo)
        b, eb = REFERENCE._two_prod(s[:, 1:], s_hi[:, 1:], s_lo[:, 1:], iu, iu_hi, iu_lo)
        p, ep = REFERENCE._two_sum(a, b)
        s, es = REFERENCE._two_sum(p, np.ldexp(cf[i], k[:, None]))
        err = err * u + (ea + eb + ep + es).view(complex)[:, 0]
    return (s.view(complex)[:, 0] + err) / der


@pytest.mark.parametrize("degree", [1, 2, 13, 96, 512])
def test_newton_terms_match_the_polyval_loops_bit_for_bit(degree):
    rng = np.random.default_rng(degree)
    sc, _, _ = solver._strip_and_scale(_random_poly(degree, degree))
    dsc = np.arange(1, degree + 1) * sc[1:]
    ring = np.exp(2j * np.pi * rng.uniform(size=40))
    u = np.concatenate([
        ring * rng.uniform(0.2, 1.0, 40),  # inside the unit circle
        ring / rng.uniform(0.2, 1.0, 40),  # outside it
        [1, -1, 1j, -1j, 0.6 + 0.8j, -0.8 - 0.6j],  # on it: |u| == 1 exactly
        [0, complex(math.nan, 0.5), complex(math.inf, 0)],
    ])
    assert np.count_nonzero(np.abs(u) == 1) >= 6
    for args in ((sc, dsc, u), (np.abs(sc), np.abs(dsc), np.abs(u))):  # _subsplit's rounding bound
        with np.errstate(all="ignore"):
            got = solver._Horner([args[:2]], solver._DENSE)(args[2], np.zeros(len(args[2]), np.intp))
            want = _polyval_newton_terms(*args)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _step_inputs(coeffs, z):
    """(cf, e, f, u) as _polish_simple scales them."""
    cf = coeffs.view(float).reshape(-1, 2)
    e = np.round(np.log2(np.abs(z))).astype(np.int64)
    with np.errstate(divide="ignore"):  # a zero coefficient is -inf, never the largest
        logs = np.log2(np.abs(coeffs))[None, :] + e[:, None] * np.arange(len(coeffs))[None, :]
    f = -np.round(logs.max(axis=1)).astype(np.int64)
    u = np.ldexp(z.view(float).reshape(-1, 2), -e[:, None]).view(complex)[:, 0]
    return cf, e, f, u


def _near_roots(coeffs, rng, rel=1e-6):
    z = np.array([cl.center for cl in find_roots(coeffs) if cl.center != 0])
    return z * (1 + rel * (rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))))


STEP_CASES = {
    "random-40": lambda rng: (c := _random_poly(7, 40), _near_roots(c, rng)),
    "random-160": lambda rng: (c := _random_poly(8, 160), _near_roots(c, rng)),
    # coefficient moduli spread over exp(+-30); points with moduli across exp(+-30)
    "wide-range": lambda rng: (
        _random_poly(9, 48) * np.exp(rng.uniform(-30, 30, 49)),
        np.exp(rng.uniform(-30, 30, 64) + 2j * np.pi * rng.uniform(size=64)),
    ),
    # roots at |z| ~ 1e11-1e13, each with its own power-of-two scale
    "far-modulus": lambda rng: (c := partial_theta_coeffs(0.5j, 64), _near_roots(c, rng, 1e-9)),
}


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_compensated_step_matches_the_sliced_products_bit_for_bit(name):
    rng = np.random.default_rng(2026)
    coeffs, z = STEP_CASES[name](rng)
    cf, e, f, u = _step_inputs(np.ascontiguousarray(coeffs, complex), z)
    with np.errstate(all="ignore"):
        table = solver._scaled_lanes(cf[:, None], e, f, solver._DENSE, np.zeros(len(u), np.intp))
        got = solver._compensated_newton_step(table, u.copy(), solver._DENSE)
        want = _sliced_compensated_step(cf, e, f, u.copy())
    assert np.isfinite(want).mean() > 0.9
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the compensated polish against its frozen copy (REFERENCE._polish_simple),
# which scaled each Horner row and built each block on fresh arrays
# ---------------------------------------------------------------------------


def _polish_outcome(polish, polys, z, stride, owner):
    """The bytes of the roots and last-step sizes polish returns, or the exception it raises."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return [a.tobytes() for a in polish([p.copy() for p in polys], z.copy(), stride, owner.copy())]
        except Exception as exc:  # noqa: BLE001 - both sides must fail alike
            return type(exc), str(exc)


def _recorded_polishes(monkeypatch, solves) -> list:
    """The arguments of every _polish_simple call the solves make."""
    calls = []
    polish = solver._polish_simple

    def record(polys, z, stride, owner):
        calls.append(([p.copy() for p in polys], z.copy(), stride, owner.copy()))
        return polish(polys, z, stride, owner)

    monkeypatch.setattr(solver, "_polish_simple", record)
    for solve in solves:
        with contextlib.suppress(SolverError):
            solve()
    monkeypatch.undo()
    return calls


def _assert_polishes_match_the_frozen_polish(calls):
    assert calls
    for args in calls:
        got = _polish_outcome(solver._polish_simple, *args)
        assert isinstance(got, list), got
        assert got == _polish_outcome(REFERENCE._polish_simple, *args), args[2]


def test_polish_matches_the_frozen_polish_on_the_screen_inputs(screen_inputs, monkeypatch):
    polys = [coeffs for group in screen_inputs.values() for coeffs in group]
    calls = _recorded_polishes(monkeypatch, [lambda c=c: find_roots(c) for c in polys])
    # the k-strides of verify, _POLYPHASE on dense input and on P^(nu-1), and simple roots left alone
    strides = {stride for _, _, stride, _ in calls}
    assert solver._POLYPHASE in strides and any(s.g >= 8 for s in strides)
    assert any(len(p) < len(max(polys, key=len)) for ps, *_ in calls for p in ps)
    _assert_polishes_match_the_frozen_polish(calls)


def test_polish_matches_the_frozen_polish_on_the_differential_cases(monkeypatch):
    cases = [DIFFERENTIAL_CASES[name]()[0] for name in sorted(DIFFERENTIAL_CASES)]
    _assert_polishes_match_the_frozen_polish(_recorded_polishes(monkeypatch, [lambda c=c: find_roots(c) for c in cases]))


def test_polish_matches_the_frozen_polish_on_multiple_roots(monkeypatch):
    # the double centres polish as simple roots of P' at _POLYPHASE: the fig3 true double,
    # a real double, and a double beside a triple root at the origin, z^3 (z + 1)^2
    solves = [
        lambda: alpha_points(FIG3_SPEC, 0.21755646163765166j, 10.0),
        lambda: find_roots([4, -4, 1]),
        lambda: find_roots([0, 0, 0, 1, 2, 1]),
    ]
    calls = _recorded_polishes(monkeypatch, solves)
    # fig3's degree-4 polynomial polishes its two simple roots, then P' (4 coefficients) its double
    assert [(len(ps[0]), len(z), stride) for ps, z, stride, _ in calls] == [
        (5, 2, solver._POLYPHASE), (4, 1, solver._POLYPHASE), (2, 1, solver._POLYPHASE), (2, 1, solver._POLYPHASE)
    ]
    _assert_polishes_match_the_frozen_polish(calls)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1e308]
_ENTRY = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_SPECIAL), st.floats(allow_subnormal=True))
_COMPLEX = st.builds(complex, _ENTRY, _ENTRY)
_MODERATE = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


@st.composite
def _polish_inputs(draw):
    """_polish_simple's arguments: polynomials held in the stride's classes, built from drawn roots,
    each polished root started beside one of them (where the compensated terms decide the last bits),
    and a few coefficients and starts replaced by signed zeros, subnormals, huge or non-finite values."""
    g = draw(st.sampled_from([1, 2, 3, 5, 8]))
    classes = (0,) if g == 1 else tuple(sorted(draw(st.sets(st.integers(0, g - 1), min_size=1))))
    polys, z, owner = [], [], []
    for i in range(draw(st.integers(1, 3))):
        c = np.polynomial.polynomial.polyfromroots(draw(st.lists(_MODERATE, min_size=1, max_size=30)))
        c[~np.isin(np.arange(len(c)) % g, classes)] = 0
        roots = np.roots(c[::-1]) if c.any() else np.zeros(0)
        nudge = draw(st.sampled_from([0.0, 1e-15, 1e-11, 1e-7, 1e-3]))
        z += list(roots[: draw(st.integers(1, 6))] * (1 + nudge * (1 + 0.5j)))
        owner += [i] * (len(z) - len(owner))
        for _ in range(draw(st.integers(0, 2))):
            c[draw(st.integers(0, len(c) - 1))] = draw(_COMPLEX)
        polys.append(c)
    z, owner = (z, owner) if z else ([draw(_COMPLEX)], [0])
    for _ in range(draw(st.integers(0, 2))):
        z[draw(st.integers(0, len(z) - 1))] = draw(_COMPLEX)
    return polys, np.array(z, complex), solver._Stride(g, classes), np.array(owner, np.intp)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(args=_polish_inputs())
def test_polish_matches_the_frozen_polish_on_drawn_inputs(args):
    assert _polish_outcome(solver._polish_simple, *args) == _polish_outcome(REFERENCE._polish_simple, *args)


def test_find_roots_at_degree_cap():
    coeffs = _random_poly(512, DEGREE_CAP)
    clusters = find_roots(coeffs)
    assert sum(cl.multiplicity for cl in clusters) == DEGREE_CAP
    # convolving 512 linear factors is unstable, so compare p with its
    # product form c_n prod (w - z_j) at points of a circle instead
    roots = np.repeat([cl.center for cl in clusters], [cl.multiplicity for cl in clusters])
    w = 1.5 * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    product = coeffs[-1] * np.prod(w[:, None] - roots[None, :], axis=1)
    assert np.max(np.abs(product / np.polyval(coeffs[::-1], w) - 1)) <= 1e-10


def test_check_simple_names_a_root_found_twice_and_an_unsettled_step():
    # an iterate that Newton drags onto a root already found: both copies
    # settle (last steps at rounding level) but one root would count twice
    twice = 0.001137662161622859 - 0.14653106812259148j
    z = np.array([twice, twice, 0.5 + 0.5j])
    with pytest.raises(SolverError, match="not a simple root of its own") as exc:
        _check_simple(z, np.full(3, 1e-16))
    assert str(exc.value).count("0.00113766216") == 2
    # an iterate whose last polish step is still far above rounding level
    with pytest.raises(SolverError, match="last polish step 1e-06 of") as exc:
        _check_simple(np.array([1.0 + 0j, 2.0 + 1j, -3.0 + 0j]), np.array([1e-16, 1e-6, 1e-16]))
    assert exc.value.residuals == (1e-6,)
    _check_simple(np.array([1.0 + 0j, 2.0 + 1j]), np.full(2, 1e-16))


# inputs on which Aberth, started from one ring, stalled on iterates that
# were no root, so that find_roots raised SolverError
FORMER_STALLS = {
    "binomial-0.7i-80": lambda: sokal_poly_coeffs(0.7j, 80),
    "binomial-0.75i-80": lambda: sokal_poly_coeffs(0.75j, 80),
    "binomial-0.29176i-40": lambda: sokal_poly_coeffs(0.29175822380220895j, 40),
    "dexp-0.69522i-80": lambda: disturbed_exp_coeffs(0.6952190148257329j, 80),
}


@pytest.mark.parametrize("name", sorted(FORMER_STALLS))
def test_former_stall_inputs_match_extended_precision_roots(name):
    coeffs = np.asarray(FORMER_STALLS[name](), complex)
    coeffs = coeffs[: np.flatnonzero(coeffs)[-1] + 1]  # top coefficients underflow to 0
    got = [cl.center for cl in find_roots(coeffs, max_multiplicity=1)]
    assert len(got) == len(coeffs) - 1
    # Durand-Kerner in 60 digits; it raises unless every correction falls
    # below 1e-60, and such a fixed point of distinct iterates is the whole
    # root set, whatever the start.  Starting from the roots under test only
    # spares the hundreds of steps it takes from mpmath's own start.
    with mp.workdps(60):
        ref = mp.polyroots([mp.mpc(c) for c in coeffs[::-1]], maxsteps=20, extraprec=200, roots_init=got)
        ref = np.array([complex(r) for r in ref])
    nearest = [int(np.argmin(np.abs(ref - z))) for z in got]
    assert sorted(nearest) == list(range(len(ref)))  # root for root, none twice
    for z, i in zip(got, nearest):
        assert abs(z - ref[i]) <= 4 * np.spacing(abs(ref[i])), (z, ref[i])


def _counted_iterations(monkeypatch) -> list:
    """A list that grows by one at each solver._newton_corrections call: one per Aberth iteration."""
    calls = []
    newton = solver._newton_corrections
    monkeypatch.setattr(solver, "_newton_corrections", lambda *a: calls.append(1) or newton(*a))
    return calls


def _aberth_iterations(monkeypatch, coeffs) -> int:
    calls = _counted_iterations(monkeypatch)
    sc, _, _ = solver._strip_and_scale(coeffs)
    solver._aberth(solver._Horner([(sc, np.arange(1, len(sc)) * sc[1:])], solver._DENSE), 1e-10)
    return len(calls)


def test_newton_polygon_start_fits_geometric_root_moduli(monkeypatch):
    # log|c_n| is quadratic in n, so the root moduli are geometric; one
    # start ring took 99 iterations here, the Newton-polygon circles 12
    assert _aberth_iterations(monkeypatch, partial_theta_coeffs(0.7j, 80)) <= 30


def test_newton_polygon_start_costs_random_inputs_nothing(monkeypatch):
    # ten random degree-256 solves took 129 iterations from one start ring
    # (11-14 each); the Newton-polygon circles take 126
    total = sum(_aberth_iterations(monkeypatch, _random_poly(seed, 256)) for seed in range(10))
    assert total <= 129


def test_binomial_start_cuts_the_qseries_iterations(monkeypatch):
    # the grid's Newton polygons are mostly one-root edges; started at the
    # golden angle there, the 18 truncate_series calls took 259 iterations,
    # started beside each edge's binomial root they take 102
    calls = _counted_iterations(monkeypatch)
    for family, t, N in QSERIES_GRID:
        truncate_series(SeriesFunction(tuple(_family_source(QSeriesSpec(family, 1j * t, N)))), N, 1e-9)
    assert len(calls) <= 150


REAL_ONE_ROOT_EDGES = {
    "quadratic": [1.0, -1.755, 1.0],  # two one-root edges, both binomial roots positive
    "double": [4.0, -4.0, 1.0],
    "fig3-0.5": alpha_polynomial(FIG3_SPEC, 0.5),
    "theta-0.5-40": partial_theta_coeffs(0.5, 40),
    "theta-minus-0.5-40": partial_theta_coeffs(-0.5, 40),
    "theta-0.8-80": partial_theta_coeffs(0.8, 80),
}


@pytest.mark.parametrize("name", sorted(REAL_ONE_ROOT_EDGES))
def test_real_polynomials_start_off_the_real_axis(name):
    c = np.asarray(REAL_ONE_ROOT_EDGES[name], complex)
    # scaled as find_roots scales it, and exactly real: there a sign change makes a binomial root
    # exactly real.  Scaled by powers of two, each real coefficient stays real (theta at q = -0.5
    # is not quite real as built, its powers of q formed in complex arithmetic)
    assert (solver._strip_and_scale(c)[0].imag[c.imag == 0] == 0).all()
    for sc in (solver._strip_and_scale(c)[0], c / np.abs(c).max()):
        u = solver._start_points(sc)
        # a real polynomial's one-root edges have real binomial roots: each start lies beside one
        assert np.count_nonzero(np.abs(np.sin(np.angle(u))) <= 0.1) >= 2
        assert (u.imag != 0).all()


def test_find_roots_complex_pair_from_two_one_root_edges():
    # both binomial roots are real; the roots are the pair (1.755 +- i sqrt(4 - 1.755^2)) / 2
    roots = sorted((cl.center for cl in find_roots([1.0, -1.755, 1.0])), key=lambda z: z.imag)
    half = math.sqrt(4 - 1.755**2) / 2
    assert len(roots) == 2
    for z, want in zip(roots, (0.8775 - 1j * half, 0.8775 + 1j * half)):
        assert abs(z - want) <= 1e-15, (z, want)


@pytest.mark.parametrize(
    "q, N, trust, points",
    [
        (0.35, 40, 1e9, 20),
        (0.5, 40, 1e9, 30),
        (0.8, 40, 112.20184543019653, 22),
        (0.35, 80, 1e9, 20),
        (0.5, 80, 1e9, 30),
        (0.8, 80, 891250.9381337477, 62),
    ],
)
def test_partial_theta_at_real_q_keeps_its_trust_radius_and_points(q, N, trust, points):
    # the trust radii and point counts of the golden-angle start
    series = spec_from_dict({"type": "series", "family": "partial-theta", "q": q, "N": N})
    assert series.trust_radius == trust
    zeros = alpha_points(series, 0.0, series.trust_radius)
    assert len(zeros) == points and all(pt.multiplicity == 1 for pt in zeros)


def test_disturbed_exp_with_a_subnormal_coefficient_solves_to_its_series_roots():
    # q = 0.3 + 0.3i, N = 40: c_39 = 5.4e-323 is subnormal and c_40 underflows to 0, so the
    # degree-39 head is solved.  Its double-range scale split no root, and each point is within
    # 1e-13 of a root of the exact series (64 terms, 60 digits), to which Newton refines it
    series = spec_from_dict({"type": "series", "family": "disturbed-exp", "q": {"re": 0.3, "im": 0.3}, "N": 40})
    points = alpha_points(series, 0.0, series.trust_radius)
    assert len(points) == 21 and all(pt.multiplicity == 1 for pt in points)
    with mp.workdps(60):
        q = mp.mpc(0.3, 0.3)
        exact = [q ** (n * (n - 1) // 2) / mp.factorial(n) for n in range(64)][::-1]
        for pt in points:
            z = mp.mpc(pt.value)
            for _ in range(8):
                value, slope = mp.polyval(exact, z, derivative=True)
                z -= value / slope
            assert abs(pt.value - complex(z)) <= 1e-13 * abs(complex(z)), (pt.value, complex(z))


def test_import_leaves_mpmath_unloaded():
    # nor does a solve with a double root, the fig3 true double among them
    src = os.path.dirname(os.path.dirname(os.path.abspath(alphasectors.__file__)))
    code = (
        "import sys, alphasectors, alphasectors.cli\n"
        "from alphasectors import StructuredFunction, alpha_points, find_roots\n"
        "assert find_roots([4, -4, 1])[0].multiplicity == 2\n"
        "spec = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))\n"
        "assert alpha_points(spec, 0.21755646163765166j, 10.0)[0].multiplicity == 2\n"
        "print('mpmath' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# (family, q, N) of the family specs whose truncation roots alpha_points reuses
FAMILY_SERIES = {
    "theta": ("partial-theta", 0.7j, 64),
    "dexp": ("disturbed-exp", 1j, 40),
    "binomial": ("sokal-poly", 0.6j, 40),
}


def _family_series(family, q, N) -> SeriesFunction:
    return spec_from_dict({"type": "series", "family": family, "q": {"re": q.real, "im": q.imag}, "N": N})


def _count_find_roots(monkeypatch) -> list:
    calls = []
    solve = solver.find_roots
    monkeypatch.setattr(solver, "find_roots", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    return calls


def _point_bytes(points):
    return (
        np.array([pt.value for pt in points]).tobytes(),
        np.array([pt.residual for pt in points]).tobytes(),
        [(pt.multiplicity, pt.sector, pt.boundary) for pt in points],
    )


@pytest.mark.parametrize("name", FAMILY_SERIES)
def test_alpha_points_reuses_the_truncation_roots_bit_for_bit(name):
    series = _family_series(*FAMILY_SERIES[name])
    cleared = dataclasses.replace(series, roots=None)
    assert series.roots is not None and cleared == series and hash(cleared) == hash(series)
    carried = alpha_points(series, 0.0, series.trust_radius, k=2)
    assert carried and _point_bytes(carried) == _point_bytes(alpha_points(cleared, 0.0, series.trust_radius, k=2))


def test_series_pipeline_solves_each_truncation_once(monkeypatch):
    solves = _count_find_roots(monkeypatch)
    batches = []
    batch = solver._find_roots_batch
    monkeypatch.setattr(
        solver, "_find_roots_batch", lambda polys, *a, **kw: batches.append(len(polys)) or batch(polys, *a, **kw)
    )
    series = _family_series(*FAMILY_SERIES["theta"])
    assert batches == [2] and not solves  # the degree-N and degree-(N+10) truncations, in one batch
    alpha_points(series, 0.0, series.trust_radius, k=2)
    assert batches == [2] and not solves


@pytest.mark.parametrize(
    "alpha, kwargs",
    [(0.0, {"tol": 1e-12}), (0.5, {})],
    ids=["tol", "alpha"],
)
def test_alpha_points_solves_afresh_when_the_solve_differs(monkeypatch, alpha, kwargs):
    series = _family_series(*FAMILY_SERIES["dexp"])
    calls = _count_find_roots(monkeypatch)
    alpha_points(series, alpha, series.trust_radius, k=2, **kwargs)
    assert len(calls) == 1


def test_carried_roots_still_face_the_multiplicity_bound(monkeypatch):
    coeffs = tuple(np.convolve(np.convolve([-1, 1], [-1, 1]), [-1, 1]))  # (z-1)^3
    series = SeriesFunction(coeffs, 2.0, tuple(find_roots(coeffs)))
    calls = _count_find_roots(monkeypatch)
    with pytest.raises(SolverError, match="exceeds the admissible bound 2"):
        alpha_points(series, 0.0, 2.0)
    assert not calls


def _sparse_alpha_case(k: int, p: int, with_cd: bool, seed: int) -> np.ndarray:
    """alpha_polynomial of a seeded rational spec; its exponents lie in the classes 0 and |p| mod k."""
    rng = np.random.default_rng(seed)
    na, nb = (8, 6) if k < 16 else (4, 3)
    spec = StructuredFunction(
        p=p,
        k=k,
        a=tuple(np.exp(rng.uniform(-1.5, 1.5, na)).tolist()),
        b=tuple(np.exp(rng.uniform(-1.5, 1.5, nb)).tolist()),
        c=tuple(np.exp(rng.uniform(-1.0, 1.0, int(with_cd))).tolist()),
        d=tuple(np.exp(rng.uniform(-1.0, 1.0, int(with_cd))).tolist()),
    )
    return alpha_polynomial(spec, random_alpha_generic(rng, spec))


# name -> (k, p, with c/d, zero coefficients put in front: roots at the origin, stripped before the solve)
SPARSE_CASES = {
    "k2-p1": (2, 1, False, 0),
    "k3-p-2-cd": (3, -2, True, 0),
    "k7-p2": (7, 2, False, 0),
    "k7-p-1-cd-origin": (7, -1, True, 2),
    "k16-p5-cd": (16, 5, True, 0),
    "k16-p-1": (16, -1, False, 0),
    "k24-p-1": (24, -1, False, 0),
    "k24-p5-cd-origin": (24, 5, True, 3),
}


@pytest.mark.parametrize("name", sorted(SPARSE_CASES))
def test_sparse_solve_matches_extended_precision(monkeypatch, name):
    k, p, with_cd, zeros = SPARSE_CASES[name]
    coeffs = np.concatenate([np.zeros(zeros, complex), _sparse_alpha_case(k, p, with_cd, seed=k + 10 * zeros)])
    assert solver._stride(coeffs[zeros:]).g == (k if k >= 7 else 1)
    clusters = find_roots(coeffs)
    moduli = [abs(cl.center) for cl in clusters if cl.center != 0]
    assert min(moduli) < 1 < max(moduli)  # roots inside and outside the unit circle
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_stride", lambda c: solver._DENSE)
        dense = find_roots(coeffs)
    assert [(cl.center == 0, cl.multiplicity) for cl in clusters] == [(cl.center == 0, cl.multiplicity) for cl in dense]
    simple = [cl for cl in clusters if cl.multiplicity == 1 and cl.center != 0]
    for cl in simple[:: max(1, len(simple) // 24)]:
        ref = REFERENCE._extended_polish(coeffs, [cl.members[0]], [1])[0]
        ulp = np.spacing(abs(ref))
        assert abs(cl.center - ref) <= 4 * ulp, (cl.center, ref)
        floor = _mp_abs_value(coeffs, ref, derivative=True) * ulp
        assert _mp_abs_value(coeffs, cl.center) <= max(_mp_abs_value(coeffs, ref), floor)


@pytest.mark.parametrize(
    "coeffs",
    [
        lambda: _random_poly(3, 96),
        lambda: partial_theta_coeffs(0.7j, 64),
        lambda: disturbed_exp_coeffs(1j, 40),
        lambda: sokal_poly_coeffs(0.6j, 40),
    ],
    ids=["random", "theta", "dexp", "binomial"],
)
def test_dense_inputs_keep_stride_one(coeffs):
    c = np.asarray(coeffs(), complex)
    assert solver._stride(c[: np.flatnonzero(c)[-1] + 1]) == solver._DENSE


@pytest.mark.parametrize("k, p", [(8, 1), (13, -2), (24, 5), (24, -1)])
def test_alpha_polynomial_takes_stride_k_with_two_classes(k, p):
    coeffs = _sparse_alpha_case(k, p, False, seed=k)
    assert solver._stride(coeffs) == solver._Stride(k, (0, abs(p) % k))


@pytest.mark.parametrize("k, p", [(7, 2), (24, -1)])
def test_sparse_newton_terms_on_the_edge_lanes(k, p):
    sc, _, _ = solver._strip_and_scale(_sparse_alpha_case(k, p, True, seed=k))
    stride = solver._stride(sc)
    assert stride.g == k
    n = len(sc) - 1
    dsc = np.arange(1, n + 1) * sc[1:]
    rng = np.random.default_rng(k)
    ring = np.exp(2j * np.pi * rng.uniform(size=40))
    u = np.concatenate([
        ring * rng.uniform(0.2, 1.0, 40),  # inside the unit circle
        ring / rng.uniform(0.2, 1.0, 40),  # outside it
        [1, -1, 1j, -1j, 0.6 + 0.8j, -0.8 - 0.6j],  # on it: |u| == 1 exactly
        [0, complex(math.nan, 0.5), complex(math.inf, 0)],
    ])
    finite = np.isfinite(u)
    for args in ((sc, dsc, u), (np.abs(sc), np.abs(dsc), np.abs(u))):  # _subsplit's rounding bound
        with np.errstate(all="ignore"):
            got = solver._Horner([args[:2]], stride)(args[2], np.zeros(len(args[2]), np.intp))
            want = _polyval_newton_terms(*args)
            bound = _polyval_newton_terms(*(np.abs(a) for a in args))  # sum |c_i| |u|^i, as N and D scale it
            gaps = [np.abs(g - w)[finite] for g, w in zip(got, want)]
        assert not np.isfinite(got[0][~finite]).any()
        for g, w, gap, b in zip(got, want, gaps, bound):
            assert np.array_equal(np.isfinite(g), np.isfinite(w))
            assert np.all(gap <= 1e-13 * b[finite])


@pytest.mark.parametrize("k, p, with_cd", [(7, 2, False), (16, 5, True), (24, -1, True)])
def test_sparse_compensated_step_matches_extended_precision(k, p, with_cd):
    # 1e-12 (relative) off each root, q(u) is a cancellation of terms 1e12
    # times larger: plain Horner, or w = u^k rounded once, leaves the
    # correction wrong in its fourth digit; the compensated step leaves
    # about 1e-14 of it
    coeffs = _sparse_alpha_case(k, p, with_cd, seed=k)
    stride = solver._stride(coeffs)
    assert stride.g == k
    rng = np.random.default_rng(k)
    z = np.array([cl.center for cl in find_roots(coeffs)])[::3]
    z = z * (1 + 1e-12 * (rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))))
    cf, e, f, u = _step_inputs(coeffs, z)
    got = solver._compensated_newton_step(solver._scaled_lanes(cf[:, None], e, f, stride, np.zeros(len(u), np.intp)), u, stride)
    with mp.workdps(60):
        cs = [mp.mpc(c) for c in coeffs[::-1]]
        for zi, ei, gi in zip(z, e, got):
            pv, dv = mp.polyval(cs, mp.mpc(zi), derivative=True)
            want = complex(pv / dv / mp.mpf(2) ** int(ei))
            assert abs(gi - want) <= 1e-12 * abs(want), (zi, gi, want)


# ---------------------------------------------------------------------------
# the batched solve against one find_roots call per polynomial
# ---------------------------------------------------------------------------


def _assert_batch_matches_solo(polys):
    got = solver._find_roots_batch(polys)
    assert len(got) == len(polys)
    for clusters, coeffs in zip(got, polys):
        assert clusters_bytes(clusters) == clusters_bytes(find_roots(coeffs))


@pytest.mark.parametrize("degrees", [(40, 50), (96, 106), (106, 96)], ids=["40-50", "96-106", "106-96"])
def test_batch_matches_solo_on_random_pairs(degrees):
    _assert_batch_matches_solo([_random_poly(d + 1000, d) for d in degrees])


@pytest.mark.parametrize("family, t, N", QSERIES_GRID, ids=[f"{f}-{t}i-{n}" for f, t, n in QSERIES_GRID])
def test_batch_matches_solo_on_the_qseries_truncations(family, t, N):
    src = np.asarray(_family_source(QSeriesSpec(family, 1j * t, N)), complex)
    _assert_batch_matches_solo([src[: N + 1], src[: N + 11]])


def test_batch_matches_solo_on_dense_degrees():
    # dense polynomials of degree 10, 64 and 11 share one stack, and one compensated polish at stride 3
    _assert_batch_matches_solo([_random_poly(10, 10), partial_theta_coeffs(0.7j, 64), _random_poly(11, 11)])


def test_batch_matches_solo_across_strides():
    polys = [
        _sparse_alpha_case(7, 2, False, seed=7),
        _random_poly(5, 30),
        np.concatenate([[0, 0], _sparse_alpha_case(24, -1, True, seed=24)]),  # two roots at the origin
        _sparse_alpha_case(7, 2, True, seed=8),
    ]
    strides = [solver._stride(np.trim_zeros(np.asarray(c, complex))) for c in polys]
    assert strides[0].g == 7 and strides[1].g == 1 and strides[2].g == 24
    _assert_batch_matches_solo(polys)


def _raised(solve, *args):
    with pytest.raises((SolverError, ValueError)) as exc:
        solve(*args)
    err = exc.value
    return type(err), str(err), np.array(getattr(err, "residuals", ())).tobytes()


def test_batch_raises_the_error_of_its_first_failing_member():
    good = partial_theta_coeffs(0.7j, 64)
    stuck = partial_theta_coeffs(0.9, 80)  # Aberth does not converge
    bad = [1.0, math.nan, 1.0]
    assert _raised(find_roots, stuck)[1].startswith("simultaneous iteration did not converge")
    assert _raised(solver._find_roots_batch, [good, stuck]) == _raised(find_roots, stuck)
    assert _raised(solver._find_roots_batch, [good, stuck, bad]) == _raised(find_roots, stuck)
    assert _raised(solver._find_roots_batch, [good, bad, stuck]) == _raised(find_roots, bad)
    # input order decides, not the stage at which a solve fails: this one fails last, in _finish
    late = [0, 0, 0, 1, 2, 1]  # a triple root at the origin, beyond max_multiplicity = 1
    args = (1e-10, 1)
    assert _raised(solver._find_roots_batch, [good, late, bad, stuck], *args) == _raised(find_roots, late, *args)


@pytest.mark.parametrize(
    "family, t, N, solves",
    [("sokal-poly", 0.6, 40, 1), ("partial-theta", 0.7, 80, 1), ("partial-theta", 0.7, 64, 2)],
    ids=["binomial", "theta-underflow", "theta"],
)
def test_truncate_series_solves_a_zero_tail_once(monkeypatch, family, t, N, solves):
    # the binomial's tail is zero by construction; partial theta at q = 0.7i, N = 80 has
    # underflowed to zero beyond N, so both truncations strip to one polynomial
    src = _family_source(QSeriesSpec(family, 1j * t, N))
    starts = []
    start = solver._start_points
    monkeypatch.setattr(solver, "_start_points", lambda sc, *forecast: starts.append(len(sc) - 1) or start(sc, *forecast))
    series = truncate_series(SeriesFunction(tuple(src)), N, 1e-9)
    assert len(starts) == solves  # one Aberth run per distinct truncation
    monkeypatch.undo()
    assert series.trust_radius > 0
    assert clusters_bytes(series.roots) == clusters_bytes(find_roots(src[: N + 1]))


def test_batch_raises_the_error_of_a_repeated_failing_member():
    stuck = list(partial_theta_coeffs(0.9, 80))  # Aberth does not converge
    good = partial_theta_coeffs(0.7j, 64)
    assert _raised(solver._find_roots_batch, [good, stuck, stuck + [0] * 3]) == _raised(find_roots, stuck)
    assert _raised(solver._find_roots_batch, [stuck + [0] * 3, good, stuck]) == _raised(find_roots, stuck)
    late = [0, 0, 0, 1, 2, 1]  # a triple root at the origin, beyond max_multiplicity = 1
    args = (1e-10, 1)
    assert _raised(solver._find_roots_batch, [late, good, late], *args) == _raised(find_roots, late, *args)


# ---------------------------------------------------------------------------
# start circles and Aberth iterates against the per-edge, per-iteration forms
# ---------------------------------------------------------------------------


def _start_cases() -> dict:
    """Ascending coefficients: the qseries truncations, verify-shaped alpha-polynomials, dense random ones."""
    cases = {}
    for family, t, N in QSERIES_GRID:
        src = np.asarray(_family_source(QSeriesSpec(family, 1j * t, N)), complex)
        cases[f"{family}-{t}i-{N}"] = src[: N + 1]
        cases[f"{family}-{t}i-{N}+10"] = src[: N + 11]
    for k, p in ((7, 2), (8, 1), (13, -2), (16, 5), (24, 5), (24, -1)):
        for with_cd in (False, True):
            cases[f"alpha-k{k}-p{p}-cd{int(with_cd)}"] = _sparse_alpha_case(k, p, with_cd, seed=k + int(with_cd))
    for d in (13, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512):
        cases[f"random-{d}"] = _random_poly(d, d)
    # the Newton polygon is one edge: every coefficient on it, or only the two ends held
    cases["unimodular-40"] = np.exp(2j * np.pi * np.random.default_rng(40).uniform(size=41))
    cases["ends-64"] = np.array([2.0] + [0.0] * 63 + [1.0j])
    return cases


def test_start_points_match_the_per_edge_circles_bit_for_bit():
    hulls = set()
    for name, coeffs in _start_cases().items():
        sc = solver._strip_and_scale(coeffs)[0]
        got, want = solver._start_points(sc), REFERENCE._start_points(sc)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        # a forecast of another length than the degree is no forecast
        assert solver._start_points(sc, (7, [0] * (len(sc) - 2))).tobytes() == want.tobytes(), name
        hulls.add(len(np.unique(np.round(np.log(np.abs(got)), 9))))  # one circle per hull edge
    assert 1 in hulls and max(hulls) >= 10  # one-edge hulls and many-edge ones


@pytest.mark.parametrize(
    "sc",
    [
        [1.0, math.exp(-10), math.exp(-735)],  # the second edge's circle lies near e^725
        [math.exp(700), math.exp(-10), math.exp(-722)],  # both edges' circles, near e^710 and e^712
    ],
)
def test_start_points_beyond_double_range_name_the_first_such_edge(sc):
    sc = np.array(sc, complex)
    assert _raised(solver._start_points, sc) == _raised(REFERENCE._start_points, sc)
    assert "beyond double range" in _raised(solver._start_points, sc)[1]
    assert "e^712" not in _raised(solver._start_points, sc)[1]


def _aberth_outcomes(aberth, polys, stride):
    """Per polynomial, the bytes of its iterates or its error's type, text and residuals."""
    scaled = [solver._strip_and_scale(c)[0] for c in polys]
    horner = solver._Horner([(sc, np.arange(1, len(sc)) * sc[1:]) for sc in scaled], stride)
    return [
        (type(u), str(u), np.array(u.residuals).tobytes()) if isinstance(u, SolverError) else u.tobytes()
        for u in aberth(horner, solver.DEFAULT_ROOT_TOL)
    ]


ABERTH_CASES = {
    **{f"alpha-k{k}-p{p}": lambda k=k, p=p: [_sparse_alpha_case(k, p, True, seed=k)] for k, p in ((8, 1), (16, 5), (24, -1))},
    **{f"random-{d}": (lambda d=d: [_random_poly(d, d)]) for d in (96, 192, 256)},
    # four dense members that leave the loop at different iterations, one of them
    # not at all: it runs to MAX_ITERS and raises
    "batch": lambda: [_random_poly(40, 40), partial_theta_coeffs(0.7j, 80), partial_theta_coeffs(0.9, 80), _random_poly(96, 96)],
}


@pytest.mark.parametrize("name", sorted(ABERTH_CASES))
def test_aberth_iterates_match_the_per_iteration_stack_bit_for_bit(monkeypatch, name):
    polys = ABERTH_CASES[name]()
    strides = {solver._stride(np.trim_zeros(np.asarray(c, complex))) for c in polys}
    assert len(strides) == 1
    stride = strides.pop()
    got = _aberth_outcomes(solver._aberth, polys, stride)
    assert got == _aberth_outcomes(REFERENCE._aberth, polys, stride)
    if name == "batch":
        assert [isinstance(u, bytes) for u in got] == [True, True, False, True]
        assert len({_aberth_iterations(monkeypatch, c) for c in polys}) == len(polys)


# ---------------------------------------------------------------------------
# the sector forecast: only a start
# ---------------------------------------------------------------------------


K24 = StructuredFunction(p=1, k=24, a=(0.4, 0.7, 1.1, 1.6, 2.3, 3.1, 0.55, 1.35), b=(0.5, 0.9, 1.3, 1.9, 2.6, 3.4))


def _forecast_cases(workdir) -> list:
    """The CI's k = 24 spec at a generic and a real alpha, and six meromorphic-form verify-pool jobs."""
    pool = [(spec, alpha) for spec, alpha in _verify_pool_cases(1, workdir) if spec.is_meromorphic_form]
    return [(K24, 0.3 + 0.2j), (K24, 0.5), *pool[:6]]


def _centres_agree(got, want) -> bool:
    """Same multiplicities, and every centre within rounding of the other's (below 1e-28 |z|)."""
    return [cl.multiplicity for cl in got] == [cl.multiplicity for cl in want] and all(
        abs(a.center - b.center) <= 1e-28 * abs(b.center) for a, b in zip(got, want)
    )


def test_a_wrong_forecast_costs_iterations_not_roots(monkeypatch, tmp_path):
    stuck = 0
    for spec, alpha in _forecast_cases(tmp_path):
        P = alpha_polynomial(spec, alpha)
        n, k, radius = len(P) - 1, spec.k, 2 * (1 + np.abs(P[:-1] / P[-1]).max())
        want = find_roots(P, max_multiplicity=2)  # the golden-angle start
        shifted = [(s + 1) % (2 * k) for s in predict_sectors(spec, alpha, n)]
        for wrong in (shifted, [0] * n):
            try:
                got = solver._find_roots_batch([P], solver.DEFAULT_ROOT_TOL, 2, [(k, wrong)])[0]
            except SolverError as exc:  # every root started in one sector: over MAX_ITERS at k = 24
                assert wrong[0] == 0 and str(exc).startswith("simultaneous iteration did not converge")
                stuck += 1
                # alpha_points then takes the golden-angle start: its roots, bit for bit
                monkeypatch.setattr(solver, "predict_sectors", lambda *args: wrong)
                pts = alpha_points(spec, alpha, radius)
                monkeypatch.undo()
                assert [(pt.value, pt.multiplicity) for pt in pts] == [(cl.center, cl.multiplicity) for cl in want]
                continue
            assert _centres_agree(got, want), (spec, alpha, wrong[:4])
    assert stuck


def test_ranks_sharing_a_circle_and_a_sector_start_apart(tmp_path):
    for spec, alpha in _forecast_cases(tmp_path):
        P = alpha_polynomial(spec, alpha)
        sc, n, k = solver._strip_and_scale(P)[0], len(P) - 1, spec.k
        for sectors in (predict_sectors(spec, alpha, n), [0] * n):
            u = solver._start_points(sc, (k, sectors))
            assert len(np.unique(u)) == n
            # each start inside its sector, on the circles of the default start
            assert np.array_equal(np.floor(np.angle(u) / (np.pi / k)) % (2 * k), sectors)
            assert np.allclose(np.abs(u), np.abs(solver._start_points(sc)), rtol=1e-15, atol=0)


def test_forecast_start_cuts_the_verify_pool_iterations(monkeypatch, tmp_path):
    # Aberth iterations a meromorphic-form job from the golden-angle start: generic
    # alpha 11.29 / 11.71 (seeds 1 / 2), real-power alpha 11.92 / 12.92
    calls = _counted_iterations(monkeypatch)
    for seed in (1, 2):
        iterations = {True: [], False: []}  # by: is alpha generic
        for spec, alpha in _verify_pool_cases(seed, tmp_path):
            if spec.is_meromorphic_form:
                calls.clear()
                alpha_points(spec, alpha, 1.0)
                generic = real_direction_index(normalized_alpha(spec, alpha), spec.p, spec.k) is None
                iterations[generic].append(len(calls))
        assert np.mean(iterations[True]) <= 7.0 and np.mean(iterations[False]) <= 10.0, (seed, iterations)


# ---------------------------------------------------------------------------
# alpha_points' array acceptance pass against its per-point loop
# (REFERENCE.accept_points), byte for byte
# ---------------------------------------------------------------------------


def _accept_outcome(accept, *args):
    """Every field of every accepted point as bytes, or the failure's text and residuals."""
    try:
        pts = accept(*args)
    except SolverError as exc:
        return str(exc), np.array(exc.residuals).tobytes()
    return [
        (
            np.complex128(pt.value).tobytes(),
            np.float64(pt.modulus).tobytes(),
            pt.sector,
            pt.boundary,
            pt.multiplicity,
            np.float64(pt.residual).tobytes(),
        )
        for pt in pts
    ]


def _assert_loops_outcome(*args):
    """The pass against REFERENCE.accept_points: the loop's points or SolverError byte for byte, and where the
    loop raises anything else, a SolverError naming the centre it raised at.  Returns the loop's outcome."""
    try:
        want = _accept_outcome(REFERENCE.accept_points, *args)
    except (OverflowError, ZeroDivisionError):
        spec, alpha, clusters, *rest = args
        # the centre it raised at: the first whose prefix of the clusters the loop cannot finish
        for i in range(len(clusters)):
            try:
                REFERENCE.accept_points(spec, alpha, clusters[: i + 1], *rest)
            except (OverflowError, ZeroDivisionError):
                break
            except SolverError:
                pass
        with pytest.raises(SolverError, match="lies beyond double range") as raised:
            solver._accept(*args)
        assert str(raised.value).startswith(f"alpha-point candidate {clusters[i].center!r}: "), raised.value
        return None
    assert _accept_outcome(solver._accept, *args) == want, args[:2]
    return want


def _acceptance_spec(rng, k: int) -> StructuredFunction:
    """A seeded rational spec: p of either sign coprime to k, 1-3 a and b factors, c and d in half of them."""
    p = int(rng.choice([x for x in (-7, -5, -3, -2, -1, 1, 2, 3, 5, 7) if math.gcd(abs(x), k) == 1]))
    a, b = (tuple(np.exp(rng.uniform(-1.5, 1.5, int(rng.integers(1, 4)))).tolist()) for _ in range(2))
    c = d = ()
    if rng.random() < 0.5:
        c, d = (tuple(np.exp(rng.uniform(-1, 1, int(rng.integers(0, 3)))).tolist()) for _ in range(2))
    return StructuredFunction(p=p, k=k, a=a, b=b, c=c, d=d)


def _planted(spec, rng) -> list:
    """Centres that are no alpha-points: each 1e-10, 5e-4 and 2e-3 (relative) off a pole in z^k, and
    within 1e-9 +- 1e-12 rad of a ray."""
    k = spec.k
    out = []
    for v in spec.b + tuple(1 / x for x in spec.d):  # the poles in w = z^k
        for eps in (1e-10, 5e-4, 2e-3):
            w = v * (1 + eps * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            out.append(w ** (1 / k) * unit_rotation(2 * int(rng.integers(0, k)), k))
    for s in rng.integers(0, 2 * k, 3).tolist():
        for off in (-1e-12, -3e-13, 0.0, 3e-13, 1e-12):
            for side in (-1, 1):
                out.append(math.exp(rng.uniform(-1, 1)) * cmath.exp(1j * (s * math.pi / k + side * (1e-9 + off))))
    return [solver.RootCluster(z, (z,), 1, 0.0) for z in out]


def test_acceptance_pass_matches_the_per_point_loop():
    rng = np.random.default_rng(23)
    runs = failed = 0
    for k in range(2, 41):
        spec = _acceptance_spec(rng, k)
        alpha = complex(np.exp(rng.uniform(-1, 1) + 1j * rng.uniform(-math.pi, math.pi)))
        clusters = find_roots(alpha_polynomial(spec, alpha), max_multiplicity=2)
        planted = _planted(spec, rng)
        poles = 3 * (len(spec.b) + len(spec.d))  # the planted centres off the poles come first
        gate = planted[1:poles:3]
        radius = max(abs(cl.center) for cl in clusters)
        for centres, rad, tol in (
            (clusters, 2 * radius, solver.DEFAULT_TOL),
            (clusters, radius / 2, solver.DEFAULT_TOL),
            (clusters + gate, 2 * radius, solver.DEFAULT_TOL),  # inside the 1e-3 gate: accepted
            (clusters + planted, 2 * radius, solver.DEFAULT_TOL),  # the band and beyond the gate: failures
            (clusters + planted[poles:], 2 * radius, math.inf),  # by the rays
        ):
            got = _assert_loops_outcome(spec, alpha, centres, rad, tol, k, None)
            failed += isinstance(got, tuple)
            runs += 1
    assert failed >= 39
    # |k| or |p| above 100, where complex ** leaves its integer path for exp and log
    for p, k in ((1, 101), (-101, 2)):
        spec = StructuredFunction(p=p, k=k, a=(2.0,), b=(0.5,))
        clusters = find_roots(alpha_polynomial(spec, 0.3 + 0.4j), max_multiplicity=2)
        assert _assert_loops_outcome(spec, 0.3 + 0.4j, clusters, 10.0, solver.DEFAULT_TOL, spec.k, None)


def _centres(*zs) -> list:
    """A simple cluster at each of zs."""
    return [solver.RootCluster(complex(z), (complex(z),), 1, 0.0) for z in zs]


@pytest.mark.parametrize(
    "spec, alpha, centres, raised",
    [
        # z^3 overflows
        (StructuredFunction(p=1, k=3, a=(1.0,), b=(2.0,)), 1e150, [1e150 + 1e100j, 1.0], OverflowError),
        # z^2 underflows to 0, and a d factor takes 1 / z^2
        (StructuredFunction(p=1, k=2, a=(1.0,), b=(2.0,), c=(3.0,), d=(0.5,)), 1e-300, [0.5, 1e-170j], ZeroDivisionError),
        # with c factors alone, 1 / z^2 comes after the pole rows
        (StructuredFunction(p=1, k=2, a=(1.0,), b=(2.0,), c=(3.0,)), 1e-300, [1e-170 + 0j, 0.5], ZeroDivisionError),
        # z^3 underflows to 0, and z^-3 divides by it
        (StructuredFunction(p=-3, k=2, a=(1.0,), b=(2.0,)), 1e300, [1e-120 + 1e-121j], ZeroDivisionError),
        # z^-1 of a subnormal z overflows
        (StructuredFunction(p=-1, k=2, a=(1.0,), b=(2.0,)), 1e300, [2.0, 1e-320 + 0j], OverflowError),
        # z^-101 takes exp and log, and overflows
        (StructuredFunction(p=-101, k=2, a=(1.0,), b=(2.0,)), 1.0, [1e-5 + 0j], OverflowError),
        # z^2's parts are finite, its distance from the pole 1 is not
        (StructuredFunction(p=1, k=2, a=(1.0,), b=(1.0,)), 1.0, [1.4142e154 * cmath.exp(0.125j * math.pi)], OverflowError),
        # the residual's parts are finite, its modulus is not
        (StructuredFunction(p=1, k=2, a=(1e300,)), 1.0, [2e8 * cmath.exp(0.25j * math.pi)], OverflowError),
    ],
)
def test_acceptance_names_the_centre_where_the_loop_raises(spec, alpha, centres, raised):
    args = (spec, complex(alpha), _centres(*centres), 1e305, solver.DEFAULT_TOL, spec.k, None)
    with pytest.raises(raised):
        REFERENCE.accept_points(*args)
    assert _assert_loops_outcome(*args) is None


def test_acceptance_of_non_finite_residuals_is_the_loops():
    # beside the pole w = 1e300, z (z^2 + 1e300) overflows: on the real axis the residual is inf,
    # accepted inside the 1e-3 gate and a failure beyond it; off the axis it is NaN, which no bound exceeds
    spec = StructuredFunction(p=1, k=2, a=(1e300,), b=(1e300,))
    for theta, eps, residual in ((0.0, 5e-4, math.inf), (0.0, 2e-3, None), (0.7, 2e-3, math.nan), (0.7, 1e-10, None)):
        z = (1e300 * (1 + eps * cmath.exp(1j * theta))) ** 0.5
        got = _assert_loops_outcome(spec, 1.0 + 0j, _centres(z, -z), 1e305, solver.DEFAULT_TOL, 2, None)
        if residual is None:
            assert got[0].startswith("pole-adjacent or unresolved clusters: "), (theta, eps)
        else:  # NaN as CPython's abs gives it, sign bit clear
            assert [pt[-1] for pt in got] == [np.float64(residual).tobytes()] * 2, (theta, eps)
    # z^12 of a real 1e100 is NaN without raising: the residual is CPython's NaN, sign bit clear
    spec = StructuredFunction(p=1, k=12, a=(1.0,), b=(2.0,))
    args = (spec, 1.0 + 0j, _centres(1e100), 1e305, solver.DEFAULT_TOL, 12, None)
    got = _assert_loops_outcome(*args)
    assert got[0][-1] == np.float64(math.nan).tobytes()


def test_acceptance_drops_a_centre_whose_modulus_leaves_double_range():
    # abs of the centre overflows, so the loop raises; the pass counts it beyond every radius
    spec = StructuredFunction(p=1, k=2, a=(1.0,), b=(2.0,))
    args = (spec, 1.0 + 0j, _centres(1.5e308 + 1.5e308j), math.inf, solver.DEFAULT_TOL, 2, None)
    with pytest.raises(OverflowError):
        REFERENCE.accept_points(*args)
    assert solver._accept(*args) == []


@pytest.mark.parametrize("alpha", [0.0, 0.25 - 0.5j])
@pytest.mark.parametrize("name", FAMILY_SERIES)
def test_acceptance_pass_matches_the_per_point_loop_on_series(name, alpha):
    series = _family_series(*FAMILY_SERIES[name])
    P = np.asarray(series.coeffs, complex) - np.eye(1, len(series.coeffs))[0] * alpha
    clusters = find_roots(P, max_multiplicity=2)
    values = np.polyval(P[::-1], np.array([cl.center for cl in clusters], complex))
    for rad in (series.trust_radius, series.trust_radius / 3):
        assert _assert_loops_outcome(series, alpha, clusters, rad, solver.DEFAULT_TOL, 2, values)


def test_acceptance_of_a_series_root_at_the_origin_is_the_loops_error():
    series = SeriesFunction((0.0, 1.0, 2.0, 1.5), 1.0)
    clusters = find_roots(series.coeffs, max_multiplicity=2)
    values = np.polyval(np.asarray(series.coeffs, complex)[::-1], np.array([cl.center for cl in clusters]))
    want = _assert_loops_outcome(series, 0.0, clusters, 1.0, solver.DEFAULT_TOL, 2, values)
    assert want[0] == "alpha-point at the origin is outside the sector model"


def test_acceptance_of_planted_series_values_is_the_loops():
    # values whose modulus overflows from finite parts raise in the loop; infinite and NaN ones are accepted
    series = SeriesFunction((1.0, 2.0, 1.5), 10.0)
    huge, inf, nan = 1.5e308 + 1.5e308j, complex(math.inf, 1.0), complex(math.nan, 1.0)
    for zs, values in (
        ((0.5, 0.5j, -0.5), (0j, inf, nan)),
        ((0.5, 0.5j, -0.5), (0j, huge, inf)),
        ((0.5, 0, 0.5j), (0j, 0j, huge)),  # the origin first: the loop's SolverError
        ((0.5, 0.5j, 0), (0j, huge, 0j)),  # the overflow first
    ):
        args = (series, 0.0, _centres(*zs), 1.0, solver.DEFAULT_TOL, 2, np.array(values, complex))
        _assert_loops_outcome(*args)
