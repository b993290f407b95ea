"""Acceptance suite: one test per criterion, at the stated tolerances and budgets.

Each test prints a single PASS line on success (run with -s to see them all);
a failed assertion marks the criterion FAILED.
"""

import cmath
import math
import time

import numpy as np

from alphasectors import (
    PoleProximity,
    SeriesFunction,
    StructuredFunction,
    alpha_points,
    alpha_polynomial,
    disturbed_exp_coeffs,
    evaluate_G,
    evaluate_R,
    find_roots,
    partial_theta_coeffs,
    points_census,
    predict_first_location,
    predict_next_sector,
    sector_census,
    sokal_poly_coeffs,
    solve_linear_congruence,
    theta_split_check,
    truncate_series,
    unit_rotation,
    verify_first_location,
    verify_k2_distribution,
    verify_real_power_case,
)
from alphasectors.functions import AlphaPoint
from alphasectors.sectors import classify_sector

from helpers import (
    annulus_off_moduli,
    pole_radii,
    random_alpha_generic,
    random_alpha_real_direction,
    random_structured,
)

FIG1 = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))
FIG2A = StructuredFunction(p=1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG2B = StructuredFunction(p=-1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name}: runtime {self.elapsed:.2f}s exceeds budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({self.elapsed:.2f}s)")


def test_criterion_1_fig1_polynomial():
    with Budget("criterion-1 fig1 algebraic fixture", 0.1):
        P = alpha_polynomial(FIG1, -1 - 1j)
        want = np.zeros(10, complex)
        want[0] = 0.4
        want[1] = 5 * (1 + 1j)
        want[3] = 4.5
        want[4] = -6 * (1 + 1j)
        want[6] = 5.1
        want[7] = 1 + 1j
        want[9] = 1
        assert len(P) == 10
        for got, exp in zip(P, want):
            if exp == 0:
                assert got == 0
            else:
                assert abs(got - exp) <= 1e-12 * abs(exp)


def test_criterion_2_fig1_localization():
    with Budget("criterion-2 fig1 localization", 2.0):
        alpha = -1 - 1j
        pts = alpha_points(FIG1, alpha, 10.0)
        assert len(pts) == 9
        assert all(pt.multiplicity == 1 for pt in pts)
        for i in range(8):
            gap = (pts[i + 1].modulus - pts[i].modulus) / pts[i + 1].modulus
            assert gap > 1e-6
        for pt in pts:
            d = abs(math.remainder(pt.argument, math.pi / 3))
            assert d > 1e-9 and not pt.boundary
        alpha_sector, _ = classify_sector(alpha / 0.08, 3)  # normalized direction
        for i in range(8):
            want = predict_next_sector(-1, 3, alpha_sector, pts[i].sector)
            assert pts[i + 1].sector.s == want.s
        counts = sector_census(FIG1, alpha, 0.01, 10.0)
        assert counts == points_census(pts, 3, 0.01, 10.0)


def test_criterion_3_first_point_forecasts():
    with Budget("criterion-3 first-point forecasts", 30.0):
        figure_alphas = [cmath.exp(1j * math.pi / 3), cmath.exp(1j * math.pi / 2), cmath.exp(2j * math.pi / 3)]
        for spec in (FIG2A, FIG2B):
            for alpha in figure_alphas:
                pts = alpha_points(spec, alpha, 10.0)
                fc = predict_first_location(spec, alpha)
                rep = verify_first_location(pts, fc, spec.k)
                assert rep.passed, (spec.p, alpha, [str(v) for v in rep.violations])
        rng = np.random.default_rng(2024)
        done = 0
        while done < 50:
            spec = random_structured(rng)
            alpha = random_alpha_generic(rng, spec, margin=0.02)
            pts = alpha_points(spec, alpha, 1e6)
            if not pts:
                continue
            fc = predict_first_location(spec, alpha)
            rep = verify_first_location(pts, fc, spec.k)
            assert rep.passed, (spec, alpha, fc, [str(v) for v in rep.violations])
            done += 1


def test_criterion_4_real_direction_pairing():
    with Budget("criterion-4 real-direction pairing", 30.0):
        rng = np.random.default_rng(4096)
        done = 0
        while done < 50:
            spec = random_structured(rng)
            alpha = random_alpha_real_direction(rng, spec)
            pts = alpha_points(spec, alpha, 1e6)
            if not pts:
                continue
            rep = verify_real_power_case(pts, alpha, spec)
            assert rep.passed, (spec, alpha, [str(v) for v in rep.violations])
            done += 1


def _rotated(points):
    mu = cmath.exp(1j * math.pi / 4)
    out = []
    for pt in points:
        z = mu * pt.value
        sector, boundary = classify_sector(z, 2)
        out.append(AlphaPoint(z, abs(z), sector, boundary, pt.multiplicity, pt.residual))
    return out


def test_criterion_5_q_series_applications():
    with Budget("criterion-5 q-series applications", 20.0):
        # (a) partial theta at q = 0.7i truncated at N = 64
        series = truncate_series(SeriesFunction(tuple(partial_theta_coeffs(0.7j, 74))), 64, 1e-9)
        zeros = alpha_points(series, 0.0, series.trust_radius, k=2)
        assert len(zeros) >= 6
        assert all(pt.multiplicity == 1 for pt in zeros)
        for i in range(len(zeros) - 1):
            gap = (zeros[i + 1].modulus - zeros[i].modulus) / zeros[i + 1].modulus
            assert gap > 1e-4
        rep = verify_k2_distribution(_rotated(zeros), -cmath.exp(-1j * math.pi / 4), -1, -1)
        assert rep.passed, [str(v) for v in rep.violations]

        # (b) disturbed exponential at q = i truncated at N = 40
        series = truncate_series(SeriesFunction(tuple(disturbed_exp_coeffs(1j, 50))), 40, 1e-9)
        zeros = alpha_points(series, 0.0, series.trust_radius, k=2)
        assert len(zeros) >= 6
        assert all(pt.multiplicity == 1 for pt in zeros[:6])
        for i in range(5):
            gap = (zeros[i + 1].modulus - zeros[i].modulus) / zeros[i + 1].modulus
            assert gap > 1e-4

        # (c) splitting identity
        for q in (0.3, 0.5, 0.7, 0.9):
            assert theta_split_check(q, 20)

        # (d) binomial q-polynomials at purely imaginary parameter
        for q in (0.3, 0.6, 0.9):
            clusters = find_roots(sokal_poly_coeffs(1j * q, 12))
            assert len(clusters) == 12
            assert all(cl.multiplicity == 1 for cl in clusters)
            mods = [abs(cl.center) for cl in clusters]
            assert all(mods[i + 1] > mods[i] * (1 + 1e-6) for i in range(11))


def test_criterion_6_property_suites():
    with Budget("criterion-6 property suites", 60.0):
        # congruence exhaustion for all coprime (p, k), k <= 12
        for k in range(1, 13):
            for p in range(-12, 13):
                if p == 0 or math.gcd(abs(p), k) != 1:
                    continue
                for r in range(k):
                    assert (p * solve_linear_congruence(p, r, k) - r) % k == 0

        rng = np.random.default_rng(606)
        specs = [FIG1, FIG2A] + [random_structured(rng, with_cd=True) for _ in range(6)]

        # k-fold covariance on 100 samples per instance
        for spec in specs:
            e2 = unit_rotation(2, spec.k)
            e2p = unit_rotation(2 * spec.p, spec.k)
            hits = 0
            while hits < 100:
                z = complex(rng.normal(), rng.normal())
                if abs(z) < 1e-2:
                    continue
                try:
                    lhs = evaluate_G(spec, z * e2)
                    rhs = e2p * evaluate_G(spec, z)
                except PoleProximity:
                    continue
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
                hits += 1

        # modulus monotonicity on upper half-plane samples, poles excluded
        for spec in specs:
            hits = 0
            while hits < 100:
                w = complex(rng.normal(), abs(rng.normal()))
                if w.imag < 1e-6 or abs(w) < 1e-2:
                    continue
                if any(abs(abs(w) - b) < 1e-3 * b for b in spec.b):
                    continue
                if any(abs(abs(w) - 1 / d) < 1e-3 / d for d in spec.d):
                    continue
                try:
                    mid = abs(evaluate_R(spec, w))
                    neg = abs(evaluate_R(spec, complex(-abs(w), 0.0)))
                    pos = abs(evaluate_R(spec, complex(abs(w), 0.0)))
                except PoleProximity:
                    continue
                assert neg < mid < pos
                hits += 1

        # root-finder reconstruction for random polynomials of degree <= 30
        for _ in range(25):
            deg = int(rng.integers(2, 31))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            clusters = find_roots(coeffs)
            rebuilt = np.array([1.0 + 0j])
            for cl in clusters:
                for _ in range(cl.multiplicity):
                    rebuilt = np.convolve(rebuilt, [-cl.center, 1.0])
            rebuilt = rebuilt * coeffs[-1]
            assert np.max(np.abs(rebuilt - coeffs)) <= 1e-8 * np.max(np.abs(coeffs))


def test_criterion_7_oracle_equivalence():
    with Budget("criterion-7 oracle equivalence", 60.0):
        rng = np.random.default_rng(707)
        done = 0
        while done < 20:
            spec = random_structured(rng, with_cd=(done % 4 == 0))
            alpha = random_alpha_generic(rng, spec)
            pts = alpha_points(spec, alpha, 100.0)
            if not pts:
                continue
            r_in, r_out = annulus_off_moduli(pts, pole_radii(spec))
            counts = sector_census(spec, alpha, r_in, r_out)
            assert counts == points_census(pts, spec.k, r_in, r_out), (spec, alpha)
            assert sum(counts) == sum(1 for pt in pts if r_in < pt.modulus < r_out)
            done += 1

        # region-splitting additivity on the fig1 fixture
        from alphasectors import AnnularSector, count_in_contour

        alpha = -1 - 1j
        whole = count_in_contour(FIG1, alpha, AnnularSector(0.3, 2.2, 0, 5, 3))
        for split_at in (1.05, 1.5):
            lo = count_in_contour(FIG1, alpha, AnnularSector(0.3, split_at, 0, 5, 3))
            hi = count_in_contour(FIG1, alpha, AnnularSector(split_at, 2.2, 0, 5, 3))
            assert lo + hi == whole
        left = count_in_contour(FIG1, alpha, AnnularSector(0.3, 2.2, 0, 2, 3))
        right = count_in_contour(FIG1, alpha, AnnularSector(0.3, 2.2, 3, 5, 3))
        assert left + right == whole
