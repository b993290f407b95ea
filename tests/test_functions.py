import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest

from alphasectors import (
    PoleProximity,
    SeriesFunction,
    StructuredFunction,
    evaluate_G,
    evaluate_R,
    normalization_constant,
    truncate_series,
    unit_rotation,
)
from alphasectors.functions import (
    DEFAULT_POLE_TOL,
    alpha_polynomial,
    eval_log_derivative_many,
    eval_many,
    log_derivative_many,
    pole_in_band,
)
from alphasectors.qseries import disturbed_exp_coeffs, partial_theta_coeffs, sokal_poly_coeffs
from alphasectors.solver import _TAIL_EXTRA, find_roots

from helpers import QSERIES_GRID, clusters_bytes, load_frozen

# the per-radius scan as it stood before the grid was scanned in one pass
REFERENCE = load_frozen("reference_truncation.py")
_roots_agree, _tail_ok = REFERENCE._roots_agree, REFERENCE._tail_ok
# the two written-out evaluation loops the census quadrature once called
INTEGRATE = load_frozen("reference_integrate.py")
ref_eval_many, ref_log_derivative_many = INTEGRATE.ref_eval_many, INTEGRATE.ref_log_derivative_many

FIG1 = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))
FIG3 = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))


def mp_G(spec, z):
    """G(z) in mpmath at the working precision, the product written out."""
    z = mp.mpc(z)
    zk = z**spec.k
    val = z**spec.p * mp.exp(spec.A * zk + (spec.A0 / zk if spec.A0 else 0))
    for a in spec.a:
        val *= zk + a
    for b in spec.b:
        val /= zk - b
    for c in spec.c:
        val *= 1 / zk + c
    for d in spec.d:
        val /= 1 / zk - d
    return val


def mp_eval_G(spec, z, dps=60):
    """Independent high-precision product evaluation (oracle)."""
    with mp.workdps(dps):
        return complex(mp_G(spec, z))


@pytest.mark.parametrize("growth", [{"A": math.nan}, {"A0": math.inf}, {"A": -0.5}])
def test_growth_constants_must_be_nonnegative_and_finite(growth):
    # NaN compares false to everything, so `A < 0` alone lets it through
    with pytest.raises(ValueError, match=f"growth constant {next(iter(growth))} "):
        StructuredFunction(p=1, k=2, a=(1.0,), **growth)


@pytest.mark.parametrize("k", [3.0, np.int64(3)])
def test_k_must_be_an_int(k):
    # classify_sector refuses any other k, so a spec that builds never fails there later
    with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}") + "$"):
        StructuredFunction(p=1, k=k, a=(1.0,))


@pytest.mark.parametrize(
    "lists, message",
    [
        ({"a": (1e-200, 1e-200)}, "field 'a': the product of its entries underflows to 0"),
        ({"b": (1e200, 1e200)}, "field 'b': the product of its entries is inf"),
        ({"a": (1.0,), "c": (1e-300,), "d": (1e300, 1e300)}, "field 'd': the product of its entries is inf"),
        # each list in range, their quotient not
        ({"a": (1e200,), "b": (1e-200,)}, "fields 'a', 'b': the normalization constant is -inf"),
        ({"c": (1e-200,), "d": (1e200,)}, "fields 'c', 'd': the normalization constant underflows to 0"),
    ],
    ids=["a-underflow", "b-overflow", "d-overflow", "ab-quotient-overflow", "cd-quotient-underflow"],
)
def test_factor_products_must_stay_in_double_range(lists, message):
    # prod(a) is the alpha-polynomial's constant term: at 0 a root is lost, at inf none is finite
    with pytest.raises(ValueError, match=message):
        StructuredFunction(p=1, k=2, **lists)


def test_factor_products_at_the_edge_of_double_range_are_accepted():
    spec = StructuredFunction(p=1, k=2, a=(1e200, 1e100), b=(1e-4, 10.0))
    assert math.isfinite(normalization_constant(spec)) and normalization_constant(spec) != 0


def test_fig1_numerator_zero():
    # z = -1 makes the (z^3 + 1) factor vanish
    assert evaluate_G(FIG1, -1 + 0j) == 0


def test_fig1_against_high_precision_oracle():
    for z in (0.5 + 0j, 0.3 + 0.4j, -2.0 + 1.0j, 0.1 - 0.9j):
        got = evaluate_G(FIG1, z)
        want = mp_eval_G(FIG1, z)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_full_model_against_oracle():
    spec = StructuredFunction(p=2, k=5, a=(0.7, 2.0), b=(3.0,), c=(1.5,), d=(0.25,), A=0.3, A0=0.1)
    for z in (0.8 + 0.2j, -1.1 + 0.6j, 0.2 - 1.3j):
        got = evaluate_G(spec, z)
        want = mp_eval_G(spec, z)
        assert abs(got - want) <= 1e-11 * (1 + abs(want))


def test_k_fold_covariance():
    rng = np.random.default_rng(7)
    for spec in (FIG1, FIG3, StructuredFunction(p=2, k=5, a=(1.0,), b=(2.0,), c=(0.5,), d=(3.0,))):
        e2p = unit_rotation(2 * spec.p, spec.k)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 1e-3:
                continue
            try:
                lhs = evaluate_G(spec, z * unit_rotation(2, spec.k))
                rhs = e2p * evaluate_G(spec, z)
            except PoleProximity:
                continue
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 1e-2:
            continue
        try:
            lhs = evaluate_G(FIG1, z.conjugate())
            rhs = evaluate_G(FIG1, z).conjugate()
        except PoleProximity:
            continue
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_pole_band_raises():
    # z^3 = 1 is a pole; a point just inside the band must not return a number
    z = (1 + 1e-12) * 1.0
    with pytest.raises(PoleProximity):
        evaluate_G(FIG1, complex(z))
    with pytest.raises(ValueError):
        evaluate_G(FIG1, 0j)


def test_R_branch_normalization():
    spec = StructuredFunction(p=1, k=2, a=(3.0,), b=(7.0,))
    # positive axis: the branch root of 4 is 2
    assert abs(evaluate_R(spec, 4 + 0j) - evaluate_G(spec, 2 + 0j)) < 1e-14
    # negative axis: Arg(-4) = pi halves to pi/2, branch root 2i
    assert abs(evaluate_R(spec, -4 + 0j) - evaluate_G(spec, 2j)) < 1e-14
    with pytest.raises(ValueError):
        evaluate_R(spec, 1 - 1j)


def test_R_consistency_with_G_on_fig1():
    z = cmath.exp(1j * math.pi / 6)
    w = z**3
    assert abs(evaluate_R(FIG1, w) - evaluate_G(FIG1, z)) <= 1e-12


def test_R_halfcircle_modulus_monotonicity():
    rng = np.random.default_rng(3)
    for spec in (FIG1, FIG3):
        count = 0
        while count < 100:
            w = complex(rng.normal(), abs(rng.normal()))
            if w.imag <= 1e-6 or abs(w) < 1e-3:
                continue
            try:
                mid = abs(evaluate_R(spec, w))
                neg = abs(evaluate_R(spec, complex(-abs(w), 0.0)))
                pos = abs(evaluate_R(spec, complex(abs(w), 0.0)))
            except PoleProximity:
                continue
            # stay far enough from poles that the strict inequality is clean
            if min(abs(abs(w) - b) for b in spec.b) < 1e-3:
                continue
            assert neg < mid < pos
            count += 1


def test_to_polynomial_fig1_caption():
    P = alpha_polynomial(FIG1, -1 - 1j)
    want = np.zeros(10, complex)
    want[0] = 0.4
    want[1] = 5 * (1 + 1j)
    want[3] = 4.5
    want[4] = -6 * (1 + 1j)
    want[6] = 5.1
    want[7] = 1 + 1j
    want[9] = 1
    assert len(P) == len(want)
    for got, exp in zip(P, want):
        if exp == 0:
            assert got == 0
        else:
            assert abs(got - exp) <= 1e-12 * abs(exp)


def test_to_polynomial_fig3_expansion():
    P = alpha_polynomial(FIG3, 1j)
    # z(z^2+3) - i(z^2-1)(z^2-5) = -i z^4 + z^3 + 6i z^2 + 3 z - 5i
    want = np.array([-5j, 3, 6j, 1, -1j])
    assert np.allclose(P, want, rtol=1e-14, atol=0)


def test_to_polynomial_simple_case():
    spec = StructuredFunction(p=1, k=2, a=(1.0,), b=())
    P = alpha_polynomial(spec, 1.0)
    assert np.array_equal(P, np.array([-1, 1, 0, 1], complex))


def test_to_polynomial_rejects_nonrational():
    spec = StructuredFunction(p=1, k=2, a=(1.0,), A=1.0)
    with pytest.raises(ValueError):
        alpha_polynomial(spec, 1.0)
    with pytest.raises(ValueError):
        alpha_polynomial(FIG1, 0.0)


def test_alpha_polynomial_with_laurent_factors():
    spec = StructuredFunction(p=1, k=2, a=(2.0,), b=(3.0,), c=(0.5,), d=(4.0,))
    alpha = 0.7 + 0.2j
    P = alpha_polynomial(spec, alpha)
    roots = np.roots(P[::-1])
    for r in roots:
        if abs(r) < 1e-9:
            continue
        val = evaluate_G(spec, complex(r))
        assert abs(val - alpha) <= 1e-8 * (1 + abs(alpha))


def test_normalization_constant_signs():
    assert normalization_constant(FIG1) == pytest.approx(0.08)
    assert normalization_constant(FIG3) == pytest.approx(0.6)
    odd = StructuredFunction(p=1, k=2, a=(2.0,), b=(1.0,))
    assert normalization_constant(odd) == pytest.approx(-2.0)


def test_truncate_series_theta_half():
    src = SeriesFunction(tuple(partial_theta_coeffs(0.5, 60)))
    series = truncate_series(src, 40, 1e-9)
    # super-geometric decay certifies far beyond |z| = 4 (tail-sum oracle below)
    assert series.trust_radius > 4
    rho = 4.0
    tail = sum(abs(0.5 ** (n * (n - 1) // 2)) * rho**n for n in range(41, 61))
    assert tail < 1e-9


def test_truncate_series_geometric_boundary():
    src = SeriesFunction((1.0,) * 61)
    series = truncate_series(src, 40, 1e-9)
    assert series.trust_radius == 0.0


def test_truncate_series_requires_headroom():
    with pytest.raises(ValueError):
        truncate_series(SeriesFunction((1.0,) * 20), 15, 1e-9)


def test_truncated_exponential_has_no_certified_zeros():
    from alphasectors import alpha_points

    coeffs = [1 / math.factorial(n) for n in range(41)]
    series = truncate_series(SeriesFunction(tuple(coeffs)), 30, 1e-9)
    assert series.trust_radius > 0
    pts = alpha_points(series, 0.0, min(series.trust_radius, 5.0), k=2)
    assert pts == []


# ---------------------------------------------------------------------------
# differential test of the top-down trust-radius scan against the forward scan
# it replaced (a verbatim copy, but for the import of find_roots)
# ---------------------------------------------------------------------------


def ref_truncate_series(series: SeriesFunction, N: int, tail_tol: float) -> SeriesFunction:
    if N < 1:
        raise ValueError("truncation degree must be >= 1")
    if not tail_tol > 0:  # also refuses NaN
        raise ValueError("tail_tol must be positive")
    src = np.asarray(series.coeffs, complex)
    if len(src) < N + _TAIL_EXTRA + 1:
        raise ValueError(
            f"source coefficients up to degree >= {N + _TAIL_EXTRA} required, got {len(src) - 1}"
        )
    head = src[: N + 1]
    wide = src[: N + _TAIL_EXTRA + 1]

    # a non-decaying coefficient tail certifies nothing
    tail_mags = np.abs(src[N + 1 :])
    if tail_mags[-1] > 0 and tail_mags[-1] >= tail_mags[0] > 0:
        return SeriesFunction(tuple(head), 0.0)

    roots_n = [cl.center for cl in find_roots(head)]
    roots_w = [cl.center for cl in find_roots(wide)]

    grid = np.geomspace(1e-3, 1e9, 241)
    best = 0.0
    for rho in grid:
        if not _tail_ok(src, N, rho, tail_tol, head):
            continue
        if not _roots_agree(roots_n, roots_w, rho, 10 * tail_tol):
            continue
        best = float(rho)
    return SeriesFunction(tuple(head), best)


def _gapped_series() -> tuple[SeriesFunction, int, float]:
    """A series whose certified radii are not contiguous on the grid.

    The head z^3 (z - 2) vanishes on |z| = 2, so there the tail bound falls
    back to tail_tol and fails, while a little further out |P_4| outgrows the
    tail again (tail / |P_4| ~ 1e-10 rho^2 / (rho - 2) is least at rho = 4).
    """
    tail = [1e-7 * 1e-3**j for j in range(1, 11)]
    return SeriesFunction((0.0, 0.0, 0.0, -2.0, 1.0, *tail)), 4, 1e-9


TRUNCATIONS = {
    "theta-0.5-40": lambda: (SeriesFunction(tuple(partial_theta_coeffs(0.5, 50))), 40, 1e-9),
    "theta-0.3-20": lambda: (SeriesFunction(tuple(partial_theta_coeffs(0.3, 30))), 20, 1e-9),
    "theta-0.7i-64": lambda: (SeriesFunction(tuple(partial_theta_coeffs(0.7j, 74))), 64, 1e-9),
    "theta-1.1-30": lambda: (SeriesFunction(tuple(partial_theta_coeffs(1.1, 40))), 30, 1e-9),
    "dexp-1i-40": lambda: (SeriesFunction(tuple(disturbed_exp_coeffs(1j, 50))), 40, 1e-9),
    "dexp-0.9i-64": lambda: (SeriesFunction(tuple(disturbed_exp_coeffs(0.9j, 74))), 64, 1e-6),
    "binomial-0.6i-40": lambda: (SeriesFunction(tuple(sokal_poly_coeffs(0.6j, 50))), 40, 1e-9),
    "binomial-0.3i-30": lambda: (SeriesFunction(tuple(sokal_poly_coeffs(0.3j, 40))), 30, 1e-9),
    "geometric-40": lambda: (SeriesFunction((1.0,) * 61), 40, 1e-9),
    "exp-30-tiny-tol": lambda: (SeriesFunction(tuple(1 / math.factorial(n) for n in range(41))), 30, 1e-300),
    "gapped": _gapped_series,
}


@pytest.mark.parametrize("name", sorted(TRUNCATIONS))
def test_top_down_scan_matches_the_forward_scan(name):
    series, N, tail_tol = TRUNCATIONS[name]()
    got = truncate_series(series, N, tail_tol)
    assert got.trust_radius == ref_truncate_series(series, N, tail_tol).trust_radius
    if name in ("theta-1.1-30", "geometric-40", "exp-30-tiny-tol"):
        assert got.trust_radius == 0.0
    else:
        assert got.trust_radius > 0


def test_gapped_series_certifies_its_largest_radius():
    series, N, tail_tol = _gapped_series()
    src = np.asarray(series.coeffs, complex)
    head = src[: N + 1]
    roots_n = [cl.center for cl in find_roots(head)]
    roots_w = [cl.center for cl in find_roots(src)]
    grid = np.geomspace(1e-3, 1e9, 241)
    ok = [_tail_ok(src, N, rho, tail_tol, head) and _roots_agree(roots_n, roots_w, rho, 10 * tail_tol) for rho in grid]
    runs = [i for i in range(1, len(ok)) if ok[i] and not ok[i - 1]]
    assert ok[0] and len(runs) == 1 and not ok[-1]  # two separate runs of certified radii
    assert 2 < truncate_series(series, N, tail_tol).trust_radius == grid[max(np.flatnonzero(ok))]


def _grid_truncation(family: str, t: float, N: int):
    from alphasectors.cli import _family_source
    from alphasectors.qseries import QSeriesSpec

    return SeriesFunction(tuple(_family_source(QSeriesSpec(family, 1j * t, N)))), N, 1e-9


FROZEN_SCAN_CASES = {
    **{f"{family}-{t}i-{N}": (lambda a=(family, t, N): _grid_truncation(*a)) for family, t, N in QSERIES_GRID},
    "non-decaying": lambda: (SeriesFunction((1.0,) * 61), 40, 1e-9),
    # the tail's peak term passes e^600 on the top 50 radii
    "exp-40-peak-overflow": lambda: (SeriesFunction(tuple(1 / math.factorial(n) for n in range(51))), 40, 1e-9),
    # an all-zero tail (padding above the binomial q-polynomial's degree)
    "binomial-0.3i-30-padded": lambda: (SeriesFunction(tuple(sokal_poly_coeffs(0.3j, 30)) + (0.0,) * 10), 30, 1e-9),
}


@pytest.mark.parametrize("name", sorted(FROZEN_SCAN_CASES))
def test_one_pass_scan_matches_the_frozen_scan_byte_for_byte(name):
    series, N, tail_tol = FROZEN_SCAN_CASES[name]()
    got = truncate_series(series, N, tail_tol)
    want = REFERENCE.truncate_series(series, N, tail_tol)
    assert np.float64(got.trust_radius).tobytes() == np.float64(want.trust_radius).tobytes()
    assert clusters_bytes(got.roots) == clusters_bytes(want.roots)
    if name == "non-decaying":
        assert got.trust_radius == 0.0 and got.roots is None
    else:
        assert got.trust_radius > 0


# ---------------------------------------------------------------------------
# differential test of the factor table against the factor loops it replaced:
# verbatim copies of each evaluator as it read when it wrote out its own
# a/b/c/d loops (names prefixed with ref)
# ---------------------------------------------------------------------------


def ref_normalization_constant(spec: StructuredFunction) -> float:
    """Real constant relating the monic-factor model to the unit-constant form.

    G(z) = kappa * G_unit(z) where G_unit uses (1 + z^k/a_nu) style factors and
    is positive on the positive semi-axis.  kappa = prod(a) prod(c) * (-1)^(|b|+|d|)
    / (prod(b) prod(d)); it is negative exactly when |b|+|d| is odd.
    """
    kappa = 1.0
    for x in spec.a:
        kappa *= x
    for x in spec.c:
        kappa *= x
    for x in spec.b:
        kappa /= -x
    for x in spec.d:
        kappa /= -x
    return kappa


def ref_evaluate_G(spec: StructuredFunction, z: complex, pole_tol: float = DEFAULT_POLE_TOL) -> complex:
    """Evaluate the structured function at a nonzero point.

    Raises PoleProximity when z^k (or z^-k) falls within pole_tol relative
    distance of a pole parameter, instead of returning a large number.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    zk = z**spec.k
    val = z**spec.p
    if spec.A or spec.A0:
        expo = spec.A * zk
        if spec.A0:
            expo += spec.A0 / zk
        val *= cmath.exp(expo)
    for a in spec.a:
        val *= zk + a
    for b in spec.b:
        den = zk - b
        if abs(den) <= pole_tol * b:
            raise PoleProximity(z, b ** (1.0 / spec.k))
        val /= den
    if spec.c or spec.d:
        zmk = 1.0 / zk
        for c in spec.c:
            val *= zmk + c
        for d in spec.d:
            den = zmk - d
            if abs(den) <= pole_tol * d:
                raise PoleProximity(z, d ** (-1.0 / spec.k))
            val /= den
    return val


def ref_evaluate_R(spec: StructuredFunction, w: complex, pole_tol: float = DEFAULT_POLE_TOL) -> complex:
    """Single-valued branch function on the closed upper half-plane.

    R(w) = root^p * exp(A w + A0/w) * prod(w + a)/prod(w - b) * prod(1/w + c)/prod(1/w - d)
    with root = |w|^(1/k) exp(i Arg w / k), Arg w in [0, pi].  Holomorphic off
    the poles, positive on the positive semi-axis, and R(z^k) = G(z) whenever
    z is the branch root of w.
    """
    w = complex(w)
    if w == 0:
        raise ValueError("w must be nonzero")
    if w.imag < 0:
        raise ValueError("R is defined on the closed upper half-plane only")
    theta = math.atan2(w.imag, w.real)
    if theta < 0:  # only reachable via imag == -0.0 on the negative axis
        theta = -theta
    root = abs(w) ** (1.0 / spec.k) * cmath.exp(1j * theta / spec.k)
    val = root**spec.p
    if spec.A or spec.A0:
        expo = spec.A * w
        if spec.A0:
            expo += spec.A0 / w
        val *= cmath.exp(expo)
    for a in spec.a:
        val *= w + a
    for b in spec.b:
        den = w - b
        if abs(den) <= pole_tol * b:
            raise PoleProximity(w, complex(b))
        val /= den
    if spec.c or spec.d:
        wi = 1.0 / w
        for c in spec.c:
            val *= wi + c
        for d in spec.d:
            den = wi - d
            if abs(den) <= pole_tol * d:
                raise PoleProximity(w, 1.0 / d)
            val /= den
    return val


def ref_poly_from_shifts(shifts: tuple[float, ...], sign: float) -> np.ndarray:
    """Ascending coefficients of prod_j (sign*shift_j + w)."""
    out = np.array([1.0 + 0j])
    for s in shifts:
        out = np.convolve(out, np.array([sign * s, 1.0], complex))
    return out


def ref_inflate(coeffs_w: np.ndarray, k: int, shift: int, size: int) -> np.ndarray:
    """Map sum c_j w^j to sum c_j z^(jk + shift) in an ascending array of length size."""
    out = np.zeros(size, complex)
    for j, cj in enumerate(coeffs_w):
        out[j * k + shift] = cj
    return out


def ref_to_polynomial(spec: StructuredFunction, alpha: complex) -> np.ndarray:
    """Ascending coefficients of P(z) = z^max(p,0) prod(z^k + a) - alpha z^max(-p,0) prod(z^k - b).

    The root set of P equals the alpha-set of the (pure rational) spec; there
    is never a root at the origin since gcd(|p|, k) = 1 forces p != 0.
    """
    if not spec.is_rational or spec.c or spec.d:
        raise ValueError("to_polynomial requires A = A0 = 0 and empty c, d lists")
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    num = ref_poly_from_shifts(spec.a, +1.0)
    den = ref_poly_from_shifts(spec.b, -1.0)
    k = spec.k
    size = max(max(spec.p, 0) + k * len(spec.a), max(-spec.p, 0) + k * len(spec.b)) + 1
    P = ref_inflate(num, k, max(spec.p, 0), size)
    P -= alpha * ref_inflate(den, k, max(-spec.p, 0), size)
    return P


def ref_alpha_polynomial(spec: StructuredFunction, alpha: complex) -> np.ndarray:
    """Polynomial whose nonzero roots are the alpha-set; supports c, d factors.

    Clearing z^-k factors multiplies both sides of G(z) = alpha by powers of z,
    which can only introduce spurious roots at the origin; those are stripped
    here.  Requires A = A0 = 0.
    """
    if not spec.is_rational:
        raise ValueError("polynomial conversion requires a rational spec (A = A0 = 0)")
    if not spec.c and not spec.d:
        return ref_to_polynomial(spec, alpha)
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    k = spec.k
    num = np.convolve(ref_poly_from_shifts(spec.a, +1.0), ref_scaled_unit(spec.c, +1.0))
    den = np.convolve(ref_poly_from_shifts(spec.b, -1.0), ref_scaled_unit(spec.d, -1.0))
    s1 = max(spec.p, 0) + k * len(spec.d)
    s2 = max(-spec.p, 0) + k * len(spec.c)
    size = max(s1 + k * (len(num) - 1), s2 + k * (len(den) - 1)) + 1
    P = ref_inflate(num, k, s1, size) - alpha * ref_inflate(den, k, s2, size)
    lead = 0
    while lead < len(P) - 1 and P[lead] == 0:
        lead += 1
    return P[lead:]


def ref_scaled_unit(shifts: tuple[float, ...], sign: float) -> np.ndarray:
    """Ascending coefficients of prod_j (1 + sign*shift_j*w)."""
    out = np.array([1.0 + 0j])
    for s in shifts:
        out = np.convolve(out, np.array([1.0, sign * s], complex))
    return out


def _random_spec(rng, growth=True):
    while True:
        k = int(rng.integers(2, 41))
        p = int(rng.choice([x for x in range(-7, 8) if x and math.gcd(abs(x), k) == 1]))
        lists = [tuple(float(v) for v in np.exp(rng.uniform(-1.5, 1.5, int(rng.integers(0, n + 1))))) for n in (5, 5, 3, 3)]
        A, A0 = (float(rng.choice([0.0, 0.3])) if growth else 0.0 for _ in range(2))
        if any(lists) or A or A0:
            return StructuredFunction(p, k, *lists, A=A, A0=A0)


def _probe_points(rng, spec):
    """Random points, points on the negative real axis (signed zero imaginary
    parts), and points on, inside and just outside each pole's band and margin."""
    k = spec.k
    pts = [complex(*rng.normal(size=2)) for _ in range(6)]
    pts += [complex(-0.8, 0.0), complex(-1.3, -0.0)]
    for w0 in list(spec.b) + [1.0 / d for d in spec.d]:
        for delta in (0.0, 0.3e-9, -0.3e-9, 3e-9, -3e-9, 0.5e-3, 2e-3):
            turn = cmath.exp(2j * math.pi * int(rng.integers(0, k)) / k)
            pts.append(w0 ** (1.0 / k) * turn * (1 + delta / k * cmath.exp(1j * rng.uniform(0, 2 * math.pi))))
    return [z for z in pts if z != 0]


def _outcome(fn, *args):
    """Bytes of the result, or of the z and pole a PoleProximity carries."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
        return ("value", type(out).__name__, np.asarray(out).tobytes())
    except PoleProximity as exc:
        return ("pole", type(exc.pole).__name__, np.asarray(exc.z).tobytes(), np.asarray(exc.pole).tobytes())
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__,)


def _banded_G(spec, z):
    """evaluate_G with its pole band widened to 1e-3, the band tested through pole_in_band."""
    z = complex(z)
    pole = pole_in_band(spec, z**spec.k, 1e-3)
    if pole is not None:
        raise PoleProximity(z, pole[0] ** ((-1.0 if pole[2] else 1.0) / spec.k))
    return evaluate_G(spec, z)  # outside the 1e-3 band, outside the default one too


def test_factor_table_matches_the_written_out_loops_bitwise():
    rng = np.random.default_rng(2027)
    pole_outcomes = 0
    for _ in range(80):
        spec = _random_spec(rng)
        assert _outcome(normalization_constant, spec) == _outcome(ref_normalization_constant, spec)
        zs = _probe_points(rng, spec)
        for z in zs:
            got = _outcome(evaluate_G, spec, z)
            assert got == _outcome(ref_evaluate_G, spec, z), (spec, z)
            banded = _outcome(_banded_G, spec, z)
            assert banded == _outcome(ref_evaluate_G, spec, z, 1e-3), (spec, z)
            pole_outcomes += (got[0] == "pole") + (banded[0] == "pole")
            w = z**spec.k
            w = complex(w.real, abs(w.imag)) if w.imag != 0 else w
            assert _outcome(evaluate_R, spec, w) == _outcome(ref_evaluate_R, spec, w), (spec, w)
        arr = np.array(zs)
        assert _outcome(eval_many, spec, arr) == _outcome(ref_eval_many, spec, arr)
    assert pole_outcomes > 100


def _conditioning(spec: StructuredFunction, z: np.ndarray):
    """Rounding scales of G and G'/G at z, and each point's least relative factor distance |x +- v| / v.

    kappa = k + |p| + k (A |z^k| + A0 |z^-k|) + sum over rows of k (|x| + v) / |x +- v|
    bounds the relative error of G in units of eps, up to a small factor;
    the log derivative's error is measured against the size of its terms,
    (|p| + k (A |z^k| + A0 |z^-k| + sum |x| / |x +- v|)) / |z|, times kappa.
    """
    zk = z**spec.k
    growth = spec.k * (spec.A * np.abs(zk) + (spec.A0 / np.abs(zk) if spec.A0 else 0.0))
    kappa = spec.k + abs(spec.p) + growth
    terms = abs(spec.p) + growth
    nearest = np.full(z.shape, np.inf)
    for v, is_pole, recip in spec.factors:
        x = 1.0 / zk if recip else zk
        gap = np.abs(x - v if is_pole else x + v)
        kappa = kappa + spec.k * (np.abs(x) + v) / gap
        terms = terms + spec.k * np.abs(x) / gap
        nearest = np.minimum(nearest, gap / v)
    return kappa, terms / np.abs(z), nearest


def test_fused_kernel_matches_the_two_evaluators():
    # G and G'/G from one pass over the factor table against the frozen
    # two-pass evaluators, within 4 eps kappa (see _conditioning); the
    # largest deviation seen on this set is about 0.5 eps kappa.
    # log_derivative_many, which returns the pass's G'/G, is held to the same bound
    rng = np.random.default_rng(2029)
    eps = np.finfo(float).eps
    compared = 0
    for _ in range(120):
        spec = _random_spec(rng)
        z = np.array(_probe_points(rng, spec))
        z = np.concatenate([z, z[:2] * 1e160, z[:2] * 1e-160])  # z^k beyond double range both ways
        with np.errstate(all="ignore"):
            g, ld = eval_log_derivative_many(spec, z)
            ld_alone = log_derivative_many(spec, z)
            g_ref, ld_ref = ref_eval_many(spec, z), ref_log_derivative_many(spec, z)
            kappa, terms, nearest = _conditioning(spec, z)
        # a probe exactly on a pole lands on it, or next to it, as the last bit of z^k falls
        fair = nearest > 1e-12
        assert (np.isfinite(g) == np.isfinite(g_ref))[fair].all(), spec
        both = np.isfinite(g_ref) & np.isfinite(ld_ref) & fair
        assert (np.abs(g - g_ref) <= 4 * eps * kappa * np.abs(g_ref))[both].all(), spec
        for out in (ld, ld_alone):
            assert (np.isfinite(out) == np.isfinite(ld_ref))[fair].all(), spec
            assert (np.abs(out - ld_ref) <= 4 * eps * kappa * terms)[both].all(), spec
        compared += both.sum()
    assert compared > 3000


def test_fused_kernel_against_high_precision_oracle():
    # G from the product and G'/G by differentiating it, both in 40 digits
    rng = np.random.default_rng(2030)
    eps = np.finfo(float).eps
    specs = [
        FIG1,
        FIG3,
        StructuredFunction(p=-3, k=5, a=(0.7,), b=(1.3, 2.0), c=(0.8,), d=(1.5,), A=0.3, A0=0.2),
        StructuredFunction(p=7, k=40, b=(1.1,), d=(0.9,)),
    ]
    for spec in specs:
        z = np.array([complex(*rng.normal(size=2)) for _ in range(5)])
        g, ld = eval_log_derivative_many(spec, z)
        kappa, terms, _ = _conditioning(spec, z)
        for j, zj in enumerate(z):
            with mp.workdps(40):
                exact = mp_G(spec, zj)
                exact_ld = complex(mp.diff(lambda w: mp_G(spec, w), mp.mpc(zj)) / exact)
                exact = complex(exact)
            assert abs(g[j] - exact) <= 4 * eps * kappa[j] * abs(exact), (spec, zj)
            assert abs(ld[j] - exact_ld) <= 4 * eps * kappa[j] * terms[j], (spec, zj)


def test_polynomial_builder_matches_the_written_out_loops_bitwise():
    rng = np.random.default_rng(2028)
    for _ in range(300):
        spec = _random_spec(rng, growth=False)
        alpha = complex(*rng.normal(size=2))
        assert _outcome(alpha_polynomial, spec, alpha) == _outcome(ref_alpha_polynomial, spec, alpha)
        if not spec.c and not spec.d:
            assert _outcome(alpha_polynomial, spec, alpha) == _outcome(ref_to_polynomial, spec, alpha)
