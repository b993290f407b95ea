"""Function models: k-fold symmetric rational/exponential targets and truncated series.

A StructuredFunction evaluates as

    G(z) = z^p * exp(A z^k + A0 z^-k)
         * prod (z^k + a_nu) / prod (z^k - b_mu)
         * prod (z^-k + c_nu) / prod (z^-k - d_mu)

with monic factors, matching the polynomial fixtures this package reproduces
(zeros of the z^k factor at -a_nu, poles at b_mu).  The product form with unit
constant factors, (1 + z^k/a_nu) etc., differs from this by the positive-or-
negative real constant returned by normalization_constant(); the theorem
predictors divide alpha by that constant before any sector arithmetic.

Every evaluation reads one factor table, built once per spec: rows
(value, is_pole, on_reciprocal_side) in a, b, c, d order, standing for the
factors (x + a), 1/(x - b), (x + c), 1/(x - d) with x = z^k on the first two
lists and x = z^-k on the last two.  The scalar and array evaluators, the log
derivative, normalization_constant, the polynomial builders, the pole-band
test and the zero/pole moduli (factor_moduli) all loop over those rows only.

SeriesFunction holds a Maclaurin truncation of an entire target together with
a certified trust radius; roots inside the trust radius are accepted as roots
of the full function at the configured tolerance.  truncate_series, which
solves the truncation to certify that radius, keeps the roots it found on the
series (field `roots`), and alpha_points reuses them for the alpha = 0 solve
instead of solving the same coefficients again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .sectors import DEFAULT_ANGLE_TOL, SectorIndex, phase

if TYPE_CHECKING:
    from .solver import RootCluster

DEFAULT_POLE_TOL = 1e-9


class PoleProximity(Exception):
    """Evaluation requested inside the pole band; the value is not a number."""

    def __init__(self, z: complex, pole: complex, message: str = ""):
        self.z = z
        self.pole = pole
        super().__init__(message or f"evaluation at {z} is within the pole band of {pole}")


@dataclass(frozen=True)
class StructuredFunction:
    """Finite-parameter instance of the k-fold symmetric target family."""

    p: int
    k: int
    a: tuple[float, ...] = ()
    b: tuple[float, ...] = ()
    c: tuple[float, ...] = ()
    d: tuple[float, ...] = ()
    A: float = 0.0
    A0: float = 0.0
    factors: tuple[tuple[float, bool, bool], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not DEFAULT_ANGLE_TOL < math.pi / (4 * self.k):  # classify_sector's bound on its angle tolerance
            bound = math.pi / (4 * DEFAULT_ANGLE_TOL)
            raise ValueError(f"k must be below {bound:.10g}, pi/4 over the angle tolerance, got {self.k}")
        if self.p == 0 or math.gcd(abs(self.p), self.k) != 1:
            raise ValueError(f"|p|={abs(self.p)} and k={self.k} must be coprime (p nonzero)")
        for name in ("a", "b", "c", "d"):
            vals = getattr(self, name)
            if any(not (v > 0) or not math.isfinite(v) for v in vals):
                raise ValueError(f"all entries of {name} must be positive finite reals")
        for name in ("A", "A0"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):  # NaN fails v >= 0
                raise ValueError(f"growth constant {name} must be a nonnegative finite real, got {v}")
        if self.A == 0 and self.A0 == 0 and not (self.a or self.b or self.c or self.d):
            raise ValueError("degenerate model: identically z^p")
        # the products are the constant terms of the polynomial builders and
        # the predictors' normalization; out of range, either loses the problem.
        # The other coefficients of prod(w + v) bound those of every factor group.
        for name in ("a", "b", "c", "d"):
            vals = getattr(self, name)
            _check_range(f"field {name!r}", "the product of its entries", math.prod(vals))
            for j, e in enumerate(_symmetric_sums(vals)[:-1], 1):
                _check_range(f"field {name!r}", f"the elementary symmetric sum e_{j} of its entries", e)
        lists = ((self.a, False, False), (self.b, True, False), (self.c, False, True), (self.d, True, True))
        object.__setattr__(self, "factors", tuple((v, pole, recip) for vals, pole, recip in lists for v in vals))
        used = [repr(name) for name in ("a", "b", "c", "d") if getattr(self, name)]
        fields = f"field{'s' if len(used) > 1 else ''} {', '.join(used)}"
        _check_range(fields, "the normalization constant", normalization_constant(self))

    @property
    def is_rational(self) -> bool:
        return self.A == 0.0 and self.A0 == 0.0

    @property
    def is_meromorphic_form(self) -> bool:
        """True for the subfamily z^p exp(A z^k) prod(z^k+a)/prod(z^k-b)."""
        return self.A0 == 0.0 and not self.c and not self.d


def _symmetric_sums(vals) -> list[float]:
    """e_1 .. e_n of vals: prod(w + v) = sum e_j w^(n-j), e_0 = 1."""
    e = [1.0]
    for v in vals:
        e = [x + v * y for x, y in zip(e + [0.0], [0.0] + e)]
    return e[1:]


def _check_range(fields: str, what: str, value: float) -> None:
    """ValueError naming the fields when value overflowed to +-inf or underflowed to 0."""
    if value == 0:
        raise ValueError(f"{fields}: {what} underflows to 0, below double range")
    if not math.isfinite(value):
        raise ValueError(f"{fields}: {what} is {value}, not a finite number")


@dataclass(frozen=True)
class SeriesFunction:
    """Truncated power series sum c_n z^n with a certified trust radius.

    roots, when not None, is find_roots(coeffs) at its default parameters:
    truncate_series fills it from the solve it makes anyway, and alpha_points
    reuses it for alpha = 0 at the same parameters.  It takes no part in
    equality, hashing or the repr, so a series equals its coefficients and
    radius whether or not it carries them.
    """

    coeffs: tuple[complex, ...]
    trust_radius: float = 0.0
    roots: tuple[RootCluster, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(x) for x in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("coefficient list must be nonempty")
        if not 0 <= self.trust_radius < math.inf:  # NaN too
            raise ValueError(f"trust_radius must be a nonnegative finite number, got {self.trust_radius}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class AlphaPoint:
    """One solution of F(z) = alpha."""

    value: complex
    modulus: float
    sector: SectorIndex
    boundary: bool
    multiplicity: int
    residual: float

    @property
    def argument(self) -> float:
        return phase(self.value)


def normalization_constant(spec: StructuredFunction) -> float:
    """Real constant relating the monic-factor model to the unit-constant form.

    G(z) = kappa * G_unit(z) where G_unit uses (1 + z^k/a_nu) style factors and
    is positive on the positive semi-axis.  kappa = prod(a) prod(c) * (-1)^(|b|+|d|)
    / (prod(b) prod(d)); it is negative exactly when |b|+|d| is odd.  Zero rows
    are multiplied in before pole rows are divided out.
    """
    kappa = 1.0
    for v, is_pole, _ in sorted(spec.factors, key=lambda row: row[1]):
        kappa = kappa / -v if is_pole else kappa * v
    return kappa


def factor_moduli(spec: StructuredFunction) -> list[tuple[float, bool]]:
    """(modulus, is_pole) of the circle |z| = a^(1/k), b^(1/k), c^(-1/k) or d^(-1/k) of each row."""
    return [(v ** ((-1.0 if recip else 1.0) / spec.k), is_pole) for v, is_pole, recip in spec.factors]


def pole_in_band(spec: StructuredFunction, w: complex, pole_tol: float) -> tuple[float, bool, bool] | None:
    """The first pole row, b rows then d rows, whose factor at w = z^k is within pole_tol * value of 0."""
    wi = 1.0 / w if spec.d else None
    for row in spec.factors:
        v, is_pole, recip = row
        if is_pole and abs((wi if recip else w) - v) <= pole_tol * v:
            return row
    return None


def _product(spec: StructuredFunction, w, val, exp):
    """val * exp(A w + A0/w) * every factor of the table at w = z^k.

    The same operations in the same order on Python complex numbers (exp =
    cmath.exp) and on numpy arrays (exp = np.exp).  A pole row subtracts its
    value, x - b, instead of adding -b: the sum would turn a -0.0 imaginary
    part of x into +0.0.
    """
    if spec.A or spec.A0:
        expo = spec.A * w
        if spec.A0:
            expo = expo + spec.A0 / w
        val = val * exp(expo)
    wi = 1.0 / w if spec.c or spec.d else None
    for v, is_pole, recip in spec.factors:
        x = wi if recip else w
        val = val / (x - v) if is_pole else val * (x + v)
    return val


def evaluate_G(spec: StructuredFunction, z: complex, pole_tol: float = DEFAULT_POLE_TOL) -> complex:
    """Evaluate the structured function at a nonzero point.

    Raises PoleProximity when z^k (or z^-k) falls within pole_tol relative
    distance of a pole parameter, instead of returning a large number.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    zk = z**spec.k
    val = z**spec.p
    pole = pole_in_band(spec, zk, pole_tol)
    if pole is not None:
        raise PoleProximity(z, pole[0] ** ((-1.0 if pole[2] else 1.0) / spec.k))
    return _product(spec, zk, val, cmath.exp)


def evaluate_R(spec: StructuredFunction, w: complex, pole_tol: float = DEFAULT_POLE_TOL) -> complex:
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
    pole = pole_in_band(spec, w, pole_tol)
    if pole is not None:
        raise PoleProximity(w, 1.0 / pole[0] if pole[2] else complex(pole[0]))
    return _product(spec, w, val, cmath.exp)


def _factor_groups(spec: StructuredFunction) -> dict[tuple[bool, bool], np.ndarray]:
    """Ascending coefficients in w of each factor group, keyed (is_pole, on_reciprocal_side).

    The groups are prod(w + a), prod(w - b), prod(1 + c w) and prod(1 - d w),
    each built on its own; an empty group is [1].
    """
    groups = {(pole, recip): np.array([1.0 + 0j]) for pole in (False, True) for recip in (False, True)}
    for v, is_pole, recip in spec.factors:
        shift = -v if is_pole else v
        pair = [1.0, shift] if recip else [shift, 1.0]
        groups[is_pole, recip] = np.convolve(groups[is_pole, recip], np.array(pair, complex))
    return groups


def _inflate(coeffs_w: np.ndarray, k: int, shift: int, size: int) -> np.ndarray:
    """Map sum c_j w^j to sum c_j z^(jk + shift): ascending, length size, higher powers dropped."""
    out = np.zeros(size, complex)
    m = min(len(out[shift::k]), len(coeffs_w))
    out[shift::k][:m] = coeffs_w[:m]
    return out


def alpha_polynomial(spec: StructuredFunction, alpha: complex) -> np.ndarray:
    """Polynomial whose nonzero roots are the alpha-set of a rational spec (A = A0 = 0).

    Without c, d factors this is P(z) = z^max(p,0) prod(z^k + a) - alpha
    z^max(-p,0) prod(z^k - b), which never vanishes at the origin since
    gcd(|p|, k) = 1 forces p != 0.  Clearing z^-k factors multiplies both
    sides of G(z) = alpha by powers of z, which can only introduce spurious
    roots at the origin; those are stripped here.
    """
    if not spec.is_rational:
        raise ValueError("polynomial conversion requires a rational spec (A = A0 = 0)")
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    k = spec.k
    groups = _factor_groups(spec)
    num, den = groups[False, False], groups[True, False]
    if spec.c or spec.d:
        num = np.convolve(num, groups[False, True])
        den = np.convolve(den, groups[True, True])
    s1 = max(spec.p, 0) + k * (len(groups[True, True]) - 1)
    s2 = max(-spec.p, 0) + k * (len(groups[False, True]) - 1)
    size = max(s1 + k * (len(num) - 1), s2 + k * (len(den) - 1)) + 1
    return np.trim_zeros(_inflate(num, k, s1, size) - alpha * _inflate(den, k, s2, size), "f")


def exponential_alpha_series(spec: StructuredFunction, alpha: complex, N: int) -> SeriesFunction:
    """Series route for specs with a growth factor exp(A z^k).

    Returns the degree-N Maclaurin truncation of the entire function

        H(z) = z^max(p,0) prod(z^k + a) exp(A z^k) - alpha z^max(-p,0) prod(z^k - b)

    whose zero set is exactly the alpha-set of the spec.  Certify with
    truncate_series and find the zeros with alpha_points(series, 0, ...);
    the polynomial conversion stays exact for the rational subfamily.
    """
    if not spec.is_meromorphic_form:
        raise ValueError("the series route requires A0 = 0 and empty c, d lists")
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    k = spec.k
    groups = _factor_groups(spec)
    num = groups[False, False]
    if spec.A:
        terms = (N - max(spec.p, 0)) // k
        expo = np.zeros(terms + 1, complex)
        term = 1.0
        for j in range(terms + 1):
            expo[j] = term
            term *= spec.A / (j + 1)
        num = np.convolve(num, expo)
    den = groups[True, False]
    out = _inflate(num, k, max(spec.p, 0), N + 1) - alpha * _inflate(den, k, max(-spec.p, 0), N + 1)
    return SeriesFunction(tuple(out))


# ---------------------------------------------------------------------------
# vectorized raw evaluation, used by the winding oracle (no pole banding)
# ---------------------------------------------------------------------------


def eval_many(spec: StructuredFunction, z: np.ndarray) -> np.ndarray:
    """G at an array of nonzero points; no pole-band checks."""
    z = np.asarray(z, complex)
    zk = z**spec.k
    val = z ** float(spec.p) if spec.p >= 0 else 1.0 / z ** float(-spec.p)
    return _product(spec, zk, val, np.exp)


def log_derivative_many(spec: StructuredFunction, z: np.ndarray) -> np.ndarray:
    """G'/G at an array of nonzero points (closed form, no pole banding)."""
    z = np.asarray(z, complex)
    k = spec.k
    zk = z**k
    zk1 = z ** (k - 1)
    out = spec.p / z
    if spec.A:
        out = out + spec.A * k * zk1
    if spec.A0:
        out = out - spec.A0 * k / (zk * z)
    dzk = k * zk1
    zmk = dzmk = None
    if spec.c or spec.d:
        zmk = 1.0 / zk
        dzmk = -k * zmk / z  # d/dz z^-k
    for v, is_pole, recip in spec.factors:
        x, dx = (zmk, dzmk) if recip else (zk, dzk)
        out = out - dx / (x - v) if is_pole else out + dx / (x + v)
    return out


# ---------------------------------------------------------------------------
# series truncation with certified trust radius
# ---------------------------------------------------------------------------

_TAIL_EXTRA = 10  # degree headroom required of the source series
_GRID = np.geomspace(1e-3, 1e9, 241)[::-1]  # the trust radii tried, from the top
_CIRCLE_SAMPLES = 256  # points of each circle on which _min_on_circles takes min |P|


def truncate_series(series: SeriesFunction, N: int, tail_tol: float) -> SeriesFunction:
    """Degree-N truncation with a certified trust radius.

    The trust radius is the largest rho on a geometric grid, scanned from the
    top, such that

      * the dropped tail is bounded: sum_{n>N} |c_n| rho^n <= tail_tol *
        max(1, min_{|z|=rho} |P_N(z)|), with the unknown tail beyond the
        source estimated by the observed geometric decay, and
      * roots of the degree-N and degree-(N+10) truncations inside rho agree
        to 10*tail_tol relative.

    Both truncations are solved in one batched solve (bit for bit two
    find_roots calls), and the grid is scanned at once: the tail bound and
    the root agreement of every radius as arrays, then the minimum of |P_N|
    on the circles of only those radii, above the first that a tail within
    tail_tol accepts outright, that still need it, a doubling number of
    circles per evaluation.

    Non-decaying tails give trust_radius 0.  The result carries the roots of
    the degree-N solve (SeriesFunction.roots) unless the tail check returned
    before solving.
    """
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

    from . import solver  # deferred: solver depends on this module

    clusters, clusters_w = solver._find_roots_batch([head, wide])
    tail = _tail_bounds(src, N, _GRID)
    agree = _roots_agree([cl.center for cl in clusters], [cl.center for cl in clusters_w], _GRID, 10 * tail_tol)
    accept = agree & (tail <= tail_tol)  # whatever min |P_N|: the bound's floor max(1, ...) is at least 1
    first = int(np.argmax(accept)) if accept.any() else len(_GRID)
    # the radii above it that need min |P_N| on their circle: 1, 2, 4, ... circles at a
    # time from the top, until one is accepted
    unsure = np.flatnonzero(agree[:first] & np.isfinite(tail[:first]))
    for chunk in np.split(unsure, [1, 3, 7, 15, 31, 63, 127]):
        if not len(chunk) or accept[: chunk[0]].any():
            break
        accept[chunk] = tail[chunk] <= tail_tol * np.maximum(1.0, _min_on_circles(head, _GRID[chunk]))
    rho = float(_GRID[np.argmax(accept)]) if accept.any() else 0.0
    return SeriesFunction(tuple(head), rho, tuple(clusters))


def _tail_bounds(src: np.ndarray, N: int, rhos: np.ndarray) -> np.ndarray:
    """sum_{n>N} |c_n| rho^n bounded for each radius, inf where no bound holds.

    One row per radius: the terms in log space, scaled by the largest (the
    peak), summed, and the unseen remainder beyond the source extrapolated
    geometrically from the last two terms.  A row whose peak exceeds e^600
    (term overflow), or whose last terms decay by a ratio of 0.9 or more, or
    end in a nonzero after a zero, bounds nothing.  An all-zero tail is 0.
    """
    mags = np.abs(src[N + 1 :])
    n_idx = np.arange(N + 1, len(src), dtype=float)
    log_rho = np.array([math.log(rho) for rho in rhos])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logs = np.where(mags > 0, np.log(np.where(mags > 0, mags, 1.0)), -np.inf)
        logs = logs[None, :] + n_idx[None, :] * log_rho[:, None]
        peak = logs.max(axis=1)
        finite = np.isfinite(peak)
        terms = np.where(finite[:, None], np.exp(logs - peak[:, None]), 0.0)
        partial = terms.sum(axis=1)
        last, prev = terms[:, -1], terms[:, -2]
        g = last / prev
    extend = (last > 0) & (prev > 0) & (g < 0.9)
    partial[extend] += last[extend] * g[extend] / (1 - g[extend])
    bounded = ~(peak > 600.0) & (extend | ~(last > 0))
    tail = np.where(bounded, 0.0, np.inf)
    scale = bounded & finite
    tail[scale] = partial[scale] * np.array([math.exp(x) for x in peak[scale]])
    return tail


def _min_on_circles(coeffs: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """min |P| at _CIRCLE_SAMPLES points of the circle |z| = rho, per radius; 0 where a term passes e^600."""
    theta = np.linspace(0.0, 2 * math.pi, _CIRCLE_SAMPLES, endpoint=False)
    n = len(coeffs) - 1
    logs = np.where(np.abs(coeffs) > 0, np.log(np.where(np.abs(coeffs) > 0, np.abs(coeffs), 1.0)), -np.inf)
    log_rho = np.array([math.log(rho) for rho in rhos])
    shift = (logs[None, :] + np.arange(n + 1)[None, :] * log_rho[:, None]).max(axis=1)
    fit = np.isfinite(shift) & (shift <= 600.0)
    out = np.zeros(len(rhos))
    if fit.any():
        m = np.abs(np.polyval(coeffs[::-1], rhos[fit, None] * np.exp(1j * theta)[None, :])).min(axis=1)
        out[fit] = np.where(np.isfinite(m), m, 0.0)
    return out


def _roots_agree(roots_n, roots_w, rhos: np.ndarray, tol: float) -> np.ndarray:
    """For each radius: as many roots of each list inside it, each of roots_n within tol (relative) of one of roots_w there.

    One distance matrix serves every radius: with roots_w ordered by
    modulus, the nearest inside rho is a running minimum along each row.
    Moduli and distances are hypot, as Python's abs of a complex.
    """
    rn = np.asarray(roots_n, complex)
    rw = np.asarray(roots_w, complex)
    an = np.hypot(rn.real, rn.imag)
    aw = np.hypot(rw.real, rw.imag)
    order = np.argsort(aw, kind="stable")
    diff = rn[:, None] - rw[order][None, :]
    nearest = np.minimum.accumulate(np.hypot(diff.real, diff.imag), axis=1)
    inside = an[None, :] <= rhos[:, None]
    count_w = np.searchsorted(aw[order], rhos, side="right")
    # count_w - 1 = -1 only where no root of roots_w is inside, and then the counts differ or none is
    far = nearest[:, count_w - 1].T > tol * (1 + an)[None, :]
    return (inside.sum(axis=1) == count_w) & ~(inside & far).any(axis=1)
