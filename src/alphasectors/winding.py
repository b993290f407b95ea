"""Argument-principle counting of alpha-points over annular-sector contours.

Independent of the polynomial solver: the integrand F'/(F - alpha) is built
from closed-form evaluation of the spec, integrated by adaptive Gauss-Legendre
panels.  Poles of F sit on the even boundary rays (z^k real positive), so
radial contour edges take small semicircular detours that bulge into the
region, excluding the pole; poles strictly inside a region are added back
analytically from the known parameter lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import SeriesFunction, StructuredFunction, eval_many, factor_moduli, log_derivative_many

ROUND_GUARD = 0.25
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class InconclusiveRegion(RuntimeError):
    """The winding integral did not resolve to an integer within the guard."""

    def __init__(self, message: str, value: float | None = None, slice_index: int | None = None):
        super().__init__(message)
        self.value = value
        self.slice_index = slice_index


@dataclass(frozen=True)
class AnnularSector:
    """Annular sector from ray s_from*pi/k to ray (s_to+1)*pi/k, r_in < |z| < r_out.

    The span covers whole sectors Q_{s_from} .. Q_{s_to}; a span of 2k sectors
    is the full annulus (no radial edges).
    """

    r_in: float
    r_out: float
    s_from: int
    s_to: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not (0 <= self.r_in < self.r_out):
            raise ValueError("require 0 <= r_in < r_out")
        object.__setattr__(self, "s_from", self.s_from % (2 * self.k))
        object.__setattr__(self, "s_to", self.s_to % (2 * self.k))

    @property
    def span(self) -> int:
        return (self.s_to - self.s_from) % (2 * self.k) + 1

    @property
    def full(self) -> bool:
        return self.span == 2 * self.k

    @property
    def theta_from(self) -> float:
        return self.s_from * math.pi / self.k

    @property
    def theta_to(self) -> float:
        return self.theta_from + self.span * math.pi / self.k


def _integrand(spec, alpha: complex):
    if isinstance(spec, SeriesFunction):
        c = np.asarray(spec.coeffs, complex)
        c = c.copy()
        c[0] -= alpha
        dc = np.arange(1, len(c)) * c[1:]

        def fn(z):
            return np.polyval(dc[::-1], z) / np.polyval(c[::-1], z)

        return fn

    def fn(z):
        f = eval_many(spec, z)
        return log_derivative_many(spec, z) * f / (f - alpha)

    return fn


def _adaptive(fn, z_of_t, dz_of_t, t0: float, t1: float, tol: float, depth: int = 0) -> tuple[complex, float]:
    """Adaptive 12-point Gauss-Legendre with halving error estimate."""

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * _GL_NODES
        z = z_of_t(t)
        return half * np.sum(_GL_WEIGHTS * fn(z) * dz_of_t(t))

    whole = panel(t0, t1)
    tm = 0.5 * (t0 + t1)
    halves = panel(t0, tm) + panel(tm, t1)
    err = abs(halves - whole)
    if err <= tol or depth >= 24:
        return halves, err
    left, el = _adaptive(fn, z_of_t, dz_of_t, t0, tm, tol / 2, depth + 1)
    right, er = _adaptive(fn, z_of_t, dz_of_t, tm, t1, tol / 2, depth + 1)
    return left + right, el + er


def _arc(fn, r: float, th0: float, th1: float, tol: float) -> tuple[complex, float]:
    def z_of_t(t):
        return r * np.exp(1j * t)

    def dz_of_t(t):
        return 1j * r * np.exp(1j * t)

    return _adaptive(fn, z_of_t, dz_of_t, th0, th1, tol)


def _singular_radii_on_ray(spec, s: int, r_in: float, r_out: float) -> list[float]:
    """Radii in (r_in, r_out) where F has a pole or zero on the ray angle s*pi/k."""
    if isinstance(spec, SeriesFunction):
        return []
    # z^k > 0 on even rays, where the poles b, 1/d sit; z^k < 0 on odd rays, the zeros -a, -1/c
    return sorted({r for r, is_pole in factor_moduli(spec) if is_pole == (s % 2 == 0) and r_in < r < r_out})


def _certified_detour_radius(
    spec, alpha: complex, center: complex, eps0: float, is_pole: bool
) -> float:
    """Largest detour radius <= eps0 certified free of alpha-points.

    By the maximum principle, |F| > |alpha| on the probe circle certifies the
    whole disk when F has only the central pole inside (apply it to 1/F), and
    |F| < |alpha| on the circle certifies the disk around a zero of F.
    """
    eps = eps0
    probes = np.exp(2j * math.pi * np.arange(16) / 16)
    for _ in range(12):
        vals = np.abs(eval_many(spec, center + eps * probes))
        if is_pole:
            if np.min(vals) > 4.0 * abs(alpha):
                return eps
        else:
            if np.max(vals) < 0.25 * abs(alpha):
                return eps
        eps /= 4.0
    raise InconclusiveRegion(
        f"cannot certify a detour around the on-contour singularity at {center:.6g}"
    )


def _radial_with_detours(
    fn, spec, alpha: complex, angle: float, s_ray: int, r_a: float, r_b: float, tol: float
) -> tuple[complex, float]:
    """Integrate along the ray segment from r_a to r_b at the given angle.

    Semicircular detours around on-ray singular radii bulge to the left of the
    travel direction, i.e. into the region the contour encloses, so boundary
    poles are excluded from the count.  Each detour radius is certified free
    of alpha-points by a max-modulus probe.
    """
    direction = 1.0 if r_b > r_a else -1.0
    lo, hi = min(r_a, r_b), max(r_a, r_b)
    sing = _singular_radii_on_ray(spec, s_ray, lo, hi)
    u = complex(math.cos(angle), math.sin(angle))

    def seg(ra, rb):
        def z_of_t(t):
            return t * u

        def dz_of_t(t):
            return np.full_like(t, u, dtype=complex)

        return _adaptive(fn, z_of_t, dz_of_t, ra, rb, tol)

    if not sing:
        return seg(r_a, r_b)

    is_pole = s_ray % 2 == 0
    gaps = [lo] + sing + [hi]
    eps_each = {}
    for i, rho in enumerate(sing):
        gap = min(rho - gaps[i], gaps[i + 2] - rho)
        eps0 = min(0.25 * gap, 0.01 * (1.0 + rho))
        eps_each[rho] = _certified_detour_radius(spec, alpha, rho * u, eps0, is_pole)

    total = 0j
    err = 0.0
    order = sing if direction > 0 else sing[::-1]
    cur = r_a
    for rho in order:
        eps = eps_each[rho]
        entry = rho - direction * eps
        exit_ = rho + direction * eps
        val, e = seg(cur, entry)
        total += val
        err += e
        # half-circle around rho*u from entry to exit, passing left of travel
        center = rho * u
        dirvec = direction * u
        psi = math.atan2(dirvec.imag, dirvec.real)

        def z_of_t(t, center=center, eps=eps):
            return center + eps * np.exp(1j * t)

        def dz_of_t(t, eps=eps):
            return 1j * eps * np.exp(1j * t)

        val, e = _adaptive(fn, z_of_t, dz_of_t, psi + math.pi, psi, tol)
        total += val
        err += e
        cur = exit_
    val, e = seg(cur, r_b)
    total += val
    err += e
    return total, err


def _poles_inside(spec, region: AnnularSector) -> int:
    """Pole count (with multiplicity) strictly inside the region.

    All poles lie on even rays; a ray at angle 2t*pi/k is strictly inside the
    angular span when both adjacent sectors 2t-1 and 2t belong to it.
    """
    if isinstance(spec, SeriesFunction):
        return 0
    k = spec.k
    inside = sum(1 for rho, is_pole in factor_moduli(spec) if is_pole and region.r_in < rho < region.r_out)
    if region.full:
        return inside * k
    return inside * sum(1 for t in range(k) if 1 <= (2 * t - region.s_from) % (2 * k) <= region.span - 1)


def count_in_contour(spec, alpha: complex, region: AnnularSector, quad_tol: float = 1e-6) -> int:
    """Number of alpha-points of the spec strictly inside the annular sector.

    Computes (1/2 pi i) contour-integral of F'/(F - alpha), adds the known
    pole count, and rounds only when the result is within the 0.25 guard.
    """
    alpha = complex(alpha)
    if isinstance(spec, SeriesFunction):
        if region.r_out > spec.trust_radius:
            raise ValueError("region exceeds the certified trust radius")
    elif isinstance(spec, StructuredFunction):
        if region.r_in <= 0:
            raise ValueError("structured specs need a punctured annulus (r_in > 0)")
    fn = _integrand(spec, alpha)
    tol = quad_tol
    total = 0j
    err = 0.0
    with np.errstate(all="ignore"):
        if region.full:
            for r, sign in ((region.r_out, +1.0), (region.r_in, -1.0)):
                val, e = _arc(fn, r, 0.0, 2 * math.pi, tol)
                total += sign * val
                err += e
        else:
            th0, th1 = region.theta_from, region.theta_to
            val, e = _arc(fn, region.r_out, th0, th1, tol)
            total += val
            err += e
            val, e = _radial_with_detours(
                fn, spec, alpha, th1, (region.s_to + 1) % (2 * region.k), region.r_out, region.r_in, tol
            )
            total += val
            err += e
            val, e = _arc(fn, region.r_in, th1, th0, tol)
            total += val
            err += e
            val, e = _radial_with_detours(
                fn, spec, alpha, th0, region.s_from, region.r_in, region.r_out, tol
            )
            total += val
            err += e
    raw = total / (2j * math.pi)
    value = raw.real + _poles_inside(spec, region)
    nearest = round(value)
    slack = abs(value - nearest) + abs(raw.imag)
    if slack + err > ROUND_GUARD:
        raise InconclusiveRegion(
            f"winding integral {value:.6f} (err est {err:.2g}) not within {ROUND_GUARD} of an integer",
            value=value,
        )
    return int(nearest)


def sector_census(
    spec,
    alpha: complex,
    r_in: float,
    r_out: float,
    k: int | None = None,
    quad_tol: float = 1e-6,
) -> list[int]:
    """Alpha-point counts per sector Q_0 .. Q_{2k-1} in r_in < |z| < r_out.

    Radii are auto-nudged (globally, so slices stay consistent) when a slice
    integral is inconclusive, e.g. because a boundary circle passes through an
    alpha-point modulus.
    """
    if isinstance(spec, StructuredFunction):
        k_eff = spec.k
    else:
        k_eff = 2 if k is None else k
    if k is not None and isinstance(spec, StructuredFunction) and k != spec.k:
        raise ValueError("k disagrees with the spec")
    last: InconclusiveRegion | None = None
    for attempt in range(6):
        nudge = 1.0 + (attempt * (attempt % 2 * 2 - 1)) * 3e-5
        ri, ro = r_in * nudge, r_out * nudge
        counts = []
        try:
            for s in range(2 * k_eff):
                region = AnnularSector(ri, ro, s, s, k_eff)
                try:
                    counts.append(count_in_contour(spec, alpha, region, quad_tol))
                except InconclusiveRegion as exc:
                    raise InconclusiveRegion(str(exc), exc.value, slice_index=s) from None
            return counts
        except InconclusiveRegion as exc:
            last = exc
    raise last
