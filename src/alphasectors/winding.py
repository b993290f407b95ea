"""Argument-principle counting of alpha-points over annular-sector contours.

Independent of the polynomial solver: the integrand F'/(F - alpha) is built
from closed-form evaluation of the spec.  A region's boundary is cut into
edge pieces, lines and circles, and its integral is a signed sum of its
pieces (the edge decomposition of Delves & Lyness, Math. Comp. 21 (1967), and
Kravanja & Van Barel, LNM 1727 (2000)); a census integrates every edge once,
each ray serving the two sectors it separates.  One adaptive 12-point
Gauss-Legendre loop refines all pieces together, many panels per call.

Poles of F sit on the even boundary rays (z^k real positive), so a ray takes
small semicircular detours around them, one bulging into each region it
bounds, with radii certified free of alpha-points; poles strictly inside a
region are added back analytically from the known parameter lists.  The
detours of every ray are certified together: each probe round evaluates the
circles of all singularities not yet certified in one batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .functions import SeriesFunction, StructuredFunction, eval_many, factor_moduli, log_derivative_many

ROUND_GUARD = 0.25
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_MAX_DEPTH = 24  # halvings of a panel; at this depth it is accepted whatever its error
_CHUNK = 256  # panels per integrand call; bounds the memory of one step


class InconclusiveRegion(RuntimeError):
    """The winding integral did not resolve to an integer within the guard.

    `slice_index` is the census slice at fault (None outside a census) and
    `edge` names the contour piece, e.g. "ray 3", "arc r=1.5" or
    "detour r=0.36 on ray 0".
    """

    def __init__(
        self, message: str, value: float | None = None, slice_index: int | None = None, edge: str | None = None
    ):
        super().__init__(message)
        self.value = value
        self.slice_index = slice_index
        self.edge = edge


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


class _Piece(NamedTuple):
    """Edge piece z = p + q t (a line) or z = p + q e^{it} (a circle), t from t0 to t1.

    `label` is the first region using it (a census slice, or None).
    """

    p: complex
    q: complex
    t0: float
    t1: float
    circle: bool
    edge: str
    label: int | None


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


def _integrate(fn, pieces: list[_Piece], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive 12-point Gauss-Legendre on every piece at once.

    A panel at depth d is accepted when the sum of its halves is within
    tol / 2^d of it, or at d = _MAX_DEPTH; otherwise each half is pending at
    depth d + 1, with the value just computed as its `whole`.  A step splits
    the _CHUNK // 2 deepest pending panels in one integrand call: level by
    level while they fit in one call, and never more than about
    _MAX_DEPTH * _CHUNK pending, however many are rejected.  Returns each
    piece's integral and error estimate, summed over its accepted panels.
    A non-finite panel raises InconclusiveRegion at once.
    """
    p = np.array([pc.p for pc in pieces], complex)
    q = np.array([pc.q for pc in pieces], complex)
    circle = np.array([pc.circle for pc in pieces], bool)

    def panels(i, a, b):
        half = 0.5 * (b - a)
        t = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        on_circle = circle[i]
        e = t.astype(complex)
        e[on_circle] = np.exp(1j * t[on_circle])
        z = p[i, None] + q[i, None] * e
        dz = np.where(on_circle[:, None], (1j * q[i])[:, None] * e, q[i, None])
        vals = half * np.sum(_GL_WEIGHTS * fn(z.ravel()).reshape(z.shape) * dz, axis=1)
        bad = ~np.isfinite(vals)
        if bad.any():
            piece = pieces[i[np.argmax(bad)]]
            raise InconclusiveRegion(f"integrand not finite on {piece.edge}", slice_index=piece.label, edge=piece.edge)
        return vals

    value = np.zeros(len(pieces), complex)
    err = np.zeros(len(pieces))
    # the pending panels, deepest last: piece, interval, whole, depth
    idx = np.arange(len(pieces))
    ta = np.array([pc.t0 for pc in pieces], float)
    tb = np.array([pc.t1 for pc in pieces], float)
    whole = np.concatenate([panels(*(x[lo : lo + _CHUNK] for x in (idx, ta, tb))) for lo in range(0, idx.size, _CHUNK)])
    depth = np.zeros(idx.size, int)
    while idx.size:
        cut = max(idx.size - _CHUNK // 2, 0)
        i, a, b, w, d = (x[cut:] for x in (idx, ta, tb, whole, depth))
        m = 0.5 * (a + b)
        left, right = np.split(panels(np.concatenate([i, i]), np.concatenate([a, m]), np.concatenate([m, b])), 2)
        halves = left + right
        e = np.abs(halves - w)
        done = (e <= tol * 0.5**d) | (d >= _MAX_DEPTH)
        np.add.at(value, i[done], halves[done])
        np.add.at(err, i[done], e[done])
        more = ~done
        i, a, m, b, d = i[more], a[more], m[more], b[more], d[more] + 1
        idx = np.concatenate([idx[:cut], i, i])
        ta = np.concatenate([ta[:cut], a, m])
        tb = np.concatenate([tb[:cut], m, b])
        whole = np.concatenate([whole[:cut], left[more], right[more]])
        depth = np.concatenate([depth[:cut], d, d])
    return value, err


def _singular_radii_on_ray(spec, s: int, r_in: float, r_out: float) -> list[float]:
    """Radii in (r_in, r_out) where F has a pole or zero on the ray angle s*pi/k."""
    if isinstance(spec, SeriesFunction):
        return []
    # z^k > 0 on even rays, where the poles b, 1/d sit; z^k < 0 on odd rays, the zeros -a, -1/c
    return sorted({r for r, is_pole in factor_moduli(spec) if is_pole == (s % 2 == 0) and r_in < r < r_out})


def _certify_detours(spec, alpha: complex, centers: np.ndarray, eps0: np.ndarray, is_pole: np.ndarray) -> np.ndarray:
    """Largest detour radius eps0 / 4^j (j < 12) certified free of alpha-points, per centre; NaN where none.

    By the maximum principle, |F| > |alpha| on the probe circle certifies the
    whole disk when F has only the central pole inside (apply it to 1/F), and
    |F| < |alpha| on the circle certifies the disk around a zero of F.  Each
    round probes every centre not yet certified in one eval_many call and
    quarters the radius of those that failed.
    """
    eps = eps0.copy()
    done = np.zeros(eps.size, bool)
    probes = np.exp(2j * math.pi * np.arange(16) / 16)
    for _ in range(12):
        todo = np.flatnonzero(~done)
        if not todo.size:
            break
        vals = np.abs(eval_many(spec, (centers[todo, None] + eps[todo, None] * probes).ravel())).reshape(-1, 16)
        ok = np.where(is_pole[todo], vals.min(axis=1) > 4.0 * abs(alpha), vals.max(axis=1) < 0.25 * abs(alpha))
        done[todo[ok]] = True
        eps[todo[~ok]] /= 4.0
    return np.where(done, eps, np.nan)


def _contours(spec, alpha: complex, regions) -> tuple[list[_Piece], list[list[tuple[int, float]]]]:
    """Edge pieces of the regions' boundaries, and each region's signed terms.

    `regions` holds (label, AnnularSector) pairs; the label (the census slice,
    or None) goes into any InconclusiveRegion.  A ray is cut into straight
    pieces once, integrated outward; a region on its counterclockwise side
    takes them with sign +1, one on its clockwise side with sign -1.  Each
    detour is a semicircle bulging into one region, traversed in that
    region's direction of travel.  The detours of all rays are certified
    together before any piece is built; an uncertifiable one raises for the
    first ray met that has one.
    """
    # every ray the regions use, in the order first met: the first region's
    # label, the ray's direction and its singular radii
    rays: dict[tuple, tuple[int | None, complex, list[float]]] = {}
    for label, region in regions:
        if not region.full:
            for s in (region.s_from, (region.s_to + 1) % (2 * region.k)):
                key = (s, region.k, region.r_in, region.r_out)
                if key not in rays:
                    angle = s * math.pi / region.k
                    u = complex(math.cos(angle), math.sin(angle))
                    rays[key] = label, u, _singular_radii_on_ray(spec, s, region.r_in, region.r_out)
    sing = []  # (ray key, rho, centre, eps0) of every on-ray singularity
    for key, (_, u, radii) in rays.items():
        gaps = [key[2]] + radii + [key[3]]
        for i, rho in enumerate(radii):
            gap = min(rho - gaps[i], gaps[i + 2] - rho)
            sing.append((key, rho, rho * u, min(0.25 * gap, 0.01 * (1.0 + rho))))
    certified = _certify_detours(
        spec,
        alpha,
        np.array([centre for _, _, centre, _ in sing], complex),
        np.array([eps0 for *_, eps0 in sing], float),
        np.array([key[0] % 2 == 0 for key, *_ in sing], bool),
    )
    detours: dict[tuple, list[tuple[float, float]]] = {key: [] for key in rays}
    for (key, rho, centre, _), eps in zip(sing, certified.tolist()):
        if math.isnan(eps):
            raise InconclusiveRegion(
                f"cannot certify a detour around the on-contour singularity at {centre:.6g}",
                slice_index=rays[key][0],
                edge=f"detour r={rho:.6g} on ray {key[0]}",
            )
        detours[key].append((rho, eps))

    pieces: list[_Piece] = []
    terms: list[list[tuple[int, float]]] = []
    straight_pieces: dict[tuple, list[int]] = {}

    def add(piece: _Piece) -> int:
        pieces.append(piece)
        return len(pieces) - 1

    def ray(label, region: AnnularSector, s: int, sign: float) -> list[tuple[int, float]]:
        key = (s, region.k, region.r_in, region.r_out)
        u = rays[key][1]
        if key not in straight_pieces:
            bounds = [region.r_in] + [r for rho, eps in detours[key] for r in (rho - eps, rho + eps)] + [region.r_out]
            straight_pieces[key] = [
                add(_Piece(0j, u, a, b, False, f"ray {s}", label)) for a, b in zip(bounds[::2], bounds[1::2])
            ]
        straight = straight_pieces[key]
        travel = sign * u
        psi = math.atan2(travel.imag, travel.real)
        out = [(j, sign) for j in straight]
        for rho, eps in detours[key]:
            # from entry to exit, passing left of travel, i.e. into the region
            detour = _Piece(rho * u, eps, psi + math.pi, psi, True, f"detour r={rho:.6g} on ray {s}", label)
            out.append((add(detour), 1.0))
        return out

    for label, region in regions:
        th0, th1 = (0.0, 2 * math.pi) if region.full else (region.theta_from, region.theta_to)
        region_terms = [
            (add(_Piece(0j, r, th0, th1, True, f"arc r={r:.6g}", label)), sign)
            for r, sign in ((region.r_out, 1.0), (region.r_in, -1.0))
        ]
        if not region.full:
            region_terms += ray(label, region, region.s_from, 1.0)
            region_terms += ray(label, region, (region.s_to + 1) % (2 * region.k), -1.0)
        terms.append(region_terms)
    return pieces, terms


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


def _count(spec, alpha: complex, regions, quad_tol: float) -> list[int]:
    """Alpha-point count of each (label, region) pair; see count_in_contour."""
    alpha = complex(alpha)
    for _, region in regions:
        if isinstance(spec, SeriesFunction):
            if region.r_out > spec.trust_radius:
                raise ValueError("region exceeds the certified trust radius")
        elif isinstance(spec, StructuredFunction):
            if region.r_in <= 0:
                raise ValueError("structured specs need a punctured annulus (r_in > 0)")
    with np.errstate(all="ignore"):
        pieces, terms = _contours(spec, alpha, regions)
        values, errs = _integrate(_integrand(spec, alpha), pieces, quad_tol)
    counts = []
    for (label, region), ts in zip(regions, terms):
        raw = sum(sign * values[j] for j, sign in ts) / (2j * math.pi)
        err = sum(errs[j] for j, _ in ts)
        value = raw.real + _poles_inside(spec, region)
        nearest = round(value)
        slack = abs(value - nearest) + abs(raw.imag)
        if slack + err > ROUND_GUARD:
            edge = pieces[max(ts, key=lambda term: errs[term[0]])[0]].edge
            raise InconclusiveRegion(
                f"winding integral {value:.6f} (err est {err:.2g}) not within {ROUND_GUARD} of an integer; "
                f"largest error on {edge}",
                value=value,
                slice_index=label,
                edge=edge,
            )
        counts.append(int(nearest))
    return counts


def count_in_contour(spec, alpha: complex, region: AnnularSector, quad_tol: float = 1e-6) -> int:
    """Number of alpha-points of the spec strictly inside the annular sector.

    Computes (1/2 pi i) contour-integral of F'/(F - alpha), adds the known
    pole count, and rounds only when the result is within the 0.25 guard.
    An InconclusiveRegion names the edge at fault: the first one whose
    integrand is not finite, one whose detour cannot be certified, or the
    one with the largest error estimate when the guard fails.
    """
    return _count(spec, alpha, [(None, region)], quad_tol)[0]


def sector_census(
    spec,
    alpha: complex,
    r_in: float,
    r_out: float,
    k: int | None = None,
    quad_tol: float = 1e-6,
) -> list[int]:
    """Alpha-point counts per sector Q_0 .. Q_{2k-1} in r_in < |z| < r_out.

    The 2k slices share their rays, so every edge is integrated once and each
    slice's count is a signed sum of its edges; each slice keeps its own
    guard.  Radii are auto-nudged (globally, so slices stay consistent) when
    a slice integral is inconclusive, e.g. because a boundary circle passes
    through an alpha-point modulus.
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
        try:
            return _count(spec, alpha, [(s, AnnularSector(ri, ro, s, s, k_eff)) for s in range(2 * k_eff)], quad_tol)
        except InconclusiveRegion as exc:
            last = exc
    raise last
