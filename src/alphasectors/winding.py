"""Argument-principle counting of alpha-points over annular-sector contours.

Independent of the polynomial solver: the integrand F'/(F - alpha) is built
from closed-form evaluation of the spec.  A region's boundary is cut into
edge pieces, lines and circles, and its integral is a signed sum of its
pieces (the edge decomposition of Delves & Lyness, Math. Comp. 21 (1967), and
Kravanja & Van Barel, LNM 1727 (2000)); a census integrates every edge once,
each ray serving the two sectors it separates.  One adaptive 12-point
Gauss-Legendre loop refines all pieces together, many panels per call.  A
panel's nodes and weights are rows of tables built once per integration
(one row for the lines, one per circle half-width, at every depth), its
halves are one multiply-add away from it, and the integrand takes G and
G'/G from one pass over the factor table (eval_log_derivative_many).  A
panel is accepted at its share of the tolerance, at the depth cap, or when
its halves agree with it to rounding, so no tolerance refines forever.

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

from .functions import SeriesFunction, StructuredFunction, eval_log_derivative_many, eval_many, factor_moduli
from .functions import log_derivative_many  # noqa: F401  kept for the benchmark, which wraps it here by name

ROUND_GUARD = 0.25
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_TURN_NODES = np.append(_GL_NODES, [-1.0, 1.0])  # a circle panel's nodes, then its halves' midpoints
_MAX_DEPTH = 24  # halvings of a panel; at this depth it is accepted whatever its error
_DEPTHS = _MAX_DEPTH + 2  # depths of the node tables: a pending panel's, and its halves' one deeper
_SCALE = 0.5 ** np.arange(_DEPTHS)  # a panel's half-width over its piece's
_SPLIT_SCALE = np.concatenate([[np.inf], _SCALE[: _MAX_DEPTH], [np.inf]])  # tolerance over tol, at the halves' depth
_LINE_Y = np.broadcast_to(_GL_NODES.astype(complex), (1, _DEPTHS, 12))
_LINE_W = np.broadcast_to(_GL_WEIGHTS.astype(complex), (1, _DEPTHS, 12))
_CHUNK = 256  # panels per integrand call; bounds the memory of one step
_NOISE = 16 * np.finfo(float).eps  # a panel's rounding, in units of its noise scale (see _integrate)


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
        f, log_derivative = eval_log_derivative_many(spec, z)
        return log_derivative * f / (f - alpha)

    return fn


def _panel_tables(pieces: list[_Piece], tol: float):
    """Node tables of _integrate, one entry per slot = row * _DEPTHS + depth.

    Row 0 serves every line piece, and row r >= 1 the circle pieces of the
    r-th distinct parameter half-width h0 (widths within 1e-14 of each
    other share a row).  A panel of half-width h = h0 2^-depth and midpoint
    m has nodes z_j = P + Q Y_j and integral Q sum_j f(z_j) W_j, with

        line z = p + q t:       P = p + q m, Q = q h,      Y_j = x_j,         W_j = w_j,
        circle z = p + q e^it:  P = p,       Q = q e^{im}, Y_j = e^{i h x_j}, W_j = i h w_j Y_j,

    (x_j, w_j) the Gauss-Legendre rule.  The left and right halves of a
    panel have (P + Q a, Q b), with (a, b) = (-+1/2, 1/2) on a line and
    (0, e^{-+ih}) on a circle, h the halves' half-width.  `split` holds
    a_left, a_right, b_left, b_right and the split panel's tolerance,
    tol 2^-depth (inf at _MAX_DEPTH), at the halves' slot.  Also returns
    each piece's depth-0 slot, P and Q.
    """
    p, q, t0, t1, circle = (np.array(x, dt) for x, dt in zip(zip(*pieces), (complex, complex, float, float, bool)))
    mid, h0 = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    widths = np.sort(h0[circle])
    widths = widths[np.diff(widths, prepend=-np.inf) > 1e-14 * np.abs(widths)]
    slot = np.zeros(len(pieces), int)
    slot[circle] = np.searchsorted(widths, h0[circle], "right") * _DEPTHS
    h = widths[:, None, None] * _SCALE[:, None]
    turn = np.exp(1j * h * _TURN_NODES)  # one exp: every circle row's nodes and halves' turns at every depth
    y = np.concatenate([_LINE_Y, turn[..., :12]])
    w = np.concatenate([_LINE_W, (1j * h) * _GL_WEIGHTS * turn[..., :12]])
    split = np.zeros((5, len(widths) + 1, _DEPTHS), complex)
    split[:4, 0] = [[-0.5], [0.5], [0.5], [0.5]]
    split[2:4, 1:] = turn[..., 12:].transpose(2, 0, 1)
    split[4] = tol * _SPLIT_SCALE
    P = np.where(circle, p, p + q * mid)
    Q = q * np.where(circle, np.exp(1j * mid), h0)
    return y.reshape(-1, 12), w.reshape(-1, 12), split.reshape(5, -1), slot, P, Q


def _integrate(fn, pieces: list[_Piece], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive 12-point Gauss-Legendre on every piece at once.

    A panel at depth d is accepted when the sum of its halves is within
    tol / 2^d of it, or at d = _MAX_DEPTH; otherwise each half is pending at
    depth d + 1, with the value just computed as its `whole`.  A step splits
    the _CHUNK // 2 deepest pending panels in one integrand call: level by
    level while they fit in one call, and never more than about
    _MAX_DEPTH * _CHUNK pending, however many are rejected.  Returns each
    piece's integral and error estimate, summed over its accepted panels.

    A panel is (piece, slot, P, Q, whole): its nodes and weights are rows
    of the _panel_tables, and its halves' (P, Q) are one multiply-add from
    its own, so a step forms no exponential.  The pending panels are a
    stack in arrays that double when it outgrows them; the accepted ones
    are summed once, at the end.

    A panel is also accepted when its halves agree with it to rounding:
    within _NOISE times |halves| + (|P| + |Q|) (|f_11 - f_0| of the left
    half + that of the right), the rounding of the sums plus that of f at
    nodes placed to eps |z|.  A tolerance below that is met at no depth,
    and every panel used to be split down to _MAX_DEPTH for it.  A
    non-finite panel raises InconclusiveRegion at once.
    """
    n = len(pieces)
    y, w, split, slot0, P0, Q0 = _panel_tables(pieces, tol)

    def panels(piece, slot, P, Q):
        """The panels' integrals, and their integrands at the nodes."""
        z = P[..., None] + Q[..., None] * y.take(slot, axis=0)
        f = fn(z.ravel()).reshape(z.shape)
        vals = Q * (f[..., None, :] @ w.take(slot, axis=0)[..., None])[..., 0, 0]
        if not np.isfinite(vals).all():
            pc = pieces[piece[np.argmax(~np.isfinite(vals).ravel()) % piece.size]]
            raise InconclusiveRegion(f"integrand not finite on {pc.edge}", slice_index=pc.label, edge=pc.edge)
        return vals, f

    # the pending panels, deepest last: (piece, slot of its halves) and (P, Q, whole),
    # in arrays that double whenever the stack outgrows them
    ints = np.empty((2, n + _CHUNK // 2), int)
    cplx = np.empty((3, n + _CHUNK // 2), complex)
    idx = np.arange(n)
    ints[:, :n] = idx, slot0 + 1
    cplx[:, :n] = P0, Q0, np.concatenate(
        [panels(*(x[lo : lo + _CHUNK] for x in (idx, slot0, P0, Q0)))[0] for lo in range(0, n, _CHUNK)]
    )
    top = n
    accepted = []  # (piece, value, error estimate) of each step's accepted panels
    while top:
        cut = max(top - _CHUNK // 2, 0)
        piece, slot = ints[:, cut:top]
        P, Q, whole = cplx[:, cut:top]
        ab = split.take(slot, axis=1)
        halves_P, halves_Q = P + Q * ab[:2], Q * ab[2:4]  # (left, right) x panel
        vals, f = panels(piece, slot, halves_P, halves_Q)
        halves = vals[0] + vals[1]
        e = np.abs(halves - whole)
        # the halves' rounding scale: their sums, and f at nodes placed to eps |z|
        swing = np.abs(f[..., -1] - f[..., 0])
        noise = np.abs(halves) + (np.abs(P) + np.abs(Q)) * (swing[0] + swing[1])
        done = e <= np.maximum(ab[4].real, _NOISE * noise)
        accepted.append((piece[done], halves[done], e[done]))
        more = ~done
        m = int(np.count_nonzero(more))
        kids = ints[:, cut:top][:, more]
        kids[1] += 1
        if cut + 2 * m > ints.shape[1]:
            ints = np.concatenate([ints, np.empty_like(ints)], axis=1)
            cplx = np.concatenate([cplx, np.empty_like(cplx)], axis=1)
        ints[:, cut : cut + m] = kids
        ints[:, cut + m : cut + 2 * m] = kids
        for x, kid in zip(cplx, (halves_P, halves_Q, vals)):
            x[cut : cut + 2 * m] = kid[:, more].ravel()
        top = cut + 2 * m
    piece, value, err = (np.concatenate(x) for x in zip(*accepted))
    value = np.bincount(piece, value.real, n) + 1j * np.bincount(piece, value.imag, n)
    return value, np.bincount(piece, err, n)


def _moduli(spec) -> list[tuple[float, bool]]:
    """(modulus, is_pole) of every zero and pole circle of F: factor_moduli, none for a series."""
    return [] if isinstance(spec, SeriesFunction) else factor_moduli(spec)


def _singular_radii_on_ray(moduli, s: int, r_in: float, r_out: float) -> list[float]:
    """Radii in (r_in, r_out) where F has a pole or zero on the ray angle s*pi/k; `moduli` as _moduli gives."""
    # z^k > 0 on even rays, where the poles b, 1/d sit; z^k < 0 on odd rays, the zeros -a, -1/c
    return sorted({r for r, is_pole in moduli if is_pole == (s % 2 == 0) and r_in < r < r_out})


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


def _contours(spec, alpha: complex, regions, moduli) -> tuple[list[_Piece], list[list[tuple[int, float]]]]:
    """Edge pieces of the regions' boundaries, and each region's signed terms.

    `regions` holds (label, AnnularSector) pairs; the label (the census slice,
    or None) goes into any InconclusiveRegion, and `moduli` is _moduli(spec).
    A ray is cut into straight pieces once, integrated outward; a region on
    its counterclockwise side takes them with sign +1, one on its clockwise
    side with sign -1.  Each detour is a semicircle bulging into one region,
    traversed in that region's direction of travel.  The detours of all rays
    are certified together before any piece is built; an uncertifiable one
    raises for the first ray met that has one.
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
                    rays[key] = label, u, _singular_radii_on_ray(moduli, s, region.r_in, region.r_out)
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


def _poles_inside(moduli, region: AnnularSector) -> int:
    """Pole count (with multiplicity) strictly inside the region; `moduli` as _moduli gives.

    All poles lie on even rays; a ray at angle 2t*pi/k is strictly inside the
    angular span when both adjacent sectors 2t-1 and 2t belong to it.
    """
    k = region.k
    inside = sum(1 for rho, is_pole in moduli if is_pole and region.r_in < rho < region.r_out)
    if region.full:
        return inside * k
    return inside * sum(1 for t in range(k) if 1 <= (2 * t - region.s_from) % (2 * k) <= region.span - 1)


def _count(spec, alpha: complex, regions, quad_tol: float) -> list[int]:
    """Alpha-point count of each (label, region) pair; see count_in_contour."""
    alpha = complex(alpha)
    # the zeros of G lie on the odd rays, which every census integrates along
    if isinstance(spec, StructuredFunction) and alpha == 0:
        raise ValueError("alpha must be nonzero for structured specs")
    for _, region in regions:
        if isinstance(spec, SeriesFunction):
            if region.r_out > spec.trust_radius:
                raise ValueError("region exceeds the certified trust radius")
        elif isinstance(spec, StructuredFunction):
            if region.r_in <= 0:
                raise ValueError("structured specs need a punctured annulus (r_in > 0)")
            if region.k != spec.k:
                raise ValueError("the region's k disagrees with the spec")
    moduli = _moduli(spec)
    with np.errstate(all="ignore"):
        pieces, terms = _contours(spec, alpha, regions, moduli)
        values, errs = _integrate(_integrand(spec, alpha), pieces, quad_tol)
    counts = []
    for (label, region), ts in zip(regions, terms):
        raw = sum(sign * values[j] for j, sign in ts) / (2j * math.pi)
        err = sum(errs[j] for j, _ in ts)
        value = raw.real + _poles_inside(moduli, region)
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
