"""The census as it stood before its rays were taken in closed form.

A verbatim copy of winding._integrand and winding._integrate from the form
that placed every node with its own complex exponential, kept each step's
pending panels by concatenation and evaluated G and G'/G in two passes.
Those two passes are copied here too, as the written-out loops of
functions.eval_many and functions.log_derivative_many that they were
(ref_eval_many, ref_log_derivative_many), so that no live evaluator reaches
the frozen engine.  Below them, verbatim, the contours that integrated every
ray with semicircular detours round its zeros and poles (_contours, with
_singular_radii_on_ray and _certify_detours, whose probe is ref_eval_many),
the pole count and the rounding of each region (_poles_inside, _count).
Loaded inside the package (see helpers.load_frozen) so that its relative
imports resolve; test_winding compares each census slice's winding value and
every count or InconclusiveRegion with this census, and test_functions checks
the evaluators against the two reference passes.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import SeriesFunction, StructuredFunction, factor_moduli
from .winding import AnnularSector, InconclusiveRegion, _Piece

ROUND_GUARD = 0.25
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_MAX_DEPTH = 24  # halvings of a panel; at this depth it is accepted whatever its error
_CHUNK = 256  # panels per integrand call; bounds the memory of one step


def ref_eval_many(spec: StructuredFunction, z: np.ndarray) -> np.ndarray:
    """G at an array of nonzero points; no pole-band checks."""
    z = np.asarray(z, complex)
    zk = z**spec.k
    val = z ** float(spec.p) if spec.p >= 0 else 1.0 / z ** float(-spec.p)
    if spec.A or spec.A0:
        expo = spec.A * zk
        if spec.A0:
            expo = expo + spec.A0 / zk
        val = val * np.exp(expo)
    for a in spec.a:
        val = val * (zk + a)
    for b in spec.b:
        val = val / (zk - b)
    if spec.c or spec.d:
        zmk = 1.0 / zk
        for c in spec.c:
            val = val * (zmk + c)
        for d in spec.d:
            val = val / (zmk - d)
    return val


def ref_log_derivative_many(spec: StructuredFunction, z: np.ndarray) -> np.ndarray:
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
    for a in spec.a:
        out = out + k * zk1 / (zk + a)
    for b in spec.b:
        out = out - k * zk1 / (zk - b)
    if spec.c or spec.d:
        zmk = 1.0 / zk
        dz = -k * zmk / z  # d/dz z^-k
        for c in spec.c:
            out = out + dz / (zmk + c)
        for d in spec.d:
            out = out - dz / (zmk - d)
    return out


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
        f = ref_eval_many(spec, z)
        return ref_log_derivative_many(spec, z) * f / (f - alpha)

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


eval_many = ref_eval_many  # the detour probe's evaluator


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
