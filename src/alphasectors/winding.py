"""Argument-principle counting of alpha-points over annular-sector contours.

Independent of the polynomial solver: the integrand F'/(F - alpha) is built
from closed-form evaluation of the spec.  A region's boundary is cut into
edge pieces, arcs and rays, and its integral is a signed sum of its pieces
(the edge decomposition of Delves & Lyness, Math. Comp. 21 (1967), and
Kravanja & Van Barel, LNM 1727 (2000)); a census takes every edge once,
each ray serving the two sectors it separates.

The arcs are integrated by one adaptive 12-point Gauss-Legendre loop over
all of them, many panels per call.  A panel's nodes and weights are rows of
tables built once per set of circle half-widths and tolerance, its halves
are one multiply-add away from it, and the integrand takes G and G'/G from
one pass over the factor table (eval_log_derivative_many).  A panel is
accepted at its share of the tolerance, at the depth cap, or when its
halves agree with it to rounding, so no tolerance refines forever.

On the rays, where z^k is real, G has a fixed phase, so the rays of a
structured spec are taken in closed form (_ray_integrals): a principal
value, with each on-ray pole counted half to the regions beside it and the
poles strictly inside a region added from the parameter lists.  A ray on
which alpha's direction is real is first certified free of alpha-points
(_monotone_parts); one that is not fails as InconclusiveRegion, edge
"ray s".  A series has no such structure; its rays are integrated with its
arcs.

Every pole lies on an even ray, so a region of n sectors takes n/2 of each
pole circle inside its annulus (_poles_inside).  A failed census is retried
at nudged radii, unless a ray carries an alpha-point on the part every
nudged annulus covers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .functions import SeriesFunction, StructuredFunction, _product, eval_log_derivative_many, factor_moduli
from .functions import eval_many, log_derivative_many  # noqa: F401 kept for the benchmark, which wraps them here
from .sectors import unit_rotation

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
_REAL_POWER = 16 * np.finfo(float).eps  # |Im beta| / |beta| at most this: rounding of alpha's rotation onto a ray
_ON_RAY = 1e-12  # |x - Re beta| / |beta| at most this counts as 0: x(t) carries a few eps of rounding per factor
_NUDGES = tuple(1.0 + (attempt * (attempt % 2 * 2 - 1)) * 3e-5 for attempt in range(6))  # a census's radius scales


class InconclusiveRegion(RuntimeError):
    """The winding integral did not resolve to an integer within the guard, or a ray carries an alpha-point.

    `slice_index` is the census slice at fault (None outside a census) and
    `edge` names the contour piece, "ray 3" or "arc r=1.5".  `point_on_ray`
    is s when the fault is an alpha-point on ray s, else None.
    """

    def __init__(
        self,
        message: str,
        value: float | None = None,
        slice_index: int | None = None,
        edge: str | None = None,
        point_on_ray: int | None = None,
    ):
        super().__init__(message)
        self.value = value
        self.slice_index = slice_index
        self.edge = edge
        self.point_on_ray = point_on_ray


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
    span: int = field(init=False, repr=False, compare=False)  # sectors covered
    full: bool = field(init=False, repr=False, compare=False)  # all 2k of them

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not (0 <= self.r_in < self.r_out):
            raise ValueError("require 0 <= r_in < r_out")
        object.__setattr__(self, "s_from", self.s_from % (2 * self.k))
        object.__setattr__(self, "s_to", self.s_to % (2 * self.k))
        object.__setattr__(self, "span", (self.s_to - self.s_from) % (2 * self.k) + 1)
        object.__setattr__(self, "full", self.span == 2 * self.k)

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


@functools.lru_cache(maxsize=16)
def _tables(lines: int, widths: tuple[float, ...], tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, W and `split` of _panel_tables: `lines` (0 or 1) line rows, then a circle row per half-width.

    They depend on these and tol alone, so they are built once for each (a
    census has no line row and one half-width, pi/2k) and shared read-only.
    """
    h = np.array(widths)[:, None, None] * _SCALE[:, None]
    turn = np.exp(1j * h * _TURN_NODES)  # one exp: every circle row's nodes and halves' turns at every depth
    y = np.concatenate([_LINE_Y[:lines], turn[..., :12]]).reshape(-1, 12)
    w = np.concatenate([_LINE_W[:lines], (1j * h) * _GL_WEIGHTS * turn[..., :12]]).reshape(-1, 12)
    split = np.zeros((5, lines + len(widths), _DEPTHS), complex)
    split[:4, :lines] = np.array([-0.5, 0.5, 0.5, 0.5])[:, None, None]
    split[2:4, lines:] = turn[..., 12:].transpose(2, 0, 1)
    split[4] = tol * _SPLIT_SCALE
    split = split.reshape(5, -1)
    for table in (y, w, split):
        table.flags.writeable = False
    return y, w, split


def _panel_tables(pieces: list[_Piece], tol: float):
    """Node tables of _integrate, one entry per slot = row * _DEPTHS + depth.

    Row 0 serves every line piece, if there is one, and each later row the
    circle pieces of one distinct parameter half-width h0, in increasing
    order (widths within 1e-14 of each other share a row).  A panel of
    half-width h = h0 2^-depth and midpoint m has nodes z_j = P + Q Y_j and
    integral Q sum_j f(z_j) W_j, with

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
    distinct = sorted(set(h0[circle].tolist()))
    widths = tuple(h for h, below in zip(distinct, [-math.inf] + distinct) if h - below > 1e-14 * abs(h))
    lines = int(not circle.all())
    slot = np.zeros(len(pieces), int)
    slot[circle] = (np.searchsorted(widths, h0[circle], "right") - 1 + lines) * _DEPTHS
    y, w, split = _tables(lines, widths, tol)
    P = np.where(circle, p, p + q * mid)
    Q = q * np.where(circle, np.exp(1j * mid), h0)
    return y, w, split, slot, P, Q


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


def _contours(regions) -> tuple[list[_Piece], list[list[tuple[int, float]]], dict[int, tuple[int, float, float]]]:
    """Edge pieces of the regions' boundaries, each region's signed terms, and (s, r_in, r_out) of each ray piece.

    `regions` holds (label, AnnularSector) pairs; the label (the census slice,
    or None) goes into any InconclusiveRegion.  A region takes its outer arc
    with sign +1 and its inner arc with sign -1.  A ray is one straight
    piece from r_in to r_out, shared: a region on its counterclockwise side
    takes it with sign +1, one on its clockwise side with sign -1.
    """
    pieces: list[_Piece] = []
    terms: list[list[tuple[int, float]]] = []
    rays: dict[tuple, int] = {}

    def add(piece: _Piece) -> int:
        pieces.append(piece)
        return len(pieces) - 1

    def ray(label, region: AnnularSector, s: int) -> int:
        key = (s, region.k, region.r_in, region.r_out)
        if key not in rays:
            angle = s * math.pi / region.k
            u = complex(math.cos(angle), math.sin(angle))
            rays[key] = add(_Piece(0j, u, region.r_in, region.r_out, False, f"ray {s}", label))
        return rays[key]

    for label, region in regions:
        th0, th1 = (0.0, 2 * math.pi) if region.full else (region.theta_from, region.theta_to)
        region_terms = [
            (add(_Piece(0j, r, th0, th1, True, f"arc r={r:.6g}", label)), sign)
            for r, sign in ((region.r_out, 1.0), (region.r_in, -1.0))
        ]
        if not region.full:
            s_to = (region.s_to + 1) % (2 * region.k)
            region_terms += [(ray(label, region, region.s_from), 1.0), (ray(label, region, s_to), -1.0)]
        terms.append(region_terms)
    return pieces, terms, {j: (s, r_in, r_out) for (s, _, r_in, r_out), j in rays.items()}


def _x_on_ray(spec: StructuredFunction, t: np.ndarray, odd: bool) -> np.ndarray:
    """x(t) = G(t e^{is pi/k}) e^{-ips pi/k} at radii t of a ray of parity `odd`.

    Real: every factor of the table is real at w = z^k = +-t^k.
    """
    w = t**spec.k
    return _product(spec, -w if odd else w, t ** float(spec.p), np.exp)


def _phi_on_ray(spec: StructuredFunction, t: np.ndarray, odd: bool) -> np.ndarray:
    """zG'/G = k Phi(z^k) at radii t of a ray of parity `odd`, from the fused pass; real but for rounding."""
    z = t * unit_rotation(int(odd), spec.k)
    return (z * eval_log_derivative_many(spec, z)[1]).real


def _monotone_parts(spec: StructuredFunction, odd: bool, r_in: float, r_out: float, moduli) -> np.ndarray:
    """x at both ends of each piece of r_in < t < r_out, on a ray of parity `odd`, where x is monotone.

    Phi(w) = p/k + A w - A0/w + sum w/(w+a) - sum w/(w-b) - sum 1/(1+cw)
    + sum 1/(1-dw) increases in w from -inf to +inf between consecutive
    zeros and poles of G, which lie on the odd and the even rays.  So on
    each interval between them and the radii r_in, r_out, x has at most one
    critical point, where Phi changes sign; bisection on Phi finds it.  An
    end at a zero of G is 0; one at a pole is +-inf, with the sign x takes
    at the critical point or the end radius inside the interval (x has no
    zero on an even ray), so nothing is evaluated near the pole.
    """
    knots = sorted({rho for rho, is_pole in moduli if is_pole != odd and r_in < rho < r_out})
    lo, hi = np.array([r_in] + knots), np.array(knots + [r_out])
    ends = np.array([r_in, r_out])
    x_ends, phi_ends = _x_on_ray(spec, ends, odd), _phi_on_ray(spec, ends, odd)
    climb = -1.0 if odd else 1.0  # sign of dPhi/dt: w = -t^k on an odd ray
    phi_lo, phi_hi = np.full(lo.size, -climb * math.inf), np.full(lo.size, climb * math.inf)
    phi_lo[0], phi_hi[-1] = phi_ends
    crit = np.sign(phi_lo) * np.sign(phi_hi) < 0
    a, b, side = lo[crit], hi[crit], np.sign(phi_lo[crit])
    while True:
        mid = 0.5 * (a + b)
        live = (a < mid) & (mid < b)
        if not live.any():
            break
        right = np.sign(_phi_on_ray(spec, mid, odd)) == side  # the zero of Phi lies right of mid
        a, b = np.where(live & right, mid, a), np.where(live & ~right, mid, b)
    x_crit = iter(_x_on_ray(spec, a, odd))
    parts = []
    for i in range(lo.size):
        inner = next(x_crit) if crit[i] else None
        if odd:
            at_knot = 0.0
        else:
            at_knot = math.copysign(math.inf, x_ends[0] if i == 0 else x_ends[1] if inner is None else inner)
        left = x_ends[0] if i == 0 else at_knot
        right = x_ends[1] if i == lo.size - 1 else at_knot
        parts += [(left, inner), (inner, right)] if crit[i] else [(left, right)]
    return np.array(parts)


def _ray_integrals(spec: StructuredFunction, alpha: complex, rays: dict[int, tuple[int, float, float]], moduli) -> dict:
    """Integral of d log(G - alpha) outward along each ray in closed form, or (reason, s) or (reason, None).

    `rays` maps a piece to its (s, r_in, r_out).  On ray s,
    G - alpha = e^{ips pi/k} (x(t) - beta) with x real and
    beta = alpha e^{-ips pi/k}, so Im(x - beta) is the constant -Im beta.
    The modulus part is log|x - beta| from r_in to r_out.  The argument
    part is atan2(-Im beta, x - Re beta) from end to end of each straight
    piece between the on-ray poles, where x -> +-inf and the angle is 0 or
    sign(-Im beta) pi; the pieces between two poles cancel, and on an even
    ray the two end pieces add the angles at +-inf with the signs of x(r_in)
    and x(r_out) (a zero term when no pole lies between).  This is the
    principal value; each pole of order m on a ray leaves i pi m to each
    region beside it, which _poles_inside counts as half the pole.

    Where |Im beta| is at rounding level (alpha on a real-power direction)
    x - beta may vanish on the ray.  The ray is kept only when x - Re beta
    keeps its sign, clear of rounding, on every piece where x is monotone
    (_monotone_parts); otherwise an alpha-point lies on it, or next to it,
    and the reason comes with s.  A ray with a non-finite end has None.
    """
    out: dict[int, complex | tuple[str, int | None]] = {}
    cache: dict[tuple, tuple] = {}
    for j, (s, r_in, r_out) in rays.items():
        odd = s % 2 == 1
        key = (odd, r_in, r_out)
        if key not in cache:
            cache[key] = tuple(float(x) for x in _x_on_ray(spec, np.array([r_in, r_out]), odd)), None
        (x_in, x_out), parts = cache[key]
        if not (math.isfinite(x_in) and math.isfinite(x_out)):
            out[j] = f"G is not finite at an end of ray {s}", None
            continue
        beta = alpha * unit_rotation(-spec.p * s, spec.k)
        if abs(beta.imag) <= _REAL_POWER * abs(beta):
            if parts is None:
                parts = _monotone_parts(spec, odd, r_in, r_out, moduli)
                cache[key] = (x_in, x_out), parts
            gap = parts - beta.real
            if (np.sign(gap[:, 0]) != np.sign(gap[:, 1])).any() or (np.abs(gap) <= _ON_RAY * abs(beta)).any():
                out[j] = f"alpha has a real-power direction on ray {s}, and an alpha-point lies on it or next to it", s
                continue

        def angle(x: float) -> float:
            return math.atan2(-beta.imag, x - beta.real)

        arg = angle(x_out) - angle(x_in)
        if not odd:
            arg += angle(math.copysign(math.inf, x_in)) - angle(math.copysign(math.inf, x_out))
        out[j] = complex(math.log(abs(x_out - beta)) - math.log(abs(x_in - beta)), arg)
    return out


def _poles_inside(moduli, region: AnnularSector) -> float:
    """Poles (with multiplicity) inside the region, those on its rays counted half; `moduli` as _moduli gives.

    All poles lie on the even rays, where the principal value along a ray
    through a pole leaves half of it to each region beside the ray
    (_ray_integrals).  A span of n sectors covers n/2 even rays so counted,
    whatever the parity of its first ray: k for the full annulus, 1/2 for
    each census slice.
    """
    inside = sum(1 for rho, is_pole in moduli if is_pole and region.r_in < rho < region.r_out)
    return inside * region.k if region.full else inside * region.span / 2


def _windings(spec, alpha: complex, regions, quad_tol: float) -> list:
    """Each region's winding number before rounding, in the order of `regions`.

    An entry is (w, err, edge): w is (1/2 pi i) times the integral of
    d log(F - alpha) round the region's boundary plus its poles
    (_poles_inside), so Re w estimates its alpha-point count and Im w, the
    drift of log|F - alpha| round the contour, is 0 but for quadrature
    error; err is the error estimate of its edges and edge the one with the
    largest.  Or the entry is the InconclusiveRegion of its first ray that
    has no closed form.

    The arcs are integrated first, so a non-finite arc raises under its own
    name; the rays of a structured spec are then taken in closed form with
    no error estimate, and a series integrates its rays with the arcs.
    """
    moduli = _moduli(spec)
    pieces, terms, rays = _contours(regions)
    if isinstance(spec, SeriesFunction):
        rays = {}
    quad = [j for j in range(len(pieces)) if j not in rays]
    values, errs = np.zeros(len(pieces), complex), np.zeros(len(pieces))
    failed: dict[int, tuple[str, int | None]] = {}
    with np.errstate(all="ignore"):
        values[quad], errs[quad] = _integrate(_integrand(spec, alpha), [pieces[j] for j in quad], quad_tol)
        for j, value in _ray_integrals(spec, alpha, rays, moduli).items():
            if isinstance(value, tuple):
                failed[j] = value
            else:
                values[j] = value
    out = []
    for (label, region), ts in zip(regions, terms):
        bad = [j for j, _ in ts if j in failed]
        if bad:
            reason, ray = failed[bad[0]]
            out.append(InconclusiveRegion(reason, slice_index=label, edge=pieces[bad[0]].edge, point_on_ray=ray))
            continue
        raw = sum(sign * values[j] for j, sign in ts) / (2j * math.pi)
        worst = max(ts, key=lambda term: errs[term[0]])[0]
        out.append((raw + _poles_inside(moduli, region), sum(errs[j] for j, _ in ts), pieces[worst].edge))
    return out


def _count(spec, alpha: complex, regions, quad_tol: float) -> list[int]:
    """Alpha-point count of each (label, region) pair; see count_in_contour."""
    alpha = complex(alpha)
    # the zeros of G lie on the odd rays, which every census takes the integral along
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
    counts = []
    for (label, _), entry in zip(regions, _windings(spec, alpha, regions, quad_tol)):
        if isinstance(entry, InconclusiveRegion):
            raise entry
        value, err, edge = entry
        nearest = round(value.real)
        slack = abs(value.real - nearest) + abs(value.imag)
        if slack + err > ROUND_GUARD:
            raise InconclusiveRegion(
                f"winding integral {value.real:.6f} (err est {err:.2g}) not within {ROUND_GUARD} of an integer; "
                f"largest error on {edge}",
                value=value.real,
                slice_index=label,
                edge=edge,
            )
        counts.append(int(nearest))
    return counts


def count_in_contour(spec, alpha: complex, region: AnnularSector, quad_tol: float = 1e-6) -> int:
    """Number of alpha-points of the spec strictly inside the annular sector.

    Computes (1/2 pi i) contour-integral of F'/(F - alpha), adds the known
    pole count, and rounds only when the result is within the 0.25 guard.
    An InconclusiveRegion names the edge at fault: the first arc whose
    integrand is not finite, a ray that carries an alpha-point (or whose
    ends are not finite), or the edge with the largest error estimate when
    the guard fails.
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

    The 2k slices share their rays, so every edge is taken once and each
    slice's count is a signed sum of its edges; each slice keeps its own
    guard.  Radii are auto-nudged (globally, so slices stay consistent) when
    a slice integral is inconclusive, e.g. because a boundary circle passes
    through an alpha-point modulus; the last attempt's error is raised.  A
    ray that carries an alpha-point where every nudged annulus covers it
    ends the census at once, with that attempt's error, which may name
    another slice or edge than the last attempt would: no nudge moves a
    point off a ray.  Every other failure is retried: an arc's, a series
    ray's, a ray whose ends are not finite, and a point on a ray that a
    nudge may leave outside the annulus.
    """
    if isinstance(spec, StructuredFunction):
        k_eff = spec.k
    else:
        k_eff = 2 if k is None else k
    if k is not None and isinstance(spec, StructuredFunction) and k != spec.k:
        raise ValueError("k disagrees with the spec")
    last: InconclusiveRegion | None = None
    for nudge in _NUDGES:
        ri, ro = r_in * nudge, r_out * nudge
        try:
            return _count(spec, alpha, [(s, AnnularSector(ri, ro, s, s, k_eff)) for s in range(2 * k_eff)], quad_tol)
        except InconclusiveRegion as exc:
            last = exc
            lo, hi = r_in * max(_NUDGES), r_out * min(_NUDGES)  # the part of the ray every attempt covers
            if exc.point_on_ray is not None and lo < hi:
                with np.errstate(all="ignore"):
                    still = _ray_integrals(spec, complex(alpha), {0: (exc.point_on_ray, lo, hi)}, _moduli(spec))[0]
                if isinstance(still, tuple) and still[1] is not None:
                    break
    raise last
