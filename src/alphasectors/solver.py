"""Simultaneous polynomial root iteration and alpha-point extraction.

find_roots runs an Aberth-Ehrlich iteration from deterministic initial
guesses on circles read off the Newton polygon of the coefficients (fixed
irrational angular offset, no randomness; a one-root edge starts beside its
binomial root) and clusters near-coincident iterates into multiplicities.  The
support of the coefficients fixes a stride g once per solve (_stride): the
alpha-polynomial z^s1 N(z^k) - alpha z^s2 D(z^k) holds its nonzeros in two
residue classes mod k, so P(z) = sum_r z^r Q_r(z^g) with g = k, while dense
input keeps g = 1, one class.  Each step evaluates every root in one Horner
loop in w = z^g over stacked lanes (_Horner): each class of P and P' inside
the unit circle, of the reversed polynomial and its derivative at 1/u outside
it.  Aberth's iterates are polished once, every root by one kernel: Newton
on the original coefficients with a compensated (twice-working-precision)
Horner residual in w, w = z^g formed error-free, all roots and classes at
once, the four real products of each Horner step in one block, the scaled
coefficients tabled once per polish and each row contiguous ufuncs written
into buffers allocated once per step; a root of multiplicity nu as the
simple root of P^(nu-1), its coefficients formed in double.  At stride 1
the Horner kernel is bit for bit the dense Horner loop.
The polish runs at the solve's stride, except on dense input and on P^(nu-1):
there at stride 3 with classes 0, 1 and 2 (_POLYPHASE), which hold every
exponent, a third of the rows (each tens of numpy calls) on lanes 3x wider.
Every solve is a batch (_find_roots_batch; find_roots is the batch of one),
run in one straight pass.  Polynomials of one stride and one degree mod g
share the Horner tables, zero-padded at the top, so one Aberth loop and one
compensated polish of the simple roots serve them all, each kernel taking the
polynomial of every root from an owner index array; each polynomial keeps its
own start, reciprocal sum, stop rule, grouping (_group) and checks, and gets
bit for bit the clusters of its own solve.  truncate_series, which certifies
a series' trust radius, solves its two truncations this way.  The multiplicity bound is checked in one place,
_finish: on every polynomial at the end of the pass, and on the roots
alpha_points reuses.  The iteration cap (MAX_ITERS) and the cluster distance
(DEFAULT_CLUSTER_TOL) are fixed; only the root tolerance and the multiplicity
bound are parameters.
A root is its centre and its multiplicity (RootCluster).  _group and
_check_simple decide every near pair from one list: the pairs of roots that
could be near (_close_pairs: a window over the sorted moduli, widened so that
rounding never drops a pair), whose distance test they run on those alone;
no n x n matrix is formed.
alpha_points converts a spec to its alpha-polynomial, solves, classifies
sectors, and returns modulus-sorted points; a series solved at alpha = 0
reuses the roots truncate_series found for it at the default root tolerance.
A rational spec starts Aberth in the sectors the paper predicts
(checks.predict_sectors; a spec with c or d factors through its meromorphic
equivalent); should that solve fail, or the forecast not apply, the default
start decides.  One array pass (_accept) accepts its points: the residual
on evaluate_G's bits (z^k and z^p by CPython's own z ** n, its complex
product and quotient rebuilt on the parts), sectors from np.arctan2.  Where
evaluate_G returns, the pass gives its points or SolverError byte for byte;
where CPython's arithmetic would raise, a SolverError names the point and
the quantity beyond double range.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .checks import predict_sectors
from .functions import (
    AlphaPoint,
    DEFAULT_POLE_TOL,
    RootCluster,
    SeriesFunction,
    StructuredFunction,
    _power,
    alpha_polynomial,
    evaluate_G,  # noqa: F401 kept for the benchmark, which wraps it here
)
from .sectors import DEFAULT_ANGLE_TOL, K_BOUND, SectorIndex, classify_sector, phase

DEFAULT_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-7
DEFAULT_ROOT_TOL = 1e-10
MAX_ITERS = 200
DEGREE_CAP = 512

_LOG_MAX = math.log(np.finfo(float).max)
_ANGLE_OFFSET = 2.399963229728653  # golden angle, fixed irrational offset
_BINOMIAL_TURN = 0.01  # rad off a one-root edge's binomial root (0 to 0.05 iterate alike)


class SolverError(RuntimeError):
    """Root iteration failed; carries the unconverged residuals when relevant."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = tuple(residuals) if residuals is not None else ()


def _scaled(z: np.ndarray, e) -> np.ndarray:
    """z 2^e (e integers broadcast against z), exact by np.ldexp on the parts, even where 2^e is no double."""
    parts = np.ascontiguousarray(z, complex).view(float).reshape(*np.shape(z), 2)
    return np.ldexp(parts, np.expand_dims(e, -1)).view(complex)[..., 0]


def _exponents(c: np.ndarray, owner, log_modulus) -> tuple[np.ndarray, np.ndarray]:
    """(e, f) that scale root j to z = 2^e_j u and its polynomial c[owner[j]] by 2^f_j.

    e_j rounds log_modulus[j], log2 of the root's modulus, and f_j brings the largest term
    2^(f_j + e_j i) |c_i| within sqrt 2 of 1: none overflows, and none that matters goes subnormal.
    """
    with np.errstate(divide="ignore"):  # a zero coefficient is -inf, never the largest
        logs = np.log2(np.abs(c))[owner]
    e = np.round(log_modulus).astype(np.int64)
    held = np.flatnonzero((logs > -np.inf).any(axis=0))  # exponents with a nonzero coefficient
    f = -np.round((logs[:, held] + e[:, None] * held).max(axis=1)).astype(np.int64)
    return e, f


def _strip_and_scale(coeffs) -> tuple[np.ndarray, int, int]:
    """Strip zero leading/trailing coefficients; scale z = 2^e u and the polynomial by 2^f, exactly.

    Returns (scaled ascending coefficients, e, origin_multiplicity), (e, f)
    from _exponents at the roots' geometric-mean modulus |c_0/c_n|^(1/n):
    the scaled root moduli have geometric mean within sqrt 2 of 1.  Barring
    underflow the scaled c_i is c_i 2^(f + e i) bit for bit; a real one stays real.
    """
    c = np.asarray(coeffs, complex)
    with np.errstate(over="ignore"):  # finite parts whose modulus overflows are refused too
        bad = np.flatnonzero(~np.isfinite(np.abs(c)))
    if len(bad):
        i = bad[0]
        what = "not a finite number" if not np.isfinite(c[i]) else "of modulus beyond double range"
        raise ValueError(f"polynomial coefficient {i} is {c[i]}, {what}")
    nz = np.flatnonzero(c)
    if not len(nz) or nz[-1] == 0:
        raise ValueError("polynomial degree must be >= 1 after trailing-zero strip")
    m0, top = int(nz[0]), int(nz[-1])
    c, n = c[m0 : top + 1], top - m0
    if n == 0:
        return np.array([1.0 + 0j]), 0, m0
    l0, ln = np.log2(np.abs(c[[0, n]]))
    log_modulus = (l0 - ln) / n  # log2 of the roots' geometric-mean modulus
    if log_modulus > math.log2(np.finfo(float).max):
        raise SolverError(f"root moduli near 2^{log_modulus:.0f} lie beyond double range")
    (e,), (f,) = _exponents(c[None], [0], [log_modulus])
    sc = _scaled(c, f + e * np.arange(n + 1))
    if sc[0] == 0 or sc[n] == 0:  # the scaled problem would lose roots
        raise SolverError(
            f"scaled coefficient moduli span 2^{-min(l0, ln + e * n) - f:.0f}, beyond double range: "
            "an end coefficient underflows to 0"
        )
    return sc, int(e), m0


class _Stride(NamedTuple):
    """The exponents a polynomial holds lie in the classes r + g Z, r in classes (ascending)."""

    g: int
    classes: tuple[int, ...]


_DENSE = _Stride(1, (0,))


def _stride(coeffs: np.ndarray) -> _Stride:
    """The stride g and residue classes that make Horner in w = u^g cheapest.

    coeffs has c_0 != 0 and c_n != 0.  Its classes, stacked as lanes and each
    padded to the longest, take (number of classes) x (n // g + 1) Horner
    steps, plus about 2 log2 g products to form w; stride 1 takes n + 1.  A
    stride g >= 2 is taken only when it at least halves that, so an input
    with more than half its coefficients nonzero is dense at once.
    """
    n = len(coeffs) - 1
    support = np.flatnonzero(coeffs)
    if 2 * len(support) > n + 1:
        return _DENSE
    g = np.arange(2, n + 1)
    residues = np.sort(support[None, :] % g[:, None], axis=1)
    classes = 1 + np.count_nonzero(np.diff(residues, axis=1), axis=1)
    steps = classes * (n // g + 1) + 2 * np.log2(g)
    best = int(np.argmin(steps))
    if 2 * steps[best] > n + 1:
        return _DENSE
    g = int(g[best])
    return _Stride(g, tuple(np.unique(support % g).tolist()))


def _powers(x: np.ndarray, exponents: list[int]) -> list[np.ndarray]:
    """x^p for each p of the ascending exponents, each the one before times x^(p - p')."""
    out = [_power(x, exponents[0])]
    for prev, p in zip(exponents, exponents[1:]):
        out.append(out[-1] * _power(x, p - prev))
    return out


def _class_lanes(c: np.ndarray, g: int, offsets: np.ndarray, rows: int) -> np.ndarray:
    """(rows, len(offsets), ...) table whose column i holds c_(offsets[i] + g j), j descending.

    c is indexed by exponent along its first axis; any trailing axes are
    carried along.  Exponents beyond the end of c read 0, so every column is
    zero-padded above to the same number of Horner steps.
    """
    idx = offsets[None, :] + g * np.arange(rows - 1, -1, -1)[:, None]
    return np.concatenate([c, np.zeros((1, *c.shape[1:]), c.dtype)])[np.minimum(idx, len(c))]


_ROW_BLOCK = 32  # Horner rows gathered per root at a time: bounds the gathered table's size


class _Horner:
    """(N, D) with P(u)/P'(u) = N/D for scaled polynomials, every root in one Horner loop.

    P(u) = sum_r u^r Q_r(w) over the stride's classes r, w = u^g, and P'
    likewise over the classes (r - 1) mod g of its coefficients dsc.  Inside
    the unit circle x = u.  Outside it x = v = 1/u and the reversed
    polynomial Q(v) = v^n P(u), ascending = reversed(sc), is sparse in the
    classes (n - r) mod g: N = u Q(v) and D = n Q(v) - v Q'(v), so no power
    of u is ever formed.  The tables, built once, hold per class a value lane
    and a derivative lane for each side, zero-padded to n // g + 1 steps;
    each root picks the lanes of its side and all of them run as one Horner
    loop at w = x^g.  Each lane's sum is then weighted by its power of x and
    the classes added.  At stride 1 there is one class whose lanes are P
    (or Q) and P' (or Q', led by a zero) with n + 1 steps and weight 1, so
    the loop is bit for bit the Horner loop of each; the leading zero step
    gives +0, polyval's start.

    polys lists (sc, dsc) pairs that share the stride and n mod g, hence the
    lane weights; owner[j] names the polynomial of root j.  A shorter
    polynomial is zero-padded at the top to the longest: from the +0 start,
    each such step gives +0 again, so a root's lanes sum bit for bit as in a
    table of its polynomial alone.
    """

    def __init__(self, polys: list[tuple[np.ndarray, np.ndarray]], stride: _Stride):
        self.polys, self.stride = polys, stride
        self.degrees = np.array([len(sc) - 1 for sc, _ in polys])
        n = int(self.degrees[0])
        g, classes = stride
        c = len(classes)
        r = np.array(classes)
        # the power of x weighting each lane: [value, derivative] x [inside, outside] x class
        offsets = np.array([[r, (n - r) % g], [(r - 1) % g, (n - r - 1) % g]])
        rows = int(self.degrees.max()) // g + 1
        lanes = []
        for sc, dsc in polys:
            q = sc[::-1]
            sides = ((sc, q), (dsc, np.arange(1, len(sc)) * q[1:]))
            lanes += [_class_lanes(sides[kind][side], g, offsets[kind, side], rows) for kind in (0, 1) for side in (0, 1)]
        self.table = np.concatenate(lanes, axis=1)
        # table column of each lane (value lanes first, then derivative lanes) for a root inside
        self.base = np.concatenate([np.arange(c), 2 * c + np.arange(c)])
        # x^p for p in powers gives w = x^g (the last) and the lane weights: a weighted
        # lane kind * c + i takes, inside and outside, 1 (slot 0) or x^powers[slot - 1]
        self.powers = sorted(set(offsets.ravel().tolist()) - {0} | {g})
        lane_offsets = offsets.transpose(0, 2, 1).reshape(2 * c, 2)
        self.weighted = np.flatnonzero(lane_offsets.any(axis=1))
        self.slot = np.searchsorted([0, *self.powers], lane_offsets[self.weighted])

    def __call__(self, u: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = len(self.stride.classes)
        m = len(u)
        big = ~(np.abs(u) <= 1.0)
        x = u.copy()
        x[big] = 1.0 / u[big]
        side = big.astype(np.intp)
        pw = _powers(x, self.powers)
        cols = (self.base[:, None] + c * (side + 4 * owner)).ravel()
        xx = np.concatenate([pw[-1]] * (2 * c))
        y = np.zeros_like(xx)
        for top in range(0, len(self.table), _ROW_BLOCK):  # each root's rows, a block at a time
            for row in self.table[top : top + _ROW_BLOCK, cols]:
                y *= xx
                y += row
        y = y.reshape(2 * c, m)
        if len(self.weighted):
            pw = np.concatenate([np.ones_like(x), *pw]).reshape(-1, m)
            y[self.weighted] *= pw[self.slot[:, side], np.arange(m)]
        val, dval = y[::c]
        for i in range(1, c):
            val, dval = val + y[i], dval + y[c + i]
        n = self.degrees[owner]
        return np.where(big, u * val, val), np.where(big, n * val - x * dval, dval)


def _newton_corrections(horner: _Horner, u: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """P(u)/P'(u) for the scaled polynomial of each root."""
    num, den = horner(u, owner)
    return num / np.where(den == 0, 1e-300, den)


def _start_points(sc: np.ndarray, forecast: tuple[int, list[int]] | None = None) -> np.ndarray:
    """Initial guesses on circles read off the Newton polygon of sc.

    Each edge (i1, i2) of the upper convex hull of (i, log|sc_i|), taken over
    the nonzero coefficients, puts i2 - i1 points on the circle of radius
    (|sc_i1| / |sc_i2|)^(1/(i2 - i1)), where about that many root moduli lie
    (Bini 1996; Bini & Robol 2014).  Angles are equispaced with the golden
    angle as offset, each circle turned by a further 2 pi i1 / n.  A one-root
    edge (i2 = i1 + 1) fixes the phase too: its point takes the phase of the
    binomial root -sc_i1 / sc_i2, the polynomial's only root in the annulus
    when the edge is sharp (Pellet), turned by _BINOMIAL_TURN so that a real
    polynomial never starts an iterate on the real axis.  The wide-range
    q-series have mostly one-root edges; on edges of more roots the binomial
    phases cost more iterations than the golden angle, so those keep it.
    A forecast (k, sectors) of n sector indices in modulus order replaces
    every phase: rank j (the circles ascend) starts mid-sector in Q_s, s =
    sectors[j], and t ranks sharing a circle and a sector start at (s + (q +
    1/2) / t) pi / k, q = 0 .. t - 1, so no two coincide.
    """
    n = len(sc) - 1
    nz = np.flatnonzero(sc)
    hull: list[tuple[int, float]] = []
    for i, lg in zip(nz.tolist(), np.log(np.abs(sc[nz])).tolist()):
        # drop the last vertex while it lies on or below the chord to (i, lg)
        while len(hull) >= 2:
            (ia, la), (ib, lb) = hull[-2:]
            if (lb - la) * (i - ia) > (lg - la) * (ib - ia):
                break
            hull.pop()
        hull.append((i, lg))
    ends, lgs = np.array([i for i, _ in hull]), np.array([lg for _, lg in hull])
    m = np.diff(ends)
    logr = (lgs[:-1] - lgs[1:]) / m  # the log radius of each edge's circle
    over = np.flatnonzero(logr > _LOG_MAX)
    if len(over):
        raise SolverError(f"scaled root moduli near e^{logr[over[0]]:.0f} lie beyond double range")
    radii = np.repeat([math.exp(x) for x in logr.tolist()], m)
    if forecast is not None and len(forecast[1]) == n:
        k, sectors = forecast[0], np.asarray(forecast[1])
        key = np.repeat(np.arange(len(m)), m) * (2 * k) + sectors  # each rank's circle and sector
        _, inverse, t = np.unique(key, return_inverse=True, return_counts=True)
        q = np.empty(n)  # each rank's place among the ranks of its circle and sector
        q[np.argsort(key, kind="stable")] = np.arange(n) - np.repeat(np.cumsum(t) - t, t)
        return radii * np.exp(1j * np.pi / k * (sectors + (q + 0.5) / t[inverse]))
    j = np.arange(ends[0], ends[-1]) - np.repeat(ends[:-1], m)  # each point's place on its circle
    angles = 2 * np.pi * j / np.repeat(m, m) + _ANGLE_OFFSET + np.repeat(2 * np.pi * ends[:-1] / n, m)
    one = np.flatnonzero(m == 1)
    angles[ends[one] - ends[0]] = np.angle(-sc[ends[one]] / sc[ends[one + 1]]) + _BINOMIAL_TURN
    return radii * np.exp(1j * angles)


def _owned(parts: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of parts end to end, with owner[j] the key entry j came from."""
    return np.concatenate(list(parts.values())), np.concatenate([np.full(len(x), key) for key, x in parts.items()])


def _pieces(a: np.ndarray, parts: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """a, stacked as _owned stacks parts, cut back into one slice per key."""
    out, start = {}, 0
    for key, x in parts.items():
        out[key] = a[start : start + len(x)]
        start += len(x)
    return out


def _aberth(horner: _Horner, tol: float, forecasts=None) -> list:
    """Aberth-Ehrlich iteration on each scaled polynomial of horner's stack, all in one loop.

    horner evaluates the stack, one call per iteration for every root still
    moving.  Each polynomial keeps its own start (_start_points, from its
    sector forecast forecasts[i] when one is given), its own pairwise
    reciprocal sum and its own stop and stall rule, and leaves the loop at
    the iteration where it would stop if solved alone, so its iterates are
    bit for bit those of a solo run.  The moving roots live
    in one stacked array, each polynomial's a view of it, restacked (with
    their owner index) only when a polynomial leaves; each reciprocal matrix
    is formed in one buffer kept across iterations.  Returns, per
    polynomial, its iterates or the SolverError it raised.
    """
    out: list = [None] * len(horner.polys)
    u: dict[int, np.ndarray] = {}
    for i, ((sc, _), forecast) in enumerate(zip(horner.polys, forecasts or [None] * len(horner.polys))):
        try:
            u[i] = _start_points(sc, forecast)
        except SolverError as exc:
            out[i] = exc
    last = dict.fromkeys(u, np.inf)
    stall = dict.fromkeys(u, 0)
    buf = np.empty(max(map(len, u.values()), default=0) ** 2, complex)
    moving = None  # the stacked roots still moving and their owner index
    with np.errstate(all="ignore"):
        for _ in range(MAX_ITERS):
            if not u:
                break
            if moving is None:
                moving = _owned(u)
                u = _pieces(moving[0], u)
            nv = _newton_corrections(horner, *moving)
            for i, nvi in _pieces(nv, u).items():
                ui = u[i]
                recip = buf[: len(ui) ** 2].reshape(len(ui), len(ui))
                np.subtract(ui[:, None], ui[None, :], out=recip)
                np.fill_diagonal(recip, np.inf)
                s = np.divide(1.0, recip, out=recip).sum(axis=1)
                w = nvi / (1.0 - nvi * s)
                bad = ~np.isfinite(w)
                if bad.any():
                    w[bad] = nvi[bad]
                    w[~np.isfinite(w)] = 0.0
                ui -= w
                step = float(np.max(np.abs(w) / (1.0 + np.abs(ui))))
                # stagnation on a multiple-root limit cycle also counts as converged
                if step >= 0.5 * last[i]:
                    stall[i] += 1
                else:
                    stall[i] = 0
                if step <= tol or (stall[i] >= 10 and step <= 1e-5):
                    out[i] = u.pop(i)  # a view of a stack that no later step writes
                    moving = None
                last[i] = step
    if u:
        res = np.abs(_newton_corrections(horner, *_owned(u)))
        for i, ri in _pieces(res, u).items():
            out[i] = u[i]
            if np.max(ri / (1.0 + np.abs(u[i]))) > 1e-4:
                out[i] = SolverError(
                    f"simultaneous iteration did not converge in {MAX_ITERS} iterations",
                    residuals=ri.tolist(),
                )
    return out


def _components(n: int, i: np.ndarray, j: np.ndarray) -> list[list[int]]:
    """Connected components of the graph on 0 .. n - 1 with the edges (i[t], j[t]).

    Members ascend within a group; groups are listed by their smallest member.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(i.tolist(), j.tolist()):
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


_EPS = float(np.finfo(float).eps)


def _subsplit(horner: _Horner, u: np.ndarray, which: int) -> list[list[int]]:
    """Partition a distance-cluster, its scaled iterates u, by indistinguishability.

    Each iterate gets the Newton uncertainty radius (|P| + rounding noise) / |P'|,
    the noise being n eps sum |c_i| |u|^i, formed like N.  Below this distance
    two iterates cannot be told apart: a converged iterate of a multiple root
    sits within it of the center, while genuinely distinct simple roots
    separate by much more than their radii.  which names the cluster's
    polynomial in horner's stack.
    """
    num, den = horner(u, np.full(len(u), which))
    sc, dsc = horner.polys[which]
    bound = _Horner([(np.abs(sc), np.abs(dsc))], horner.stride)(np.abs(u), np.zeros(len(u), np.intp))[0]
    acc = (np.abs(num) + _EPS * (len(sc) - 1) * bound) / np.maximum(np.abs(den), 1e-300)
    return _components(len(u), *np.nonzero(np.abs(u[:, None] - u[None, :]) <= 4.0 * (acc[:, None] + acc[None, :])))


_SCREEN_SLACK = 1e-6  # relative widening of _close_pairs' window; its rounding is a few ulps


def _close_pairs(z: np.ndarray, t: float, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) that may satisfy |z_i - z_j| <= t (a + max(|z_i|, |z_j|)); none that does is missed.

    Such a pair has moduli within t (a + m) of each other, m the larger, since
    |z_i - z_j| >= | |z_i| - |z_j| |.  A window over the sorted moduli keeps
    the pairs whose moduli are that close, t widened by _SCREEN_SLACK and an
    absolute 1e-300 so that rounding cannot drop one.  Each pair is listed
    once; the caller runs its exact comparison on these alone.
    """
    m = np.abs(z)
    order = np.argsort(m, kind="stable")
    ms = m[order]
    t *= 1 + _SCREEN_SLACK
    counts = np.searchsorted(ms, (ms + t * a) / (1 - t) + 1e-300, side="right") - np.arange(1, len(ms) + 1)
    first = np.repeat(np.arange(len(ms)), counts)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    return order[first], order[second]


def _group(u: np.ndarray, e: int, horner: _Horner, which: int) -> tuple[np.ndarray, np.ndarray]:
    """Aberth's iterates u of polynomial which of horner, grouped one root a group.

    Iterates closer than sqrt(DEFAULT_CLUSTER_TOL) (1 + |z|) are joined, and
    _subsplit parts each cluster into those that cannot be told apart.  Only
    the pairs _close_pairs screens are compared, and those that pass are the
    edges the groups are read from.  Returns each group's centre, the mean of
    its z = 2^e u, and its size, the multiplicity; a root beyond double range
    raises SolverError.  With no pair joined, the usual case of distinct
    simple roots, the groups are the iterates themselves, in index order.
    """
    roots = _scaled(u, e)
    if not np.isfinite(roots).all():
        raise SolverError("a root lies beyond double range")
    reach = math.sqrt(DEFAULT_CLUSTER_TOL)
    i, j = _close_pairs(roots, reach, 1.0)
    near = np.abs(roots[i] - roots[j]) < reach * (1.0 + np.abs(roots[i] + roots[j]) / 2)
    if not near.any():
        return roots, np.ones(len(roots), np.intp)
    groups = []
    for idx in _components(len(roots), i[near], j[near]):
        # keep close but genuinely distinguishable simple roots separate
        subs = _subsplit(horner, u[idx], which) if len(idx) > 1 else [[0]]
        groups += [[idx[s] for s in sub] for sub in subs]
    centres = np.array([roots[g[0]] if len(g) == 1 else np.mean(roots[g]) for g in groups])
    if not np.isfinite(centres).all():
        raise SolverError("a root lies beyond double range")
    return centres, np.array([len(g) for g in groups])


# the compensated polish's stride on dense input: a third of the Horner rows, each three
# lanes wide (strides 2-5 polish about as fast, 6 slower).  Below about degree 10, forming
# u^3 and adding the classes cost more than the rows save (find_roots about a quarter
# slower at degree 2); only the small figure demos solve dense input that short
_POLYPHASE = _Stride(3, (0, 1, 2))
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitting constant for 53-bit doubles
_DUPLICATE_TOL = 1e-8  # simple roots closer than this (relative) are one root found twice
_MAX_POLISH_STEPS = 4  # roots of a close pair can need more than two steps
_UNSETTLED = 1e-12  # a last polish step above this (relative) did not converge


def _split(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """a = hi + lo exactly, each half with at most 26 significant bits, written into hi and lo."""
    np.multiply(_SPLIT, a, out=lo)
    np.subtract(lo, a, out=hi)
    np.subtract(lo, hi, out=hi)
    np.subtract(a, hi, out=lo)


def _two_prod(a, a_hi, a_lo, b, b_hi, b_lo, x, y, tmp) -> None:
    """x = fl(a*b) and x + y = a*b exactly (Dekker), written into x and y; tmp is scratch, and may be a."""
    np.multiply(a, b, out=x)
    np.subtract(x, np.multiply(a_hi, b_hi, out=y), out=y)
    np.subtract(y, np.multiply(a_lo, b_hi, out=tmp), out=y)
    np.subtract(y, np.multiply(a_hi, b_lo, out=tmp), out=y)
    np.subtract(np.multiply(a_lo, b_lo, out=tmp), y, out=y)


def _two_sum(a, b, s, t, tmp) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) with s = fl(a+b) and s + t = a+b exactly (Knuth), written into s and t; tmp is scratch."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=t)
    np.subtract(a, np.subtract(s, t, out=tmp), out=tmp)
    np.add(tmp, np.subtract(b, t, out=t), out=t)
    return s, t


def _turns(a: np.ndarray) -> np.ndarray:
    """(a, i a) for complex rows a = (x, y), that is (x, y) and (-y, x), and its Dekker halves: (3, 2, m, 2)."""
    a4 = np.empty((3, 2, len(a), 2))
    a4[0, 0] = a
    np.negative(a[:, 1], out=a4[0, 1, :, 0])
    a4[0, 1, :, 1] = a[:, 0]
    _split(a4[0], a4[1], a4[2])
    return a4


def _exact_product(s: np.ndarray, turns: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, t) with p = fl(s a) and p + t = s a up to the rounding of t, for turns = _turns(a).

    Complex numbers are (m, 2) float rows so each real operation covers both
    parts.  s a = re(s) (x, y) + im(s) (-y, x): the four real products run as
    one (2, m, 2) block, (re s, re s) and (im s, im s) times the two halves
    of turns, each product and their sum error-free; t sums the errors.
    Every intermediate, p and t too, is written into buf, (5, 2, m, 2).
    """
    s4, hi, lo, x, y = buf
    np.copyto(s4, s.T[:, :, None])
    _split(s4, hi, lo)
    _two_prod(s4, hi, lo, *turns, x, y, s4)
    p, ep = _two_sum(x[0], x[1], hi[0], hi[1], lo[0])
    t = np.add(y[0], y[1], out=lo[1])
    return p, np.add(t, ep, out=t)


def _dd_power(a: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """a^e (e >= 1) as hi + lo: hi as (m, 2) float rows, lo complex.

    Binary powering in which every product is error-free and lo carries the
    errors to first order (Graillat, "Accurate floating-point product and
    exponentiation", IEEE Trans. Comput. 58, 2009): hi + lo is a^e to about
    eps^2 log2 e, where the rounded powers are off by about eps log2 e.
    """
    m = len(a)
    ac = a.view(complex)[:, 0]
    bits = bin(e)[3:]
    a_turns = _turns(a) if "1" in bits else None
    hi, lo = a, np.zeros(m, complex)
    for bit in bits:
        h = hi.view(complex)[:, 0]
        hi, t = _exact_product(hi, _turns(hi), np.empty((5, 2, m, 2)))
        lo = t.view(complex)[:, 0] + 2 * h * lo
        if bit == "1":
            hi, t = _exact_product(hi, a_turns, np.empty((5, 2, m, 2)))
            lo = t.view(complex)[:, 0] + lo * ac
    return hi, lo


def _scaled_lanes(cf: np.ndarray, e: np.ndarray, f: np.ndarray, stride: _Stride, owner: np.ndarray) -> np.ndarray:
    """(row, class, root, re/im) table of root j's coefficients c_i 2^(e_j i + f_j), exactly.

    cf holds the ascending coefficients of P polynomials as (re, im) rows,
    (n + 1, P, 2), each zero-padded above its degree; owner[j] names the
    polynomial of root j.  The rows run from the top down, laid out per
    class by _class_lanes, as _Horner's are; one np.ldexp scales them all.
    """
    g, classes = stride
    r = np.array(classes)
    rows = (len(cf) - 1) // g + 1
    k = (r[:, None] + g * np.arange(rows - 1, -1, -1)[:, None, None]) * e + f  # (row, class, root)
    return np.ldexp(_class_lanes(cf, g, r, rows)[:, :, owner], k[..., None])


def _compensated_newton_step(table: np.ndarray, u: np.ndarray, stride: _Stride) -> np.ndarray:
    """Newton corrections q(u)/q'(u) for q_j(u) = 2^f_j p(2^e_j u), one root per entry of u.

    table (_scaled_lanes) holds q_j's coefficients, so q_j is the caller's
    polynomial bit for bit.  q(u) = sum_r u^r Q_r(w), w = u^g, over the
    stride's classes r: each Q_r(w) comes from compensated Horner in w
    (Graillat, Langlois & Louvet 2009; complex error-free transformations as
    in Graillat & Menissier-Morain 2012), about as accurate as Horner in
    twice the working precision, with every class of every root a lane of
    one loop.  Each row of the loop is contiguous ufuncs written into buffers
    allocated once per step: the state s alternates between two of them, and
    every complex product goes to a buffer that is none of its operands (at
    one element numpy's in-place complex multiply rounds otherwise).  The
    zero rows above a shorter polynomial's top coefficient keep its lanes at
    zero until that row, as the leading zero of a derivative lane does.
    w is the double-double w_hi + w_lo (_dd_power); s w_lo joins each step's
    error terms.  The classes are added with double-double u^r and TwoSum.
    q'(u) = g u^(g-1) Q_0'(w) + sum_(r >= 1) u^(r-1) (r Q_r(w) + g w Q_r'(w)),
    the Q_r' by plain Horner run alongside.  At stride 1, w = u is exact, so
    no w_lo term is formed, and q' is Q_0' itself: adding s 0 or multiplying
    by 1 would turn a -0 into +0 or an inf into a NaN.
    """
    m = len(u)
    g, classes = stride
    c = len(classes)
    uf = u.view(float).reshape(m, 2)  # (x, y)
    wf, w_lo = _dd_power(uf, g)
    w = np.tile(wf.view(complex)[:, 0], c)
    w_turns = _turns(np.tile(wf, (c, 1)))
    w_lo = np.tile(w_lo, c)
    buf = np.empty((5, 2, c * m, 2))  # _exact_product's
    states = np.empty((2, c * m, 2))  # s, alternating between the two
    es, tmp = np.empty((2, c * m, 2))
    err, der, prod, slo = np.zeros((4, c * m), complex)
    states[0] = table[0].reshape(c * m, 2)
    for j in range(1, len(table)):
        s, sv = states[(j - 1) % 2], states.view(complex)[(j - 1) % 2, :, 0]
        np.add(np.multiply(der, w, out=prod), sv, out=der)
        p, t = _exact_product(s, w_turns, buf)
        _two_sum(p, table[j].reshape(c * m, 2), states[j % 2], es, tmp)
        t = np.add(t, es, out=t).view(complex)[:, 0]
        np.multiply(err, w, out=prod)
        if g > 1:
            t = np.add(t, np.multiply(sv, w_lo, out=slo), out=slo)
        np.add(prod, t, out=err)
    s = states[(len(table) - 1) % 2].reshape(c, m, 2)
    err = err.reshape(c, m)
    der = der.reshape(c, m)
    val, lo = s[0], err[0]
    dval = der[0] if g == 1 else g * _power(u, g - 1) * der[0]
    for i in range(1, c):
        si = s[i].view(complex)[:, 0]
        ph, pl = _dd_power(uf, classes[i])
        x, t = _exact_product(s[i], _turns(ph), np.empty((5, 2, m, 2)))
        val, es = _two_sum(val, x, *np.empty((3, m, 2)))
        lo = lo + (t + es).view(complex)[:, 0] + ph.view(complex)[:, 0] * err[i] + pl * si
        term = classes[i] * si + g * w[:m] * der[i]
        dval = dval + (term if classes[i] == 1 else _power(u, classes[i] - 1) * term)
    return (val.view(complex)[:, 0] + lo) / dval


def _polish_simple(
    polys: list[np.ndarray], z: np.ndarray, stride: _Stride, owner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on the given coefficients for every simple root at once.

    polys holds the coefficients of each polynomial, owner[j] the one root
    j belongs to.  Each root and its polynomial are scaled by the powers of
    two _exponents picks, exactly: the polynomial solved is the caller's bit
    for bit.  The scaled table (_scaled_lanes) is built once; each step is
    compensated Horner in w = u^g on the table's roots still moving, every
    root of every polynomial in one pass.  Any stride whose classes hold every
    exponent of polys serves: the batch passes the solve's stride, or on
    dense input and on P^(nu-1) the polish stride 3 with all three classes
    (_POLYPHASE), whose row loop runs n // 3 + 1 times instead of n + 1.
    Two steps, then up to _MAX_POLISH_STEPS for roots whose last step is
    still above rounding level.  Returns the polished roots and the size of
    each root's last step relative to |u|.
    """
    n = max(len(c) for c in polys) - 1
    cf = np.zeros((n + 1, len(polys)), complex)
    for i, c in enumerate(polys):
        cf[: len(c), i] = c
    e, f = _exponents(cf.T, owner, np.log2(np.abs(z)))
    with np.errstate(all="ignore"):
        table = _scaled_lanes(cf.view(float).reshape(n + 1, len(polys), 2), e, f, stride, owner)
    u = _scaled(z, -e)
    last = np.zeros(len(z))
    todo = np.arange(len(z))
    for step in range(_MAX_POLISH_STEPS):
        with np.errstate(all="ignore"):
            w = _compensated_newton_step(table, u[todo], stride)
            w[~np.isfinite(w)] = 0.0
            u[todo] -= w
            last[todo] = np.abs(w) / np.abs(u[todo])
        if step >= 1:
            keep = last[todo] > _EPS
            todo, table = todo[keep], table[:, :, keep]
            if not len(todo):
                break
    return _scaled(u, e), last


def find_roots(coeffs, tol: float = DEFAULT_ROOT_TOL, max_multiplicity: int | None = None) -> list[RootCluster]:
    """All complex roots of an ascending coefficient list, with multiplicities.

    The batch of one (_find_roots_batch).  Deterministic: fixed initial
    circles, at most MAX_ITERS Aberth iterations, each root stopping at the
    relative step tol, iterates clustered at DEFAULT_CLUSTER_TOL.  Clusters
    whose multiplicity exceeds max_multiplicity (when given), and iterates
    that do not polish onto a simple root of their own, raise SolverError, as
    does a root beyond double range; a non-finite coefficient raises
    ValueError.  Sum of multiplicities equals the (stripped) degree.
    """
    return _find_roots_batch([coeffs], tol, max_multiplicity)[0]


def _find_roots_batch(
    polys: list, tol: float = DEFAULT_ROOT_TOL, max_multiplicity: int | None = None, forecasts=None
) -> list[list[RootCluster]]:
    """find_roots of each coefficient list, bit for bit, the lists solved together in one pass.

    Polynomials of one stride and one degree mod g share one _Horner stack:
    one Aberth loop in which each keeps its own start, reciprocal sum and stop
    rule, and one compensated polish of their simple roots, at the polish
    stride (_POLYPHASE for dense input, else the stride).  Stripping, grouping
    (_group), the checks and the polish of each root of multiplicity nu > 1 (as
    the simple root of P^(nu-1), at _POLYPHASE) stay per polynomial.  _finish,
    the multiplicity bound, runs last on each polynomial in input order: the
    first whose own solve fails raises its error.  forecasts[i], if given, is
    the sector forecast (_start_points) polys[i] starts from.
    """
    results: list = []  # per polynomial, its clusters or the error its solve raised
    stacks: dict[tuple, list] = {}
    for i, coeffs in enumerate(polys):
        try:
            sc, e, m0 = _strip_and_scale(coeffs)
        except (ValueError, SolverError) as exc:
            results.append(exc)
            continue
        n = len(sc) - 1
        results.append([RootCluster(0j, m0)] if m0 else [])
        if n == 1:
            results[i].append(RootCluster(complex(_scaled(-sc[:1] / sc[1:], e)[0]), 1))
        elif n >= 2:
            original = np.ascontiguousarray(np.asarray(coeffs, complex)[m0 : m0 + n + 1])
            stride = _stride(original)  # sc may hold fewer nonzeros (underflow), never more
            stacks.setdefault((stride, n % stride.g), []).append((i, sc, e, original))

    for (stride, _), stack in stacks.items():
        starts = forecasts and [forecasts[i] for i, *_ in stack]
        horner = _Horner([(sc, np.arange(1, len(sc)) * sc[1:]) for _, sc, _, _ in stack], stride)
        grouped = {}  # p: the centres and multiplicities of stack[p]'s roots
        for p, ((i, _, e, _), u) in enumerate(zip(stack, _aberth(horner, tol, starts))):
            if isinstance(u, SolverError):
                results[i] = u
                continue
            try:
                grouped[p] = _group(u, e, horner, p)
            except SolverError as exc:
                results[i] = exc
        simple = {p: np.flatnonzero((nu == 1) & (centres != 0)) for p, (centres, nu) in grouped.items()}
        if any(len(js) for js in simple.values()):
            z, owner = _owned({p: grouped[p][0][js] for p, js in simple.items()})
            polish_stride = _POLYPHASE if stride == _DENSE else stride
            z, steps = _polish_simple([original for *_, original in stack], z, polish_stride, owner)
            z, last = _pieces(z, simple), _pieces(steps, simple)
        for p, (centres, nu) in grouped.items():
            i, *_, original = stack[p]
            if len(simple[p]):
                centres[simple[p]] = z[p]
                try:
                    _check_simple(z[p], last[p])
                except SolverError as exc:
                    results[i] = exc
                    continue
            multiple = np.flatnonzero(nu > 1)
            if len(multiple):  # a root of multiplicity nu is a simple root of P^(nu - 1)
                derivatives = []
                for j in multiple:
                    d = original
                    for _ in range(nu[j] - 1):
                        d = np.arange(1, len(d)) * d[1:]
                    derivatives.append(d)
                centres[multiple] = _polish_simple(derivatives, centres[multiple], _POLYPHASE, np.arange(len(multiple)))[0]
            results[i] += list(map(RootCluster, centres.tolist(), nu.tolist()))

    for i, result in enumerate(results):
        if isinstance(result, Exception):
            raise result
        results[i] = _finish(result, max_multiplicity)
    return results


def _check_simple(z: np.ndarray, last: np.ndarray) -> None:
    """Raise SolverError when an iterate polished as a simple root is not a root of its own.

    Either its last Newton step is still far above rounding level, or it
    settled within _DUPLICATE_TOL of another simple root, a pair that
    _close_pairs screens.  Reporting it would count one root twice and lose
    another.  The error names the root with the largest last step among
    those, and its nearest simple root.
    """
    i, j = _close_pairs(z, _DUPLICATE_TOL, 0.0)
    twice = np.abs(z[i] - z[j]) <= _DUPLICATE_TOL * np.maximum(np.abs(z[i]), np.abs(z[j]))
    bad = last > _UNSETTLED
    bad[i[twice]] = bad[j[twice]] = True
    bad = np.flatnonzero(bad)
    if not len(bad):
        return
    j = bad[np.argmax(last[bad])]
    message = f"iterate at {z[j]:.17g} is not a simple root of its own: last polish step {last[j]:.2g} of |z|"
    if len(z) > 1:
        gap = np.abs(z - z[j])
        gap[j] = np.inf
        i = gap.argmin()
        message += f"; nearest simple root {z[i]:.17g} is {gap[i] / np.abs(z[j]):.2g} of |z| away"
    raise SolverError(message, residuals=[last[j]])


def _finish(clusters: list[RootCluster], max_multiplicity: int | None) -> list[RootCluster]:
    if max_multiplicity is not None:
        for cl in clusters:
            if cl.multiplicity > max_multiplicity:
                raise SolverError(
                    f"cluster of multiplicity {cl.multiplicity} at {cl.center} exceeds "
                    f"the admissible bound {max_multiplicity}",
                )
    clusters.sort(key=lambda cl: (abs(cl.center), phase(cl.center) if cl.center else 0.0))
    return clusters


def alpha_points(
    spec: StructuredFunction | SeriesFunction,
    alpha: complex,
    radius: float,
    tol: float = DEFAULT_TOL,
    k: int | None = None,
) -> list[AlphaPoint]:
    """Every alpha-point with |z| <= radius, sorted by modulus then argument.

    Structured specs must be rational (A = A0 = 0) and have alpha != 0; series
    specs must carry a trust radius covering the request (alpha = 0 is allowed
    there, meaning plain zeros of the truncation).  For series specs the sector
    index k defaults to 2, the setting of the quadrant theorems, and must be
    an integer in [1, K_BOUND), the range classify_sector takes; for
    structured specs a k other than spec.k raises ValueError.
    tol bounds the residual of a rational spec's points, and the root
    tolerance is min(tol, DEFAULT_ROOT_TOL); a series at alpha = 0 solved at
    the default root tolerance takes the roots truncate_series carried
    instead of solving again.
    """
    alpha = complex(alpha)
    if not radius > 0:  # NaN too
        raise ValueError("radius must be positive")
    if isinstance(spec, SeriesFunction):
        if radius > spec.trust_radius:
            raise ValueError(
                f"radius {radius} exceeds the certified trust radius {spec.trust_radius}"
            )
        k_eff = 2 if k is None else k
        if type(k_eff) is not int or not 1 <= k_eff < K_BOUND:
            raise ValueError(f"k must be an integer in [1, {K_BOUND:.10g}), pi/4 over the angle tolerance, got {k!r}")
        coeffs = np.asarray(spec.coeffs, complex)
        P = coeffs.copy()
        P[0] -= alpha
        carried = spec.roots if P.tobytes() == coeffs.tobytes() else None
    else:
        if alpha == 0:
            raise ValueError("alpha must be nonzero for structured specs")
        if k is not None and k != spec.k:
            raise ValueError("k disagrees with the spec")
        k_eff = spec.k
        P = alpha_polynomial(spec, alpha)
        carried = None
    if len(P) - 1 > DEGREE_CAP:
        raise ValueError(f"degree {len(P) - 1} exceeds the cap {DEGREE_CAP}")
    forecast = None
    if isinstance(spec, StructuredFunction):
        try:  # the paper's sectors; a spec or alpha out of the forecast's range keeps the default start
            forecast = (spec.k, predict_sectors(spec, alpha, len(P) - 1))
        except ValueError:
            pass

    root_tol = min(tol, DEFAULT_ROOT_TOL)
    if carried is not None and root_tol == DEFAULT_ROOT_TOL:
        # find_roots(P) at this tolerance, found when the series was truncated
        clusters = _finish(list(carried), 2)
    elif forecast is None:
        clusters = find_roots(P, tol=root_tol, max_multiplicity=2)
    else:
        try:  # should the solve from the forecast fail, the default start decides
            clusters = _find_roots_batch([P], root_tol, 2, [forecast])[0]
        except SolverError:
            clusters = find_roots(P, tol=root_tol, max_multiplicity=2)
    values = None
    if isinstance(spec, SeriesFunction):
        # P, the series shifted by alpha, at every centre
        with np.errstate(all="ignore"):  # centres beyond the radius may overflow
            values = np.polyval(P[::-1], np.array([cl.center for cl in clusters], complex))
    # in the clusters' order, which _finish sorted by modulus then argument
    return _accept(spec, alpha, clusters, radius, tol, k_eff, values)


def _c_prod(ar, ai, br, bi):
    """CPython's complex product (_Py_c_prod) on the real and imaginary parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _divisor(br, bi):
    """What CPython's complex quotient (_Py_c_quot) reads off the divisor b: (|re b| >= |im b|, ratio, denominator).

    Both ratio branches are formed and joined by np.where, the one not taken
    dividing by whichever part the other picks.
    """
    pick = np.abs(br) >= np.abs(bi)
    ratio = np.where(pick, bi / br, br / bi)
    return pick, ratio, np.where(pick, br + bi * ratio, br * ratio + bi)


def _divide(ar, ai, divisor):
    """a / b by _Py_c_quot's branches, for divisor = _divisor(b)."""
    pick, ratio, denom = divisor
    p, q = ai * ratio, ar * ratio
    return np.where(pick, ar + p, q + ai) / denom, np.where(pick, ai - q, p - ar) / denom


_RAISED = complex(math.nan, math.nan)  # _cpow's value where ** raises


def _cpow(centres: list[complex], n: int) -> tuple[np.ndarray, np.ndarray]:
    """z ** n at each centre by CPython's own complex power, and where ** raises (NaN there)."""
    out = []
    for z in centres:
        try:
            out.append(z**n)
        except (OverflowError, ZeroDivisionError):  # a part beyond double range, or 0 to a negative power
            out.append(_RAISED)
    return np.array(out, complex), np.array([x is _RAISED for x in out], bool)


def _abs(re, im) -> tuple[np.ndarray, np.ndarray]:
    """abs of re + i im as CPython takes it, and where abs raises OverflowError: finite parts, infinite modulus."""
    r = np.hypot(re, im)
    r[np.isnan(r)] = math.nan  # CPython's NaN: hypot keeps an operand's, sign bit and all
    return r, np.isfinite(re) & np.isfinite(im) & np.isinf(r)


_ANGLE_MARGIN = 1e-12  # rad: np.arctan2 is within an ulp or so of math.atan2, far inside this


def _accept(spec, alpha: complex, clusters: list[RootCluster], radius: float, tol: float, k_eff: int, values):
    """alpha_points' points among the clusters' centres, or its SolverError, in one array pass.

    The origin (an error for a series), centres beyond the radius and moduli
    beyond double range are dropped.  A rational spec's point fails in the
    pole band, or when its residual exceeds tol (1 + |alpha|) with every pole
    1e-3 (relative) or more away; the first centre where CPython's arithmetic
    would raise raises before the failures.  Sectors come from np.arctan2,
    which may differ from math.atan2 in the last bit: within _ANGLE_MARGIN of
    the angle test's threshold, classify_sector decides.
    """
    centres = [cl.center for cl in clusters]
    z = np.array(centres, complex)
    with np.errstate(all="ignore"):  # a modulus may overflow; each quotient branch divides by the part the other picks
        mod = np.hypot(z.real, z.imag)
        idx = np.flatnonzero((z != 0) & ~(mod > radius) & np.isfinite(mod))
        zr, zi, mod = z.real[idx], z.imag[idx], mod[idx]
        centres = [centres[i] for i in idx.tolist()]
        if values is None:
            residual, keep, faults = _residuals(spec, alpha, centres, tol)
        else:
            residual, over = _abs(values.real[idx], values.imag[idx])
            keep, faults = np.ones(len(idx), bool), [(over, "the residual")]
    raised = np.logical_or.reduce([mask for mask, _ in faults])
    first = idx[raised][0] if raised.any() else len(z)
    if values is not None and not z[:first].all():
        raise SolverError("alpha-point at the origin is outside the sector model")
    if raised.any():
        j = int(raised.argmax())
        what = next(what for mask, what in faults if mask[j])
        raise SolverError(f"alpha-point candidate {centres[j]!r}: {what} lies beyond double range")
    if not keep.all():
        failed = [clusters[i] for i in idx[~keep]]
        listed = ", ".join(f"{cl.center:.6g} (x{cl.multiplicity})" for cl in failed)
        raise SolverError(f"pole-adjacent or unresolved clusters: {listed}", residuals=[abs(cl.center) for cl in failed])
    step = math.pi / k_eff
    theta = np.arctan2(zi, zr)
    nearest = np.rint(theta / step)
    off = np.abs(theta - nearest * step)
    boundary = off <= DEFAULT_ANGLE_TOL
    sectors = np.where(boundary, nearest, np.floor(theta / step)).astype(np.intp) % (2 * k_eff)
    sectors, boundary = sectors.tolist(), boundary.tolist()
    for j in np.flatnonzero(np.abs(off - DEFAULT_ANGLE_TOL) <= _ANGLE_MARGIN).tolist():
        sector, boundary[j] = classify_sector(centres[j], k_eff)
        sectors[j] = sector.s
    index = {s: _sector(s, k_eff) for s in set(sectors)}
    sectors = [index[s] for s in sectors]
    mults = [clusters[i].multiplicity for i in idx.tolist()]
    return list(map(AlphaPoint, centres, mod.tolist(), sectors, boundary, mults, residual.tolist()))


@lru_cache(maxsize=1024)
def _sector(s: int, k: int) -> SectorIndex:
    """Q_s for s in [0, 2k), one shared instance for every point in it."""
    return SectorIndex(s, k)


def _residuals(spec: StructuredFunction, alpha: complex, centres: list[complex], tol: float):
    """(|G(z) - alpha|, whether the point is kept, faults) at each centre, evaluate_G's bits.

    z^k and z^p are CPython's own z ** n (_cpow); then a zero row multiplies
    by x + v, a pole row divides by x - v (its divisor read off at once).
    Python's x + v adds complex(v, 0.0): a zero row's imaginary part is
    im x + 0.0 (turning -0.0 into +0.0), a pole row's im x - 0.0 is im x.
    faults lists (mask, what) at each step where CPython would raise, in evaluate_G's order.
    """
    k = spec.k
    w, w_raised = _cpow(centres, k)
    val, val_raised = _cpow(centres, spec.p)
    faults = [(w_raised, f"z^{k}"), (val_raised, f"z^{spec.p}")]
    wr, wi, vr, vi = w.real, w.imag, val.real, val.imag
    sides = [(wr, wi)]
    if spec.c or spec.d:
        sides.append(_divide(1.0, 0.0, _divisor(wr, wi)))
        faults.append((w == 0, f"z^-{k}"))
    poles = [(v, recip) for v, is_pole, recip in spec.factors if is_pole]
    band = gate = np.zeros(len(centres), bool)
    if poles:
        v = np.array([v for v, _ in poles])[:, None]
        br = np.array([sides[recip][0] for _, recip in poles]) - v
        bi = np.array([sides[recip][1] for _, recip in poles])
        dist, over = _abs(br, bi)
        # no point is near one pole and overflows at another: near b or 1/d, z^k and z^-k are near-real
        band = (dist <= DEFAULT_POLE_TOL * v).any(axis=0)
        gate = (dist <= 1e-3 * v).any(axis=0)
        faults.append((over.any(axis=0), f"the distance of z^{k} or z^-{k} from a pole"))
        divisors = _divisor(br, bi)
    shifted = [xi + 0.0 for _, xi in sides]
    j = 0
    for v, is_pole, recip in spec.factors:
        if is_pole:
            vr, vi = _divide(vr, vi, [x[j] for x in divisors])
            j += 1
        else:
            vr, vi = _c_prod(vr, vi, sides[recip][0] + v, shifted[recip])
    residual, over = _abs(vr - alpha.real, vi - alpha.imag)
    faults.append((over & ~band, "the residual"))
    return residual, ~band & ~((residual > tol * (1 + abs(alpha))) & ~gate), faults


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
    find_roots calls), or in one solve when the _TAIL_EXTRA extra
    coefficients are all zero and the two are one polynomial.  The grid is
    scanned at once: the tail bound and the root agreement of every radius
    as arrays, then the minimum of |P_N| on the circles of only those radii,
    above the first that a tail within tail_tol accepts outright, that still
    need it, a doubling number of circles per evaluation.

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

    if wide[N + 1 :].any():
        clusters, clusters_w = _find_roots_batch([head, wide])
    else:  # the wider truncation is the same polynomial
        clusters = clusters_w = _find_roots_batch([head])[0]
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
