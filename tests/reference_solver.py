"""The scaling, the start circles, the Aberth loop and the root polish as they stood before they were simplified.

A verbatim copy of solver._strip_and_scale as it scaled z = lam u in log
space, before the exact power-of-two scaling: this module's find_roots
scales with it, so the frozen pipeline keeps its own rounding.
A copy of solver._start_points, which built each Newton-polygon circle with
its own np.arange/np.exp (the one-root edge's binomial phase was added to
that loop when the array form took it), and of solver._aberth, which
stacked the moving roots and their owner index and allocated the pairwise
difference and reciprocal matrices afresh on every iteration; test_solver
compares the current start points and iterates with these, byte for byte.
Also a verbatim copy of _newton_polish, the three plain Newton steps on the
scaled polynomial that every solve once ran on Aberth's iterates before
clustering them, and find_roots as it ran then: with that pass, with the
compensated polish of dense input below degree _POLYPHASE_DEGREE at stride
1, and from the golden-angle start on every edge, put together from the
solver's own checks, from a verbatim copy of _extended_polish (the 50-digit
mpmath modified Newton that multiple roots took before the compensated
polish of P^(nu-1), and the 50-digit reference polish of test_solver), and
from a verbatim copy of _group (with its _components) as it stood before
distinct simple roots skipped the union-find.  test_solver holds the current solve to this one's
multiplicities and centres, and the current _group to the copy's groups.
Last, verbatim copies of alpha_points' per-point loop (accept_points), as it
ran before the array acceptance pass, and of the n x n matrix decisions of
_group (group_joins) and _check_simple (check_simple), as they ran before the
sorted-moduli screens: test_solver compares the pass and the screens with
these, byte for byte (where the loop lets an OverflowError or
ZeroDivisionError escape, the pass must raise a SolverError naming the point).
And verbatim copies of the compensated polish (_polish_simple,
_compensated_newton_step, _exact_product, _turns, _dd_power and the
error-free _split, _two_prod and _two_sum they call) as they ran before each
polish scaled its coefficient table once and the row loop wrote into
buffers allocated once per step: this module's find_roots polishes with
them, and test_solver holds the current polish to them byte for byte.
Loaded inside the package (see helpers.load_frozen) so that its relative
imports resolve.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import DEFAULT_POLE_TOL, AlphaPoint, PoleProximity, SeriesFunction, _power, evaluate_G, pole_in_band
from .sectors import classify_sector
from .solver import (
    _ANGLE_OFFSET,
    _BINOMIAL_TURN,
    _DENSE,
    _DUPLICATE_TOL,
    _EPS,
    _LOG_MAX,
    _MAX_POLISH_STEPS,
    _POLYPHASE,
    _SPLIT,
    DEFAULT_CLUSTER_TOL,
    DEFAULT_ROOT_TOL,
    MAX_ITERS,
    RootCluster,
    SolverError,
    _class_lanes,
    _exponents,
    _finish,
    _Horner,
    _newton_corrections,
    _owned,
    _pieces,
    _scaled,
    _Stride,
    _stride,
    _UNSETTLED,
    _subsplit,
    find_roots as _find_roots,
)

_POLYPHASE_DEGREE = 12  # dense input below this degree took its compensated polish at stride 1
_POLISH_DPS = 50


def _strip_and_scale(coeffs) -> tuple[np.ndarray, float, int]:
    """Strip zero leading/trailing coefficients; rescale z = lam*u in log space.

    Returns (scaled ascending coefficients with unit max modulus, lam,
    origin_multiplicity).  The scaled polynomial has |c_0/c_n| = 1: its root
    moduli have geometric mean 1, and when its Newton polygon is one edge
    every initial guess lies on the unit circle (up to rounding).
    """
    c = np.asarray(coeffs, complex)
    if not np.isfinite(c).all():
        i = np.flatnonzero(~np.isfinite(c))[0]
        raise ValueError(f"polynomial coefficient {i} is {c[i]}, not a finite number")
    n = len(c) - 1
    while n > 0 and c[n] == 0:
        n -= 1
    c = c[: n + 1]
    if n == 0:
        raise ValueError("polynomial degree must be >= 1 after trailing-zero strip")
    m0 = 0
    while c[m0] == 0:
        m0 += 1
    c = c[m0:]
    n = len(c) - 1
    if n == 0:
        return np.array([1.0 + 0j]), 1.0, m0
    mags = np.abs(c)
    nz = mags > 0
    logs = np.full(n + 1, -np.inf)
    logs[nz] = np.log(mags[nz])
    loglam = (logs[0] - logs[n]) / n
    if loglam > _LOG_MAX:  # the roots' geometric-mean modulus
        raise SolverError(f"root moduli near e^{loglam:.0f} lie beyond double range")
    slog = logs + loglam * np.arange(n + 1)
    slog -= slog[np.isfinite(slog)].max()
    sc = np.zeros(n + 1, complex)
    sc[nz] = np.exp(1j * np.angle(c[nz])) * np.exp(slog[nz])
    if sc[0] == 0 or sc[n] == 0:  # the scaled problem would lose roots
        raise SolverError(
            f"scaled coefficient moduli span e^{-min(slog[0], slog[n]):.0f}, beyond double range: "
            "an end coefficient underflows to 0"
        )
    return sc, math.exp(loglam), m0


def _start_points(sc: np.ndarray, binomial: bool = True) -> np.ndarray:
    """Initial guesses on circles read off the Newton polygon of sc.

    Each edge (i1, i2) of the upper convex hull of (i, log|sc_i|), taken over
    the nonzero coefficients, puts i2 - i1 points on the circle of radius
    (|sc_i1| / |sc_i2|)^(1/(i2 - i1)), where about that many root moduli lie
    (Bini 1996; Bini & Robol 2014).  Angles are equispaced with the golden
    angle as offset, each circle turned by a further 2 pi i1 / n.  A one-root
    edge (i2 = i1 + 1) puts its point at the phase of its binomial root
    -sc_i1 / sc_i2, turned by _BINOMIAL_TURN; with binomial False it keeps the
    golden-angle phase, as every edge once did.
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
    circles = []
    for (ia, la), (ib, lb) in zip(hull, hull[1:]):
        m = ib - ia
        if (la - lb) / m > _LOG_MAX:
            raise SolverError(f"scaled root moduli near e^{(la - lb) / m:.0f} lie beyond double range")
        angles = 2 * np.pi * np.arange(m) / m + _ANGLE_OFFSET + 2 * np.pi * ia / n
        if m == 1 and binomial:  # a one-root edge starts beside its binomial root
            angles = np.angle(-sc[ia : ia + 1] / sc[ib : ib + 1]) + _BINOMIAL_TURN
        circles.append(math.exp((la - lb) / m) * np.exp(1j * angles))
    return np.concatenate(circles)


def _aberth(horner: _Horner, tol: float, binomial: bool = True) -> list:
    """Aberth-Ehrlich iteration on each scaled polynomial of horner's stack, all in one loop.

    horner evaluates the stack, one call per iteration for every root still
    moving.  Each polynomial keeps its own start, its own pairwise reciprocal
    sum and its own stop and stall rule, and leaves the loop at the iteration
    where it would stop if solved alone, so its iterates are bit for bit
    those of a solo run.  Returns, per polynomial, its iterates or the
    SolverError it raised.  binomial is passed on to _start_points.
    """
    out: list = [None] * len(horner.polys)
    u: dict[int, np.ndarray] = {}
    for i, (sc, _) in enumerate(horner.polys):
        try:
            u[i] = _start_points(sc, binomial)
        except SolverError as exc:
            out[i] = exc
    last = dict.fromkeys(u, np.inf)
    stall = dict.fromkeys(u, 0)
    with np.errstate(all="ignore"):
        for _ in range(MAX_ITERS):
            if not u:
                break
            nv = _newton_corrections(horner, *_owned(u))
            for i, nvi in _pieces(nv, u).items():
                ui = u[i]
                diff = ui[:, None] - ui[None, :]
                np.fill_diagonal(diff, np.inf)
                s = (1.0 / diff).sum(axis=1)
                w = nvi / (1.0 - nvi * s)
                bad = ~np.isfinite(w)
                if bad.any():
                    w[bad] = nvi[bad]
                    w[~np.isfinite(w)] = 0.0
                ui = u[i] = ui - w
                step = float(np.max(np.abs(w) / (1.0 + np.abs(ui))))
                # stagnation on a multiple-root limit cycle also counts as converged
                if step >= 0.5 * last[i]:
                    stall[i] += 1
                else:
                    stall[i] = 0
                if step <= tol or (stall[i] >= 10 and step <= 1e-5):
                    out[i] = u.pop(i)
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


def _newton_polish(horner: _Horner, u: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Three Newton steps on the scaled polynomial of each root."""
    with np.errstate(all="ignore"):
        for _ in range(3):
            w = _newton_corrections(horner, u, owner)
            w[~np.isfinite(w)] = 0.0
            u = u - w
    return u


def _components(near: np.ndarray) -> list[list[int]]:
    """Connected components of the graph whose adjacency is the upper triangle of `near`.

    Members ascend within a group; groups are listed by their smallest member.
    """
    n = len(near)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(near, 1))):
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _group(u: np.ndarray, lam: float, horner: _Horner, which: int):
    """Aberth's iterates u of polynomial which of horner, grouped one root a group.

    Iterates closer than sqrt(DEFAULT_CLUSTER_TOL) (1 + |z|) are joined, and
    _subsplit parts each cluster into those that cannot be told apart.  Returns
    each group's members z = lam u, centre (their mean) and radius (the farthest
    member's distance from it); a centre beyond double range raises SolverError.
    """
    roots = u * lam
    scale = 1.0 + np.abs(roots[:, None] + roots[None, :]) / 2
    groups = []
    for idx in _components(np.abs(roots[:, None] - roots[None, :]) < math.sqrt(DEFAULT_CLUSTER_TOL) * scale):
        # keep close but genuinely distinguishable simple roots separate
        subs = _subsplit(horner, u[idx], which) if len(idx) > 1 else [[0]]
        groups += [[idx[i] for i in sub] for sub in subs]
    zs = roots.tolist()
    members = [tuple(zs[j] for j in g) for g in groups]
    centres = np.array([ms[0] if len(ms) == 1 else np.mean(roots[g]) for ms, g in zip(members, groups)])
    if not np.isfinite(centres).all():
        raise SolverError("a root lies beyond double range")
    radii = [max(abs(m - c) for m in ms) if len(ms) > 1 else 0.0 for ms, c in zip(members, centres.tolist())]
    return members, centres, radii


def _extended_polish(coeffs: np.ndarray, centers: list[complex], nus: list[int]) -> list[complex]:
    """A few modified-Newton steps in 50-digit mpmath for each multiple root.

    Near a multiple root the compensated residual no longer pins the centre
    down; these are rare (the paper's double points), so the slow path is
    kept for them alone, and mpmath is imported only here.
    """
    import mpmath as mp

    out = []
    with mp.workdps(_POLISH_DPS):
        cs = [mp.mpc(c) for c in coeffs]
        ds = [i * cs[i] for i in range(1, len(cs))]

        def ev(poly, x):
            acc = mp.mpc(0)
            for cf in reversed(poly):
                acc = acc * x + cf
            return acc

        for center, nu in zip(centers, nus):
            x = mp.mpc(center)
            for _ in range(4):
                pv = ev(cs, x)
                dv = ev(ds, x)
                if dv == 0:
                    break
                step = nu * pv / dv
                x = x - step
                if abs(step) <= mp.mpf(10) ** (-_POLISH_DPS + 6) * (1 + abs(x)):
                    break
            out.append(complex(x))
    return out


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, a_hi, a_lo, b, b_hi, b_lo):
    """(x, y) with x = fl(a*b) and x + y = a*b exactly (Dekker)."""
    x = a * b
    return x, a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _two_sum(a, b):
    """(s, t) with s = fl(a+b) and s + t = a+b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _turns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block (a, i a) of complex rows a = (x, y), that is (x, y) and (-y, x), with its Dekker halves."""
    a4 = np.stack([a, np.stack([-a[:, 1], a[:, 0]], axis=1)])
    return (a4, *_split(a4))


def _exact_product(s: np.ndarray, turns) -> tuple[np.ndarray, np.ndarray]:
    """(p, t) with p = fl(s a) and p + t = s a up to the rounding of t, for turns = _turns(a).

    Complex numbers are (m, 2) float rows so each real operation covers both
    parts.  s a = re(s) (x, y) + im(s) (-y, x): the four real products run as
    one (2, m, 2) block, (re s, re s) and (im s, im s) times the two halves
    of turns, each product and their sum error-free; t sums the errors.
    """
    s4 = np.repeat(s.T, 2, axis=1).reshape(2, len(s), 2)
    s4_hi, s4_lo = _split(s4)
    ab, eab = _two_prod(s4, s4_hi, s4_lo, *turns)
    p, ep = _two_sum(ab[0], ab[1])
    return p, eab[0] + eab[1] + ep


def _dd_power(a: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """a^e (e >= 1) as hi + lo: hi as (m, 2) float rows, lo complex.

    Binary powering in which every product is error-free and lo carries the
    errors to first order (Graillat, "Accurate floating-point product and
    exponentiation", IEEE Trans. Comput. 58, 2009): hi + lo is a^e to about
    eps^2 log2 e, where the rounded powers are off by about eps log2 e.
    """
    ac = a.view(complex)[:, 0]
    a_turns = _turns(a)
    hi, lo = a, np.zeros(len(a), complex)
    for bit in bin(e)[3:]:
        h = hi.view(complex)[:, 0]
        hi, t = _exact_product(hi, _turns(hi))
        lo = t.view(complex)[:, 0] + 2 * h * lo
        if bit == "1":
            hi, t = _exact_product(hi, a_turns)
            lo = t.view(complex)[:, 0] + lo * ac
    return hi, lo


def _compensated_newton_step(
    cf: np.ndarray, e: np.ndarray, f: np.ndarray, u: np.ndarray, stride: _Stride, owner: np.ndarray
) -> np.ndarray:
    """Newton corrections q(u)/q'(u) for q_j(u) = 2^f_j p(2^e_j u), one root per entry of u.

    cf holds the ascending coefficients of P polynomials as (re, im) rows,
    (n + 1, P, 2), each zero-padded above its degree; owner[j] names the
    polynomial of root j.  The scaled coefficient c_i 2^(e_j i + f_j) is
    formed column by column, exactly, so q_j is the caller's polynomial.
    q(u) = sum_r u^r Q_r(w), w = u^g, over the stride's classes r: each
    Q_r(w) comes from compensated Horner in w (Graillat, Langlois & Louvet
    2009; complex error-free transformations as in Graillat &
    Menissier-Morain 2012), about as accurate as Horner in twice the working
    precision, with every class of every root a lane of one loop (its
    coefficients laid out by _class_lanes, as _Horner's).  The zero rows above a shorter
    polynomial's top coefficient keep its lanes at zero until that row, as
    the leading zero of a derivative lane does.
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
    r = np.array(classes)
    rows = (len(cf) - 1) // g + 1
    coef = _class_lanes(cf, g, r, rows)[:, :, owner]  # (row, class, root, re/im)
    uf = u.view(float).reshape(m, 2)  # (x, y)
    wf, w_lo = _dd_power(uf, g)
    w = np.tile(wf.view(complex)[:, 0], c)
    w_turns = _turns(np.tile(wf, (c, 1)))
    w_lo = np.tile(w_lo, c)
    k = (r + g * (rows - 1))[:, None] * e + f  # the exponent of each class's top row, per root
    s = np.ldexp(coef[0], k[:, :, None]).reshape(c * m, 2)
    err = np.zeros(c * m, complex)
    der = np.zeros(c * m, complex)
    for j in range(1, rows):
        sv = s.view(complex)[:, 0]
        der = der * w + sv
        k -= g * e
        p, t = _exact_product(s, w_turns)
        s, es = _two_sum(p, np.ldexp(coef[j], k[:, :, None]).reshape(c * m, 2))
        t = (t + es).view(complex)[:, 0]
        err = err * w + (t + sv * w_lo if g > 1 else t)
    s = s.reshape(c, m, 2)
    err = err.reshape(c, m)
    der = der.reshape(c, m)
    val, lo = s[0], err[0]
    dval = der[0] if g == 1 else g * _power(u, g - 1) * der[0]
    for i in range(1, c):
        si = s[i].view(complex)[:, 0]
        ph, pl = _dd_power(uf, classes[i])
        x, t = _exact_product(s[i], _turns(ph))
        val, es = _two_sum(val, x)
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
    for bit.  Each step is compensated Horner in w = u^g, every root of
    every polynomial in one pass.  Any stride whose classes hold every
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
    cf = cf.view(float).reshape(n + 1, len(polys), 2)
    u = _scaled(z, -e)
    last = np.zeros(len(z))
    todo = np.arange(len(z))
    for step in range(_MAX_POLISH_STEPS):
        with np.errstate(all="ignore"):
            w = _compensated_newton_step(cf, e[todo], f[todo], u[todo], stride, owner[todo])
            w[~np.isfinite(w)] = 0.0
            u[todo] -= w
            last[todo] = np.abs(w) / np.abs(u[todo])
        if step >= 1:
            keep = last[todo] > _EPS
            todo = todo[keep]
            if not len(todo):
                break
    return _scaled(u, e), last


def find_roots(coeffs, tol: float = DEFAULT_ROOT_TOL, max_multiplicity: int | None = None) -> list:
    """solver.find_roots with _newton_polish between Aberth and the clustering, and the degree cutoff.

    Aberth starts from the golden-angle circles of that time, on one-root
    edges too, so this solve is bit for bit the one it copies.  Below degree
    2 nothing is iterated, and the current solve answers.
    """
    sc, lam, m0 = _strip_and_scale(coeffs)
    n = len(sc) - 1
    if n < 2:
        return _find_roots(coeffs, tol, max_multiplicity)
    original = np.asarray(coeffs, complex)[m0 : m0 + n + 1]
    stride = _stride(original)
    horner = _Horner([(sc, np.arange(1, n + 1) * sc[1:])], stride)
    (u,) = _aberth(horner, tol, binomial=False)
    if isinstance(u, SolverError):
        raise u
    u = _newton_polish(horner, u, np.zeros(len(u), np.intp))
    members, centres, _ = _group(u, lam, horner, 0)
    sizes = np.array([len(ms) for ms in members])
    simple = np.flatnonzero((sizes == 1) & (centres != 0))
    if len(simple):
        dense = stride == _DENSE and n >= _POLYPHASE_DEGREE
        polish_stride = _POLYPHASE if dense else stride
        centres[simple], last = _polish_simple([original], centres[simple], polish_stride, np.zeros(len(simple), np.intp))
        check_simple(centres[simple], last)
    multiple = np.flatnonzero(sizes > 1)
    if len(multiple):
        centres[multiple] = _extended_polish(original, centres[multiple].tolist(), sizes[multiple].tolist())
    clusters = [RootCluster(0j, m0)] if m0 else []
    clusters += [RootCluster(complex(c), len(ms)) for ms, c in zip(members, centres)]
    return _finish(clusters, max_multiplicity)


def accept_points(spec, alpha: complex, clusters: list, radius: float, tol: float, k_eff: int, values) -> list:
    """alpha_points' per-point loop: values holds the shifted series at every centre, None for a rational spec."""
    pts: list[AlphaPoint] = []
    failures = []
    for i, cl in enumerate(clusters):
        z = cl.center
        if z == 0:
            if isinstance(spec, SeriesFunction):
                raise SolverError("alpha-point at the origin is outside the sector model")
            continue  # spurious origin root introduced by clearing z^-k factors
        if abs(z) > radius:
            continue
        if isinstance(spec, SeriesFunction):
            residual = abs(complex(values[i]))
        else:
            try:
                residual = abs(evaluate_G(spec, z) - alpha)
            except PoleProximity:
                failures.append(cl)
                continue
            # a large residual 1e-3 (relative) or more from every pole is a failed root
            if residual > tol * (1 + abs(alpha)) and pole_in_band(spec, z**spec.k, 1e-3) is None:
                failures.append(cl)
                continue
        sector, boundary = classify_sector(z, k_eff)
        pts.append(AlphaPoint(z, abs(z), sector, boundary, cl.multiplicity, residual))
    if failures:
        raise SolverError(
            "pole-adjacent or unresolved clusters: "
            + ", ".join(f"{cl.center:.6g} (x{cl.multiplicity})" for cl in failures),
            residuals=[abs(cl.center) for cl in failures],
        )
    return pts


def group_joins(u: np.ndarray, lam: float) -> bool:
    """Whether _group's distance matrix joins any two of the iterates u (scaled by lam)."""
    roots = u * lam
    scale = 1.0 + np.abs(roots[:, None] + roots[None, :]) / 2
    near = np.abs(roots[:, None] - roots[None, :]) < math.sqrt(DEFAULT_CLUSTER_TOL) * scale
    np.fill_diagonal(near, False)
    return bool(near.any())


def check_simple(z: np.ndarray, last: np.ndarray) -> None:
    """Raise SolverError when an iterate polished as a simple root is not a root of its own.

    Either its last Newton step is still far above rounding level, or it
    settled within _DUPLICATE_TOL of another simple root.  Reporting it would
    count one root twice and lose another.
    """
    az = np.abs(z)
    gap = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gap, np.inf)
    near = gap.argmin(axis=1)
    nearest = gap[np.arange(len(z)), near]
    bad = np.flatnonzero((last > _UNSETTLED) | (nearest <= _DUPLICATE_TOL * np.maximum(az, az[near])))
    if not len(bad):
        return
    j = bad[np.argmax(last[bad])]
    message = f"iterate at {z[j]:.17g} is not a simple root of its own: last polish step {last[j]:.2g} of |z|"
    if len(z) > 1:
        i = near[j]
        message += f"; nearest simple root {z[i]:.17g} is {nearest[j] / az[j]:.2g} of |z| away"
    raise SolverError(message, residuals=[last[j]])
