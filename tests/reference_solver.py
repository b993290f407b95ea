"""The start circles, the Aberth loop and the root polish as they stood before they were simplified.

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
solver's own checks and multiple-root polish, and from a verbatim copy of
_group (with its _components) as it stood before distinct simple roots
skipped the union-find.  test_solver holds the current solve to this one's
multiplicities and centres, and the current _group to the copy's groups.
Last, verbatim copies of alpha_points' per-point loop (accept_points), as it
ran before the array acceptance pass, and of the n x n matrix decisions of
_group (group_joins) and _check_simple (check_simple), as they ran before the
sorted-moduli screens: test_solver compares the pass and the screens with
these, byte for byte (where the loop lets an OverflowError or
ZeroDivisionError escape, the pass must raise a SolverError naming the point).
Loaded inside the package (see helpers.load_frozen) so that its relative
imports resolve.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import DEFAULT_POLE_TOL, AlphaPoint, PoleProximity, SeriesFunction, evaluate_G, pole_in_band
from .sectors import classify_sector
from .solver import (
    _ANGLE_OFFSET,
    _BINOMIAL_TURN,
    _DENSE,
    _DUPLICATE_TOL,
    _LOG_MAX,
    _POLYPHASE,
    DEFAULT_CLUSTER_TOL,
    DEFAULT_ROOT_TOL,
    MAX_ITERS,
    RootCluster,
    SolverError,
    _extended_polish,
    _finish,
    _Horner,
    _newton_corrections,
    _owned,
    _pieces,
    _polish_simple,
    _stride,
    _strip_and_scale,
    _UNSETTLED,
    _subsplit,
    find_roots as _find_roots,
)

_POLYPHASE_DEGREE = 12  # dense input below this degree took its compensated polish at stride 1


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
    members, centres, radii = _group(u, lam, horner, 0)
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
    clusters = [RootCluster(0j, (0j,) * m0, m0, 0.0)] if m0 else []
    clusters += [RootCluster(complex(c), ms, len(ms), r) for ms, c, r in zip(members, centres, radii)]
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
                residual = abs(evaluate_G(spec, z, pole_tol=DEFAULT_POLE_TOL) - alpha)
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
