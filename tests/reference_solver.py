"""The start circles, the Aberth loop and the root polish as they stood before they were simplified.

A verbatim copy of solver._start_points, which built each Newton-polygon
circle with its own np.arange/np.exp, and of solver._aberth, which stacked
the moving roots and their owner index and allocated the pairwise difference
and reciprocal matrices afresh on every iteration; test_solver compares the
current start points and iterates with these, byte for byte.  Also a
verbatim copy of _newton_polish, the three plain Newton steps on the scaled
polynomial that every solve once ran on Aberth's iterates before clustering
them, and find_roots as it ran then: with that pass, and with the
compensated polish of dense input below degree _POLYPHASE_DEGREE at stride
1.  test_solver holds the current solve to this one's multiplicities and
centres.  Loaded inside the package (see helpers.load_frozen) so that its
relative imports resolve.
"""

from __future__ import annotations

import math

import numpy as np

from .solver import (
    _ANGLE_OFFSET,
    _DENSE,
    _LOG_MAX,
    _POLYPHASE,
    DEFAULT_ROOT_TOL,
    MAX_ITERS,
    SolverError,
    _Horner,
    _newton_corrections,
    _owned,
    _pieces,
    _polish_simple,
    _Solve,
)

_POLYPHASE_DEGREE = 12  # dense input below this degree took its compensated polish at stride 1


def _start_points(sc: np.ndarray) -> np.ndarray:
    """Initial guesses on circles read off the Newton polygon of sc.

    Each edge (i1, i2) of the upper convex hull of (i, log|sc_i|), taken over
    the nonzero coefficients, puts i2 - i1 points on the circle of radius
    (|sc_i1| / |sc_i2|)^(1/(i2 - i1)), where about that many root moduli lie
    (Bini 1996; Bini & Robol 2014).  Angles are equispaced with the golden
    angle as offset, each circle turned by a further 2 pi i1 / n.
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
        circles.append(math.exp((la - lb) / m) * np.exp(1j * angles))
    return np.concatenate(circles)


def _aberth(horner: _Horner, tol: float) -> list:
    """Aberth-Ehrlich iteration on each scaled polynomial of horner's stack, all in one loop.

    horner evaluates the stack, one call per iteration for every root still
    moving.  Each polynomial keeps its own start, its own pairwise reciprocal
    sum and its own stop and stall rule, and leaves the loop at the iteration
    where it would stop if solved alone, so its iterates are bit for bit
    those of a solo run.  Returns, per polynomial, its iterates or the
    SolverError it raised.
    """
    out: list = [None] * len(horner.polys)
    u: dict[int, np.ndarray] = {}
    for i, (sc, _) in enumerate(horner.polys):
        try:
            u[i] = _start_points(sc)
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


def find_roots(coeffs, tol: float = DEFAULT_ROOT_TOL, max_multiplicity: int | None = None) -> list:
    """solver.find_roots with _newton_polish between Aberth and the clustering, and the degree cutoff."""
    job = _Solve(coeffs, max_multiplicity)
    if job.n < 2:
        return job.clusters
    horner = _Horner([(job.sc, job.dsc)], job.stride)
    (u,) = _aberth(horner, tol)
    if isinstance(u, SolverError):
        raise u
    u = _newton_polish(horner, u, np.zeros(len(u), np.intp))
    z = job.cluster(u, horner, 0)
    last = np.zeros(0)
    if len(z):
        dense = job.stride == _DENSE and job.n >= _POLYPHASE_DEGREE
        z, last = _polish_simple([job.original], z, _POLYPHASE if dense else job.stride, np.zeros(len(z), np.intp))
    job.finish(z, last)
    return job.clusters
