"""The start circles and the Aberth loop as they stood before their bookkeeping moved to arrays.

A verbatim copy of solver._start_points, which built each Newton-polygon
circle with its own np.arange/np.exp, and of solver._aberth, which stacked
the moving roots and their owner index and allocated the pairwise difference
and reciprocal matrices afresh on every iteration.  Loaded inside the
package (see helpers.load_frozen) so that its relative imports resolve;
test_solver compares the current start points and iterates with these, byte
for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .solver import _ANGLE_OFFSET, _LOG_MAX, MAX_ITERS, SolverError, _Horner, _newton_corrections, _owned, _pieces


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
