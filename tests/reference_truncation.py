"""The trust-radius scan as it stood before the grid was scanned in one pass.

A verbatim copy of functions.truncate_series and its per-radius helpers
(_tail_ok, _min_on_circle, _roots_agree) from the form that tested one grid
radius at a time, from the top, with the degree-N and degree-(N+10)
truncations solved by two find_roots calls.  Loaded inside the package (see
helpers.load_frozen) so that its relative imports resolve; test_functions
compares the trust radius and the carried roots of the current scan with
this one, byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import SeriesFunction

_TAIL_EXTRA = 10  # degree headroom required of the source series


def truncate_series(series: SeriesFunction, N: int, tail_tol: float) -> SeriesFunction:
    """Degree-N truncation with a certified trust radius.

    The trust radius is the largest rho on a geometric grid, scanned from the
    top, such that

      * the dropped tail is bounded: sum_{n>N} |c_n| rho^n <= tail_tol *
        max(1, min_{|z|=rho} |P_N(z)|), with the unknown tail beyond the
        source estimated by the observed geometric decay, and
      * roots of the degree-N and degree-(N+10) truncations inside rho agree
        to 10*tail_tol relative.

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

    from .solver import find_roots  # deferred: solver depends on this module

    clusters = tuple(find_roots(head))
    roots_n = [cl.center for cl in clusters]
    roots_w = [cl.center for cl in find_roots(wide)]

    for rho in np.geomspace(1e-3, 1e9, 241)[::-1]:
        if _tail_ok(src, N, rho, tail_tol, head) and _roots_agree(roots_n, roots_w, rho, 10 * tail_tol):
            return SeriesFunction(tuple(head), float(rho), clusters)
    return SeriesFunction(tuple(head), 0.0, clusters)


def _tail_ok(src: np.ndarray, N: int, rho: float, tail_tol: float, head: np.ndarray) -> bool:
    mags = np.abs(src[N + 1 :])
    n_idx = np.arange(N + 1, len(src), dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        logs = np.where(mags > 0, np.log(np.where(mags > 0, mags, 1.0)), -np.inf)
        logs = logs + n_idx * math.log(rho)
    if not len(logs):
        return False
    peak = logs.max()
    if peak > 600.0:  # term overflow; rho is far outside the certifiable range
        return False
    terms = np.exp(logs - peak) if math.isfinite(peak) else np.zeros_like(logs)
    partial = float(terms.sum())
    # geometric extrapolation of the unseen remainder from the last two terms
    if terms[-1] > 0 and len(terms) >= 2 and terms[-2] > 0:
        g = terms[-1] / terms[-2]
        if g >= 0.9:
            return False
        partial += terms[-1] * g / (1 - g)
    elif terms[-1] > 0:
        return False
    tail = partial * math.exp(peak) if math.isfinite(peak) else 0.0
    floor = max(1.0, _min_on_circle(head, rho))
    return tail <= tail_tol * floor


def _min_on_circle(coeffs: np.ndarray, rho: float, samples: int = 256) -> float:
    theta = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    z = rho * np.exp(1j * theta)
    n = len(coeffs) - 1
    logs = np.where(np.abs(coeffs) > 0, np.log(np.where(np.abs(coeffs) > 0, np.abs(coeffs), 1.0)), -np.inf)
    shift = float(np.max(logs + np.arange(n + 1) * math.log(rho)))
    if shift > 600.0 or not math.isfinite(shift):
        return 0.0
    vals = np.polyval(coeffs[::-1], z)
    m = float(np.min(np.abs(vals)))
    return m if math.isfinite(m) else 0.0


def _roots_agree(roots_n, roots_w, rho: float, tol: float) -> bool:
    inside_n = [r for r in roots_n if abs(r) <= rho]
    inside_w = [r for r in roots_w if abs(r) <= rho]
    if len(inside_n) != len(inside_w):
        return False
    for r in inside_n:
        if not inside_w:
            return False
        d = min(abs(r - s) for s in inside_w)
        if d > tol * (1 + abs(r)):
            return False
    return True
