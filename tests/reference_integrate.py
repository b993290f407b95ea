"""The census quadrature as it stood before its panels were read off node tables.

A verbatim copy of winding._integrand and winding._integrate from the form
that placed every node with its own complex exponential, kept each step's
pending panels by concatenation and evaluated G and G'/G in two passes.
Those two passes are copied here too, as the written-out loops of
functions.eval_many and functions.log_derivative_many that they were
(ref_eval_many, ref_log_derivative_many), so that no live evaluator reaches
the frozen engine.  Loaded inside the package (see helpers.load_frozen) so
that its relative imports resolve; test_winding runs the census with this
engine and with the current one and compares each slice's winding value and
every count or InconclusiveRegion, and test_functions checks the evaluators
against the two reference passes.
"""

from __future__ import annotations

import numpy as np

from .functions import SeriesFunction, StructuredFunction
from .winding import InconclusiveRegion, _Piece

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
