import math

import numpy as np
import pytest

from alphasectors import (
    AnnularSector,
    InconclusiveRegion,
    SeriesFunction,
    StructuredFunction,
    alpha_points,
    count_in_contour,
    points_census,
    sector_census,
    winding,
)
from alphasectors.functions import eval_many, log_derivative_many
from alphasectors.winding import (
    _GL_NODES,
    _GL_WEIGHTS,
    ROUND_GUARD,
    _integrand,
    _poles_inside,
    _singular_radii_on_ray,
)
from helpers import annulus_off_moduli, pole_radii, random_alpha_generic, random_structured

FIG1 = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))


def test_count_simple_polynomial():
    # z^2 + 1 as a trusted exact series; both roots +-i inside the annulus
    series = SeriesFunction((1.0, 0.0, 1.0), trust_radius=100.0)
    region = AnnularSector(0.5, 2.0, 0, 3, 2)
    assert count_in_contour(series, 0.0, region) == 2
    assert count_in_contour(series, 0.0, AnnularSector(1.5, 2.0, 0, 3, 2)) == 0


def test_count_fig1_full_annulus():
    region = AnnularSector(0.01, 10.0, 0, 5, 3)
    assert count_in_contour(FIG1, -1 - 1j, region) == 9


def test_count_region_with_interior_pole():
    # poles at z^3 = 1 and z^3 = 5 have moduli 1 and 5^(1/3); a span enclosing
    # an interior even ray must add the analytic pole correction
    region = AnnularSector(0.9, 1.3, 5, 2, 3)  # spans Q5,Q0,Q1,Q2; ray 0 and 2 interior
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    inside = sum(
        1
        for pt in pts
        if 0.9 < pt.modulus < 1.3 and pt.sector.s in (5, 0, 1, 2) and not pt.boundary
    )
    assert count_in_contour(FIG1, -1 - 1j, region) == inside


def test_census_matches_solver_on_fig1():
    counts = sector_census(FIG1, -1 - 1j, 0.01, 10.0)
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    assert counts == points_census(pts, 3, 0.01, 10.0)
    assert sum(counts) == 9


def test_split_regions_sum_to_whole():
    alpha = -1 - 1j
    whole = count_in_contour(FIG1, alpha, AnnularSector(0.3, 2.2, 0, 5, 3))
    inner = count_in_contour(FIG1, alpha, AnnularSector(0.3, 1.05, 0, 5, 3))
    outer = count_in_contour(FIG1, alpha, AnnularSector(1.05, 2.2, 0, 5, 3))
    assert whole == inner + outer
    left = count_in_contour(FIG1, alpha, AnnularSector(0.3, 2.2, 0, 2, 3))
    right = count_in_contour(FIG1, alpha, AnnularSector(0.3, 2.2, 3, 5, 3))
    assert whole == left + right


def test_count_invariant_under_radius_perturbation():
    alpha = -1 - 1j
    base = count_in_contour(FIG1, alpha, AnnularSector(0.3, 1.6, 0, 5, 3))
    for eps in (0.97, 1.02):
        region = AnnularSector(0.3 * eps, 1.6 / eps, 0, 5, 3)
        assert count_in_contour(FIG1, alpha, region) == base


def test_inconclusive_on_boundary_point():
    # an alpha-point modulus exactly on the outer circle defeats the quadrature
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    bad = pts[3].modulus
    with pytest.raises(InconclusiveRegion):
        count_in_contour(FIG1, -1 - 1j, AnnularSector(0.01, bad, 0, 5, 3))


def test_series_census_rejects_untrusted_radius():
    series = SeriesFunction((1.0, 0.0, 1.0), trust_radius=1.5)
    with pytest.raises(ValueError):
        count_in_contour(series, 0.0, AnnularSector(0.5, 2.0, 0, 3, 2))


def test_census_random_instances_match_solver():
    rng = np.random.default_rng(101)
    done = 0
    while done < 6:
        spec = random_structured(rng, with_cd=(done % 3 == 0))
        alpha = random_alpha_generic(rng, spec)
        pts = alpha_points(spec, alpha, 60.0)
        if not pts:
            continue
        r_in, r_out = annulus_off_moduli(pts, pole_radii(spec))
        counts = sector_census(spec, alpha, r_in, r_out)
        assert counts == points_census(pts, spec.k, r_in, r_out)
        done += 1


def test_annular_sector_validation():
    with pytest.raises(ValueError):
        AnnularSector(2.0, 1.0, 0, 0, 3)
    region = AnnularSector(1.0, 2.0, 4, 1, 3)
    assert region.span == 4
    assert AnnularSector(1.0, 2.0, 0, 5, 3).full


def test_empty_alpha_set_census_is_zero():
    spec = StructuredFunction(p=1, k=2, a=(1.0,), b=(5.0,))
    counts = sector_census(spec, 10.0 + 0j, 0.05, 0.5)
    assert counts == [0, 0, 0, 0]


def test_rotated_partial_theta_quadrant_evenness():
    # zeros of the quarter-turn-rotated partial theta at q = 0.5, N = 40 fall
    # evenly across the quadrants: census counts differ by at most one
    from alphasectors import rotate_half_i, truncate_series

    f = [0.5 ** (n * (n - 1) // 2) for n in range(51)]
    rotated = rotate_half_i(f, +1)
    series = truncate_series(SeriesFunction(tuple(rotated)), 40, 1e-9)
    r_out = min(series.trust_radius, 600.0)
    counts = sector_census(series, 0.0, 0.01, r_out, k=2)
    assert sum(counts) >= 8
    assert max(counts) - min(counts) <= 1
    pts = alpha_points(series, 0.0, r_out, k=2)
    assert counts == points_census(pts, 2, 0.01, r_out)


def test_fig1_census_evenness():
    # interlacing spreads the nine points evenly: per-sector counts differ by <= 1
    counts = sector_census(FIG1, -1 - 1j, 0.01, 10.0)
    assert sum(counts) == 9
    assert max(counts) - min(counts) <= 1


def test_census_auto_nudge_off_point_modulus():
    # an outer radius exactly on an alpha-point modulus is rescued by the
    # global radius nudge instead of propagating the inconclusive slice
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    counts = sector_census(FIG1, -1 - 1j, 0.01, pts[4].modulus)
    assert sum(counts) in (4, 5)


def test_census_names_the_non_finite_edge_at_once():
    # an infinite outer radius, and z^40 overflowing at |z| = 1e9, make the
    # first panel of the outer arc non-finite; the census stops there rather
    # than refine every such panel to depth 24
    with pytest.raises(InconclusiveRegion) as exc:
        sector_census(FIG1, -1 - 1j, 0.5, math.inf)
    assert (exc.value.slice_index, exc.value.edge) == (0, "arc r=inf")
    spec = StructuredFunction(p=1, k=40, a=(1.2,), b=(0.8,))
    with pytest.raises(InconclusiveRegion) as exc:
        sector_census(spec, 1 + 1j, 0.5, 1e9)
    assert exc.value.slice_index == 0 and exc.value.edge.startswith("arc r=1.000")


def test_guard_failure_names_the_edge():
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    bad = pts[3].modulus
    with pytest.raises(InconclusiveRegion) as exc:
        count_in_contour(FIG1, -1 - 1j, AnnularSector(0.01, bad, 0, 5, 3))
    assert exc.value.slice_index is None
    assert exc.value.edge == f"arc r={bad:.6g}"
    assert exc.value.edge in str(exc.value)


def test_uncertifiable_detour_names_the_edge():
    # |alpha| = 1e30 is beyond any probe circle around the pole at z = 1
    with pytest.raises(InconclusiveRegion) as exc:
        sector_census(FIG1, 1e30, 0.5, 2.0)
    assert (exc.value.slice_index, exc.value.edge) == (0, "detour r=1 on ray 0")


def test_fig1_census_integrand_calls(monkeypatch):
    # panels of all edges share batched calls; one call per 12-point panel
    # would be 1,056 calls here
    calls = []

    def counted(spec, z):
        calls.append(len(z))
        return log_derivative_many(spec, z)

    monkeypatch.setattr(winding, "log_derivative_many", counted)
    assert sector_census(FIG1, -1 - 1j, 0.01, 10.0) == [1, 2, 2, 1, 2, 1]
    assert len(calls) <= 50


def test_fig1_census_detour_probe_calls(monkeypatch):
    # the 15 on-ray singularities of the fig1 census share one eval_many call
    # per probe round; probing them one by one took at least 15 calls
    calls, per_attempt = [], []
    real_eval, real_contours = winding.eval_many, winding._contours

    def counted_eval(spec, z):
        calls.append(len(z))
        return real_eval(spec, z)

    def counted_contours(*args):
        before = len(calls)
        out = real_contours(*args)
        per_attempt.append(len(calls) - before)
        return out

    monkeypatch.setattr(winding, "eval_many", counted_eval)
    monkeypatch.setattr(winding, "_contours", counted_contours)
    assert sector_census(FIG1, -1 - 1j, 0.01, 10.0) == [1, 2, 2, 1, 2, 1]
    assert per_attempt and all(0 < n <= 12 for n in per_attempt)


def _per_singularity_detours(spec, alpha: complex, regions) -> dict[complex, float]:
    """{centre: radius} of every detour, each probed on its own by the frozen
    _certified_detour_radius below, rays in the order the regions first use
    them; the first uncertifiable one raises as _contours does."""
    radii = {}
    seen = set()
    for label, region in regions:
        if region.full:
            continue
        for s in (region.s_from, (region.s_to + 1) % (2 * region.k)):
            if (s, region.r_in, region.r_out) in seen:
                continue
            seen.add((s, region.r_in, region.r_out))
            angle = s * math.pi / region.k
            u = complex(math.cos(angle), math.sin(angle))
            sing = _singular_radii_on_ray(spec, s, region.r_in, region.r_out)
            gaps = [region.r_in] + sing + [region.r_out]
            for i, rho in enumerate(sing):
                gap = min(rho - gaps[i], gaps[i + 2] - rho)
                eps0 = min(0.25 * gap, 0.01 * (1.0 + rho))
                try:
                    radii[rho * u] = _certified_detour_radius(spec, alpha, rho * u, eps0, s % 2 == 0)
                except InconclusiveRegion as exc:
                    raise InconclusiveRegion(str(exc), slice_index=label, edge=f"detour r={rho:.6g} on ray {s}")
    return radii


def _detour_cases():
    rng = np.random.default_rng(919)
    cases = []
    for i, k in enumerate((2, 3, 4, 5, 7, 13, 24, 40)):
        p = int(rng.choice([x for x in (-5, -2, -1, 1, 2, 5) if math.gcd(abs(x), k) == 1]))
        # several zeros and poles: up to four singularities on each ray
        a, b = np.exp(rng.uniform(-1.5, 1.5, int(rng.integers(1, 4)))), np.exp(rng.uniform(-1.5, 1.5, 3))
        cd = i % 2 == 0
        c = tuple(np.exp(rng.uniform(-1.0, 1.0, int(rng.integers(1, 3))))) if cd else ()
        d = tuple(np.exp(rng.uniform(-1.0, 1.0, 1))) if cd else ()
        spec = StructuredFunction(p=p, k=k, a=tuple(a), b=tuple(b), c=c, d=d)
        alpha = random_alpha_generic(rng, spec, margin=0.2 * math.pi / k)
        moduli = [r for r, _ in winding.factor_moduli(spec)]
        r_in, r_out = 0.9 * min(moduli), 1.1 * max(moduli)
        census = [(s, AnnularSector(r_in, r_out, s, s, k)) for s in range(2 * k)]
        cases += [(spec, alpha, census), (spec, alpha, census[::-1])]
        # the same census with no certifiable pole detour (alpha huge), or zero detour (alpha tiny)
        cases += [(spec, 1e30, census[::-1]), (spec, 1e-30, census)]
    return cases


def test_batched_detour_radii_match_the_per_singularity_probe():
    raised = []
    for spec, alpha, regions in _detour_cases():
        try:
            expected = _per_singularity_detours(spec, alpha, regions)
        except InconclusiveRegion as exc:
            expected = (str(exc), exc.slice_index, exc.edge)
            raised.append(exc.edge)
        with np.errstate(all="ignore"):
            try:
                pieces, _ = winding._contours(spec, alpha, regions)
                got = {pc.p: pc.q for pc in pieces if pc.edge.startswith("detour")}
                assert len(got) == len(expected)
            except InconclusiveRegion as exc:
                got = (str(exc), exc.slice_index, exc.edge)
        assert got == expected, (spec, alpha)
    # uncertifiable pole and zero detours both occur, on even and odd rays
    assert {int(edge.rsplit(" ", 1)[1]) % 2 for edge in raised} == {0, 1}


# ---------------------------------------------------------------------------
# differential test against the per-slice recursive census this module used
# before its edges were shared (verbatim but for the names of the two public
# functions, old_count_in_contour and old_sector_census)
# ---------------------------------------------------------------------------


def _adaptive(fn, z_of_t, dz_of_t, t0: float, t1: float, tol: float, depth: int = 0) -> tuple[complex, float]:
    """Adaptive 12-point Gauss-Legendre with halving error estimate."""

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * _GL_NODES
        z = z_of_t(t)
        return half * np.sum(_GL_WEIGHTS * fn(z) * dz_of_t(t))

    whole = panel(t0, t1)
    tm = 0.5 * (t0 + t1)
    halves = panel(t0, tm) + panel(tm, t1)
    err = abs(halves - whole)
    if err <= tol or depth >= 24:
        return halves, err
    left, el = _adaptive(fn, z_of_t, dz_of_t, t0, tm, tol / 2, depth + 1)
    right, er = _adaptive(fn, z_of_t, dz_of_t, tm, t1, tol / 2, depth + 1)
    return left + right, el + er


def _arc(fn, r: float, th0: float, th1: float, tol: float) -> tuple[complex, float]:
    def z_of_t(t):
        return r * np.exp(1j * t)

    def dz_of_t(t):
        return 1j * r * np.exp(1j * t)

    return _adaptive(fn, z_of_t, dz_of_t, th0, th1, tol)


def _certified_detour_radius(
    spec, alpha: complex, center: complex, eps0: float, is_pole: bool
) -> float:
    """Largest detour radius <= eps0 certified free of alpha-points.

    By the maximum principle, |F| > |alpha| on the probe circle certifies the
    whole disk when F has only the central pole inside (apply it to 1/F), and
    |F| < |alpha| on the circle certifies the disk around a zero of F.
    """
    eps = eps0
    probes = np.exp(2j * math.pi * np.arange(16) / 16)
    for _ in range(12):
        vals = np.abs(eval_many(spec, center + eps * probes))
        if is_pole:
            if np.min(vals) > 4.0 * abs(alpha):
                return eps
        else:
            if np.max(vals) < 0.25 * abs(alpha):
                return eps
        eps /= 4.0
    raise InconclusiveRegion(
        f"cannot certify a detour around the on-contour singularity at {center:.6g}"
    )


def _radial_with_detours(
    fn, spec, alpha: complex, angle: float, s_ray: int, r_a: float, r_b: float, tol: float
) -> tuple[complex, float]:
    """Integrate along the ray segment from r_a to r_b at the given angle.

    Semicircular detours around on-ray singular radii bulge to the left of the
    travel direction, i.e. into the region the contour encloses, so boundary
    poles are excluded from the count.  Each detour radius is certified free
    of alpha-points by a max-modulus probe.
    """
    direction = 1.0 if r_b > r_a else -1.0
    lo, hi = min(r_a, r_b), max(r_a, r_b)
    sing = _singular_radii_on_ray(spec, s_ray, lo, hi)
    u = complex(math.cos(angle), math.sin(angle))

    def seg(ra, rb):
        def z_of_t(t):
            return t * u

        def dz_of_t(t):
            return np.full_like(t, u, dtype=complex)

        return _adaptive(fn, z_of_t, dz_of_t, ra, rb, tol)

    if not sing:
        return seg(r_a, r_b)

    is_pole = s_ray % 2 == 0
    gaps = [lo] + sing + [hi]
    eps_each = {}
    for i, rho in enumerate(sing):
        gap = min(rho - gaps[i], gaps[i + 2] - rho)
        eps0 = min(0.25 * gap, 0.01 * (1.0 + rho))
        eps_each[rho] = _certified_detour_radius(spec, alpha, rho * u, eps0, is_pole)

    total = 0j
    err = 0.0
    order = sing if direction > 0 else sing[::-1]
    cur = r_a
    for rho in order:
        eps = eps_each[rho]
        entry = rho - direction * eps
        exit_ = rho + direction * eps
        val, e = seg(cur, entry)
        total += val
        err += e
        # half-circle around rho*u from entry to exit, passing left of travel
        center = rho * u
        dirvec = direction * u
        psi = math.atan2(dirvec.imag, dirvec.real)

        def z_of_t(t, center=center, eps=eps):
            return center + eps * np.exp(1j * t)

        def dz_of_t(t, eps=eps):
            return 1j * eps * np.exp(1j * t)

        val, e = _adaptive(fn, z_of_t, dz_of_t, psi + math.pi, psi, tol)
        total += val
        err += e
        cur = exit_
    val, e = seg(cur, r_b)
    total += val
    err += e
    return total, err


def old_count_in_contour(spec, alpha: complex, region: AnnularSector, quad_tol: float = 1e-6) -> int:
    """Number of alpha-points of the spec strictly inside the annular sector.

    Computes (1/2 pi i) contour-integral of F'/(F - alpha), adds the known
    pole count, and rounds only when the result is within the 0.25 guard.
    """
    alpha = complex(alpha)
    if isinstance(spec, SeriesFunction):
        if region.r_out > spec.trust_radius:
            raise ValueError("region exceeds the certified trust radius")
    elif isinstance(spec, StructuredFunction):
        if region.r_in <= 0:
            raise ValueError("structured specs need a punctured annulus (r_in > 0)")
    fn = _integrand(spec, alpha)
    tol = quad_tol
    total = 0j
    err = 0.0
    with np.errstate(all="ignore"):
        if region.full:
            for r, sign in ((region.r_out, +1.0), (region.r_in, -1.0)):
                val, e = _arc(fn, r, 0.0, 2 * math.pi, tol)
                total += sign * val
                err += e
        else:
            th0, th1 = region.theta_from, region.theta_to
            val, e = _arc(fn, region.r_out, th0, th1, tol)
            total += val
            err += e
            val, e = _radial_with_detours(
                fn, spec, alpha, th1, (region.s_to + 1) % (2 * region.k), region.r_out, region.r_in, tol
            )
            total += val
            err += e
            val, e = _arc(fn, region.r_in, th1, th0, tol)
            total += val
            err += e
            val, e = _radial_with_detours(
                fn, spec, alpha, th0, region.s_from, region.r_in, region.r_out, tol
            )
            total += val
            err += e
    raw = total / (2j * math.pi)
    value = raw.real + _poles_inside(spec, region)
    nearest = round(value)
    slack = abs(value - nearest) + abs(raw.imag)
    if slack + err > ROUND_GUARD:
        raise InconclusiveRegion(
            f"winding integral {value:.6f} (err est {err:.2g}) not within {ROUND_GUARD} of an integer",
            value=value,
        )
    return int(nearest)


def old_sector_census(
    spec,
    alpha: complex,
    r_in: float,
    r_out: float,
    k: int | None = None,
    quad_tol: float = 1e-6,
) -> list[int]:
    """Alpha-point counts per sector Q_0 .. Q_{2k-1} in r_in < |z| < r_out.

    Radii are auto-nudged (globally, so slices stay consistent) when a slice
    integral is inconclusive, e.g. because a boundary circle passes through an
    alpha-point modulus.
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
        counts = []
        try:
            for s in range(2 * k_eff):
                region = AnnularSector(ri, ro, s, s, k_eff)
                try:
                    counts.append(old_count_in_contour(spec, alpha, region, quad_tol))
                except InconclusiveRegion as exc:
                    raise InconclusiveRegion(str(exc), exc.value, slice_index=s) from None
            return counts
        except InconclusiveRegion as exc:
            last = exc
    raise last


# perfbench/workloads.py CENSUS_EDGE: two pole moduli 9e-5 apart on the even rays
CENSUS_EDGE = (
    StructuredFunction(
        p=-2, k=5, a=(2.8394625673170895, 3.8681466333533954), b=(0.3616835377982176, 0.36151738769009023)
    ),
    complex(81.68095347620363, -78.968319904649874),
    0.32430995871305845,
    1.4198959824153963,
)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InconclusiveRegion as exc:
        return ("inconclusive", exc.slice_index)


def _differential_census_cases():
    rng = np.random.default_rng(4040)
    cases = []
    for i, k in enumerate((2, 3, 4, 5, 7, 13, 24, 40)):
        p = int(rng.choice([x for x in (-5, -2, -1, 1, 2, 5) if math.gcd(abs(x), k) == 1]))
        na, nb = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        c = tuple(np.exp(rng.uniform(-1.0, 1.0, int(rng.integers(1, 3))))) if i % 3 == 0 else ()
        d = tuple(np.exp(rng.uniform(-1.0, 1.0, int(rng.integers(0, 3))))) if i % 3 == 0 else ()
        spec = StructuredFunction(
            p=p, k=k, a=tuple(np.exp(rng.uniform(-1.5, 1.5, na))), b=tuple(np.exp(rng.uniform(-1.5, 1.5, nb))), c=c, d=d
        )
        alpha = random_alpha_generic(rng, spec, margin=0.2 * math.pi / k)
        r_in, r_out = float(rng.uniform(0.2, 0.6)), float(rng.uniform(1.4, 2.5))
        cases.append((spec, alpha, r_in, r_out, {"quad_tol": 1e-9 if k <= 4 else 1e-6}))
    for _ in range(3):
        spec = random_structured(rng, with_cd=True)
        cases.append((spec, random_alpha_generic(rng, spec), 0.3, 2.0, {}))
    roots = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    series = SeriesFunction(tuple(np.poly(roots)[::-1]), trust_radius=100.0)
    cases += [(series, 0.0, 0.05, 3.0, {}), (series, 0.5 - 0.25j, 0.1, 2.0, {"k": 3})]
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    cases.append((FIG1, -1 - 1j, 0.01, pts[4].modulus, {}))  # contour through a point: the nudge retry
    cases.append((*CENSUS_EDGE, {}))
    cases.append((FIG1, 1e30, 0.5, 2.0, {}))  # no certifiable detour: inconclusive
    return cases


def test_census_matches_the_per_slice_recursive_census():
    for spec, alpha, r_in, r_out, kw in _differential_census_cases():
        expected = _outcome(old_sector_census, spec, alpha, r_in, r_out, **kw)
        assert _outcome(sector_census, spec, alpha, r_in, r_out, **kw) == expected, (spec, alpha, r_in, r_out)
    assert expected == ("inconclusive", 0)


def test_count_in_contour_matches_the_recursive_contour():
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    regions = [
        AnnularSector(0.3, 2.2, 0, 5, 3),
        AnnularSector(0.9, 1.3, 5, 2, 3),
        AnnularSector(0.3, 2.2, 3, 5, 3),
        AnnularSector(0.05, 1.7, 1, 1, 3),
        AnnularSector(0.01, pts[3].modulus, 0, 5, 3),  # through a point: inconclusive
    ]
    outcomes = []
    for region in regions:
        expected = _outcome(old_count_in_contour, FIG1, -1 - 1j, region)
        assert _outcome(count_in_contour, FIG1, -1 - 1j, region) == expected, region
        outcomes.append(expected)
    assert outcomes[-1] == ("inconclusive", None)
