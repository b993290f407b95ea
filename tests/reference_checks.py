"""Executable sector-localization checks: predictors and verifiers.

Predictors compute, from (p, k) and the position of alpha, where alpha-points
must fall: the sector-hop congruence for consecutive moduli, the reflection
pairing on the real-direction dichotomy, and the location of the first point.
Verifiers test solver output against those predictions and return reports
listing every violated predicate.

All sector arithmetic happens after normalizing alpha by the real constant
relating the monic evaluation model to the positive-on-positive-axis product
form (see functions.normalization_constant); the constant is negative exactly
when the pole lists have odd total length, which would otherwise shift every
sector prediction by a half turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .functions import AlphaPoint, StructuredFunction, normalization_constant
from .sectors import (
    DEFAULT_ANGLE_TOL,
    phase,
    SectorIndex,
    classify_sector,
    line_side,
    ray_indices,
    real_direction_index,
    solve_linear_congruence,
    split_index,
    unit_rotation,
)

DEFAULT_GAP_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    predicate: str
    indices: tuple[int, ...]
    values: tuple = ()

    def __str__(self):
        vals = ", ".join(f"{v}" for v in self.values)
        return f"{self.predicate} at {self.indices}" + (f" [{vals}]" if vals else "")


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    passed: bool
    checks_run: int
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "passed": self.passed,
            "checks_run": self.checks_run,
            "violations": [
                {"predicate": v.predicate, "indices": list(v.indices), "values": [str(x) for x in v.values]}
                for v in self.violations
            ],
            "notes": list(self.notes),
        }


def _report(theorem: str, checks: int, violations: list[Violation], notes=()) -> VerificationReport:
    return VerificationReport(theorem, not violations, checks, tuple(violations), tuple(notes))


@dataclass(frozen=True)
class FirstPointForecast:
    """Predicted location of the minimum-modulus alpha-point.

    kind 'interior-sector': one simple point in sectors[0].
    kind 'positive-ray': one simple point on the ray {z e_{-ray_index} > 0}.
    kind 'pair-of-sectors': two equal-modulus points, one in each of sectors.
    kind 'ray-pair-possible': as pair-of-sectors, or (only for |p| = 1) both
    points on the ray {z e_{-ray_index} > 0} at distinct moduli / one double.

    ray_rotation is the congruence solution m; ray_index is the
    resolved ray label r with ray = {z e_{-r} > 0}.
    """

    kind: str
    sectors: tuple[SectorIndex, ...] = ()
    ray_rotation: int | None = None
    ray_index: int | None = None


def normalized_alpha(spec: StructuredFunction, alpha: complex) -> complex:
    return complex(alpha) / normalization_constant(spec)


# ---------------------------------------------------------------------------
# sector-hop predictor
# ---------------------------------------------------------------------------


def predict_next_sector(
    p: int,
    k: int,
    alpha_sector: SectorIndex | int,
    current_sector: SectorIndex | int,
) -> SectorIndex:
    """Sector of the next alpha-point in modulus order, off the dichotomy.

    With alpha in Q_{2q-kappa} and z_i in Q_{2m-sigma}, the successor lies in
    Q_{2l-1+sigma} where p(l+m) = 2q+1-kappa-sigma (mod k).
    """
    if math.gcd(abs(p), k) != 1:
        raise ValueError(f"p={p} and k={k} must be coprime")
    ja = int(alpha_sector) % (2 * k)
    jz = int(current_sector) % (2 * k)
    q, kappa = split_index(ja, k)
    m, sigma = split_index(jz, k)
    l = (solve_linear_congruence(p, (2 * q + 1 - kappa - sigma) % k, k) - m) % k
    return SectorIndex(2 * l - 1 + sigma, k)


# ---------------------------------------------------------------------------
# generic interlacing verifier (Im alpha^k != 0)
# ---------------------------------------------------------------------------


def verify_generic_interlacing(
    points: list[AlphaPoint],
    alpha: complex,
    spec: StructuredFunction,
    gap_tol: float = DEFAULT_GAP_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> VerificationReport:
    """Simplicity, strict modulus interlacing, and sector hops for generic alpha."""
    if not isinstance(spec, StructuredFunction):
        raise TypeError("the interlacing verifier needs a structured spec (p, k)")
    p, k = spec.p, spec.k
    an = normalized_alpha(spec, alpha)
    if real_direction_index(an, p, k) is not None:
        raise ValueError("Im alpha^k = 0: use verify_real_power_case")
    alpha_sector, _ = classify_sector(an, k)
    violations: list[Violation] = []
    checks = 0
    for i, pt in enumerate(points):
        checks += 2
        if pt.multiplicity != 1:
            violations.append(Violation("simple", (i,), (pt.multiplicity,)))
        if pt.boundary:
            violations.append(Violation("off-boundary", (i,), (pt.value,)))
    for i in range(len(points) - 1):
        a, b = points[i], points[i + 1]
        checks += 2
        gap = (b.modulus - a.modulus) / max(b.modulus, 1e-300)
        if gap <= gap_tol:
            violations.append(Violation("modulus-gap", (i, i + 1), (a.modulus, b.modulus)))
        expected = predict_next_sector(p, k, alpha_sector, a.sector)
        if b.sector.s != expected.s:
            violations.append(Violation("sector-hop", (i, i + 1), (a.sector.s, b.sector.s, expected.s)))
    return _report("sector-hop interlacing", checks, violations)


# ---------------------------------------------------------------------------
# real-direction pairing verifier (Im alpha^k = 0)
# ---------------------------------------------------------------------------


def group_by_modulus(points: list[AlphaPoint], gap_tol: float = DEFAULT_GAP_TOL) -> list[list[int]]:
    """Indices grouped by equal modulus at relative tolerance gap_tol."""
    groups: list[list[int]] = []
    for i, pt in enumerate(points):
        if groups and (pt.modulus - points[groups[-1][-1]].modulus) <= gap_tol * max(pt.modulus, 1e-300):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _same_ray(a: AlphaPoint, b: AlphaPoint, angle_tol: float) -> bool:
    return abs(math.remainder(a.argument - b.argument, 2 * math.pi)) <= 2 * angle_tol


@dataclass
class _GroupInfo:
    indices: list[int]
    m: int | None = None  # congruence label of the group
    on_ray: bool = False
    valid: bool = False


def verify_real_power_case(
    points: list[AlphaPoint],
    alpha: complex,
    spec: StructuredFunction,
    gap_tol: float = DEFAULT_GAP_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> VerificationReport:
    """Conjugate-rotation pairing and successor congruence on the dichotomy.

    Every modulus group must be a reflection pair {z, conj(z) e_{-2s}} of
    simple points in sectors Q_{2m} and Q_{-2s-2m-1}, or a single point of
    multiplicity <= 2 on a ray of the line {Im(z e_s) = 0}.  Consecutive
    groups satisfy p(m - l) = 1 (mod k) except across a shared ray, where the
    equal-argument alternation rules apply instead.
    """
    if not isinstance(spec, StructuredFunction):
        raise TypeError("the pairing verifier needs a structured spec (p, k)")
    p, k = spec.p, spec.k
    an = normalized_alpha(spec, alpha)
    s = real_direction_index(an, p, k)
    if s is None:
        raise ValueError("Im alpha^k != 0: use verify_generic_interlacing")
    reflect = unit_rotation(-2 * s, k)
    violations: list[Violation] = []
    checks = 0
    groups = [_GroupInfo(g) for g in group_by_modulus(points, gap_tol)]

    for gi, grp in enumerate(groups):
        idx = grp.indices
        total_mult = sum(points[i].multiplicity for i in idx)
        checks += 1
        if total_mult > 2:
            violations.append(Violation("group-multiplicity", tuple(idx), (total_mult,)))
            continue
        if len(idx) == 2:
            u, v = points[idx[0]], points[idx[1]]
            checks += 3
            if u.multiplicity != 1 or v.multiplicity != 1:
                violations.append(Violation("pair-simple", tuple(idx), (u.multiplicity, v.multiplicity)))
                continue
            if u.boundary or v.boundary:
                violations.append(Violation("pair-off-boundary", tuple(idx), (u.value, v.value)))
                continue
            mirror = u.value.conjugate() * reflect
            tol = gap_tol * (1 + abs(u.value))
            if abs(v.value - mirror) > tol and abs(u.value - v.value.conjugate() * reflect) > tol:
                violations.append(Violation("pair-reflection", tuple(idx), (u.value, v.value)))
                continue
            even = [pt for pt in (u, v) if pt.sector.s % 2 == 0]
            if len(even) != 1:
                violations.append(Violation("pair-sectors", tuple(idx), (u.sector.s, v.sector.s)))
                continue
            m = even[0].sector.s // 2
            other = u.sector.s if even[0] is v else v.sector.s
            if other != (-2 * s - 2 * m - 1) % (2 * k):
                violations.append(Violation("pair-sectors", tuple(idx), (u.sector.s, v.sector.s)))
                continue
            grp.m, grp.valid = m, True
        else:
            pt = points[idx[0]]
            side = line_side(pt.value, s, k)
            checks += 1
            if side == 0:
                name = "missing-partner" if not pt.boundary else "off-dichotomy-ray"
                violations.append(Violation(name, tuple(idx), (pt.value,)))
                continue
            m_pos, m_neg = ray_indices(s, k)
            grp.m = m_pos if side > 0 else m_neg
            grp.on_ray, grp.valid = True, True

    for gi in range(len(groups) - 1):
        g, h = groups[gi], groups[gi + 1]
        if not (g.valid and h.valid):
            continue
        shared_ray = (
            g.on_ray
            and h.on_ray
            and _same_ray(points[g.indices[0]], points[h.indices[0]], angle_tol)
        )
        if shared_ray:
            continue  # item (c): same-interval partner, no congruence
        checks += 1
        if (p * (g.m - h.m)) % k != 1 % k:
            violations.append(
                Violation("successor-congruence", (g.indices[-1], h.indices[0]), (g.m, h.m))
            )

    # equal-argument alternation along rays, items (c)/(d)
    for gi, grp in enumerate(groups):
        if not (grp.valid and grp.on_ray):
            continue
        pt = points[grp.indices[0]]
        prev = groups[gi - 1] if gi > 0 else None
        nxt = groups[gi + 1] if gi + 1 < len(groups) else None
        prev_same = (
            prev is not None
            and prev.valid
            and prev.on_ray
            and _same_ray(points[prev.indices[0]], pt, angle_tol)
        )
        if nxt is not None and nxt.valid:
            nxt_same = nxt.on_ray and _same_ray(points[nxt.indices[0]], pt, angle_tol)
            if nxt_same:
                checks += 2
                if pt.multiplicity != 1 or points[nxt.indices[0]].multiplicity != 1:
                    violations.append(
                        Violation("ray-pair-simple", (grp.indices[0], nxt.indices[0]), ())
                    )
                if prev_same:
                    violations.append(
                        Violation("ray-alternation", (grp.indices[0],), (pt.value,))
                    )
            elif prev is not None and prev.valid:
                # item (d): simple iff the predecessor shares the ray
                checks += 1
                if pt.multiplicity == 1 and not prev_same:
                    violations.append(Violation("lone-simple-ray-point", (grp.indices[0],), (pt.value,)))
                if pt.multiplicity == 2 and prev_same:
                    violations.append(Violation("double-after-ray-partner", (grp.indices[0],), (pt.value,)))
    return _report("reflection pairing", checks, violations)


# ---------------------------------------------------------------------------
# first-point predictor and its checker
# ---------------------------------------------------------------------------


def _ceil_half(a: int) -> int:
    return (a + 1) // 2


def predict_first_location(
    spec: StructuredFunction,
    alpha: complex,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> FirstPointForecast:
    """Where the minimum-modulus alpha-point of a meromorphic-form spec falls."""
    if not spec.is_meromorphic_form:
        raise ValueError("first-point prediction requires A0 = 0 and empty c, d lists")
    p, k = spec.p, spec.k
    an = normalized_alpha(spec, alpha)
    if an == 0:
        raise ValueError("alpha must be nonzero")
    theta = phase(an)
    step = math.pi / k
    j = round(theta / step)
    on_ray = abs(theta - j * step) <= angle_tol
    if not on_ray:
        j = math.floor(theta / step) % (2 * k)
        q, kappa = split_index(j, k)
        if p > 0:
            m = solve_linear_congruence(p, q % k, k)
            return FirstPointForecast("interior-sector", (SectorIndex(2 * m - kappa, k),))
        sigma = kappa if p % 2 == 0 else 1 - kappa
        m = solve_linear_congruence(p, (q - (-1) ** sigma * _ceil_half(p)) % k, k)
        return FirstPointForecast("interior-sector", (SectorIndex(2 * m - sigma, k),))

    j %= 2 * k
    q, kappa = split_index(j, k)
    s = real_direction_index(an, p, k)
    if p > 0:
        if kappa == 0:  # alpha e_{-2q} > 0
            m = solve_linear_congruence(p, q % k, k)
            return FirstPointForecast("positive-ray", (), ray_rotation=m, ray_index=(2 * m) % (2 * k))
        # alpha^k < 0: pair in {Q_{2mt}, Q_{2m-1}}, same-ray pair possible for p = 1
        mt = solve_linear_congruence(p, (q - 1) % k, k)
        m = (-mt - s) % k
        sectors = (SectorIndex(2 * mt, k), SectorIndex(2 * m - 1, k))
        if p == 1:
            return FirstPointForecast(
                "ray-pair-possible", sectors, ray_rotation=m, ray_index=(2 * m - 1) % (2 * k)
            )
        return FirstPointForecast("pair-of-sectors", sectors, ray_rotation=m)
    same_parity = (p % 2) == (kappa % 2)
    if same_parity:
        m = solve_linear_congruence(p, (q + _ceil_half(p - 1)) % k, k)
        return FirstPointForecast(
            "positive-ray", (), ray_rotation=m, ray_index=(2 * m - 1) % (2 * k)
        )
    m = solve_linear_congruence(p, (q - _ceil_half(p + 1)) % k, k)
    sectors = (SectorIndex(2 * m, k), SectorIndex(-2 * s - 2 * m - 1, k))
    if p == -1:
        return FirstPointForecast(
            "ray-pair-possible", sectors, ray_rotation=m, ray_index=(2 * m) % (2 * k)
        )
    return FirstPointForecast("pair-of-sectors", sectors, ray_rotation=m)


def verify_first_location(
    points: list[AlphaPoint],
    forecast: FirstPointForecast,
    k: int,
    gap_tol: float = DEFAULT_GAP_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> VerificationReport:
    """Check the minimum-modulus point(s) against a forecast."""
    violations: list[Violation] = []
    checks = 1
    if not points:
        return _report("first-point forecast", 1, [Violation("empty-alpha-set", ())])
    first = group_by_modulus(points, gap_tol)[0]
    z0 = points[first[0]]

    def on_ray(pt: AlphaPoint, r: int) -> bool:
        return abs(math.remainder(pt.argument - r * math.pi / k, 2 * math.pi)) <= 2 * angle_tol

    if forecast.kind == "interior-sector":
        checks += 2
        if len(first) != 1 or z0.multiplicity != 1:
            violations.append(Violation("first-simple", tuple(first), ()))
        if z0.boundary or z0.sector.s != forecast.sectors[0].s:
            violations.append(
                Violation("first-sector", (first[0],), (z0.sector.s, forecast.sectors[0].s))
            )
    elif forecast.kind == "positive-ray":
        checks += 2
        if len(first) != 1 or z0.multiplicity != 1:
            violations.append(Violation("first-simple", tuple(first), ()))
        if not on_ray(z0, forecast.ray_index):
            violations.append(Violation("first-ray", (first[0],), (z0.value, forecast.ray_index)))
    else:  # pair-of-sectors / ray-pair-possible
        checks += 2
        want = {sec.s for sec in forecast.sectors}
        if len(first) == 2:
            got = {points[i].sector.s for i in first}
            if got != want or any(points[i].multiplicity != 1 for i in first):
                violations.append(Violation("first-pair-sectors", tuple(first), (sorted(got), sorted(want))))
        elif len(first) == 1 and z0.multiplicity == 2:
            if forecast.kind != "ray-pair-possible" or not on_ray(z0, forecast.ray_index):
                violations.append(Violation("first-double-ray", (first[0],), (z0.value,)))
        elif len(first) == 1 and z0.multiplicity == 1:
            ok = False
            if forecast.kind == "ray-pair-possible" and on_ray(z0, forecast.ray_index) and len(points) > 1:
                nxt = points[1]
                ok = on_ray(nxt, forecast.ray_index) and nxt.multiplicity == 1
            if not ok:
                violations.append(Violation("first-pair-structure", tuple(first), (z0.value,)))
        else:
            violations.append(Violation("first-pair-structure", tuple(first), ()))
    return _report("first-point forecast", checks, violations)


# ---------------------------------------------------------------------------
# k = 2 distribution verifier
# ---------------------------------------------------------------------------


def _axis_kind(z: complex, angle_tol: float) -> str:
    theta = phase(z)
    if abs(math.remainder(theta, math.pi)) <= angle_tol:
        return "real"
    if abs(abs(theta) - math.pi / 2) <= angle_tol:
        return "imaginary"
    return "off"


def _k2_blocks(
    expanded: list[AlphaPoint],
    axis: str,
    offset: int,
    j: int,
    first_point_checks: bool,
    gap_tol: float,
    angle_tol: float,
) -> tuple[list[Violation], int, bool]:
    """Block-pattern checks for one pairing alignment; returns (violations, checks, tail_lone)."""
    violations: list[Violation] = []
    checks = 0

    def comp(z: complex) -> float:
        return z.real if axis == "real" else z.imag

    def reflect(z: complex) -> complex:
        return z.conjugate() if axis == "real" else -z.conjugate()

    blocks: list[list[int]] = []
    pos = 0
    if offset and expanded:
        blocks.append([0])
        pos = 1
    while pos + 1 < len(expanded):
        blocks.append([pos, pos + 1])
        pos += 2
    tail_lone = pos < len(expanded) and len(expanded) - pos == 1 and (not offset or pos > 0)

    for bi, blk in enumerate(blocks):
        if len(blk) != 2:
            continue
        u, v = expanded[blk[0]], expanded[blk[1]]
        checks += 1
        if u is v:  # a double point occupying both slots
            if _axis_kind(u.value, angle_tol) != axis:
                violations.append(Violation("double-off-axis", (blk[0],), (u.value,)))
        elif abs(v.modulus - u.modulus) <= gap_tol * max(v.modulus, 1e-300):
            tol = gap_tol * (1 + abs(u.value))
            if abs(v.value - reflect(u.value)) > tol and abs(u.value - reflect(v.value)) > tol:
                violations.append(Violation("pair-reflection", tuple(blk), (u.value, v.value)))
        else:
            ku, kv = _axis_kind(u.value, angle_tol), _axis_kind(v.value, angle_tol)
            same = abs(math.remainder(u.argument - v.argument, 2 * math.pi)) <= 2 * angle_tol
            if ku != axis or kv != axis or not same:
                violations.append(Violation("axis-ray-pair", tuple(blk), (u.value, v.value)))
            elif bi == 0 and offset == 0 and first_point_checks:
                checks += 1
                expect_j = -1 if j < 0 else 0  # |z1| < |z2| only for p = +-1
                if j != expect_j:
                    violations.append(Violation("distinct-first-pair-power", tuple(blk), (j,)))

    # sign alternation across consecutive blocks
    for bi in range(len(blocks) - 1):
        last = expanded[blocks[bi][-1]]
        first = expanded[blocks[bi + 1][0]]
        checks += 1
        if comp(last.value) * comp(first.value) >= 0:
            violations.append(
                Violation("cross-pair-sign", (blocks[bi][-1], blocks[bi + 1][0]), (last.value, first.value))
            )
    return violations, checks, tail_lone


def verify_k2_distribution(
    points: list[AlphaPoint],
    alpha: complex,
    j: int,
    sign_of_p: int,
    gap_tol: float = DEFAULT_GAP_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    first_point_checks: bool = True,
    notes: tuple[str, ...] = (),
) -> VerificationReport:
    """Quadrant distribution checks for k = 2, p = 2j + 1.

    Dispatches on Im alpha^2 / Im alpha / Re alpha to the six cases of the
    quadrant theorems and checks every listed predicate.  first_point_checks
    can be disabled for doubly-infinite-form inputs where the minimal point
    is not pinned down.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if (j >= 0) != (sign_of_p > 0):
        raise ValueError(f"sign_of_p={sign_of_p} inconsistent with p = 2j+1, j={j}")
    violations: list[Violation] = []
    checks = 0
    axis_alpha = _axis_kind(alpha, angle_tol)

    if axis_alpha == "off":
        rep = verify_k2_generic(points, alpha, j, gap_tol, angle_tol, first_point_checks)
        return VerificationReport(rep.theorem, rep.passed, rep.checks_run, rep.violations, tuple(notes))

    # degenerate cases: alpha real (conjugation axis = real) or imaginary
    axis = "real" if axis_alpha == "real" else "imaginary"
    if axis == "real":
        theorem_offset = 0 if j < 0 else 1  # alone-first-point pattern for p > 0
        case = "real-direction, real axis"
    else:
        theorem_offset = 1 if j < 0 else 0
        case = "real-direction, imaginary axis"

    expanded: list[AlphaPoint] = []
    for pt in points:
        expanded.extend([pt] * pt.multiplicity)

    for i, pt in enumerate(points):
        kind = _axis_kind(pt.value, angle_tol)
        checks += 2
        other = "imaginary" if axis == "real" else "real"
        if kind == other:
            violations.append(Violation(f"no-{other}-zeros", (i,), (pt.value,)))
        if kind == axis:
            if pt.multiplicity > 2:
                violations.append(Violation("axis-multiplicity", (i,), (pt.multiplicity,)))
        elif pt.multiplicity != 1:
            violations.append(Violation("off-axis-simple", (i,), (pt.multiplicity,)))

    # the pairing phase is a first-point property: fixed by the case for the
    # meromorphic subfamily, but free for Laurent-tail inputs, where the
    # sequence may open mid-pattern; try both alignments in that case
    offsets = [theorem_offset] if first_point_checks else [theorem_offset, 1 - theorem_offset]
    best = None
    for offset in offsets:
        result = _k2_blocks(expanded, axis, offset, j, first_point_checks, gap_tol, angle_tol)
        if best is None or len(result[0]) < len(best[0]):
            best = result
        if not result[0]:
            break
    blk_violations, blk_checks, tail_lone = best
    violations.extend(blk_violations)
    checks += blk_checks

    if first_point_checks and expanded:
        z1 = expanded[0].value
        checks += 1
        if axis == "real":
            if j < 0:  # (-1)^j alpha Re z1 < 0
                if ((-1) ** j) * alpha.real * z1.real >= 0:
                    violations.append(Violation("first-sign", (0,), (z1,)))
            else:  # first point real with alpha z1 > 0
                if _axis_kind(z1, angle_tol) != "real" or alpha.real * z1.real <= 0:
                    violations.append(Violation("first-sign", (0,), (z1,)))
        else:
            if j < 0:
                if _axis_kind(z1, angle_tol) != "imaginary":
                    violations.append(Violation("first-on-axis", (0,), (z1,)))
                if ((-1) ** j) * alpha.imag * z1.imag <= 0:
                    violations.append(Violation("first-sign", (0,), (z1,)))
            else:
                if alpha.imag * z1.imag <= 0:
                    violations.append(Violation("first-sign", (0,), (z1,)))

    note = (f"case: {case}",) + tuple(notes)
    if tail_lone:
        note += ("trailing point left unpaired at the radius boundary",)
    return _report("quadrant distribution (k=2)", checks, violations, note)


def verify_k2_generic(
    points: list[AlphaPoint],
    alpha: complex,
    j: int,
    gap_tol: float = DEFAULT_GAP_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    first_point_checks: bool = True,
) -> VerificationReport:
    """k = 2, Im alpha^2 != 0: strict interlacing with quadrant stepping."""
    alpha = complex(alpha)
    im_a2 = (alpha * alpha).imag
    if im_a2 == 0:
        raise ValueError("Im alpha^2 = 0: use the degenerate-case dispatch")
    sign = 1 if im_a2 > 0 else -1
    violations: list[Violation] = []
    checks = 0
    for i, pt in enumerate(points):
        checks += 2
        if pt.multiplicity != 1:
            violations.append(Violation("simple", (i,), (pt.multiplicity,)))
        if _axis_kind(pt.value, angle_tol) != "off":
            violations.append(Violation("off-axes", (i,), (pt.value,)))
    for i in range(len(points) - 1):
        u, v = points[i], points[i + 1]
        checks += 2
        if (v.modulus - u.modulus) <= gap_tol * max(v.modulus, 1e-300):
            violations.append(Violation("modulus-gap", (i, i + 1), (u.modulus, v.modulus)))
        if v.sector.s != (u.sector.s + sign) % 4:
            violations.append(Violation("quadrant-step", (i, i + 1), (u.sector.s, v.sector.s)))
    if first_point_checks and points:
        z1 = points[0].value
        checks += 1
        if j < 0:
            ok = ((-1) ** j) * alpha.imag * z1.imag > 0 and im_a2 * z1.real * z1.imag < 0
        else:
            ok = alpha.imag * z1.imag > 0 and alpha.real * z1.real > 0
        if not ok:
            violations.append(Violation("first-sign", (0,), (z1,)))
    return _report("quadrant distribution (k=2)", checks, violations)


def points_census(points: list[AlphaPoint], k: int, r_in: float, r_out: float) -> list[int]:
    """Multiplicity-weighted per-sector counts of points with r_in < |z| < r_out."""
    counts = [0] * (2 * k)
    for pt in points:
        if r_in < pt.modulus < r_out:
            counts[pt.sector.s % (2 * k)] += pt.multiplicity
    return counts
