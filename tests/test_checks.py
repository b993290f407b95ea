import cmath
import math

import numpy as np
import pytest

from alphasectors import (
    SectorIndex,
    StructuredFunction,
    alpha_points,
    predict_first_location,
    predict_next_sector,
    verify_first_location,
    verify_generic_interlacing,
    verify_k2_distribution,
    verify_real_power_case,
)
from alphasectors import solver
from alphasectors.checks import group_by_modulus, meromorphic_equivalent, normalized_alpha, predict_sectors
from alphasectors.functions import AlphaPoint, alpha_polynomial, evaluate_G
from alphasectors.sectors import classify_sector, unit_rotation

from helpers import random_alpha_generic, random_alpha_real_direction, random_structured

FIG1 = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))
FIG2A = StructuredFunction(p=1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG2B = StructuredFunction(p=-1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG3 = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))


def test_predict_next_sector_examples():
    # alpha = -1-1i lies in Q3 for k=3; from Q0 the successor is Q3
    assert predict_next_sector(-1, 3, 3, 0).s == 3
    assert predict_next_sector(1, 2, 0, 0).s == 1


def test_predict_next_sector_parity_flip():
    for k in (2, 3, 5):
        for p in (x for x in (-3, -1, 1, 2, 3) if math.gcd(abs(x), k) == 1):
            for ja in range(2 * k):
                for jz in range(2 * k):
                    nxt = predict_next_sector(p, k, ja, jz)
                    assert nxt.s % 2 != jz % 2


def test_predict_next_sector_period_and_coverage():
    # applying the hop 2k times returns to the start and visits every sector once
    for k in range(2, 13):
        for p in (x for x in range(-12, 13) if x and math.gcd(abs(x), k) == 1):
            for ja in range(2 * k):
                seen = [0]
                for _ in range(2 * k):
                    seen.append(predict_next_sector(p, k, ja, seen[-1]).s)
                assert seen[-1] == seen[0]
                assert len(set(seen[:-1])) == 2 * k


def test_predict_next_sector_rejects_noncoprime():
    with pytest.raises(ValueError):
        predict_next_sector(2, 4, 0, 0)


def _forecast_sweep_case(rng):
    """A meromorphic spec (k 2-24, |p| <= 5 coprime to k, 0-4 a and b factors in e^+-1.5) and its degree."""
    while True:
        k = int(rng.integers(2, 25))
        p = int(rng.choice([x for x in range(-5, 6) if x and math.gcd(abs(x), k) == 1]))
        na, nb = (int(x) for x in rng.integers(0, 5, size=2))
        if na + nb:
            a, b = (tuple(np.exp(rng.uniform(-1.5, 1.5, n)).tolist()) for n in (na, nb))
            return StructuredFunction(p=p, k=k, a=a, b=b)


def _every_point(spec, alpha):
    """alpha_points inside a disk holding every root of the alpha-polynomial (Cauchy's bound, doubled)."""
    P = alpha_polynomial(spec, alpha)
    return alpha_points(spec, alpha, 2 * (1 + np.abs(P[:-1] / P[-1]).max())), len(P) - 1


def test_sector_forecast_is_the_solved_sector_at_every_rank():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(140):
        spec = _forecast_sweep_case(rng)
        alpha = complex(np.exp(rng.uniform(-2, 2) + 1j * rng.uniform(-math.pi, math.pi)))
        pts, n = _every_point(spec, alpha)
        assert len(pts) == n
        if verify_generic_interlacing(pts, alpha, spec).passed:
            assert predict_sectors(spec, alpha, n) == [pt.sector.s for pt in pts], (spec, alpha)
            checked += 1
    assert checked >= 120


def test_sector_forecast_holds_the_first_real_power_group():
    rng = np.random.default_rng(23)
    checked = ray_pairs = 0
    for _ in range(70):
        spec = _forecast_sweep_case(rng)
        alpha = complex(np.exp(rng.uniform(-2, 2)) * unit_rotation(int(rng.integers(0, 2 * spec.k)), spec.k))
        pts, n = _every_point(spec, alpha)
        if not verify_real_power_case(pts, alpha, spec).passed:
            continue
        checked += 1
        got = sorted(pts[i].sector.s for i in group_by_modulus(pts)[0])
        first = predict_first_location(spec, alpha)
        want = predict_sectors(spec, alpha, n)[: 1 if first.kind == "positive-ray" else 2]
        if len(got) < len(want):
            # the alternative of a ray-pair-possible forecast: one point of the pair's ray leads
            assert first.kind == "ray-pair-possible" and got == [first.ray_index] and got[0] in want
            ray_pairs += 1
        else:
            assert got == sorted(want), (spec, alpha)
    assert checked >= 50 and ray_pairs


def _cd_sweep_case(rng):
    """A spec with 1-4 c and d factors in e^+-1 (k 2-24, |p| <= 5 coprime to k, 0-3 a and b factors in e^+-1.5)."""
    while True:
        k = int(rng.integers(2, 25))
        p = int(rng.choice([x for x in range(-5, 6) if x and math.gcd(abs(x), k) == 1]))
        na, nb, nc, nd = (int(x) for x in rng.integers(0, 3, size=4))
        if nc + nd:
            a, b = (tuple(np.exp(rng.uniform(-1.5, 1.5, n)).tolist()) for n in (na, nb))
            c, d = (tuple(np.exp(rng.uniform(-1.0, 1.0, n)).tolist()) for n in (nc, nd))
            return StructuredFunction(p=p, k=k, a=a, b=b, c=c, d=d)


def test_meromorphic_equivalent_has_the_same_alpha_points():
    rng = np.random.default_rng(25)
    for _ in range(40):
        spec = _cd_sweep_case(rng)
        alpha = complex(np.exp(rng.uniform(-1, 1) + 1j * rng.uniform(-math.pi, math.pi)))
        m, alpha_m = meromorphic_equivalent(spec, alpha)
        assert m.is_meromorphic_form and m.p % m.k == spec.p % spec.k
        # G / alpha = M / alpha_m at every z, so the two alpha-sets are one
        for z in np.exp(rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-math.pi, math.pi, 4)).tolist():
            want = evaluate_G(m, z) / alpha_m
            assert abs(evaluate_G(spec, z) / alpha - want) <= 1e-12 * abs(want)


def test_sector_forecast_of_a_cd_spec_is_the_solved_sector_at_every_rank():
    rng = np.random.default_rng(24)
    checked = 0
    for _ in range(60):
        spec = _cd_sweep_case(rng)
        alpha = complex(np.exp(rng.uniform(-2, 2) + 1j * rng.uniform(-math.pi, math.pi)))
        pts, n = _every_point(spec, alpha)
        assert len(pts) == n
        if verify_generic_interlacing(pts, alpha, spec).passed:
            assert predict_sectors(spec, alpha, n) == [pt.sector.s for pt in pts], (spec, alpha)
            checked += 1
    assert checked >= 50


def test_a_cd_spec_whose_meromorphic_equivalent_is_out_of_range_keeps_the_default_start(monkeypatch):
    spec = StructuredFunction(p=1, k=3, a=(1e200,), b=(2.0,), c=(1e-200,))  # M's a holds 1e200 twice
    with pytest.raises(ValueError, match="field 'a'"):
        predict_sectors(spec, 0.5 + 0.5j, 9)
    starts = []
    batch = solver._find_roots_batch
    monkeypatch.setattr(solver, "_find_roots_batch", lambda *a, **kw: starts.append(a[3:]) or batch(*a, **kw))
    alpha_points(spec, 0.5 + 0.5j, 1e80)
    assert starts == [()]  # find_roots, with no forecast


def test_interlacing_fig1_fixture():
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    rep = verify_generic_interlacing(pts, -1 - 1j, FIG1)
    assert rep.passed and not rep.violations
    # 9 points: 18 pointwise checks plus 8 hop pairs checked twice
    assert rep.checks_run == 34


def test_interlacing_flags_moved_point():
    pts = alpha_points(FIG1, -1 - 1j, 10.0)
    bad = list(pts)
    z = bad[4]
    rotated = z.value * cmath.exp(1j * math.pi / 3)
    sec, boundary = classify_sector(rotated, 3)
    bad[4] = AlphaPoint(rotated, abs(rotated), sec, boundary, z.multiplicity, z.residual)
    rep = verify_generic_interlacing(bad, -1 - 1j, FIG1)
    assert not rep.passed
    assert any(v.predicate == "sector-hop" and 4 in v.indices for v in rep.violations)


def test_interlacing_single_point_vacuous():
    pts = alpha_points(FIG1, -1 - 1j, 10.0)[:1]
    rep = verify_generic_interlacing(pts, -1 - 1j, FIG1)
    assert rep.passed and rep.checks_run == 2


def test_interlacing_rejects_real_direction_alpha():
    with pytest.raises(ValueError):
        verify_generic_interlacing([], 1.0 + 0j, FIG1)


def test_real_power_fig3_on_ray_pair():
    # normalized alpha = i/3 -> two smallest zeros share the positive imaginary ray
    pts = alpha_points(FIG3, 0.2j, 10.0)
    assert pts[0].boundary and pts[1].boundary
    assert abs(pts[0].argument - math.pi / 2) < 1e-9
    assert abs(pts[1].argument - math.pi / 2) < 1e-9
    rep = verify_real_power_case(pts, 0.2j, FIG3)
    assert rep.passed, [str(v) for v in rep.violations]


def test_real_power_fig3_interior_pairs():
    pts = alpha_points(FIG3, 1j, 10.0)
    assert not any(pt.boundary for pt in pts)
    rep = verify_real_power_case(pts, 1j, FIG3)
    assert rep.passed, [str(v) for v in rep.violations]
    # reflection partner is -conj(z) for s = 1
    assert abs(pts[1].value + pts[0].value.conjugate()) < 1e-9


def test_real_power_flags_broken_pair():
    pts = alpha_points(FIG3, 1j, 10.0)
    bad = list(pts)
    z = bad[1]
    moved = z.value * cmath.exp(0.3j)
    sec, boundary = classify_sector(moved, 2)
    bad[1] = AlphaPoint(moved, abs(moved), sec, boundary, 1, z.residual)
    rep = verify_real_power_case(bad, 1j, FIG3)
    assert not rep.passed
    assert any(v.predicate in ("pair-reflection", "pair-sectors") for v in rep.violations)


def test_real_power_rejects_generic_alpha():
    with pytest.raises(ValueError):
        verify_real_power_case([], -1 - 1j, FIG1)


def test_first_location_fig2a_cases():
    # alpha = e^{i pi/3}: alpha^3 < 0, pair {Q0, Q1}, ray possible since p = 1
    fc = predict_first_location(FIG2A, cmath.exp(1j * math.pi / 3))
    assert fc.kind == "ray-pair-possible"
    assert {s.s for s in fc.sectors} == {0, 1}
    # alpha = i interior to Q1 -> first point interior to Q1
    fc = predict_first_location(FIG2A, 1j)
    assert fc.kind == "interior-sector" and fc.sectors[0].s == 1
    # alpha = e^{2 i pi/3} on an even ray -> first point on the ray arg = 2 pi/3
    fc = predict_first_location(FIG2A, cmath.exp(2j * math.pi / 3))
    assert fc.kind == "positive-ray" and fc.ray_index == 2


def test_first_location_fig2b_cases():
    fc = predict_first_location(FIG2B, cmath.exp(1j * math.pi / 3))
    assert fc.kind == "positive-ray" and fc.ray_rotation == 0 and fc.ray_index == 5
    fc = predict_first_location(FIG2B, 1j)
    assert fc.kind == "interior-sector" and fc.sectors[0].s == 4
    fc = predict_first_location(FIG2B, cmath.exp(2j * math.pi / 3))
    assert fc.kind == "ray-pair-possible"
    assert {s.s for s in fc.sectors} == {3, 4}


def test_first_location_verified_on_figures():
    for spec in (FIG2A, FIG2B):
        for alpha in (cmath.exp(1j * math.pi / 3), 1j, cmath.exp(2j * math.pi / 3)):
            pts = alpha_points(spec, alpha, 10.0)
            fc = predict_first_location(spec, alpha)
            rep = verify_first_location(pts, fc, spec.k)
            assert rep.passed, (spec.p, alpha, [str(v) for v in rep.violations])


def test_first_location_negative_normalization_constant():
    # kappa = -2: the untransformed direction of alpha would predict the wrong ray
    spec = StructuredFunction(p=1, k=2, a=(2.0,), b=(1.0,))
    fc = predict_first_location(spec, 0.3)
    assert fc.kind == "positive-ray" and fc.ray_index == 2  # negative real axis
    pts = alpha_points(spec, 0.3, 20.0)
    assert pts[0].value.real < 0 and abs(pts[0].value.imag) < 1e-9
    rep = verify_first_location(pts, fc, 2)
    assert rep.passed


def test_first_location_requires_meromorphic_form():
    spec = StructuredFunction(p=1, k=2, a=(1.0,), c=(1.0,))
    with pytest.raises(ValueError):
        predict_first_location(spec, 1j)


def test_k2_case_vi_fig3():
    # alpha = i, p = 1: no real zeros, Im z1 > 0
    pts = alpha_points(FIG3, 1j, 10.0)
    rep = verify_k2_distribution(pts, normalized_alpha(FIG3, 1j), 0, 1)
    assert rep.passed, [str(v) for v in rep.violations]
    assert pts[0].value.imag > 0
    # alpha = i/5: the strict first pair |z1| < |z2| requires p = 1
    pts = alpha_points(FIG3, 0.2j, 10.0)
    rep = verify_k2_distribution(pts, normalized_alpha(FIG3, 0.2j), 0, 1)
    assert rep.passed, [str(v) for v in rep.violations]


def test_k2_flags_injected_real_zero():
    pts = alpha_points(FIG3, 1j, 10.0)
    bad = list(pts)
    sec, boundary = classify_sector(1.7 + 0j, 2)
    bad.insert(2, AlphaPoint(1.7 + 0j, 1.7, sec, boundary, 1, 0.0))
    rep = verify_k2_distribution(bad, normalized_alpha(FIG3, 1j), 0, 1)
    assert not rep.passed
    assert any(v.predicate == "no-real-zeros" for v in rep.violations)


def test_k2_generic_case():
    spec = StructuredFunction(p=1, k=2, a=(1.0, 2.0), b=(4.0,))
    alpha = 0.8 + 0.5j
    pts = alpha_points(spec, alpha, 30.0)
    rep = verify_k2_distribution(pts, normalized_alpha(spec, alpha), 0, 1)
    assert rep.passed, [str(v) for v in rep.violations]


def test_k2_sign_consistency_enforced():
    with pytest.raises(ValueError):
        verify_k2_distribution([], 1j, j=1, sign_of_p=-1)


def test_random_generic_instances_interlace():
    rng = np.random.default_rng(200)
    done = 0
    while done < 50:
        spec = random_structured(rng)
        alpha = random_alpha_generic(rng, spec)
        pts = alpha_points(spec, alpha, 40.0)
        if not pts:
            continue
        rep = verify_generic_interlacing(pts, alpha, spec)
        assert rep.passed, (spec, alpha, [str(v) for v in rep.violations])
        done += 1


def test_random_real_direction_instances_pair():
    rng = np.random.default_rng(300)
    done = 0
    while done < 12:
        spec = random_structured(rng)
        alpha = random_alpha_real_direction(rng, spec)
        pts = alpha_points(spec, alpha, 40.0)
        if not pts:
            continue
        rep = verify_real_power_case(pts, alpha, spec)
        assert rep.passed, (spec, alpha, [str(v) for v in rep.violations])
        done += 1


def test_random_first_location_agrees():
    rng = np.random.default_rng(400)
    done = 0
    while done < 12:
        spec = random_structured(rng)
        if not spec.is_meromorphic_form:
            continue
        alpha = random_alpha_generic(rng, spec, margin=0.02)
        pts = alpha_points(spec, alpha, 80.0)
        if not pts:
            continue
        fc = predict_first_location(spec, alpha)
        rep = verify_first_location(pts, fc, spec.k)
        assert rep.passed, (spec, alpha, fc, [str(v) for v in rep.violations])
        done += 1


def test_k2_degenerate_cases_all_branches():
    # p = 1 (j = 0), alpha real: first point real with alpha * z1 > 0
    for alpha in (0.7, -0.4):
        pts = alpha_points(FIG3, alpha, 10.0)
        rep = verify_k2_distribution(pts, normalized_alpha(FIG3, alpha), 0, 1)
        assert rep.passed, [str(v) for v in rep.violations]
        assert abs(pts[0].value.imag) < 1e-9 and alpha * pts[0].value.real > 0

    neg = StructuredFunction(p=-1, k=2, a=(3.0,), b=(1.0, 5.0))
    # p = -1 (j = -1), alpha real: leading conjugate pair, sign-bound Re z1
    for alpha in (0.7, -0.4):
        pts = alpha_points(neg, alpha, 10.0)
        rep = verify_k2_distribution(pts, normalized_alpha(neg, alpha), -1, -1)
        assert rep.passed, [str(v) for v in rep.violations]
        assert (-1) * alpha * pts[0].value.real < 0
    # p = -1, alpha imaginary: first point purely imaginary
    for alpha in (0.6j, -0.8j):
        pts = alpha_points(neg, alpha, 10.0)
        rep = verify_k2_distribution(pts, normalized_alpha(neg, alpha), -1, -1)
        assert rep.passed, [str(v) for v in rep.violations]
        assert abs(pts[0].value.real) < 1e-9


def test_k2_random_degenerate_sweep():
    rng = np.random.default_rng(515)
    done = 0
    while done < 20:
        spec = random_structured(rng)
        if spec.k != 2:
            continue
        t = float(np.exp(rng.uniform(-1.0, 1.0)))
        alpha = t * (1j if done % 2 else 1) * (-1 if done % 3 == 0 else 1)
        pts = alpha_points(spec, alpha, 50.0)
        if not pts:
            continue
        j = (spec.p - 1) // 2
        rep = verify_k2_distribution(
            pts,
            normalized_alpha(spec, alpha),
            j,
            1 if spec.p > 0 else -1,
            first_point_checks=spec.is_meromorphic_form,
        )
        assert rep.passed, (spec, alpha, [str(v) for v in rep.violations])
        done += 1


def test_k2_laurent_form_free_pairing_phase():
    # with Laurent-side factors the smallest point is not pinned down, so the
    # pairing pattern may open mid-phase; the verifier must accept either
    # alignment once first-point claims are waived
    spec = StructuredFunction(
        p=-1, k=2,
        a=(2.2900611978641514, 1.6089628592828118, 0.2770573693019681, 1.5263423294432499),
        b=(1.1271649443182015, 0.7371281739279069, 0.29155668999110973, 0.7075960814291041),
        c=(0.5569925196114325,),
        d=(2.4904333298255863, 0.8265953471431794),
    )
    alpha = 2.643849527327949j
    pts = alpha_points(spec, alpha, 50.0)
    # here the alpha-set opens with a reflection pair even though the
    # meromorphic-form case would put a lone on-axis point first
    assert abs(pts[0].modulus - pts[1].modulus) < 1e-9 * pts[0].modulus
    rep = verify_k2_distribution(
        pts, normalized_alpha(spec, alpha), -1, -1, first_point_checks=False
    )
    assert rep.passed, [str(v) for v in rep.violations]
