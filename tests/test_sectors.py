import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphasectors.sectors import (
    DEFAULT_ANGLE_TOL,
    K_BOUND,
    SectorIndex,
    phase,
    classify_sector,
    line_side,
    ray_indices,
    real_direction_index,
    solve_linear_congruence,
    split_index,
    unit_rotation,
)

EPS = 2.220446049250313e-16


def test_unit_rotation_exact_values():
    assert unit_rotation(0, 3) == 1 + 0j
    assert unit_rotation(3, 3) == -1 + 0j
    assert unit_rotation(2, 4) == 1j
    assert unit_rotation(-2, 4) == -1j
    w = unit_rotation(2, 3)
    assert abs(w - complex(-0.5, math.sqrt(3) / 2)) <= 4 * EPS


def test_unit_rotation_periodicity():
    for k in (2, 3, 5):
        for m in range(-2 * k, 2 * k):
            assert unit_rotation(m, k) == unit_rotation(m + 2 * k, k)


def test_classify_sector_examples():
    s, boundary = classify_sector(cmath.exp(1j * math.pi / 6), 3)
    assert (s.s, boundary) == (0, False)
    s, boundary = classify_sector(1 + 0j, 3)
    assert (s.s, boundary) == (0, True)
    s, boundary = classify_sector(cmath.exp(5j * math.pi / 6), 3)
    assert (s.s, boundary) == (2, False)


def test_classify_sector_rejects_zero_and_k_beyond_bound():
    with pytest.raises(ValueError):
        classify_sector(0j, 3)
    classify_sector(1 + 1j, math.floor(K_BOUND))
    with pytest.raises(ValueError, match="k must be below"):
        classify_sector(1 + 1j, math.ceil(K_BOUND))


def test_sector_index_normalizes():
    assert SectorIndex(-1, 3).s == 5
    assert SectorIndex(7, 3).s == 1
    assert int(SectorIndex(2, 2).shifted(3)) == 1


def test_solve_linear_congruence_examples():
    assert solve_linear_congruence(1, 2, 3) == 2
    assert solve_linear_congruence(2, 1, 3) == 2
    assert solve_linear_congruence(-1, 1, 3) == 2
    with pytest.raises(ValueError):
        solve_linear_congruence(2, 1, 4)


def test_congruence_exhaustive_small():
    for k in range(1, 13):
        for p in range(-12, 13):
            if p == 0 or math.gcd(abs(p), k) != 1:
                continue
            for r in range(k):
                m = solve_linear_congruence(p, r, k)
                assert 0 <= m < k
                assert (p * m - r) % k == 0


def test_real_direction_index_examples():
    assert real_direction_index(1j, 1, 2) == 1
    assert real_direction_index(1 + 0j, 1, 3) == 0
    # Im((-1-i)^3) = Im(2 - 2i) = -2 != 0, checked by direct cube
    alpha = -1 - 1j
    assert (alpha**3).imag == -2
    assert real_direction_index(alpha, 1, 3) is None


def test_ray_indices_examples():
    assert ray_indices(0, 3) == (0, 1)
    assert ray_indices(1, 2) == (1, 0)
    assert ray_indices(2, 3) == (2, 0)


def test_ray_indices_against_geometry():
    # the positive ray {z e_s > 0} must be adjacent to exactly Q_{2m_pos}
    for k in range(2, 7):
        for s in range(2 * k):
            m_pos, m_neg = ray_indices(s, k)
            for m, sign in ((m_pos, +1), (m_neg, -1)):
                z = sign * unit_rotation(-s, k) * 1.7
                assert line_side(z, s, k) == sign
                above = z * cmath.exp(1j * 1e-5)
                below = z * cmath.exp(-1j * 1e-5)
                secs = {classify_sector(above, k)[0].s, classify_sector(below, k)[0].s}
                assert secs == {(2 * m) % (2 * k), (-2 * s - 2 * m - 1) % (2 * k)}


def test_split_index_round_trip():
    for k in range(2, 8):
        for j in range(2 * k):
            q, kappa = split_index(j, k)
            assert kappa in (0, 1)
            assert (2 * q - kappa) % (2 * k) == j or (2 * (q + k) - kappa) % (2 * k) == j


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=2, max_value=9),
)
def test_unit_rotation_is_a_homomorphism(m, n, k):
    lhs = unit_rotation(m, k) * unit_rotation(n, k)
    rhs = unit_rotation(m + n, k)
    assert abs(lhs - rhs) <= 8 * EPS


@settings(max_examples=200)
@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.integers(min_value=2, max_value=8),
)
def test_conjugation_reflects_sectors(z, k):
    sec, boundary = classify_sector(z, k)
    if boundary:
        return
    # stay clear of boundaries so the conjugate is also interior
    theta = phase(z)
    if abs(math.remainder(theta, math.pi / k)) < 1e-6:
        return
    sec_conj, _ = classify_sector(z.conjugate(), k)
    assert sec_conj.s == (-1 - sec.s) % (2 * k)


@settings(max_examples=200)
@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.integers(min_value=2, max_value=8),
)
def test_rotation_shifts_sectors(z, k):
    theta = phase(z)
    if abs(math.remainder(theta, math.pi / k)) < 1e-6:
        return
    sec, _ = classify_sector(z, k)
    sec_rot, _ = classify_sector(z * unit_rotation(2, k), k)
    assert sec_rot.s == (sec.s + 2) % (2 * k)


@settings(max_examples=200)
@given(
    st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2, allow_nan=False, allow_infinity=False),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=5),
)
def test_real_direction_iff_small_imag_power(alpha, k, p_raw):
    p = p_raw if math.gcd(p_raw, k) == 1 else 1
    tol = DEFAULT_ANGLE_TOL
    s = real_direction_index(alpha, p, k)
    w = alpha**k
    # |Im(alpha^k)| <= ~tol * |alpha|^k up to the sine of the angular band
    if s is not None:
        assert abs(w.imag) <= math.sin(k * tol) * abs(w) * 1.0001 + 1e-300
    else:
        assert abs(w.imag) > math.sin(k * tol * 0.999) * abs(w) * 0.999
