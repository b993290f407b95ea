"""Exact rational-angle geometry of the 2k sectors of the punctured plane.

The plane splits into 2k open sectors Q_s = {z != 0 : 0 < Arg(z e_{-s}) < pi/k}
of central angle pi/k, numbered anticlockwise with Q_s = Q_{s+2k}.  Everything
here is pure integer/angle bookkeeping; the canonical representative range for
sector indices is [0, 2k).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

DEFAULT_ANGLE_TOL = 1e-9
K_BOUND = math.pi / (4 * DEFAULT_ANGLE_TOL)  # k below it keeps the angle tolerance under pi/(4k)


def phase(z: complex) -> float:
    """Principal argument in (-pi, pi]; safe for subnormal components."""
    return math.atan2(z.imag, z.real)

# exp(i*pi*m/k) for 2m/k integer, indexed by (2m/k) mod 4
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class SectorIndex:
    """Index s of the open sector Q_s, reduced mod 2k into [0, 2k)."""

    s: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "s", self.s % (2 * self.k))

    def shifted(self, steps: int) -> "SectorIndex":
        return SectorIndex(self.s + steps, self.k)

    def __int__(self) -> int:
        return self.s


def unit_rotation(m: int, k: int) -> complex:
    """exp(i*pi*m/k), exact (+-1, +-i) when the angle is a quarter-turn multiple."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    r = m % (2 * k)
    if (2 * r) % k == 0:
        return _QUARTER_TURNS[((2 * r) // k) % 4]
    return cmath.exp(1j * math.pi * r / k)


def classify_sector(z: complex, k: int) -> tuple[SectorIndex, bool]:
    """Sector of z, plus a boundary flag.

    Returns (Q_s, False) when Arg z lies inside (s*pi/k, (s+1)*pi/k), and
    (s, True) when Arg z is within DEFAULT_ANGLE_TOL of the ray s*pi/k; in the
    boundary case s names the ray shared by Q_{s-1} and Q_s (lower-index
    convention).  k must lie below K_BOUND, so that the tolerance stays
    under a quarter of the sector angle.
    """
    if z == 0:
        raise ValueError("sector classification requires z != 0")
    if not k < K_BOUND:
        raise ValueError(f"k must be below {K_BOUND:.10g}, pi/4 over the angle tolerance, got {k}")
    theta = phase(z)  # (-pi, pi]
    step = math.pi / k
    nearest = round(theta / step)
    if abs(theta - nearest * step) <= DEFAULT_ANGLE_TOL:
        return SectorIndex(nearest, k), True
    return SectorIndex(math.floor(theta / step), k), False


def solve_linear_congruence(p: int, r: int, k: int) -> int:
    """The unique m in [0, k) with p*m = r (mod k); requires gcd(|p|, k) = 1."""
    if p == 0 or math.gcd(abs(p), k) != 1:
        raise ValueError(f"p={p} and k={k} must be nonzero and coprime")
    if k == 1:
        return 0
    return (pow(p % k, -1, k) * r) % k


def real_direction_index(alpha: complex, p: int, k: int) -> int | None:
    """The s in [0, k) with Im(alpha * e_{ps}) = 0, or None.

    Some s exists exactly when Im alpha^k = 0, i.e. alpha lies on one of the
    2k boundary rays.  Detection is angular: the direction of alpha*e_{ps}
    must be within DEFAULT_ANGLE_TOL of the real axis.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if math.gcd(abs(p), k) != 1:
        raise ValueError(f"p={p} and k={k} must be coprime")
    for s in range(k):
        w = alpha * unit_rotation(p * s, k)
        if abs(math.remainder(phase(w), math.pi)) <= DEFAULT_ANGLE_TOL:
            return s
    return None


def ray_indices(s: int, k: int) -> tuple[int, int]:
    """Ray labels (m_pos, m_neg) of the line {Im(z e_s) = 0}.

    The positive ray {z e_s > 0} is closure(Q_{2m}) inter closure(Q_{-2s-2m-1})
    for m = m_pos = -ceil(s/2) mod k, and the negative ray {z e_s < 0} for
    m = m_neg = -ceil((s-k)/2) mod k.  Integer arithmetic only.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    m_pos = (-((s + 1) // 2)) % k
    m_neg = (-((s - k + 1) // 2)) % k
    return m_pos, m_neg


def line_side(z: complex, s: int, k: int) -> int:
    """Position of z relative to the line {Im(z e_s) = 0}.

    Returns +1 on the positive ray {z e_s > 0}, -1 on the negative ray,
    0 when z is not within DEFAULT_ANGLE_TOL of the line.
    """
    if z == 0:
        raise ValueError("z must be nonzero")
    w = z * unit_rotation(s, k)
    theta = phase(w)
    if abs(math.remainder(theta, math.pi)) > DEFAULT_ANGLE_TOL:
        return 0
    return 1 if abs(theta) < math.pi / 2 else -1


def split_index(j: int, k: int) -> tuple[int, int]:
    """Decompose a sector index j = 2q - kappa with kappa in {0, 1}, q in [0, k).

    Even j gives (q, kappa) = (j/2, 0); odd j gives ((j+1)/2 mod k, 1).
    """
    j %= 2 * k
    if j % 2 == 0:
        return (j // 2) % k, 0
    return ((j + 1) // 2) % k, 1
