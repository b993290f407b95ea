"""Shared random-instance generators for the test suite (all seeded)."""

from __future__ import annotations

import cmath
import importlib.util
import math
import pathlib
import sys

import numpy as np

from alphasectors import StructuredFunction, normalization_constant, unit_rotation
from alphasectors.sectors import real_direction_index

P_CHOICES = (-5, -2, -1, 1, 2, 5)
K_CHOICES = (2, 3, 4, 5)


def random_structured(rng: np.random.Generator, with_cd: bool = False) -> StructuredFunction:
    """Random rational instance with coprime (|p|, k) and short positive lists."""
    while True:
        k = int(rng.choice(K_CHOICES))
        p = int(rng.choice([x for x in P_CHOICES if math.gcd(abs(x), k) == 1]))
        na = int(rng.integers(0, 5))
        nb = int(rng.integers(0, 5))
        if na + nb == 0:
            continue
        a = tuple(float(x) for x in np.exp(rng.uniform(-1.5, 1.5, na)))
        b = tuple(float(x) for x in np.exp(rng.uniform(-1.5, 1.5, nb)))
        c = d = ()
        if with_cd and rng.random() < 0.5:
            c = tuple(float(x) for x in np.exp(rng.uniform(-1.0, 1.0, int(rng.integers(0, 3)))))
            d = tuple(float(x) for x in np.exp(rng.uniform(-1.0, 1.0, int(rng.integers(0, 3)))))
        return StructuredFunction(p=p, k=k, a=a, b=b, c=c, d=d)


def random_alpha_generic(rng: np.random.Generator, spec: StructuredFunction, margin: float = 0.05) -> complex:
    """Random alpha with the normalized direction at least `margin` rad off every ray."""
    k = spec.k
    kappa = normalization_constant(spec)
    while True:
        theta = rng.uniform(-math.pi, math.pi)
        if abs(math.remainder(theta, math.pi / k)) < margin:
            continue
        mag = float(np.exp(rng.uniform(-1.0, 1.0)))
        alpha_norm = mag * cmath.exp(1j * theta)
        alpha = alpha_norm * kappa
        if real_direction_index(alpha_norm, spec.p, spec.k) is None:
            return alpha


def random_alpha_real_direction(rng: np.random.Generator, spec: StructuredFunction) -> complex:
    """alpha = t * e_{-p s}, t > 0: Im(alpha e_{ps}) = 0 exactly (up to rounding)."""
    s = int(rng.integers(0, spec.k))
    t = float(np.exp(rng.uniform(-1.0, 1.0)))
    return t * unit_rotation(-spec.p * s, spec.k)


def annulus_off_moduli(points, pole_radii, r_lo: float = None, r_hi: float = None):
    """Radii (r_in, r_out) bracketing all points, away from point/pole moduli."""
    mods = sorted(pt.modulus for pt in points)
    blocked = sorted(set(mods) | set(pole_radii))
    r_in = (mods[0] * 0.5) if mods else 0.01
    r_out = (mods[-1] * 1.5 + 0.1) if mods else 10.0
    if r_lo is not None:
        r_in = r_lo
    if r_hi is not None:
        r_out = r_hi
    for rho in blocked:
        if abs(r_in - rho) < 1e-3 * max(rho, 1.0):
            r_in *= 0.97
        if abs(r_out - rho) < 1e-3 * max(rho, 1.0):
            r_out *= 1.03
    return r_in, r_out


def pole_radii(spec: StructuredFunction):
    k = spec.k
    return [b ** (1.0 / k) for b in spec.b] + [d ** (-1.0 / k) for d in spec.d]


def load_frozen(filename: str):
    """A frozen module copy from the tests directory, loaded inside the package so that its relative imports resolve."""
    name = "alphasectors." + pathlib.Path(filename).stem
    spec = importlib.util.spec_from_file_location(name, pathlib.Path(__file__).with_name(filename))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while decorating
    spec.loader.exec_module(module)
    return module


# the qseries-certify grid: (family, t for q = i t, truncation degree N)
QSERIES_GRID = [
    (family, t, N)
    for family, t in (
        ("disturbed-exp", 0.9),
        ("partial-theta", 0.5),
        ("sokal-poly", 0.6),
        ("disturbed-exp", 1.0),
        ("partial-theta", 0.7),
        ("disturbed-exp", 0.7),
    )
    for N in (40, 64, 80)
]


def clusters_bytes(clusters):
    """Every centre, member, multiplicity and radius of a cluster list, as bytes (None stays None)."""
    if clusters is None:
        return None
    return [
        (
            np.complex128(cl.center).tobytes(),
            np.array(cl.members, complex).tobytes(),
            cl.multiplicity,
            np.float64(cl.cluster_radius).tobytes(),
        )
        for cl in clusters
    ]
