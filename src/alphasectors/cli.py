"""Command-line front door: solve, predict, verify, census, and demo pipelines.

Specs are JSON files; complex numbers serialize as {"re": .., "im": ..}.
Results are emitted as modulus-sorted CSV tables, JSON verification reports,
and optional static SVG plots (points, sector rays, zero/pole circles).
All numeric output is printed with 17 significant digits.

The figure demos are tables of (spec, alphas, theorems) run through the
same checks as `verify --theorem`; the q-series demos are family specs read
by spec_from_dict, like any `{"type": "series", "family": ..}` file.

Exit status is 0 exactly when every requested verification passed.  Bad
input, and a SolverError or ValueError from the library, end in one
`error: ...` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

from .checks import (
    VerificationReport,
    Violation,
    normalized_alpha,
    points_census,
    predict_first_location,
    predict_next_sector,
    verify_first_location,
    verify_generic_interlacing,
    verify_k2_distribution,
    verify_real_power_case,
)
from .functions import AlphaPoint, SeriesFunction, StructuredFunction, factor_moduli, truncate_series
from .qseries import QSeriesSpec
from .sectors import classify_sector, real_direction_index
from .solver import SolverError, alpha_points
from .winding import InconclusiveRegion, sector_census


def _default_tol() -> float:
    return _number_flag(os.environ.get("ALPHASECTORS_TOL", "1e-9"), "ALPHASECTORS_TOL")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise SystemExit(f"error: --alpha: cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise SystemExit(f"error: --alpha: {text!r} is not a finite complex number")
    return z


def _number_flag(text: str, flag: str = "--tol", what: str = "tolerance", allow_zero: bool = False) -> float:
    """A finite number, positive (non-negative with allow_zero); a SystemExit naming the flag otherwise.

    The defaults make it the argparse type of --tol.
    """
    try:
        x = float(text)
    except ValueError:
        raise SystemExit(f"error: {flag}: cannot parse {what} {text!r}") from None
    if not math.isfinite(x) or x < 0 or (x == 0 and not allow_zero):
        need = "non-negative" if allow_zero else "positive"
        raise SystemExit(f"error: {flag}: {what} must be finite and {need}, got {text!r}")
    return x


def _scalar_field(data: dict, name: str, cast, default, where: str):
    try:
        return cast(data.get(name, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SystemExit(f"error: {where}: field {name!r}: {exc}") from None


def _complex_from_json(obj, where: str) -> complex:
    parts_are_numbers = isinstance(obj, dict) and all(isinstance(v, (int, float)) for v in obj.values())
    if isinstance(obj, (int, float)):
        parts = (obj, 0.0)
    elif parts_are_numbers and set(obj) <= {"re", "im"}:
        parts = (obj.get("re", 0.0), obj.get("im", 0.0))
    else:
        raise SystemExit(f"error: field {where}: expected a number or {{'re':..,'im':..}}")
    try:
        z = complex(*parts)
    except OverflowError as exc:  # an integer beyond double range
        raise SystemExit(f"error: field {where}: {exc}") from None
    if not cmath.isfinite(z):
        raise SystemExit(f"error: field {where}: {z} is not a finite complex number")
    return z


def _complex_to_json(z: complex):
    return {"re": z.real, "im": z.imag}


def parse_spec_file(path: str) -> StructuredFunction | SeriesFunction:
    """Load and validate a JSON function spec; errors name the failing field."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"error: spec file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return spec_from_dict(data, path)


def spec_from_dict(data: dict, where: str = "<spec>") -> StructuredFunction | SeriesFunction:
    if not isinstance(data, dict):
        raise SystemExit(f"error: {where}: a spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    if kind == "rational":
        kwargs = {}
        try:
            for name in ("p", "k"):
                if name not in data:
                    raise SystemExit(f"error: {where}: missing required field {name!r}")
                kwargs[name] = int(data[name])
            for name in ("a", "b", "c", "d"):
                vals = data.get(name, [])
                if not isinstance(vals, list):
                    raise SystemExit(f"error: {where}: field {name!r} must be a list")
                kwargs[name] = tuple(float(v) for v in vals)
            for name in ("A", "A0"):
                kwargs[name] = float(data.get(name, 0.0))
                if not math.isfinite(kwargs[name]):
                    raise SystemExit(f"error: {where}: field {name!r}: {kwargs[name]} is not a finite number")
        except (TypeError, ValueError, OverflowError) as exc:
            raise SystemExit(f"error: {where}: field {name!r}: {exc}") from None
        try:
            return StructuredFunction(**kwargs)
        except ValueError as exc:
            raise SystemExit(f"error: {where}: {exc}")
    if kind == "series":
        if "family" in data:
            try:
                qspec = QSeriesSpec(
                    data["family"],
                    _complex_from_json(data.get("q"), "q"),
                    _scalar_field(data, "N", int, 0, where),
                )
            except (ValueError, KeyError) as exc:
                raise SystemExit(f"error: {where}: {exc}")
            tail_tol = _scalar_field(data, "tail_tol", float, 1e-9, where)
            try:
                return truncate_series(SeriesFunction(tuple(_family_source(qspec))), qspec.N, tail_tol)
            except ValueError as exc:
                raise SystemExit(f"error: {where}: {exc}")
        if "coeffs" in data:
            if not isinstance(data["coeffs"], list):
                raise SystemExit(f"error: {where}: field 'coeffs' must be a list")
            coeffs = [_complex_from_json(c, f"coeffs[{i}]") for i, c in enumerate(data["coeffs"])]
            trust_radius = _scalar_field(data, "trust_radius", float, 0.0, where)
            try:
                return SeriesFunction(tuple(coeffs), trust_radius)
            except ValueError as exc:
                raise SystemExit(f"error: {where}: {exc}")
        raise SystemExit(f"error: {where}: series spec needs 'family' or 'coeffs'")
    raise SystemExit(f"error: {where}: field 'type' must be 'rational' or 'series'")


def _family_source(qspec: QSeriesSpec) -> list[complex]:
    """Coefficients up to degree N+10, the headroom the certifier needs."""
    if qspec.family == "sokal-poly":
        # exact polynomial: pad with zeros, trivially certified
        return qspec.coefficients() + [0j] * 10
    return QSeriesSpec(qspec.family, qspec.q, qspec.N + 10).coefficients()


def spec_to_dict(spec: StructuredFunction | SeriesFunction) -> dict:
    if isinstance(spec, StructuredFunction):
        return {
            "type": "rational",
            "p": spec.p,
            "k": spec.k,
            "a": list(spec.a),
            "b": list(spec.b),
            "c": list(spec.c),
            "d": list(spec.d),
            "A": spec.A,
            "A0": spec.A0,
        }
    return {
        "type": "series",
        "coeffs": [_complex_to_json(c) for c in spec.coeffs],
        "trust_radius": spec.trust_radius,
    }


def emit_results(points, reports, config) -> list[str]:
    """Write CSV/JSON/SVG artifacts per the config; returns the paths written."""
    try:
        return _emit_results(points, reports, config)
    except OSError as exc:
        raise SystemExit(f"error: cannot write {exc.filename!r}: {exc.strerror}")


def _emit_results(points, reports, config) -> list[str]:
    written = []
    if config.get("csv"):
        path = config["csv"]
        with open(path, "w") as fh:
            fh.write("index,re,im,modulus,sector,boundary,multiplicity,residual\n")
            for i, pt in enumerate(points):
                fh.write(
                    f"{i},{_fmt(pt.value.real)},{_fmt(pt.value.imag)},{_fmt(pt.modulus)},"
                    f"{pt.sector.s},{str(pt.boundary).lower()},{pt.multiplicity},{_fmt(pt.residual)}\n"
                )
        written.append(path)
    if config.get("json"):
        path = config["json"]
        payload = {
            "points": [
                {
                    "value": _complex_to_json(pt.value),
                    "modulus": pt.modulus,
                    "sector": pt.sector.s,
                    "boundary": pt.boundary,
                    "multiplicity": pt.multiplicity,
                    "residual": pt.residual,
                }
                for pt in points
            ],
            "reports": [r.as_dict() for r in reports],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        written.append(path)
    if config.get("svg"):
        path = config["svg"]
        with open(path, "w") as fh:
            fh.write(render_svg(points, config.get("spec"), config.get("k", 2)))
        written.append(path)
    return written


_SVG_SIZE = 640  # width and height of the plot, in pixels


def render_svg(points, spec, k: int) -> str:
    """Static plot: alpha-points, the 2k sector rays, zero/pole modulus circles."""
    extent = 1.0
    if points:
        extent = max(extent, max(pt.modulus for pt in points))
    circles = []
    if isinstance(spec, StructuredFunction):
        k = spec.k
        circles = [(r, "#d22d2d" if is_pole else "#2d7dd2") for r, is_pole in factor_moduli(spec)]
        extent = max([extent] + [r for r, _ in circles])
    extent *= 1.15
    half = _SVG_SIZE / 2

    def xy(z: complex) -> tuple[float, float]:
        return half + z.real / extent * half, half - z.imag / extent * half

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    for s in range(2 * k):
        x, y = xy(extent * cmath.exp(1j * math.pi * s / k))
        parts.append(
            f'<line x1="{half}" y1="{half}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    for r, color in circles:
        parts.append(
            f'<circle cx="{half}" cy="{half}" r="{r / extent * half:.2f}" '
            f'fill="none" stroke="{color}" stroke-dasharray="4 3" stroke-width="1"/>'
        )
    for pt in points:
        x, y = xy(pt.value)
        fill = "#111111" if not pt.boundary else "#e08700"
        rad = 4 + 2 * (pt.multiplicity - 1)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{rad}" fill="{fill}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    spec = parse_spec_file(args.spec)
    alpha = _parse_complex(args.alpha)
    radius = _resolve_radius(spec, args.radius)
    points = alpha_points(spec, alpha, radius, tol=args.tol)
    for i, pt in enumerate(points):
        print(
            f"{i}: z = {_fmt(pt.value.real)} {'+' if pt.value.imag >= 0 else '-'} "
            f"{_fmt(abs(pt.value.imag))}i  |z| = {_fmt(pt.modulus)}  Q{pt.sector.s}"
            f"{' (boundary)' if pt.boundary else ''}  mult {pt.multiplicity}"
        )
    return _emit_and_print(points, [], spec, args.csv, args.json_out, args.svg)


def _resolve_radius(spec, radius_arg: str) -> float:
    if radius_arg == "trust":
        if not isinstance(spec, SeriesFunction):
            raise SystemExit("error: --radius trust is only meaningful for series specs")
        if spec.trust_radius == 0:
            raise SystemExit("error: --radius trust: the certified trust radius is 0; no disk is certified")
        return spec.trust_radius
    return _number_flag(radius_arg, "--radius", "radius")


def _emit_and_print(points, reports, spec, csv, json_out, svg, prefix: str = "") -> int:
    """Write the requested artifacts, print one line per report; 0 when all passed."""
    emit_results(points, reports, {"csv": csv, "json": json_out, "svg": svg, "spec": spec})
    for r in reports:
        print(f"{prefix}{r.theorem}: {'passed' if r.passed else 'FAILED'} ({r.checks_run} checks)")
        for v in r.violations:
            print(f"  violation: {v}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_predict(args) -> int:
    spec = parse_spec_file(args.spec)
    if not isinstance(spec, StructuredFunction):
        raise SystemExit("error: predict requires a rational spec")
    alpha = _parse_complex(args.alpha)
    fc = predict_first_location(spec, alpha)
    out = {
        "kind": fc.kind,
        "sectors": [s.s for s in fc.sectors],
        "ray_rotation": fc.ray_rotation,
        "ray_index": fc.ray_index,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_verify(args) -> int:
    spec = parse_spec_file(args.spec)
    if not isinstance(spec, StructuredFunction):
        raise SystemExit("error: verify works on rational specs; use demo for series targets")
    alpha = _parse_complex(args.alpha)
    radius = _resolve_radius(spec, args.radius)
    points = alpha_points(spec, alpha, radius, tol=args.tol)
    reports = _verify_reports(spec, alpha, points, args.theorem)
    return _emit_and_print(points, reports, spec, args.csv, args.json_out, args.svg)


def _verify_reports(spec, alpha, points, theorem):
    reports = []
    if theorem in (None, "auto", "main", "main2"):
        # main holds off the dichotomy Im alpha^k = 0, main2 on it
        real = real_direction_index(normalized_alpha(spec, alpha), spec.p, spec.k) is not None
        fits = "main2" if real else "main"
        if theorem not in (None, "auto", fits):
            relation = "=" if real else "!="
            raise SystemExit(
                f"error: --theorem {theorem}: Im alpha^k {relation} 0; use --theorem {fits} or auto"
            )
        theorem = fits
    if theorem == "main":
        reports.append(verify_generic_interlacing(points, alpha, spec))
    elif theorem == "main2":
        reports.append(verify_real_power_case(points, alpha, spec))
    elif theorem == "first":
        fc = predict_first_location(spec, alpha)
        reports.append(verify_first_location(points, fc, spec.k))
    elif theorem == "k2":
        if spec.k != 2:
            raise SystemExit("error: --theorem k2 requires k = 2")
        reports.append(
            verify_k2_distribution(
                points,
                normalized_alpha(spec, alpha),
                j=(spec.p - 1) // 2,
                sign_of_p=1 if spec.p > 0 else -1,
                # the first-point claims hold for the meromorphic subfamily only
                first_point_checks=spec.is_meromorphic_form,
            )
        )
    else:
        raise SystemExit(f"error: unknown theorem {theorem!r}")
    return reports


def cmd_census(args) -> int:
    spec = parse_spec_file(args.spec)
    alpha = _parse_complex(args.alpha)
    # a series may be counted from the origin; a structured spec has a pole or zero there
    r_in = _number_flag(args.rin, "--rin", "radius", allow_zero=isinstance(spec, SeriesFunction))
    r_out = _number_flag(args.rout, "--rout", "radius")
    if r_in >= r_out:
        raise SystemExit(f"error: --rin {args.rin} must be below --rout {args.rout}")
    try:
        counts = sector_census(spec, alpha, r_in, r_out, quad_tol=args.tol)
    except InconclusiveRegion as exc:
        raise SystemExit(f"error: census slice Q{exc.slice_index}, edge {exc.edge}: {exc}") from None
    except ValueError as exc:  # the flags are valid; only a series' trust radius is left to exceed
        raise SystemExit(f"error: --rout: {exc}")
    for s, n in enumerate(counts):
        print(f"Q{s},{n}")
    print(f"total,{sum(counts)}")
    return 0


# ---------------------------------------------------------------------------
# bundled figure demos
# ---------------------------------------------------------------------------

FIG1_SPEC = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))
FIG2_A = StructuredFunction(p=1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG2_B = StructuredFunction(p=-1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG3_SPEC = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))

_FIG2_ALPHAS = (cmath.exp(1j * math.pi / 3), cmath.exp(1j * math.pi / 2), cmath.exp(2j * math.pi / 3))
# spec, the alphas solved in turn on |z| <= 10 (the last one's table is
# emitted), and the `verify --theorem` checks run on each
FIGURES = {
    "fig1": (FIG1_SPEC, (-1 - 1j,), ("main",)),
    "fig2a": (FIG2_A, _FIG2_ALPHAS, ("first",)),
    "fig2b": (FIG2_B, _FIG2_ALPHAS, ("first",)),
    "fig3": (FIG3_SPEC, (1j, 0.2j), ("main2", "k2")),
}
# zeros of the certified truncation, checked against the k = 2 quadrant theorem
SERIES_DEMOS = {
    "theta": {"type": "series", "family": "partial-theta", "q": {"re": 0, "im": 0.7}, "N": 64},
    "dexp": {"type": "series", "family": "disturbed-exp", "q": {"re": 0, "im": 1}, "N": 40},
}

DEMO_NAMES = (*FIGURES, *SERIES_DEMOS)


def _demo_figure(name: str, tol: float):
    spec, alphas, theorems = FIGURES[name]
    reports = []
    for alpha in alphas:
        points = alpha_points(spec, alpha, 10.0, tol=tol)
        for theorem in theorems:
            reports += _verify_reports(spec, alpha, points, theorem)
    if name == "fig1":  # cross-check the solver against an independent winding count
        counts = sector_census(spec, alpha, 0.01, 10.0)
        solver_counts = points_census(points, spec.k, 0.01, 10.0)
        if counts != solver_counts:
            mismatch = Violation("census-mismatch", (), (counts, solver_counts))
            reports.append(VerificationReport("winding census", False, 1, (mismatch,)))
        else:
            reports.append(VerificationReport("winding census", True, 1, (), (f"counts={counts}",)))
    return points, reports, spec


def _demo_series(name: str, tol: float):
    """Zeros of the certified truncation, checked after rotation by mu = exp(i pi/4) into theorem position."""
    data = SERIES_DEMOS[name]
    series = spec_from_dict(data, f"demo {name}")
    radius = series.trust_radius
    zeros = alpha_points(series, 0.0, radius, tol=tol, k=2)
    mu = cmath.exp(1j * math.pi / 4)
    rotated = []
    for pt in zeros:
        z = mu * pt.value
        rotated.append(AlphaPoint(z, abs(z), *classify_sector(z, 2), pt.multiplicity, pt.residual))
    alpha_rot = -cmath.exp(-1j * math.pi / 4)  # -conj(mu) * f1/f0 with f1 = f0 = 1
    notes = (f"{data['family']}: zeros rotated by exp(i pi/4); trust radius {radius:.6g}",)
    return zeros, [verify_k2_distribution(rotated, alpha_rot, j=-1, sign_of_p=-1, notes=notes)], series


def run_demo(name: str, outdir: str = ".", tol: float | None = None) -> int:
    """Execute a bundled fixture end to end; nonzero exit on any failure."""
    tol = _default_tol() if tol is None else tol
    if name in FIGURES:
        points, reports, spec = _demo_figure(name, tol)
    elif name in SERIES_DEMOS:
        points, reports, spec = _demo_series(name, tol)
    else:
        raise SystemExit(f"error: unknown demo {name!r}; choose from {DEMO_NAMES}")
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name + suffix) for suffix in (".csv", "_report.json", ".svg")]
    return _emit_and_print(points, reports, spec, *paths, prefix=f"{name}: ")


def cmd_demo(args) -> int:
    return run_demo(args.name, args.outdir, args.tol)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphasectors",
        description="Locate and verify alpha-points of k-fold symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=True):
        p.add_argument("--spec", required=True, help="path to a JSON function spec")
        if alpha:
            p.add_argument("--alpha", required=True, help="complex target, e.g. -1-1i")
        p.add_argument("--tol", type=_number_flag, default=_default_tol(), help="solver tolerance")
        p.add_argument("--csv", help="write a points CSV here")
        p.add_argument("--json", dest="json_out", help="write a JSON report here")
        p.add_argument("--svg", help="write a static SVG plot here")

    p = sub.add_parser("solve", help="find all alpha-points in a disk")
    common(p)
    p.add_argument("--radius", required=True, help="disk radius (or 'trust' for series)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("predict", help="forecast the first alpha-point location")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="solve and check theorem predictions")
    common(p)
    p.add_argument("--radius", required=True)
    p.add_argument("--theorem", choices=["auto", "main", "main2", "first", "k2"], default="auto")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="argument-principle sector census")
    common(p)
    p.add_argument("--rin", required=True, help="inner radius")
    p.add_argument("--rout", required=True, help="outer radius")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("demo", help="run a bundled fixture end to end")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--outdir", default=".")
    p.add_argument("--tol", type=_number_flag, default=_default_tol())
    p.set_defaults(func=cmd_demo)
    return parser


@functools.lru_cache(maxsize=4)
def _parser(env_tol: str | None) -> argparse.ArgumentParser:
    """build_parser(), built once per ALPHASECTORS_TOL value, whose --tol default it holds.

    main builds it on first use rather than at import.  set_defaults binds
    the cmd_* functions when the parser is built, so patching cli.cmd_*
    after the first main call does not reach the dispatch.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser(os.environ.get("ALPHASECTORS_TOL")).parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, ValueError) as exc:  # typed library errors; PoleProximity arrives as a SolverError
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
