import cmath
import json
import math
import os
import subprocess
import sys

import pytest

import alphasectors
from alphasectors.checks import (
    VerificationReport,
    Violation,
    normalized_alpha,
    points_census,
    predict_first_location,
    verify_first_location,
    verify_generic_interlacing,
    verify_k2_distribution,
    verify_real_power_case,
)
from alphasectors.cli import (
    DEMO_NAMES,
    _default_tol,
    emit_results,
    main,
    parse_spec_file,
    run_demo,
    spec_from_dict,
    spec_to_dict,
)
from alphasectors.functions import SeriesFunction, StructuredFunction, truncate_series
from alphasectors.qseries import disturbed_exp_coeffs, partial_theta_coeffs
from alphasectors.solver import alpha_points
from alphasectors.winding import sector_census


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FIG1_JSON = {"type": "rational", "p": -1, "k": 3, "a": [0.1, 1, 4], "b": [1, 5]}


def test_parse_rational_spec(tmp_path):
    spec = parse_spec_file(write_spec(tmp_path, FIG1_JSON))
    assert isinstance(spec, StructuredFunction)
    assert (spec.p, spec.k, spec.a, spec.b) == (-1, 3, (0.1, 1.0, 4.0), (1.0, 5.0))


def test_parse_series_family_spec(tmp_path):
    payload = {"type": "series", "family": "partial-theta", "q": {"re": 0, "im": 0.7}, "N": 16}
    spec = parse_spec_file(write_spec(tmp_path, payload))
    assert isinstance(spec, SeriesFunction)
    assert spec.degree == 16
    assert spec.trust_radius > 0


def test_parse_rejects_noncoprime(tmp_path):
    payload = {"type": "rational", "p": 2, "k": 4, "a": [1], "b": []}
    with pytest.raises(SystemExit) as exc:
        parse_spec_file(write_spec(tmp_path, payload))
    assert "coprime" in str(exc.value)


def test_parse_rejects_nonpositive_parameter(tmp_path):
    payload = {"type": "rational", "p": 1, "k": 2, "a": [-1.0], "b": []}
    with pytest.raises(SystemExit) as exc:
        parse_spec_file(write_spec(tmp_path, payload))
    assert "positive" in str(exc.value)


def test_parse_missing_file():
    with pytest.raises(SystemExit):
        parse_spec_file("/nonexistent/path.json")


def test_round_trip_serialization():
    spec = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))
    assert spec_from_dict(spec_to_dict(spec)) == spec
    series = SeriesFunction((1.0, 0.5 + 0.25j, 0.125), trust_radius=1.5)
    assert spec_from_dict(spec_to_dict(series)) == series


def test_solve_writes_sorted_csv(tmp_path):
    spec_path = write_spec(tmp_path, FIG1_JSON)
    csv_path = tmp_path / "out.csv"
    rc = main(["solve", "--spec", spec_path, "--alpha=-1-1i", "--radius", "10", "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,re,im,modulus,sector,boundary,multiplicity,residual"
    assert len(lines) == 10
    mods = [float(line.split(",")[3]) for line in lines[1:]]
    assert mods == sorted(mods)
    assert all(mods[i] < mods[i + 1] for i in range(len(mods) - 1))


def test_solve_empty_result_header_only(tmp_path):
    payload = {"type": "rational", "p": 1, "k": 2, "a": [1], "b": [5]}
    spec_path = write_spec(tmp_path, payload)
    csv_path = tmp_path / "empty.csv"
    rc = main(["solve", "--spec", spec_path, "--alpha", "10", "--radius", "0.5", "--csv", str(csv_path)])
    assert rc == 0
    assert csv_path.read_text().strip() == "index,re,im,modulus,sector,boundary,multiplicity,residual"


def solve_args(alpha="1", radius="2", command="solve"):
    return [command, f"--alpha={alpha}", "--radius", radius]


def census_args(rin="0.5", rout="2", alpha="-1-1i"):
    return ["census", f"--alpha={alpha}", "--rin", rin, "--rout", rout]


THETA_JSON = {"type": "series", "family": "partial-theta", "q": {"re": 0, "im": 0.7}, "N": 16}
# factor products beyond double range: prod(a) underflows to 0, or overflows to inf
UNDERFLOW_JSON = {"type": "rational", "p": 1, "k": 2, "a": [1e-200, 1e-200]}
OVERFLOW_AB_JSON = {"type": "rational", "p": 1, "k": 2, "a": [1e200, 1e200], "b": [1e200, 1e200]}
OVERFLOW_JSON = {"type": "rational", "p": 1, "k": 2, "a": [1e308, 1e308]}
# product 1, but the symmetric sum e_2 of the entries overflows
MIXED_SCALE_JSON = {"type": "rational", "p": 1, "k": 2, "a": [1e300, 1e-300, 1e300, 1e-300]}


@pytest.mark.parametrize(
    "payload, args, field",
    [
        ({"type": "rational", "p": "x", "k": 3, "a": [1]}, solve_args(), "field 'p'"),
        ({"type": "rational", "p": 1, "k": 3, "a": ["q"]}, solve_args(), "field 'a'"),
        ([FIG1_JSON], solve_args(), "JSON object"),
        ({**THETA_JSON, "q": {"re": "nan"}}, solve_args("0"), "field q"),
        ({"type": "series", "coeffs": [1, {"re": "nan"}], "trust_radius": 1}, solve_args("0"), "field coeffs[1]"),
        (FIG1_JSON, solve_args("nan"), "--alpha"),
        ({**THETA_JSON, "tail_tol": "x"}, solve_args("0"), "field 'tail_tol'"),
        ({**THETA_JSON, "N": [1]}, solve_args("0"), "field 'N'"),
        ({"type": "series", "coeffs": 5, "trust_radius": 1}, solve_args("0"), "field 'coeffs'"),
        (FIG1_JSON, solve_args(radius="inf"), "--radius"),
        (FIG1_JSON, solve_args(radius="inf", command="verify"), "--radius"),
        (FIG1_JSON, census_args(rin="0"), "--rin"),
        (FIG1_JSON, census_args(rin="2", rout="1"), "--rin"),
        (FIG1_JSON, census_args(rin="nan"), "--rin"),
        (FIG1_JSON, census_args(rout="inf"), "--rout"),
        (FIG1_JSON, census_args(alpha="1e30"), "slice Q0, edge detour r=1 on ray 0"),
        ({"type": "series", "coeffs": [1, {"re": math.nan}], "trust_radius": 1}, solve_args("0"), "field coeffs[1]"),
        ({"type": "series", "coeffs": [1, {"re": math.inf}], "trust_radius": 1}, solve_args("1"), "field coeffs[1]"),
        ({"type": "series", "coeffs": [1, 2, -math.inf], "trust_radius": 1}, solve_args("0"), "field coeffs[2]"),
        ({"type": "series", "coeffs": [1, {"im": 10**400}], "trust_radius": 1}, solve_args("0"), "field coeffs[1]"),
        ({"type": "series", "coeffs": [1, 2], "trust_radius": math.nan}, solve_args("0"), "trust_radius"),
        ({"type": "series", "coeffs": [1, 2, 1.5], "trust_radius": math.inf}, solve_args("0", radius="trust"),
         "trust_radius must be a nonnegative finite number"),
        ({**THETA_JSON, "q": {"re": 0, "im": math.nan}}, solve_args("0"), "field q"),
        (FIG1_JSON, solve_args("0", radius="1"), "alpha must be nonzero"),
        (FIG1_JSON, ["predict", "--alpha=0"], "alpha must be nonzero"),
        ({**THETA_JSON, "q": 0.9, "N": 80}, solve_args("0", radius="trust"), "did not converge"),
        ({"type": "rational", "p": 1, "k": 2, "a": [1], "A": math.nan}, solve_args(radius="1"), "field 'A'"),
        ({"type": "rational", "p": 1, "k": 2, "a": [1], "A0": math.inf}, solve_args(radius="1"), "field 'A0'"),
        *[
            (payload, args, "field 'a'")
            for payload in (UNDERFLOW_JSON, OVERFLOW_AB_JSON, OVERFLOW_JSON)
            for args in (solve_args(radius="1"), ["predict", "--alpha=1"], census_args(alpha="1"))
        ],
        (FIG1_JSON, [*census_args(rin="0.01", rout="10"), "--tol", "nan"], "error: --tol"),
        (FIG1_JSON, [*solve_args(), "--tol", "0"], "error: --tol"),
        (FIG1_JSON, [*solve_args(command="verify"), "--tol=-1"], "error: --tol"),
        (FIG1_JSON, ["ALPHASECTORS_TOL=abc", *solve_args()], "error: ALPHASECTORS_TOL"),
        (MIXED_SCALE_JSON, solve_args(radius="1"), "field 'a'"),
        (MIXED_SCALE_JSON, census_args(alpha="1"), "field 'a'"),
        (MIXED_SCALE_JSON, ["predict", "--alpha=1"], "field 'a'"),
        (FIG1_JSON, [*solve_args(radius="10", command="verify"), "--theorem", "main"],
         "error: --theorem main: Im alpha^k = 0; use --theorem main2 or auto"),
        (FIG1_JSON, [*solve_args("-1-1i", radius="10", command="verify"), "--theorem", "main2"],
         "error: --theorem main2: Im alpha^k != 0; use --theorem main or auto"),
        ({**THETA_JSON, "q": {"re": 0, "im": 1}, "N": 20}, solve_args("0", radius="trust"),
         "error: --radius trust: the certified trust radius is 0"),
        # sector rays pi/k apart no farther than 4 angle tolerances: the error names k, not the tolerance
        ({"type": "rational", "p": 1, "k": 10**9, "a": [1]}, ["predict", "--alpha=0.3+0.2i"],
         "k must be below 785398163.4"),
    ],
    ids=[
        "p-not-int", "a-not-float", "top-level-list", "q-re-string", "coeffs-re-string", "alpha-nan",
        "tail-tol-string", "N-list", "coeffs-not-list", "solve-radius-inf", "verify-radius-inf",
        "census-rin-zero", "census-rin-above-rout", "census-rin-nan", "census-rout-inf", "census-inconclusive",
        "coeffs-re-nan", "coeffs-re-inf", "coeffs-minus-inf", "coeffs-huge-int", "trust-radius-nan",
        "trust-radius-inf", "q-im-nan", "solve-alpha-zero", "predict-alpha-zero", "theta-unconverged", "A-nan",
        "A0-inf",
        *[f"{spec}-{command}" for spec in ("a-underflow", "ab-overflow", "a-overflow")
          for command in ("solve", "predict", "census")],
        "census-tol-nan", "solve-tol-zero", "verify-tol-negative", "env-tol-string",
        "a-mixed-scale-solve", "a-mixed-scale-census", "a-mixed-scale-predict",
        "verify-main-real-alpha", "verify-main2-generic-alpha", "solve-trust-radius-zero",
        "predict-k-beyond-angle-tol",
    ],
)
def test_malformed_input_is_a_system_exit_naming_the_field(tmp_path, monkeypatch, payload, args, field):
    # leading NAME=value entries set the environment, as on a shell command line
    while "=" in args[0] and not args[0].startswith("-"):
        monkeypatch.setenv(*args[0].split("=", 1))
        args = args[1:]
    spec_path = write_spec(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--spec", spec_path, *args[1:]])
    assert field in str(exc.value)


def test_overflowing_spec_ends_in_one_error_line(tmp_path):
    # the alpha-polynomial of a = (1e308, 1e308) has infinite coefficients
    spec_path = write_spec(tmp_path, {"type": "rational", "p": 1, "k": 2, "a": [1e308, 1e308]})
    src = os.path.dirname(os.path.dirname(alphasectors.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "alphasectors.cli", "solve", "--spec", spec_path, "--alpha", "1", "--radius", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not a finite number" in lines[0]


def test_verify_exit_status_and_report(tmp_path):
    spec_path = write_spec(tmp_path, FIG1_JSON)
    report = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--spec", spec_path,
            "--alpha=-1-1i",
            "--radius", "10",
            "--theorem", "main",
            "--json", str(report),
        ]
    )
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["reports"][0]["passed"] is True
    assert payload["reports"][0]["checks_run"] > 0


def test_census_command(tmp_path, capsys):
    spec_path = write_spec(tmp_path, FIG1_JSON)
    rc = main(["census", "--spec", spec_path, "--alpha=-1-1i", "--rin", "0.01", "--rout", "10"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "total,9"


def test_census_of_a_series_may_start_at_the_origin(tmp_path, capsys):
    spec_path = write_spec(tmp_path, THETA_JSON)
    rc = main(["census", "--spec", spec_path, "--alpha=0", "--rin", "0", "--rout", "1.5"])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "total,2"


def test_predict_command(tmp_path, capsys):
    payload = {"type": "rational", "p": 1, "k": 3, "a": [1, 3, 4], "b": [1, 5]}
    spec_path = write_spec(tmp_path, payload)
    rc = main(["predict", "--spec", spec_path, "--alpha", "1i"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "interior-sector" and out["sectors"] == [1]


def test_demo_fig1_and_svg(tmp_path):
    rc = run_demo("fig1", str(tmp_path))
    assert rc == 0
    svg = (tmp_path / "fig1.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<circle") >= 9
    report = json.loads((tmp_path / "fig1_report.json").read_text())
    assert all(r["passed"] for r in report["reports"])


def test_demo_names_complete():
    assert set(DEMO_NAMES) == {"fig1", "fig2a", "fig2b", "fig3", "theta", "dexp"}


def test_unknown_demo_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run_demo("nope", str(tmp_path))


def test_env_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ALPHASECTORS_TOL", "1e-6")
    from alphasectors.cli import build_parser

    args = build_parser().parse_args(["solve", "--spec", "x.json", "--alpha", "1", "--radius", "1"])
    assert args.tol == 1e-6


def test_main_reuses_its_parser_with_unchanged_output(tmp_path, capsys):
    import alphasectors.cli as cli

    spec_path = write_spec(tmp_path, FIG1_JSON)
    runs = [
        ["census", "--spec", spec_path, "--alpha=-1-1i", "--rin", "0.5", "--rout", "2"],
        ["solve", "--spec", spec_path, "--alpha=-1-1i", "--radius", "2"],
        ["verify", "--spec", spec_path, "--alpha=-1-1i", "--radius", "2", "--theorem", "main"],
        ["census", "--spec", spec_path, "--alpha=1i", "--rin", "0.5", "--rout", "3", "--tol", "1e-8"],
    ]
    hits = cli._parser.cache_info().hits
    through_main = []
    for argv in runs:
        rc = main(argv)
        through_main.append((rc, capsys.readouterr().out))
    assert cli._parser.cache_info().hits - hits >= len(runs) - 1
    fresh = []
    for argv in runs:
        args = cli.build_parser().parse_args(argv)
        fresh.append((args.func(args), capsys.readouterr().out))
    assert through_main == fresh
    assert all(out for _, out in fresh)


def test_env_tolerance_reaches_the_command_between_main_calls(tmp_path, monkeypatch):
    import alphasectors.cli as cli

    seen = []

    def recording(spec, alpha, radius, tol):
        seen.append(tol)
        return []

    monkeypatch.setattr(cli, "alpha_points", recording)
    spec_path = write_spec(tmp_path, FIG1_JSON)
    argv = ["solve", "--spec", spec_path, "--alpha", "1", "--radius", "1"]
    for value in ("1e-6", "1e-7", "1e-6", None):
        if value is None:
            monkeypatch.delenv("ALPHASECTORS_TOL", raising=False)
        else:
            monkeypatch.setenv("ALPHASECTORS_TOL", value)
        assert main(argv) == 0
    assert seen == [1e-6, 1e-7, 1e-6, 1e-9]


def test_verify_exit_one_on_failed_report(tmp_path, monkeypatch):
    import alphasectors.cli as cli
    from alphasectors.checks import VerificationReport, Violation

    def broken(points, alpha, spec, **kw):
        return VerificationReport("stub", False, 1, (Violation("stub", (0,)),))

    monkeypatch.setattr(cli, "verify_generic_interlacing", broken)
    spec_path = write_spec(tmp_path, FIG1_JSON)
    rc = cli.main(["verify", "--spec", spec_path, "--alpha=-1-1i", "--radius", "10", "--theorem", "main"])
    assert rc == 1


def test_emit_unwritable_path_named(tmp_path):
    from alphasectors.cli import emit_results

    with pytest.raises(SystemExit) as exc:
        emit_results([], [], {"csv": str(tmp_path / "no" / "dir" / "x.csv")})
    assert "cannot write" in str(exc.value)


def test_solve_series_with_trust_radius(tmp_path):
    payload = {"type": "series", "family": "partial-theta", "q": {"re": 0, "im": 0.7}, "N": 24}
    spec_path = write_spec(tmp_path, payload)
    csv_path = tmp_path / "theta.csv"
    rc = main(["solve", "--spec", spec_path, "--alpha", "0", "--radius", "trust", "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) > 6


# ---------------------------------------------------------------------------
# The demo pipelines as they were before the figure demos became a table run
# through _verify_reports and the q-series demos became family specs, kept
# verbatim as the reference for the current run_demo.
# ---------------------------------------------------------------------------

FIG1_SPEC = StructuredFunction(p=-1, k=3, a=(0.1, 1.0, 4.0), b=(1.0, 5.0))
FIG2_A = StructuredFunction(p=1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG2_B = StructuredFunction(p=-1, k=3, a=(1.0, 3.0, 4.0), b=(1.0, 5.0))
FIG3_SPEC = StructuredFunction(p=1, k=2, a=(3.0,), b=(1.0, 5.0))


def _k2_args(spec: StructuredFunction):
    j = (spec.p - 1) // 2
    return j, 1 if spec.p > 0 else -1


def _demo_fig1(tol: float):
    alpha = -1 - 1j
    points = alpha_points(FIG1_SPEC, alpha, 10.0, tol=tol)
    reports = [verify_generic_interlacing(points, alpha, FIG1_SPEC)]
    counts = sector_census(FIG1_SPEC, alpha, 0.01, 10.0)
    solver_counts = points_census(points, 3, 0.01, 10.0)
    if counts != solver_counts:
        reports.append(
            VerificationReport(
                "winding census", False, 1,
                (Violation("census-mismatch", (), (counts, solver_counts)),),
            )
        )
    else:
        reports.append(VerificationReport("winding census", True, 1, (), (f"counts={counts}",)))
    return points, reports, FIG1_SPEC


def _demo_first_points(spec, tol: float):
    alphas = [cmath.exp(1j * math.pi / 3), cmath.exp(1j * math.pi / 2), cmath.exp(2j * math.pi / 3)]
    all_points = []
    reports = []
    for alpha in alphas:
        points = alpha_points(spec, alpha, 10.0, tol=tol)
        fc = predict_first_location(spec, alpha)
        rep = verify_first_location(points, fc, spec.k)
        reports.append(rep)
        all_points = points  # emit the last run's table
    return all_points, reports, spec


def _demo_fig3(tol: float):
    reports = []
    points_out = []
    for alpha in (1j, 0.2j):
        points = alpha_points(FIG3_SPEC, alpha, 10.0, tol=tol)
        reports.append(verify_real_power_case(points, alpha, FIG3_SPEC))
        j, sign = _k2_args(FIG3_SPEC)
        reports.append(
            verify_k2_distribution(points, normalized_alpha(FIG3_SPEC, alpha), j, sign)
        )
        points_out = points
    return points_out, reports, FIG3_SPEC


def _rotated_zero_points(series: SeriesFunction, radius: float, tol: float):
    """Zeros of the truncation, rotated by mu = exp(i pi/4) into theorem position."""
    from alphasectors.functions import AlphaPoint
    from alphasectors.sectors import classify_sector

    zeros = alpha_points(series, 0.0, radius, tol=tol, k=2)
    mu = cmath.exp(1j * math.pi / 4)
    rotated = []
    for pt in zeros:
        z = mu * pt.value
        sector, boundary = classify_sector(z, 2)
        rotated.append(AlphaPoint(z, abs(z), sector, boundary, pt.multiplicity, pt.residual))
    return zeros, rotated


def _demo_series(family: str, n_trunc: int, source, tol: float):
    src = SeriesFunction(tuple(source))
    series = truncate_series(src, n_trunc, 1e-9)
    radius = series.trust_radius
    zeros, rotated = _rotated_zero_points(series, radius, tol)
    alpha_rot = -cmath.exp(-1j * math.pi / 4)  # -conj(mu) * f1/f0 with f1 = f0 = 1
    rep = verify_k2_distribution(
        rotated,
        alpha_rot,
        j=-1,
        sign_of_p=-1,
        notes=(f"{family}: zeros rotated by exp(i pi/4); trust radius {radius:.6g}",),
    )
    return zeros, [rep], series


def reference_run_demo(name: str, outdir: str = ".", tol: float | None = None) -> int:
    """Execute a bundled fixture end to end; nonzero exit on any failure."""
    tol = _default_tol() if tol is None else tol
    if name == "fig1":
        points, reports, spec = _demo_fig1(tol)
    elif name == "fig2a":
        points, reports, spec = _demo_first_points(FIG2_A, tol)
    elif name == "fig2b":
        points, reports, spec = _demo_first_points(FIG2_B, tol)
    elif name == "fig3":
        points, reports, spec = _demo_fig3(tol)
    elif name == "theta":
        points, reports, spec = _demo_series("partial-theta", 64, partial_theta_coeffs(0.7j, 74), tol)
    elif name == "dexp":
        points, reports, spec = _demo_series("disturbed-exp", 40, disturbed_exp_coeffs(1j, 50), tol)
    else:
        raise SystemExit(f"error: unknown demo {name!r}; choose from {DEMO_NAMES}")
    os.makedirs(outdir, exist_ok=True)
    config = {
        "csv": os.path.join(outdir, f"{name}.csv"),
        "json": os.path.join(outdir, f"{name}_report.json"),
        "svg": os.path.join(outdir, f"{name}.svg"),
        "spec": spec if isinstance(spec, StructuredFunction) else None,
        "k": spec.k if isinstance(spec, StructuredFunction) else 2,
    }
    emit_results(points, reports, config)
    ok = all(r.passed for r in reports)
    for r in reports:
        print(f"{name}: {r.theorem}: {'passed' if r.passed else 'FAILED'} ({r.checks_run} checks)")
        for v in r.violations:
            print(f"  violation: {v}")
    return 0 if ok else 1


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_matches_the_reference_pipeline(tmp_path, capsys, name):
    rc = run_demo(name, str(tmp_path / "demo"))
    out = capsys.readouterr().out
    assert (reference_run_demo(name, str(tmp_path / "reference")), capsys.readouterr().out) == (rc, out)
    for suffix in (".csv", "_report.json", ".svg"):
        artifact = name + suffix
        assert (tmp_path / "demo" / artifact).read_bytes() == (tmp_path / "reference" / artifact).read_bytes()
