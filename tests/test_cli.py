import argparse
import cmath
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    build_parser,
    emit_results,
    main,
    parse_spec_file,
    run_demo,
    spec_from_dict,
    spec_to_dict,
)
from alphasectors.functions import SeriesFunction, StructuredFunction
from alphasectors.qseries import disturbed_exp_coeffs, partial_theta_coeffs
from alphasectors.solver import DEFAULT_TOL, alpha_points, truncate_series
from alphasectors.winding import sector_census


def write_spec(tmp_path, payload, name="spec.json"):
    """payload as JSON, or a str payload as the file's text as it stands."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
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


def _true_double_alpha() -> complex:
    """alpha at which fig3's two on-ray points collide into a double: the peak of F(iy) / i."""
    import mpmath as mp

    with mp.workdps(40):
        g = lambda y: y * (3 - y * y) / ((1 + y * y) * (5 + y * y))
        return complex(0, float(g(mp.findroot(lambda y: mp.diff(g, y), mp.mpf("0.65")))))


@pytest.mark.parametrize(
    "payload, alpha",
    [
        (FIG1_JSON, -1 - 1j),
        (FIG1_JSON, 1 + 0j),  # real-power: points on the rays, with boundary true
        ({"type": "rational", "p": 1, "k": 2, "a": [3], "b": [1, 5]}, _true_double_alpha()),
    ],
    ids=["fig1-generic", "fig1-real", "fig3-double"],
)
def test_csv_rows_carry_each_point_field_by_field(tmp_path, payload, alpha):
    spec_path = write_spec(tmp_path, payload)
    csv_path = tmp_path / "points.csv"
    assert main(["solve", "--spec", spec_path, f"--alpha={alpha!r}", "--radius", "10", "--csv", str(csv_path)]) == 0
    points = alpha_points(spec_from_dict(payload), alpha, 10.0, tol=DEFAULT_TOL)
    assert points
    rows = [
        f"{i},{pt.value.real:.17g},{pt.value.imag:.17g},{pt.modulus:.17g},{pt.sector.s},"
        f"{str(pt.boundary).lower()},{pt.multiplicity},{pt.residual:.17g}"
        for i, pt in enumerate(points)
    ]
    header = "index,re,im,modulus,sector,boundary,multiplicity,residual"
    assert csv_path.read_text() == "".join(line + "\n" for line in [header, *rows])
    if alpha.imag == 0:
        assert any(pt.boundary for pt in points)
    if payload is not FIG1_JSON:
        assert points[0].multiplicity == 2


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
        (FIG1_JSON, census_args(alpha="1e30"), "slice Q0, edge ray 0"),
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
        # the zeros of G lie on the rays the census integrates along: refused as solve refuses it, not as --rout
        (FIG1_JSON, census_args(rin="0.01", rout="10", alpha="0"), "error: alpha must be nonzero for structured specs"),
        (FIG1_JSON, [*solve_args(), "--tol", "0"], "error: --tol"),
        (FIG1_JSON, [*solve_args(command="verify"), "--tol=-1"], "error: --tol"),
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
        # an integer field takes a JSON integer, not a fraction, a bool or a string that int() would accept
        *[
            ({"type": "rational", "p": 1, "k": 3, "a": [1], "b": [2], name: value}, solve_args(), f"field {name!r}")
            for name, value in (("p", 1.5), ("k", 3.7), ("p", True), ("k", "3"))
        ],
        ({**THETA_JSON, "N": 40.5}, solve_args("0"), "field 'N'"),
        # a number field takes a JSON number, not a bool or a string that float() would accept
        *[
            ({"type": "rational", "p": 1, "k": 3, "a": [1], "b": [2], name: value}, solve_args(), f"field {name!r}")
            for name, value in (("a", ["2"]), ("b", [True]), ("c", [False]), ("d", ["1"]), ("A", True), ("A0", "0"))
        ],
        ({"type": "series", "coeffs": [1, True, 2], "trust_radius": 1}, solve_args("0"), "field coeffs[1]"),
        ({**THETA_JSON, "q": {"re": 0, "im": True}}, solve_args("0"), "field q"),
        # flag values that do not parse
        (FIG1_JSON, solve_args("abc"), "error: --alpha: cannot parse complex number 'abc'"),
        (FIG1_JSON, [*solve_args(), "--tol", "abc"], "error: --tol: cannot parse tolerance 'abc'"),
        (FIG1_JSON, solve_args(radius="abc"), "error: --radius: cannot parse radius 'abc'"),
        # spec files that name no function
        ('{"type": "rational",', solve_args(), "invalid JSON at line 1"),
        ({"type": "rational", "k": 3, "a": [1]}, solve_args(), "missing required field 'p'"),
        ({"type": "rational", "p": 1, "k": 3, "a": 1}, solve_args(), "field 'a' must be a list"),
        ({"type": "series"}, solve_args("0"), "series spec needs 'family' or 'coeffs'"),
        ({"p": 1, "k": 3, "a": [1]}, solve_args(), "field 'type' must be 'rational' or 'series'"),
        ({"type": "polynomial", "p": 1, "k": 3, "a": [1]}, solve_args(), "field 'type' must be 'rational' or 'series'"),
        # family specs out of range
        ({**THETA_JSON, "family": "theta"}, solve_args("0"), "unknown family 'theta'"),
        ({**THETA_JSON, "q": 1.5}, solve_args("0"), "|q| must lie in (0, 1]"),
        ({**THETA_JSON, "N": 0}, solve_args("0"), "N must be >= 1"),
        ({**THETA_JSON, "tail_tol": 0}, solve_args("0"), "tail_tol must be positive"),
        # a flag or command that does not apply to the spec
        (FIG1_JSON, solve_args(radius="trust"), "error: --radius trust is only meaningful for series specs"),
        (THETA_JSON, ["predict", "--alpha=0"], "error: predict requires a rational spec"),
        (THETA_JSON, solve_args("0", command="verify"), "error: verify works on rational specs"),
        (FIG1_JSON, [*solve_args("-1-1i", radius="10", command="verify"), "--theorem", "k2"],
         "error: --theorem k2 requires k = 2"),
        (THETA_JSON, census_args(rin="0", rout="1e6", alpha="0"),
         "error: --rout: region exceeds the certified trust radius"),
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
        "census-tol-nan", "census-alpha-zero", "solve-tol-zero", "verify-tol-negative",
        "a-mixed-scale-solve", "a-mixed-scale-census", "a-mixed-scale-predict",
        "verify-main-real-alpha", "verify-main2-generic-alpha", "solve-trust-radius-zero",
        "predict-k-beyond-angle-tol",
        "p-fraction", "k-fraction", "p-bool", "k-string", "N-fraction",
        "a-string", "b-bool", "c-bool", "d-string", "A-bool", "A0-string", "coeffs-bool", "q-im-bool",
        "alpha-unparsed", "tol-unparsed", "radius-unparsed",
        "invalid-json", "p-missing", "a-not-list", "series-empty", "type-missing", "type-unknown",
        "family-unknown", "q-beyond-unit", "N-zero", "tail-tol-zero",
        "radius-trust-rational", "predict-series", "verify-series", "verify-k2-at-k3", "census-rout-beyond-trust",
    ],
)
def test_malformed_input_is_a_system_exit_naming_the_field(tmp_path, payload, args, field):
    spec_path = write_spec(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--spec", spec_path, *args[1:]])
    assert field in str(exc.value)


@pytest.mark.parametrize(
    "command, flag",
    [("predict", flag) for flag in ("--tol", "--csv", "--json", "--svg")]
    + [("census", flag) for flag in ("--csv", "--json", "--svg")],
)
def test_a_flag_the_command_would_not_read_is_refused(tmp_path, capsys, command, flag):
    spec_path = write_spec(tmp_path, FIG1_JSON)
    out = tmp_path / "out"
    argv = [command, "--spec", spec_path, "--alpha=-1-1i", flag, "1e-9" if flag == "--tol" else str(out)]
    if command == "census":
        argv += ["--rin", "0.01", "--rout", "10"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def _recording_namespace(read: set) -> argparse.Namespace:
    """A namespace that adds the name of every attribute read from it to read."""

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    return Recording()


@pytest.mark.parametrize(
    "argv",
    [
        "solve --spec {spec} --alpha=-1-1i --radius 10 --tol 1e-9 --csv {out}.csv --json {out}.json --svg {out}.svg",
        "predict --spec {spec} --alpha=-1-1i",
        "verify --spec {spec} --alpha=-1-1i --radius 10 --theorem main --tol 1e-9"
        " --csv {out}.csv --json {out}.json --svg {out}.svg",
        "census --spec {spec} --alpha=-1-1i --rin 0.01 --rout 10 --tol 1e-9",
        "demo fig2a --outdir {out} --tol 1e-9",
    ],
    ids=lambda argv: argv.split()[0],
)
def test_every_flag_is_read_by_its_command(tmp_path, capsys, argv):
    argv = argv.format(spec=write_spec(tmp_path, FIG1_JSON), out=tmp_path / "out").split()
    read = set()
    args = build_parser().parse_args(argv, namespace=_recording_namespace(read))
    read.clear()
    assert args.func(args) == 0
    assert set(vars(args)) - {"command", "func"} <= read


def test_every_traced_boundary_resolves_to_a_callable():
    # the benchmark's traced run wraps each (module, attribute) of
    # perfbench/spans.py by name; read the file without importing it as a
    # module, so that nothing is written beside it
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    namespace = {"__name__": "spans"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    boundaries = namespace["_BOUNDARIES"]
    assert len(boundaries) > 10
    for module, attr, *_ in boundaries:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)


@pytest.mark.parametrize(
    "payload, alpha, radius",
    [
        # the alpha-polynomial of a = (1e308, 1e308) has infinite coefficients
        ({"type": "rational", "p": 1, "k": 2, "a": [1e308, 1e308]}, "1", "1"),
        # alpha times the b factors overflows: no numpy warning is printed before the error
        (FIG1_JSON, "1e308+1e308i", "10"),
    ],
    ids=["factor-product", "alpha"],
)
def test_overflowing_spec_ends_in_one_error_line(tmp_path, payload, alpha, radius):
    spec_path = write_spec(tmp_path, payload)
    src = os.path.dirname(os.path.dirname(alphasectors.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "alphasectors.cli", "solve", "--spec", spec_path, f"--alpha={alpha}", "--radius", radius],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not a finite number" in lines[0]


@pytest.mark.parametrize(
    "a, args, normalized",
    [
        (1e-100, ["predict", "--alpha=-1e9"], "(-inf+0j)"),
        (1e-100, ["predict", "--alpha=1e9"], "(inf+0j)"),
        (1e-100, ["verify", "--theorem", "first", "--alpha=-1e9", "--radius", "10"], "(-inf+0j)"),
        (1e100, ["predict", "--alpha=1e-30"], "0j"),
    ],
    ids=["predict-negative", "predict-positive", "verify-first", "predict-underflow"],
)
def test_alpha_out_of_range_of_the_normalization_ends_in_one_error_line(tmp_path, a, args, normalized):
    # the normalization constant is a^3: alpha over 1e-300 overflows, and over 1e300 underflows
    spec_path = write_spec(tmp_path, {"type": "rational", "p": 1, "k": 3, "a": [a, a, a]})
    src = os.path.dirname(os.path.dirname(alphasectors.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "alphasectors.cli", args[0], "--spec", spec_path, *args[1:]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: alpha over the normalization constant is {normalized}, not a finite nonzero number"
    ]


# specs whose alpha-points at an extreme alpha have z^k or z^p beyond double range
EXTREME_ALPHA_SPECS = {
    "r13": {"type": "rational", "p": 1, "k": 3, "a": [1], "b": [2]},
    "fig1": FIG1_JSON,
    "cd": {"type": "rational", "p": 1, "k": 2, "a": [1], "b": [2], "c": [3], "d": [0.5]},
    "p2cd": {"type": "rational", "p": 2, "k": 3, "c": [1e-3], "d": [2]},
}


def _run_quietly(argv):
    """main(argv) with its stdout and stderr captured: its return value, or the SystemExit it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "name, alpha",
    [("r13", "1e150"), ("r13", "1e300"), ("r13", "-1e120"), ("fig1", "1e300"), ("cd", "1e-300"), ("p2cd", "1e-300"), ("p2cd", "1e300")],
)
def test_alpha_point_beyond_double_range_ends_in_one_error_line(tmp_path, command, name, alpha):
    # z^3 overflows, or z^k underflows to 0 under a d factor's 1 / z^k: the point is named, no traceback
    spec_path = write_spec(tmp_path, EXTREME_ALPHA_SPECS[name])
    got = _run_quietly([command, "--spec", spec_path, f"--alpha={alpha}", "--radius", "1e305"])
    assert isinstance(got, SystemExit)
    text = str(got.code)
    assert text.startswith("error: alpha-point candidate ") and text.endswith("lies beyond double range"), text
    assert "\n" not in text


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(sorted(EXTREME_ALPHA_SPECS)),
    command=st.sampled_from(["solve", "verify"]),
    sign=st.sampled_from([1, -1]),
    exponent=st.integers(-300, 300),
)
def test_alpha_magnitude_fuzz_ends_in_a_status_or_one_error_line(tmp_path_factory, name, command, sign, exponent):
    spec_path = write_spec(tmp_path_factory.mktemp("spec"), EXTREME_ALPHA_SPECS[name])
    got = _run_quietly([command, "--spec", spec_path, f"--alpha={sign}e{exponent}", "--radius", "1e305"])
    if isinstance(got, SystemExit):
        assert str(got.code).startswith("error:") and "\n" not in str(got.code), got.code
    else:
        assert got in (0, 1)


def test_census_below_rounding_tolerance_finishes(tmp_path):
    # tol / 2^d under a panel's rounding noise is met at no depth; a panel
    # whose halves agree with it to rounding is accepted, where every panel
    # was split down to depth 24 and the command never ended
    spec_path = write_spec(tmp_path, FIG1_JSON)
    src = os.path.dirname(os.path.dirname(alphasectors.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "alphasectors.cli", "census", "--spec", spec_path, "--alpha=-1-1i",
         "--rin", "0.01", "--rout", "10", "--tol", "1e-300"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["Q0,1", "Q1,2", "Q2,2", "Q3,1", "Q4,2", "Q5,1", "total,9"]


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


def test_verify_exit_one_on_failed_report(tmp_path, monkeypatch):
    import alphasectors.cli as cli
    from alphasectors.checks import VerificationReport, Violation

    def broken(points, alpha, spec, **kw):
        return VerificationReport("stub", False, 1, (Violation("stub", (0,)),))

    monkeypatch.setattr(cli, "verify_generic_interlacing", broken)
    spec_path = write_spec(tmp_path, FIG1_JSON)
    rc = cli.main(["verify", "--spec", spec_path, "--alpha=-1-1i", "--radius", "10", "--theorem", "main"])
    assert rc == 1


def test_failed_verify_writes_each_violation_to_json(tmp_path, monkeypatch, capsys):
    import alphasectors.cli as cli
    from alphasectors.functions import AlphaPoint
    from alphasectors.sectors import classify_sector

    # a point on ray 0, where the interlacing theorem puts none
    on_ray = AlphaPoint(1 + 0j, 1.0, *classify_sector(1 + 0j, 3), 1, 0.0)
    monkeypatch.setattr(cli, "alpha_points", lambda spec, alpha, radius, tol: [on_ray])
    spec_path = write_spec(tmp_path, FIG1_JSON)
    report = tmp_path / "report.json"
    rc = main(["verify", "--spec", spec_path, "--alpha=-1-1i", "--radius", "10", "--json", str(report)])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[1] == "  violation: off-boundary at (0,) [(1+0j)]"
    (written,) = json.loads(report.read_text())["reports"]
    assert written["passed"] is False
    assert written["violations"] == [{"predicate": "off-boundary", "indices": [0], "values": ["(1+0j)"]}]


def test_demo_fig1_reports_a_census_mismatch(tmp_path, monkeypatch, capsys):
    import alphasectors.cli as cli

    counts = sector_census(cli.FIG1_SPEC, -1 - 1j, 0.01, 10.0)
    monkeypatch.setattr(cli, "sector_census", lambda *args, **kwargs: [0] * 6)
    assert run_demo("fig1", str(tmp_path)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "fig1: winding census: FAILED (1 checks)",
        f"  violation: census-mismatch at () [{[0] * 6}, {counts}]",
    ]
    census = json.loads((tmp_path / "fig1_report.json").read_text())["reports"][-1]
    assert census["theorem"] == "winding census" and census["passed"] is False
    assert census["violations"] == [{"predicate": "census-mismatch", "indices": [], "values": [str([0] * 6), str(counts)]}]


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
    tol = DEFAULT_TOL if tol is None else tol
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


# The modulus, sector, boundary, multiplicity and residual columns of the
# q-series demo tables, as the solve printed them with a plain Newton pass on
# Aberth's iterates and its compensated polish at stride 1.  Dropping the
# plain pass and polishing dense input at stride 3 (solver._POLYPHASE) each
# moved a root's tiny component in its last bits, never these.
DEMO_GOLDEN_COLUMNS = {
    "theta": """\
0.70061517100754322,2,false,1,5.6375908720829021e-18
1.2778796838723314,1,false,1,2.4301958299798154e-16
2.0288167828292578,3,false,1,1.94550633471565e-16
2.9270003757871086,3,false,1,2.4777910297044258e-15
4.1699334140439781,1,false,1,1.7702045075830429e-14
5.9506790126317304,0,false,1,4.4200601866757565e-14
8.4998944368767013,0,false,1,3.6221070048994536e-13
12.142653436824073,2,false,1,3.1119806563983295e-12
17.346652122920204,2,false,1,3.5880302296866976e-11
24.780932205369446,1,true,1,8.9507934092891828e-10
35.401331746216847,0,true,1,7.7340398081149731e-08
50.573331066310324,3,true,1,2.2142853623435711e-06
72.247615809009034,2,true,1,0.00017232618613778787
103.2108797271557,1,true,1,0.0038184618722690048
147.44411389593688,0,true,1,2.6024234233090855
210.6344484227653,3,true,1,322.19172260775622
300.90635488966865,2,true,1,349986.44445963448
429.8662212709516,1,true,1,99093918.683490172
614.09460181564441,0,true,1,123386792711.27112
877.27800259378296,3,true,1,87241289092304.297
1253.2542894196861,2,true,1,65215355602946992
1790.3632705995515,1,true,1,2.5167417393261969e+20
2557.6618151422172,0,true,1,2.3464616063272162e+22
3653.8025930603139,3,true,1,1.04992414870984e+27
5219.717990086162,2,true,1,6.2730585564588209e+29
7456.7399858373301,1,true,1,1.5149893560159746e+34
10652.485694053443,0,true,1,2.4361798727542042e+38
15217.836705790602,3,true,1,2.7544884032682563e+42
21739.766722557742,2,true,1,4.0083718510999909e+47
31056.809603654518,1,true,1,6.0640117766633311e+51
44366.870862362783,0,true,1,1.513866268829679e+56
63381.244089090011,3,true,1,8.9420524480755177e+60
90544.634412987172,2,true,1,7.6860115020752568e+65
129349.47773283669,1,true,1,1.4781917003760869e+71
184784.96818976407,0,true,1,3.7638310218017901e+76
263978.52598539024,3,true,1,7.0726977672630953e+81
377112.17997910903,2,true,1,4.0184086623351203e+87
538731.68568444846,1,true,1,2.5703456850016463e+93
769616.69383496081,0,true,1,6.8340103345966601e+98
1099452.4197641532,3,true,1,1.7470512088194279e+105
1570646.3139488681,2,true,1,3.2760274919736104e+111
2243780.4484983184,1,true,1,7.1704709085680803e+117
3205400.6407119599,0,true,1,1.7950472809439438e+124
4579143.7724456331,3,true,1,2.7565694741589737e+130
6541633.9606365254,2,true,1,1.0814329716077066e+138
9345191.3723379001,1,true,1,5.9860176422854283e+144
13350273.389054662,0,true,1,6.0682117145748591e+151
19071819.127219457,3,true,1,9.0668060569730799e+158
27245455.896030299,2,true,1,1.6692916847666342e+166
38922079.851468995,1,true,1,1.8582197145723127e+174
55602971.21638754,0,true,1,2.0401109702819992e+181
79432816.023406461,3,true,1,4.9990124768180787e+189
113475451.46200237,2,true,1,3.4409721222319336e+197
162107787.80377871,1,true,1,5.3074885652823554e+205
""",
    "dexp": """\
0.78089971817756554,2,false,1,5.5961174570817204e-17
1.6751353912727454,1,false,1,2.4437788239560291e-16
2.7776915589275513,3,false,1,3.354061867452921e-16
3.8875365909030397,2,false,1,1.9557469230064125e-15
4.9982449157813864,2,false,1,5.3041171819833498e-15
6.1089640646839465,1,false,1,2.2765662090528105e-14
7.2196847774729402,3,false,1,1.3792035184548479e-14
8.3304055090918219,2,false,1,2.1354808114378233e-13
9.4411262435923557,2,false,1,1.0351818876151111e-12
10.551846978121464,1,false,1,9.8208333546990844e-13
""",
}


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN_COLUMNS))
def test_qseries_demo_columns_match_the_golden_rows(tmp_path, capsys, name):
    assert run_demo(name, str(tmp_path)) == 0
    capsys.readouterr()
    rows = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert rows[0].split(",", 3)[3] == "modulus,sector,boundary,multiplicity,residual"
    assert [row.split(",", 3)[3] for row in rows[1:]] == DEMO_GOLDEN_COLUMNS[name].splitlines()
