import json

import pytest

from alphasectors.cli import (
    DEMO_NAMES,
    main,
    parse_spec_file,
    run_demo,
    spec_from_dict,
    spec_to_dict,
)
from alphasectors.functions import SeriesFunction, StructuredFunction


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
    ],
    ids=[
        "p-not-int", "a-not-float", "top-level-list", "q-re-string", "coeffs-re-string", "alpha-nan",
        "tail-tol-string", "N-list", "coeffs-not-list", "solve-radius-inf", "verify-radius-inf",
        "census-rin-zero", "census-rin-above-rout", "census-rin-nan", "census-rout-inf", "census-inconclusive",
    ],
)
def test_malformed_input_is_a_system_exit_naming_the_field(tmp_path, payload, args, field):
    spec_path = write_spec(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--spec", spec_path, *args[1:]])
    assert field in str(exc.value)


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
