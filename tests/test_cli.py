"""End-to-end exercises of the command-line interface, run in process."""

import io
import json
from fractions import Fraction

import pytest

from mvdyn.cli import run
from mvdyn.formula import parse_formula, evaluate, LUKASIEWICZ
from mvdyn.pwl import pwl_from_formula, pwl_from_json, pwl_equal

F = Fraction


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def capture_json(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# -- evaluation and decision commands -------------------------------------------------

def test_eval_json(capsys):
    payload = capture_json(capsys, ["eval", "--point", "1/4,1/2", "x0 -> x1"])
    assert payload == {"value": "1"}


def test_eval_text_and_logics(capsys):
    code, out, _ = capture(capsys, ["--format", "text", "eval", "--logic", "godel",
                                    "--point", "1/2", "!x0"])
    assert code == 0 and out.strip() == "0"
    payload = capture_json(capsys, ["eval", "--logic", "chain:3",
                                    "--point", "2/3", "x0 * x0"])
    assert payload == {"value": "1/3"}


def test_taut_tautology_and_countermodel(capsys):
    code, out, _ = capture(capsys, ["--format", "text", "taut", "!!x0 -> x0"])
    assert code == 0 and out.strip() == "Tautology"
    payload = capture_json(capsys, ["taut", "--logic", "chain:2", "x0 | !x0"])
    assert payload["status"] == "countermodel"
    assert payload["point"] == ["1/2"]
    code, out, _ = capture(capsys, ["--format", "text", "taut",
                                    "--logic", "chain:2", "x0 | !x0"])
    assert out.strip() == "Countermodel at (1/2)"


def test_taut_grid_unknown(capsys):
    code, out, _ = capture(capsys, ["--format", "text", "taut", "--logic", "product",
                                    "--method", "grid", "x0 -> (x0 * 1)"])
    assert code == 0 and out.strip() == "Unknown"


def test_identity_command(capsys):
    payload = capture_json(capsys, ["identity", "x0 & x1", "x1 & x0"])
    assert payload == {"status": "identity"}
    payload = capture_json(capsys, ["identity", "x0", "x0 (+) x0"])
    assert payload["status"] == "countermodel"


# -- geometry commands ------------------------------------------------------------------

def test_pwl_compile_and_integrate(capsys):
    payload = capture_json(capsys, ["pwl", "compile",
                                    "x0 (+) x0 & !x0 (+) !x0"])
    assert len(payload["cells"]) == 2
    payload = capture_json(capsys, ["pwl", "integrate",
                                    "!x0 | (x0 & !x0) (+) (x0 & !x0)"])
    assert payload == {"integral": "2/3"}
    payload = capture_json(capsys, ["pwl", "integrate", "--box", "0:1/4",
                                    "x0 (+) x0 & !x0 (+) !x0"])
    assert payload == {"integral": "1/16"}


def test_pwl_synthesize_round_trip(capsys, tmp_path):
    compiled = capture_json(capsys, ["pwl", "compile", "x0 (+) x0 & !x0 (+) !x0"])
    path = tmp_path / "tent.json"
    path.write_text(json.dumps(compiled), encoding="utf-8")
    payload = capture_json(capsys, ["pwl", "synthesize", str(path)])
    back = pwl_from_formula(parse_formula(payload["formula"]), 1)
    assert pwl_equal(back, pwl_from_json(compiled))


# -- dynamics commands ---------------------------------------------------------------------

def test_orbit_command(capsys):
    payload = capture_json(capsys, ["orbit", "--subst", "tent", "--start", "1/5"])
    assert payload["status"] == "cycle"
    assert payload["preperiod"] == 1 and payload["period"] == 2
    assert payload["points"] == [["1/5"], ["2/5"], ["4/5"], ["2/5"]]
    assert payload["denominators"] == [5, 5, 5, 5]


def test_orbit_truncation_via_max(capsys):
    payload = capture_json(capsys, ["orbit", "--subst", "tent",
                                    "--start", "1/5", "--max", "1"])
    assert payload["status"] == "truncated"


def test_subst_apply_and_compose(capsys):
    payload = capture_json(capsys, ["subst", "apply", "--subst", "flip", "x0"])
    assert payload == {"formula": "!x0"}
    payload = capture_json(capsys, ["subst", "compose",
                                    "--first", "flip", "--second", "flip"])
    g = parse_formula(payload["x0"])
    assert evaluate(g, LUKASIEWICZ, (F(1, 4),)) == F(1, 4)


def test_subst_explicit_assignments(capsys):
    payload = capture_json(capsys, ["subst", "apply",
                                    "--subst", "x0=x1;x1=x0", "x0 -> x1"])
    assert payload == {"formula": "x1 -> x0"}


def test_subst_reach(capsys):
    payload = capture_json(capsys, ["subst", "reach",
                                    "--source", "1/3", "--target", "2/3"])
    g = parse_formula(payload["x0"])
    assert evaluate(g, LUKASIEWICZ, (F(1, 3),)) == F(2, 3)


def test_homeo_rotation_report(capsys):
    payload = capture_json(capsys, ["homeo", "rotation", "--validate"])
    assert len(payload["cells"]) == 14
    rep = payload["report"]
    assert rep["invertible"] is True
    assert rep["common_det"] == 1
    assert rep["image_measure"] == "1"
    assert rep["measure_preserving"] is True
    assert "x0" in payload["substitution"] and "x1" in payload["substitution"]
    code, out, _ = capture(capsys, ["--format", "text", "homeo", "rotation",
                                    "--validate"])
    assert out.strip() == "invertible=true common_det=1 measure_preserving=true"


def test_homeo_validate_flip_and_tent(capsys):
    payload = capture_json(capsys, ["homeo", "validate", "--subst", "flip"])
    assert payload["invertible"] is True and payload["common_det"] == -1
    payload = capture_json(capsys, ["homeo", "validate", "--subst", "tent"])
    assert payload["invertible"] is False


def test_homeo_build_tent(capsys):
    payload = capture_json(capsys, ["homeo", "build", "--subst", "tent"])
    assert len(payload["cells"]) == 2 and len(payload["maps"]) == 2


def test_diff_command(capsys):
    payload = capture_json(capsys, ["diff", "--map", "tent",
                                    "--point", "1/2", "--dir", "1"])
    assert payload == {"differential": ["-2"]}
    payload = capture_json(capsys, ["diff", "--map", "rotation",
                                    "--point", "7/12,1/6", "--dir", "1,1"])
    assert payload == {"differential": ["-6", "5"]}


def test_boxhit_command(capsys):
    payload = capture_json(capsys, ["boxhit", "--q", "tent", "--r", "tent",
                                    "--source", "1/5:3/10", "--target", "7/10:9/10",
                                    "--hmax", "4", "--kmax", "4", "--grid", "20"])
    assert payload["found"] is True
    assert payload["h"] >= 0 and payload["k"] >= 0
    payload = capture_json(capsys, ["boxhit", "--q", "identity:1", "--r", "identity:1",
                                    "--source", "0:1/10", "--target", "9/10:1",
                                    "--hmax", "2", "--kmax", "2", "--grid", "10"])
    assert payload == {"found": False}


def test_stats_csv_deterministic(capsys):
    argv = ["--format", "csv", "--seed", "9", "stats", "--subst", "tent",
            "--start", "1/3", "--iters", "2000", "--grid", "4"]
    code, first, _ = capture(capsys, argv)
    assert code == 0
    lines = first.strip().splitlines()
    assert lines[0] == "box,count,frequency,volume"
    assert len(lines) == 5
    code, second, _ = capture(capsys, argv)
    assert second == first
    code, third, _ = capture(capsys, ["--format", "csv", "--seed", "10"] + argv[4:])
    assert third != first


def test_stats_json_discrepancy(capsys):
    payload = capture_json(capsys, ["stats", "--subst", "tent", "--start", "1/3",
                                    "--iters", "20000", "--grid", "4"])
    assert payload["discrepancy"] < 0.05
    assert payload["iterations"] == 20000


def test_avg_command(capsys):
    payload = capture_json(capsys, ["avg", "--subst", "tent", "--k", "3",
                                    "--box", "0:1/4", "x0"])
    assert payload["sequence"] == ["1/8", "1/4", "1/2", "1/2"]
    assert payload["lebesgue_average"] == "1/2"


# -- odometer and proof commands ---------------------------------------------------------

def test_odometer_perm(capsys):
    payload = capture_json(capsys, ["odometer", "perm", "--n", "3"])
    assert payload["single_cycle"] is True
    assert payload["cycle_lengths"] == [8]
    assert payload["mapping"] == [(p + 1) % 8 for p in range(8)]


def test_odometer_derive_then_check(capsys, tmp_path):
    code, out, _ = capture(capsys, ["odometer", "derive", "--n", "2",
                                    "--hyp", "x0 * x1", "--target", "!x1"])
    assert code == 0
    path = tmp_path / "proof.jsonl"
    path.write_text(out, encoding="utf-8")

    code, out2, _ = capture(capsys, ["prove", "check", str(path),
                                     "--hyp", "x0 * x1",
                                     "--no-axioms", "--oracle", "boole"])
    assert code == 0
    assert json.loads(out2) == {"valid": True}


def test_prove_check_rejects_tampering(capsys, tmp_path):
    code, out, _ = capture(capsys, ["odometer", "derive", "--n", "1",
                                    "--hyp", "x0", "--target", "0"])
    rows = out.strip().splitlines()
    obj = json.loads(rows[-1])
    obj["formula"] = "1"
    rows[-1] = json.dumps(obj)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    code, out2, err = capture(capsys, ["prove", "check", str(path), "--hyp", "x0",
                                       "--no-axioms", "--oracle", "boole"])
    assert code == 1
    payload = json.loads(out2)
    assert payload["valid"] is False
    assert payload["line"] == len(rows)


def test_prove_check_malformed_exits_two(capsys, tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text('{"formula": "x0", "just": {"teleport": 3}}\n', encoding="utf-8")
    code, _, err = capture(capsys, ["prove", "check", str(path)])
    assert code == 2
    assert "malformed" in err


def test_prove_check_strict_mode(capsys, tmp_path):
    path = tmp_path / "axiom.jsonl"
    path.write_text('{"formula": "0 -> (x2 * x2)", "just": "axiom"}\n',
                    encoding="utf-8")
    code, out, _ = capture(capsys, ["prove", "check", str(path)])
    assert code == 0
    code, out, _ = capture(capsys, ["prove", "check", str(path), "--strict"])
    assert code == 1


# -- algebra commands -----------------------------------------------------------------------

def test_algebra_chain_filters_pipeline(capsys, tmp_path):
    payload = capture_json(capsys, ["algebra", "chain", "--m", "2"])
    assert payload["names"] == ["0", "1/2", "1"]
    path = tmp_path / "chain2.json"
    path.write_text(json.dumps(payload), encoding="utf-8")

    counts = capture_json(capsys, ["filters", "--algebra", f"@{path}"])["counts"]
    assert counts == {"filters": 2, "primes": 1, "maximals": 1}
    counts = capture_json(capsys, ["filters", "--algebra", "godel:3"])["counts"]
    assert counts["filters"] == 4 and counts["primes"] == 3


def test_algebra_product_and_sub(capsys):
    payload = capture_json(capsys, ["algebra", "product",
                                    "--left", "bool", "--right", "bool"])
    assert len(payload["names"]) == 4
    payload = capture_json(capsys, ["algebra", "sub",
                                    "--base", "luk:4", "--gens", "2"])
    assert payload["names"] == ["0", "1/2", "1"]


def test_spec_command(capsys):
    payload = capture_json(capsys, ["spec", "--algebra", "luk:3"])
    assert payload["points"] == [[3]]
    assert payload["open_count"] == 2
    assert payload["specialization"] == [[0, 0]]


def test_duality_command(capsys):
    payload = capture_json(capsys, ["duality", "--algebra", "bool"])
    assert payload["ok"] is True
    assert payload["filters"] == payload["opens"] == 2


# -- error handling ----------------------------------------------------------------------------

def test_domain_errors_exit_one(capsys):
    code, out, err = capture(capsys, ["eval", "--point", "3/2", "x0"])
    assert code == 1 and out == "" and err.strip()
    code, _, err = capture(capsys, ["subst", "reach",
                                    "--source", "1/2", "--target", "1/3"])
    assert code == 1
    code, _, err = capture(capsys, ["eval", "--point", "1/2", "x0 @ x1"])
    assert code == 1


def test_algebra_json_missing_field_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    code, out, err = capture(capsys, ["filters", "--algebra", "-"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "'names'" in err and err.count("\n") == 1


def test_pwl_synthesize_missing_field_exits_one(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text('{"dim": 1}', encoding="utf-8")
    code, out, err = capture(capsys, ["pwl", "synthesize", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "'vertices'" in err and err.count("\n") == 1


def test_deeply_nested_formula_exits_one(capsys):
    code, out, err = capture(capsys, ["taut", "--logic", "bool", "!" * 1200 + "x0"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["eval", "x0"])
    assert exc.value.code == 2
    capsys.readouterr()
