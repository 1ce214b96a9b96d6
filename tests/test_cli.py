"""End-to-end exercises of the command-line interface, run in process."""

import argparse
import io
import json
from fractions import Fraction

import pytest

from mvdyn import proofs as _proofs, pwl as _pwl
from mvdyn.cli import build_parser, run
from mvdyn.dynamics import average_truth_value, induced_map
from mvdyn.formula import (
    OutOfReach, Substitution, Var, arity_of, chain_semantics, evaluate, identity_check,
    parse_formula, tautology_check, BOOLE, GODEL, LUKASIEWICZ,
)
from mvdyn.proofs import (
    Axiom, ConsequenceVerdict, Proof, ProofLine, check_proof, mp_consequence,
)
from mvdyn.pwl import (
    CellComplex, affine_from_simplex_pair, pwl_from_formula, pwl_from_json, pwl_equal,
    pwl_to_json,
)

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
    code, out, _ = capture(capsys, ["--format", "text", "subst", "compose",
                                    "--first", "x0=!x1;x1=x0", "--second", "x0=x1;x1=x0"])
    assert code == 0 and out == "x0=x0; x1=!x1\n"


def test_subst_explicit_assignments(capsys):
    payload = capture_json(capsys, ["subst", "apply",
                                    "--subst", "x0=x1;x1=x0", "x0 -> x1"])
    assert payload == {"formula": "x1 -> x0"}


def test_subst_reach(capsys):
    payload = capture_json(capsys, ["subst", "reach",
                                    "--source", "1/3", "--target", "2/3"])
    g = parse_formula(payload["x0"])
    assert evaluate(g, LUKASIEWICZ, (F(1, 3),)) == F(2, 3)


def test_subst_reach_peels_996_unit_literals(capsys):
    payload = capture_json(capsys, ["subst", "reach",
                                    "--source", "1/997", "--target", "996/997"])
    g = parse_formula(payload["x0"])
    assert evaluate(g, LUKASIEWICZ, (F(1, 997),)) == F(996, 997)


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


def test_homeo_validate_rotation_uses_the_exact_form(capsys):
    code, out, err = capture(capsys, ["homeo", "validate", "--subst", " Rotation "])
    assert code == 0, err
    assert json.loads(out) == capture_json(capsys, ["homeo", "rotation", "--validate"])["report"]
    payload = capture_json(capsys, ["homeo", "build", "--subst", "rotation"])
    assert len(payload["cells"]) == 14


def test_rotation_commands_read_its_exact_form(capsys, monkeypatch):
    # the synthesized formulas of the rotation are walked, never compiled
    def compiled(*args, **kwargs):
        raise AssertionError("the rotation's formulas were compiled")

    monkeypatch.setattr("mvdyn.dynamics.pwl_from_formula", compiled)
    monkeypatch.setattr("mvdyn.pwl.pwl_map_from_formulas", compiled)
    payload = capture_json(capsys, ["orbit", "--subst", "rotation", "--start", "1/8,3/8"])
    assert (payload["preperiod"], payload["period"]) == (0, 15)
    payload = capture_json(capsys, ["boxhit", "--q", "rotation", "--r", "rotation",
                                    "--source", "1/8:3/16,3/8:7/16",
                                    "--target", "5/8:3/4,1/8:1/4", "--grid", "8"])
    assert (payload["h"], payload["k"], payload["image"]) == (0, 6, ["5/8", "1/8"])
    payload = capture_json(capsys, ["stats", "--subst", "rotation", "--start", "1/3,1/5",
                                    "--iters", "1000", "--grid", "2"])
    assert sum(row["count"] for row in payload["table"]) == 1000
    payload = capture_json(capsys, ["homeo", "build", "--subst", "rotation"])
    assert len(payload["cells"]) == 14
    payload = capture_json(capsys, ["homeo", "validate", "--subst", "rotation"])
    assert payload["measure_preserving"] is True
    payload = capture_json(capsys, ["diff", "--map", "rotation",
                                    "--point", "7/12,1/6", "--dir", "1,1"])
    assert payload == {"differential": ["-6", "5"]}
    # avg compiles r, and only r: the rotation preserves measure, so every
    # iterate of r averages like r over the square
    monkeypatch.setattr("mvdyn.dynamics.pwl_from_formula", pwl_from_formula)
    payload = capture_json(capsys, ["avg", "--subst", "rotation", "--k", "3",
                                    "--box", "0:1,0:1", "x0 & x1"])
    assert payload == {"sequence": ["1/3"] * 4, "lebesgue_average": "1/3"}


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


VALID_LINE = '{"formula": "x0", "just": {"hyp": 1}}'


@pytest.mark.parametrize("line, message", [
    ('{"just": "axiom"}', "missing field 'formula'"),
    ('{"formula": "x0"}', "missing field 'just'"),
    ('{"formula": 5, "just": "axiom"}', "ill-typed field 'formula': TypeError"),
    ('{"formula": "x0 x1", "just": "axiom"}',
     "ill-typed field 'formula': ParseError: unexpected variable at byte 3"),
    ('{"formula": "x0", "just": {"mp": [1]}}', "ill-typed field 'mp': ValueError"),
    ('{"formula": "x0", "just": {"mp": 1}}', "ill-typed field 'mp': TypeError"),
    ('{"formula": "x0", "just": {"hyp": [1]}}', "ill-typed field 'hyp': TypeError"),
    ('{"formula": "x0", "just": {"subst": 5}}',
     "ill-typed field 'subst': TypeError: not a JSON object"),
    ('{"formula": "x0", "just": {"subst": [1]}}',
     "ill-typed field 'subst': TypeError: not a JSON object"),
    ('{"formula": "x0", "just": {"subst": {"sigma": {}}}}', "missing field 'line'"),
    ('{"formula": "x0", "just": {"subst": {"line": 1, "sigma": ["x0"]}}}',
     "ill-typed field 'sigma': ValueError: a substitution is a JSON object"),
    ('{"formula": "x0", "just": {"subst": {"line": 1, "sigma": {"x\u00b2": "x0"}}}}',
     "ill-typed field 'sigma': ValueError: substitution target 'x²' is not a variable"),
    ('{"formula": "x0", "just": {"subst": {"line": 1, "sigma": {"x0": "!x0", "x00": "x0"}}}}',
     "ill-typed field 'sigma': ValueError: substitution target 'x00' names x0 again"),
    ('{"formula": "x0", "just": {"wave": 1}}', "unknown justification {'wave': 1}"),
    # json.loads alone would keep the last x0 and read this line as valid
    ('{"formula": "!x0", "just": {"subst": {"line": 1, "sigma": {"x0": "x1", "x0": "!x0"}}}}',
     "repeated key 'x0'"),
    ('{"formula": "x0", ', "Expecting"),
])
def test_prove_check_malformed_line_names_its_line_and_field(capsys, monkeypatch, line, message):
    # the bad line is the second line of the proof; a blank line does not count
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{VALID_LINE}\n\n{line}\n"))
    code, out, err = capture(capsys, ["prove", "check", "-", "--hyp", "x0"])
    assert code == 2 and out == ""
    assert err.startswith(f"malformed proof: line 2: {message}")


def test_prove_check_refuses_a_tail_cut_inside_a_group(capsys, monkeypatch):
    # a line read keys the text after its top-level '->' ('x2'); the text after
    # the '->' inside its group is no formula, and is still read and refused
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"formula": "(x0 -> x1) -> x2", "just": {"hyp": 1}}\n'
        '{"formula": "x1) -> x2", "just": {"mp": [1, 1]}}\n'))
    code, out, err = capture(capsys, ["prove", "check", "-", "--hyp", "(x0 -> x1) -> x2",
                                      "--no-axioms", "--oracle", "none"])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("malformed proof: line 2: ill-typed field 'formula': ParseError: "
                          "unexpected ')' at byte 2")


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_prove_check_refuses_a_proof_without_lines(capsys, monkeypatch, text):
    # an empty proof proves nothing: it is malformed, not valid
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = capture(capsys, ["prove", "check", "-", "--hyp", "x0",
                                      "--no-axioms", "--oracle", "boole"])
    assert code == 2 and out == ""
    assert err == "malformed proof: no proof lines\n"


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


def test_an_algebra_over_the_size_cap_is_named_by_its_size(capsys):
    code, out, err = capture(capsys, ["filters", "--algebra", "luk:100"])
    assert (code, out) == (1, "")
    assert err == "error: an algebra of 101 elements exceeds the size cap of 64\n"
    code, out, err = capture(capsys, ["algebra", "product", "--left", "luk:8",
                                      "--right", "luk:8"])
    assert (code, out) == (1, "")
    assert err == "error: an algebra of 81 elements exceeds the size cap of 64\n"


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


ALGEBRA_BOOL = '"names": ["0", "1"], "star": [[0, 0], [0, 1]], "impl": [[1, 1], [0, 1]]'
PWL_IDENTITY = '"vertices": [[["0", "1"]], [["1", "1"]]], "cells": [[0, 1]]'


@pytest.mark.parametrize("command, text, key", [
    (["filters", "--algebra", "@{path}"], '{%s, "zero": 0, "one": 0, "one": 1}' % ALGEBRA_BOOL,
     "one"),
    (["filters", "--algebra", "-"], '{%s, "zero": 0, "one": 0, "one": 1}' % ALGEBRA_BOOL, "one"),
    (["pwl", "synthesize", "{path}"],
     '{"dim": 2, "dim": 1, %s, "pieces": [{"a": [1], "b": 0}]}' % PWL_IDENTITY, "dim"),
    (["pwl", "synthesize", "{path}"],
     '{"dim": 1, %s, "pieces": [{"a": [1], "b": 1, "b": 0}]}' % PWL_IDENTITY, "b"),
], ids=["algebra-file", "algebra-stdin", "pwl", "pwl-piece"])
def test_a_repeated_json_key_is_refused_not_merged(capsys, monkeypatch, tmp_path,
                                                   command, text, key):
    # json.loads alone would keep the last value and read each text as valid
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = capture(capsys, [arg.format(path=path) for arg in command])
    _one_error_line(code, out, err)
    assert f"repeated key {key!r}" in err
    # the same text with the first of the two pairs removed is read
    single = text.replace('"one": 0, ', "").replace('"dim": 2, ', "").replace('"b": 1, ', "")
    path.write_text(single, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(single))
    assert capture(capsys, [arg.format(path=path) for arg in command])[0] == 0


def _one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["orbit", "--subst", "identity:0", "--start", "0"],
    ["homeo", "validate", "--subst", "identity:0"],
    ["avg", "--subst", "identity:0", "--box", "0:1", "x0"],
])
def test_the_empty_substitution_is_refused_in_one_message(capsys, argv):
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert err == "error: substitution must cover at least x0\n"


def test_the_empty_substitution_applies_to_a_closed_formula(capsys):
    payload = capture_json(capsys, ["subst", "apply", "--subst", "identity:0", "1 -> 0 * 1"])
    assert payload == {"formula": "1 -> 0 * 1"}


def _synthesize(capsys, tmp_path, **changes):
    """pwl synthesize on the compiled identity x0, with some fields replaced."""
    obj = {"dim": 1, "vertices": [[["0", "1"]], [["1", "1"]]], "cells": [[0, 1]],
           "pieces": [{"a": [1], "b": 0}]}
    obj.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return capture(capsys, ["pwl", "synthesize", str(path)])


MP_PREMISES = ('{"formula": "x0", "just": {"hyp": 1}}\n'
               '{"formula": "x0 -> x1", "just": {"hyp": 2}}\n')
PROVE = ["prove", "check", "-", "--hyp", "x0", "--hyp", "x0 -> x1", "--no-axioms"]
PWL_PIECE = '{"dim": 1, %s, "pieces": [%s]}'


@pytest.mark.parametrize("command, text, field", [
    (PROVE, MP_PREMISES + '{"formula": "x1", "just": {"mp": "12"}}', "mp"),
    (PROVE, MP_PREMISES + '{"formula": "x1", "just": {"mp": [1.5, 2.2]}}', "mp"),
    (PROVE, '{"formula": "x0", "just": {"hyp": 1.9}}', "hyp"),
    (PROVE, '{"formula": "x0", "just": {"hyp": true}}', "hyp"),
    (PROVE, '{"formula": "x0", "just": {"hyp": "1"}}', "hyp"),
    (PROVE, '{"formula": "x0", "just": {"hyp": 1}}\n'
     '{"formula": "x0", "just": {"subst": {"line": 1.0, "sigma": {}}}}', "line"),
    (["pwl", "synthesize", "-"], PWL_PIECE % (PWL_IDENTITY, '{"a": [0.9], "b": 0}'), "pieces"),
    (["pwl", "synthesize", "-"], PWL_PIECE % (PWL_IDENTITY, '{"a": [true], "b": false}'),
     "pieces"),
    (["pwl", "synthesize", "-"], PWL_PIECE % ('"vertices": [[[0.5, 1]], [["1", "1"]]], '
                                              '"cells": [[0, 1]]', '{"a": [1], "b": 0}'),
     "vertices"),
    (["pwl", "synthesize", "-"], PWL_PIECE % ('"vertices": [[["0", "1"]], [["1", "1"]]], '
                                              '"cells": ["01"]', '{"a": [1], "b": 0}'), "cells"),
    (["algebra", "sub", "--base", "-"], '{"names": "01", "star": ["00", "01"], '
     '"impl": ["11", "01"], "zero": 0, "one": 1}', "names"),
    (["algebra", "sub", "--base", "-"], '{"names": ["0", "1"], "star": ["00", "01"], '
     '"impl": ["11", "01"], "zero": 0, "one": 1}', "star"),
    (["algebra", "sub", "--base", "-"], '{"names": [{"a": 1}, null], "star": [[0, 0], [0, 1]], '
     '"impl": [[1, 1], [0, 1]], "zero": 0, "one": 1}', "names"),
    (["algebra", "sub", "--base", "-"], '{"names": [0, 1], "star": [[0, 0], [0, 1]], '
     '"impl": [[1, 1], [0, 1]], "zero": 0, "one": 1}', "names"),
    (["filters", "--algebra", "-"], '{%s, "zero": false, "one": true}' % ALGEBRA_BOOL, "zero"),
], ids=["mp-string", "mp-floats", "hyp-float", "hyp-bool", "hyp-string", "line-float",
        "piece-float", "piece-bools", "vertex-float", "cell-string", "names-string",
        "table-strings", "names-objects", "names-ints", "zero-bool"])
def test_json_integers_and_lists_are_read_strictly(capsys, monkeypatch, command, text, field):
    # int() and list() on these values read them as other, valid, inputs
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = capture(capsys, command)
    assert code == (2 if command[0] == "prove" else 1) and out == ""
    assert err.count("\n") == 1 and f"ill-typed field {field!r}: TypeError: not a" in err


def test_pwl_synthesize_vertex_index_out_of_range_exits_one(capsys, tmp_path):
    _one_error_line(*_synthesize(capsys, tmp_path, cells=[[0, 5]]))


def test_pwl_synthesize_negative_vertex_index_exits_one(capsys, tmp_path):
    _one_error_line(*_synthesize(capsys, tmp_path, cells=[[0, -1]]))


def test_pwl_synthesize_vertex_of_wrong_dimension_exits_one(capsys, tmp_path):
    vertices = [[["0", "1"], ["0", "1"]], [["1", "1"], ["0", "1"]]]
    _one_error_line(*_synthesize(capsys, tmp_path, vertices=vertices))


def test_pwl_synthesize_piece_of_wrong_dimension_exits_one(capsys, tmp_path):
    _one_error_line(*_synthesize(capsys, tmp_path, pieces=[{"a": [1, 5], "b": 0}]))


def test_pwl_synthesize_refuses_two_variables_in_pwls_words(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(pwl_to_json(pwl_from_formula(parse_formula("x0"), 2))),
                    encoding="utf-8")
    code, out, err = capture(capsys, ["pwl", "synthesize", str(path)])
    _one_error_line(code, out, err)
    assert err == "error: synthesis is exposed for dimension 1 only\n"


@pytest.mark.parametrize("argv, text", [
    (["eval", "--point", "1/0", "x0"], "'1/0'"),
    (["orbit", "--subst", "tent", "--start", "1/0"], "'1/0'"),
    (["subst", "reach", "--source", "1/3", "--target", "1/0"], "'1/0'"),
    (["diff", "--map", "tent", "--point", "1/2", "--dir", "0/0"], "'0/0'"),
    (["pwl", "integrate", "--box", "0:1:2", "x0"], "not a box axis: '0:1:2'"),
    (["pwl", "integrate", "--box", "1/2", "x0"], "not a box axis: '1/2'"),
    (["pwl", "integrate", "--box", "0:2", "x0"],
     "integration box [0, 2] must be nondegenerate inside [0,1]^1"),
    (["pwl", "integrate", "--box", "0:1,0:1", "x0"],
     "integration box [0, 1] x [0, 1] needs one axis per variable of the maps (dimension 1)"),
], ids=["eval", "orbit", "subst-reach", "diff", "box-three-bounds", "box-one-bound",
        "integrate-box-off-cube", "integrate-box-too-many-axes"])
def test_bad_rational_is_named(capsys, argv, text):
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert text in err


@pytest.mark.parametrize("argv, spec, form", [
    (["eval", "--logic", "chain:2:godel:junk", "--point", "0", "x0"], "chain:2:godel:junk",
     "chain:M[:base]"),
    (["taut", "--logic", "chain:x", "x0"], "chain:x", "chain:M[:base]"),
    (["subst", "apply", "--subst", "identity:1:junk", "x0"], "identity:1:junk", "identity:N"),
    (["orbit", "--subst", "odometer:2:7", "--start", "0,0"], "odometer:2:7", "odometer:N"),
    (["filters", "--algebra", "luk:2:junk"], "luk:2:junk", "luk:M"),
    (["spec", "--algebra", "Godel:1/2"], "Godel:1/2", "godel:M"),
], ids=["logic-extra-field", "logic-not-integer", "identity-extra-field",
        "odometer-extra-field", "algebra-extra-field", "algebra-not-integer"])
def test_malformed_count_spec_is_named(capsys, argv, spec, form):
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert err == f"error: spec {spec!r} is not of the form {form}\n"


@pytest.mark.parametrize("argv, part", [
    (["orbit", "--subst", "tent2", "--start", "1/3"], "tent2"),
    (["subst", "apply", "--subst", "foo", "x0"], "foo"),
    (["subst", "apply", "--subst", "x0=!x0;;x1=x0", "x0"], ""),
    (["avg", "--subst", "x0=!x0;", "--box", "0:1", "x0"], ""),
    (["avg", "--subst", "x0=!x0;x1", "--box", "0:1,0:1", "x0"], "x1"),
], ids=["orbit-unknown-name", "subst-apply-unknown-name", "subst-apply-empty-part",
        "avg-trailing-semicolon", "avg-part-without-formula"])
def test_a_substitution_part_without_an_assignment_is_named(capsys, argv, part):
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert err == (f"error: substitution part {part!r} is not x<i>=<formula>; a map is tent, "
                   "flip, rotation, identity:N, odometer:N, or x<i>=<formula> parts "
                   "joined by ';'\n")


@pytest.mark.parametrize("argv, target, index", [
    (["subst", "apply", "--subst", "x0=!x0;x0=x0", "x0"], "x0", 0),
    (["subst", "apply", "--subst", "x0=!x0;x00=x0", "x0"], "x00", 0),
    (["orbit", "--subst", "x1=x0;x0=x1; x01 =x0", "--start", "0,1"], "x01", 1),
    (["avg", "--subst", "x0=x0;x0=!x0", "--box", "0:1", "x0"], "x0", 0),
], ids=["subst-apply-same-name", "subst-apply-leading-zero", "orbit-third-part",
        "avg-same-name"])
def test_a_repeated_substitution_target_is_named(capsys, argv, target, index):
    # each part names one variable; a second part for it is refused, not merged
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert err == f"error: substitution target {target!r} names x{index} again\n"


def test_avg_refuses_a_box_off_the_cube_by_name(capsys):
    code, out, err = capture(capsys, ["avg", "--subst", "tent", "--box", "0:2", "x0"])
    _one_error_line(code, out, err)
    assert "[0, 2]" in err


@pytest.mark.parametrize("argv, text, work", [
    (["avg", "--subst", "tent", "--k", "-1", "--box", "0:1", "x0"], "k >= 0",
     "mvdyn.dynamics.pwl_from_formula"),
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "0:1", "--target", "0:1",
      "--grid", "0"], "grid_denominator >= 1", "mvdyn.dynamics._box_points"),
    (["odometer", "perm", "--n", "21"], "the 2**21 valuations of a finite chain exceed",
     "mvdyn.odometer.odometer_substitution"),
    (["orbit", "--subst", "tent", "--start", "1/5", "--max", "-5"], "max_steps",
     "mvdyn.dynamics._lattice_step"),
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "0:1", "--target", "0:1",
      "--hmax", "-1"], "h_max", "mvdyn.dynamics._box_points"),
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "0:1", "--target", "0:1",
      "--kmax", "-1"], "k_max", "mvdyn.dynamics._box_points"),
    (["taut", "--logic", "chain:100000000", "x0"], "100000001**1",
     "mvdyn.formula._variable_planes"),
    (["taut", "--logic", "product", "x7 -> (x0 -> x0)"], "13**8", "mvdyn.formula.interpret"),
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "0:1", "--target", "0:1",
      "--grid", "3000000"], "3000001**1", "mvdyn.dynamics._box_points"),
    (["taut", "--logic", "product", "--grid-bound", "100000", "x0"], "5000150000**1",
     "mvdyn.formula.rationals_up_to"),
    (["identity", "--method", "grid", "--grid-bound", "2000", "x0", "x0"], "2003000**1",
     "mvdyn.formula.rationals_up_to"),
    (["algebra", "chain", "--m", "20000"], "20001**2", "mvdyn.algebra.Fraction"),
    (["filters", "--algebra", "luk:20000"], "20001**2", "mvdyn.algebra.Fraction"),
    (["stats", "--subst", "odometer:4", "--start", "0,0,0,0", "--iters", "10",
      "--grid", "100"], "100**4", "mvdyn.dynamics._compile"),
    (["taut", "--logic", "product", "--grid-bound", "-5", "x0 | !x0"], "grid_bound",
     "mvdyn.formula.rationals_up_to"),
    (["subst", "reach", "--source", "2/997", "--target", "5/997"], "2490 unit literals",
     "mvdyn.pwl.Var"),
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "3/2:2", "--target", "0:1/10"],
     "source box [3/2, 2]", "mvdyn.pwl.PWLMap.lattice_step"),
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "3/2:2", "--target", "3/2:2"],
     "source box [3/2, 2]", "mvdyn.pwl.PWLMap.lattice_step"),
    (["boxhit", "--q", "rotation", "--r", "rotation", "--source", "0:1", "--target", "0:1/10"],
     "source box [0, 1] needs one axis", "mvdyn.pwl.PWLMap.lattice_step"),
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "0:1,0:1", "--target", "0:1"],
     "source box [0, 1] x [0, 1] needs one axis", "mvdyn.pwl.PWLMap.lattice_step"),
    (["subst", "apply", "--subst", "identity:-2", "1"],
     "variable count must be at least 0, not -2", "mvdyn.cli.apply_substitution"),
], ids=["avg", "boxhit", "odometer-perm", "orbit-max", "boxhit-hmax", "boxhit-kmax",
        "taut-chain", "taut-grid", "boxhit-grid", "taut-grid-bound", "identity-grid-bound",
        "algebra-chain", "filters-chain", "stats-grid", "taut-grid-bound-below-one",
        "subst-reach-units", "boxhit-source-off-cube", "boxhit-both-off-cube",
        "boxhit-too-few-axes", "boxhit-too-many-axes", "identity-negative"])
def test_out_of_range_count_is_refused_before_any_work(capsys, monkeypatch, argv, text, work):
    def refused(*args, **kwargs):
        raise AssertionError("work began on an out-of-range count")

    monkeypatch.setattr(work, refused)
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert text in err


@pytest.mark.parametrize("argv, work", [
    (["boxhit", "--q", "tent", "--r", "tent", "--source", "0:1", "--target", "0:1"],
     "mvdyn.dynamics._box_points"),
    (["orbit", "--subst", "tent", "--start", "1/5"], "mvdyn.dynamics._lattice_step"),
    (["taut", "--logic", "product", "--grid-bound", "3", "x0"],
     "mvdyn.formula.rationals_up_to"),
    (["filters", "--algebra", "luk:3"], "mvdyn.algebra.Fraction"),
    (["stats", "--subst", "odometer:4", "--start", "0,0,0,0", "--iters", "10",
      "--grid", "2"], "mvdyn.dynamics._compile"),
    (["taut", "--logic", "product", "--grid-bound", "1", "x0"],
     "mvdyn.formula.rationals_up_to"),
    (["subst", "reach", "--source", "1/3", "--target", "2/3"], "mvdyn.pwl.Var"),
    (["subst", "apply", "--subst", "identity:2", "1"], "mvdyn.cli.apply_substitution"),
], ids=["boxhit", "orbit", "taut-grid", "chain", "stats", "taut-grid-bound-one",
        "subst-reach-units", "identity"])
def test_the_refused_work_is_reached_in_range(capsys, monkeypatch, argv, work):
    # the refusal cases above patch work that an in-range count does reach
    def reached(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.setattr(work, reached)
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert "work began" in err


def test_algebra_json_one_out_of_range_exits_one(capsys, monkeypatch):
    obj = {"names": ["0", "1"], "star": [[0, 0], [0, 1]], "impl": [[1, 1], [0, 1]],
           "zero": 0, "one": 7}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    _one_error_line(*capture(capsys, ["filters", "--algebra", "-"]))


def test_deeply_nested_formula_exits_one(capsys, monkeypatch):
    # runs of ! and nested parentheses of any depth parse and are decided
    out = capture_json(capsys, ["taut", "--logic", "bool", "!" * 1200 + "x0"])
    assert out == {"point": ["0"], "status": "countermodel"}
    out = capture_json(capsys, ["taut", "--logic", "bool", "(" * 400 + "x0" + ")" * 400])
    assert out == {"point": ["0"], "status": "countermodel"}
    # the json decoder still recurses per level: one error line, exit 1
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000 + "]" * 100000))
    _one_error_line(*capture(capsys, ["filters", "--algebra", "-"]))


def test_memory_error_exits_one(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("mvdyn.cli._cmd_taut", exhausted)
    code, out, err = capture(capsys, ["taut", "--logic", "bool", "x0"])
    _one_error_line(code, out, err)
    assert "MemoryError" in err


@pytest.mark.parametrize("argv, text", [
    (["orbit", "--subst", "tent", "--start", "3/2"], "error: point (3/2) outside the unit cube"),
    (["diff", "--map", "rotation", "--point", "1/2,5/4", "--dir", "1,0"],
     "error: point (1/2, 5/4) outside the unit cube"),
], ids=["orbit", "diff"])
def test_point_outside_the_cube_is_named_in_rationals(capsys, argv, text):
    code, out, err = capture(capsys, argv)
    _one_error_line(code, out, err)
    assert err.strip() == text


def test_two_runs_build_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert capture_json(capsys, ["eval", "--point", "1/2", "x0"]) == {"value": "1/2"}
    assert built[0] == "mvdyn"
    first = len(built)
    assert capture_json(capsys, ["eval", "--point", "1/4", "x0"]) == {"value": "1/4"}
    assert len(built) == first


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["eval", "x0"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- the exact geometry's variable ceiling ------------------------------------------------------

def _ceiling(n):
    """pwl's one refusal of a cube of n variables, at its ceiling as it stands."""
    return f"{n} variables are outside the exact geometry, which handles 1 to {_pwl.MAX_DIM}"


def _refusal(capsys, case):
    """The message of a refusal: the one error line of a CLI argv, or the
    ValueError of a library call."""
    if isinstance(case, list):
        code, out, err = capture(capsys, case)
        _one_error_line(code, out, err)
        return err.removeprefix("error: ").rstrip("\n")
    with pytest.raises(ValueError) as exc:
        case()
    return str(exc.value)


CUBE = [(F(0),) * 3] + [tuple(F(int(i == k)) for i in range(3)) for k in range(3)]


@pytest.mark.parametrize("case", [
    ["taut", "--logic", "luk", "--method", "exact-pwl", "x0 | x1 | x2"],
    lambda: mp_consequence([parse_formula("x0 * x1")], parse_formula("x2 -> x0"),
                           LUKASIEWICZ),
    ["avg", "--subst", "odometer:3", "--box", "0:1,0:1,0:1", "x0"],
    ["homeo", "validate", "--subst", "odometer:3"],
    ["pwl", "compile", "--dim", "3", "x0"],
    lambda: CellComplex(3, CUBE, [(0, 1, 2, 3)]),
    lambda: affine_from_simplex_pair(CUBE, CUBE),
], ids=["taut-exact-pwl", "mp-consequence", "avg", "homeo-validate", "pwl-compile",
        "cell-complex", "affine-solve"])
def test_three_variables_are_refused_in_pwls_one_message(capsys, case):
    assert _refusal(capsys, case) == _ceiling(3)


def test_every_caller_follows_pwls_variable_ceiling(capsys, monkeypatch):
    # at a ceiling of one variable, the callers that take another path take
    # it, and the callers that only refuse pass pwl's refusal on
    monkeypatch.setattr(_pwl, "MAX_DIM", 1)
    line = parse_formula("(x0 * x1) -> x0")
    assert tautology_check(line, LUKASIEWICZ).status == "unknown"
    assert not check_proof(Proof((), (ProofLine(line, Axiom()),)), None, oracle="lukasiewicz")
    swap = Substitution([Var(1), Var(0)])
    assert induced_map(swap).pwl is None
    for case in (lambda: mp_consequence([line], line, LUKASIEWICZ),
                 lambda: average_truth_value(Var(0), 1, swap, [(F(0), F(1))] * 2),
                 ["homeo", "validate", "--subst", "x0=x1;x1=x0"]):
        assert _refusal(capsys, case) == _ceiling(2)


def test_every_lukasiewicz_decision_follows_the_consequence_walk(capsys, monkeypatch):
    # a walk that refutes everything at (1/3, 2/3): every caller that decides
    # Lukasiewicz logic, tautologies and identities too, reports its point
    point = (F(1, 3), F(2, 3))
    monkeypatch.setattr(_pwl, "_unit_set_min_and_power",
                        lambda cw, rw: (F(0), point, 1))
    line = parse_formula("(x0 * x1) -> x0")
    v = tautology_check(line, LUKASIEWICZ)
    assert (v.status, v.point) == ("countermodel", point)
    v = identity_check(parse_formula("x0 & x1"), parse_formula("x1 & x0"), LUKASIEWICZ)
    assert (v.status, v.point) == ("countermodel", point)
    v = mp_consequence([], line, LUKASIEWICZ)
    assert (v.status, v.countermodel) == ("no", point)
    assert not check_proof(Proof((), (ProofLine(line, Axiom()),)), None, oracle="lukasiewicz")
    expected = {"point": ["1/3", "2/3"], "status": "countermodel"}
    assert capture_json(capsys, ["taut", "(x0 * x1) -> x0"]) == expected
    assert capture_json(capsys, ["identity", "x0 & x1", "x1 & x0"]) == expected


GODEL_LINE = "((x0 -> x1) -> x2) -> (((x1 -> x0) -> x2) -> x2)"


def test_a_new_backend_needs_no_edit_in_auto_or_the_oracle(capsys, monkeypatch):
    # a backend that decides Goedel logic and three-variable Lukasiewicz lines
    # plugs into mp_consequence alone: taut's auto and the oracle follow it
    point = (F(1, 3),) * 3
    decide = mp_consequence

    def backend(delta, r, sem):
        if sem == GODEL:
            return ConsequenceVerdict("no", countermodel=point)
        if sem == LUKASIEWICZ and arity_of(r) == 3:
            return ConsequenceVerdict("yes", certificate={"method": "stub"})
        return decide(delta, r, sem)

    monkeypatch.setattr(_proofs, "mp_consequence", backend)
    line = parse_formula(GODEL_LINE)
    v = tautology_check(line, GODEL)
    assert (v.status, v.point) == ("countermodel", point)
    assert capture_json(capsys, ["taut", "--logic", "godel", GODEL_LINE]) == {
        "point": ["1/3"] * 3, "status": "countermodel"}
    assert check_proof(Proof((), (ProofLine(line, Axiom()),)), None, oracle="lukasiewicz")


def test_without_a_backend_taut_answers_through_the_grid(capsys):
    for logic, text in (("godel", GODEL_LINE), ("product", "(x0 -> x1) | (x1 -> x0)")):
        assert capture_json(capsys, ["taut", "--logic", logic, text]) == {"status": "unknown"}


def _raises_value_error(*args):
    raise ValueError("not a refusal of reach")


@pytest.mark.parametrize("case", [
    lambda: tautology_check(parse_formula("x0 -> x0"), GODEL),
    lambda: tautology_check(parse_formula("x0 -> x1"), LUKASIEWICZ),
    lambda: check_proof(Proof((), (ProofLine(parse_formula("x0 -> x0"), Axiom()),)), None,
                        oracle="lukasiewicz"),
], ids=["taut-auto-godel", "taut-auto-lukasiewicz", "lukasiewicz-oracle"])
def test_the_fallbacks_catch_only_out_of_reach(monkeypatch, case):
    monkeypatch.setattr(_proofs, "mp_consequence", _raises_value_error)
    with pytest.raises(ValueError, match="not a refusal of reach"):
        case()


def test_induced_map_keeps_only_out_of_reach(monkeypatch):
    def out_of_reach(*args):
        raise OutOfReach("out of reach")

    swap = Substitution([Var(1), Var(0)])
    monkeypatch.setattr(_pwl, "pwl_map_from_formulas", _raises_value_error)
    with pytest.raises(ValueError, match="not a refusal of reach"):
        induced_map(swap)
    monkeypatch.setattr(_pwl, "pwl_map_from_formulas", out_of_reach)
    m = induced_map(swap)
    assert m.pwl is None and str(m.refusal) == "out of reach"


@pytest.mark.parametrize("sem, message", [
    (BOOLE, r"2\*\*21 valuations of a finite chain exceed"),
    (chain_semantics(2), r"3\*\*21 valuations of a finite chain exceed"),
])
def test_the_chain_cap_refusal_is_not_a_fallback_under_auto(sem, message):
    with pytest.raises(ValueError, match=message) as exc:
        tautology_check(Var(20), sem)
    assert not isinstance(exc.value, OutOfReach)
