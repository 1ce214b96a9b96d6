"""Hilbert-style proof checking, axiom families, the substitution rule, and
the semantic consequence backends."""

import ast
import gc
import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mvdyn.formula as formula_module
from mvdyn.formula import (
    Var, Star, Impl, Neg, And, Or, OPlus, ZERO, ONE, OutOfReach, parse_formula,
    print_formula, Substitution, arity_of, boolean_table, chain_semantics, interpret,
    rationals_up_to, tautology_check, LUKASIEWICZ, GODEL, PRODUCT, BOOLE, TNormSemantics,
    _countermodel,
)
from mvdyn.pwl import (
    pwl_combine, pwl_from_formula, pwl_le, _clip, _refine_tagged, _row_value, _scaled,
)
from mvdyn.proofs import (
    Axiom, Hypothesis, ModusPonens, Substituted, ProofLine, Proof,
    builtin_axioms, is_instance_of, check_proof, mp_consequence,
    proof_to_jsonl, proof_from_jsonl,
)
from mvdyn.odometer import derive_from_nontautology

X0, X1, X2 = Var(0), Var(1), Var(2)


def mp_proof():
    """x0, x0 -> x1 |- !x0 with one axiom and one substitution line."""
    sigma = Substitution([ONE, Neg(X0)])
    lines = (
        ProofLine(X0, Hypothesis(0)),
        ProofLine(Impl(X0, X1), Hypothesis(1)),
        ProofLine(X1, ModusPonens(0, 1)),
        ProofLine(parse_formula("0 -> x0"), Axiom()),
        ProofLine(Neg(X0), Substituted(2, sigma)),
    )
    return Proof((X0, Impl(X0, X1)), lines)


# -- axiom families ---------------------------------------------------------------

def test_builtin_axiom_counts():
    assert len(builtin_axioms("mv").schemas) == 9
    assert len(builtin_axioms("product").schemas) == 10
    assert len(builtin_axioms("godel").schemas) == 9
    assert len(builtin_axioms("boole").schemas) == 9
    assert builtin_axioms("MV").logic == "mv"
    with pytest.raises(ValueError):
        builtin_axioms("classical")


def test_builtin_axioms_are_parsed_once_per_logic(monkeypatch):
    # prove check asks for them on every call; the schema texts are read once
    for logic in ("mv", "product", "godel", "boole"):
        builtin_axioms(logic)
    monkeypatch.setattr("mvdyn.proofs.parse_formula", None)
    assert builtin_axioms("MV") is builtin_axioms("mv")
    assert builtin_axioms("Godel") is builtin_axioms("godel")


def test_axioms_sound_on_finite_chains():
    for logic, sems in (("mv", [chain_semantics(m) for m in range(1, 6)]),
                        ("godel", [chain_semantics(m, "godel") for m in range(1, 6)]),
                        ("boole", [BOOLE])):
        for schema in builtin_axioms(logic).schemas:
            for sem in sems:
                v = tautology_check(schema, sem, method="truth-table")
                assert v.is_tautology, (logic, print_formula(schema), sem.kind)


def test_axioms_have_no_grid_countermodels():
    for logic, sem in (("mv", LUKASIEWICZ), ("godel", GODEL),
                       ("product", PRODUCT)):
        for schema in builtin_axioms(logic).schemas:
            v = tautology_check(schema, sem, method="grid", grid_bound=5)
            assert v.status != "countermodel", (logic, print_formula(schema))


def test_semantics_attached_to_axiom_set():
    assert builtin_axioms("mv").semantics is LUKASIEWICZ
    assert builtin_axioms("product").semantics is PRODUCT


# -- schema instances ---------------------------------------------------------------

def test_is_instance_of():
    schema = parse_formula("0 -> x0")
    assert is_instance_of(schema, parse_formula("0 -> (x3 * x4)"))
    assert not is_instance_of(schema, parse_formula("x0 -> 0"))
    weak = parse_formula("(x0 * x1) -> x0")
    assert is_instance_of(weak, parse_formula("(!x2 * x2) -> !x2"))
    assert not is_instance_of(weak, parse_formula("(!x2 * x2) -> x2"))
    assert is_instance_of(parse_formula("x0 -> x0"),
                          parse_formula("(x1 & x2) -> (x1 & x2)"))
    assert not is_instance_of(parse_formula("x0 -> x0"),
                              parse_formula("x1 -> x2"))


def test_instance_respects_sugar():
    schema = parse_formula("(x0 & x1) -> (x1 & x0)")
    inst = parse_formula("(!x0 & 1) -> (1 & !x0)")
    assert is_instance_of(schema, inst)


# -- proof checking -----------------------------------------------------------------

def test_valid_proof_passes():
    proof = mp_proof()
    verdict = check_proof(proof, builtin_axioms("mv"))
    assert verdict.valid and bool(verdict)
    assert verdict.line is None and verdict.reason is None
    assert proof.conclusion == Neg(X0)
    assert len(proof) == 5


def test_bad_hypothesis_index():
    proof = Proof((X0,), (ProofLine(X0, Hypothesis(3)),))
    verdict = check_proof(proof)
    assert not verdict and verdict.line == 0
    assert "hypothesis" in verdict.reason


def test_hypothesis_formula_mismatch():
    proof = Proof((X0,), (ProofLine(X1, Hypothesis(0)),))
    verdict = check_proof(proof)
    assert not verdict and verdict.line == 0


def test_axiom_line_rejected_without_axioms():
    proof = Proof((), (ProofLine(parse_formula("0 -> x0"), Axiom()),))
    assert not check_proof(proof)
    assert check_proof(proof, builtin_axioms("mv")).valid


def test_mp_wrong_direction():
    lines = (
        ProofLine(X0, Hypothesis(0)),
        ProofLine(Impl(X0, X1), Hypothesis(1)),
        ProofLine(X1, ModusPonens(1, 0)),
    )
    verdict = check_proof(Proof((X0, Impl(X0, X1)), lines))
    assert not verdict and verdict.line == 2


def test_mp_later_reference():
    lines = (
        ProofLine(X1, ModusPonens(1, 2)),
        ProofLine(X0, Hypothesis(0)),
        ProofLine(Impl(X0, X1), Hypothesis(1)),
    )
    verdict = check_proof(Proof((X0, Impl(X0, X1)), lines))
    assert not verdict and verdict.line == 0
    assert "later or missing" in verdict.reason


def test_mp_conclusion_mismatch():
    lines = (
        ProofLine(X0, Hypothesis(0)),
        ProofLine(Impl(X0, X1), Hypothesis(1)),
        ProofLine(X2, ModusPonens(0, 1)),
    )
    assert not check_proof(Proof((X0, Impl(X0, X1)), lines))


@pytest.mark.parametrize("premise, implication, conclusion, valid", [
    # the implication's sugar differs from the premise's: its node holds
    # x0 -> 0, not !x0, and only the cores agree
    ("!x0", "(x0 -> 0) -> x1", "x1", True),
    ("x0 -> 0", "!x0 -> x1", "x1", True),
    # a (+) b is !a -> b: no impl node at all until desugared
    ("!x0", "x0 (+) x1", "x1", True),
    ("!x0", "x0 (+) x1", "x2", False),
    ("x1", "(x0 -> 0) -> x1", "x1", False),
    ("!x0", "x0 & x1", "x1", False),
])
def test_mp_falls_back_to_the_cores_when_the_nodes_differ(premise, implication,
                                                          conclusion, valid):
    hyps = (parse_formula(premise), parse_formula(implication))
    lines = (
        ProofLine(hyps[0], Hypothesis(0)),
        ProofLine(hyps[1], Hypothesis(1)),
        ProofLine(parse_formula(conclusion), ModusPonens(0, 1)),
    )
    proof = Proof(hyps, lines)
    verdict = check_proof(proof)
    assert (verdict.valid, verdict.line, verdict.reason) == ref_check_proof(proof)
    assert verdict.valid is valid
    if not valid:
        assert verdict.line == 2
        assert verdict.reason == "line 2 is not an implication from line 1 to this line"


def test_substitution_line_mismatch():
    sigma = Substitution([Neg(X0)])
    lines = (
        ProofLine(X0, Hypothesis(0)),
        ProofLine(OPlus(X0, X0), Substituted(0, sigma)),
    )
    verdict = check_proof(Proof((X0,), lines))
    assert not verdict and verdict.line == 1


def test_substitution_later_reference():
    sigma = Substitution([Neg(X0)])
    lines = (ProofLine(Neg(X0), Substituted(0, sigma)),)
    verdict = check_proof(Proof((), lines))
    assert not verdict and "later or missing" in verdict.reason


def test_substitution_arity_guard_reported():
    sigma = Substitution([Neg(X0)])
    lines = (
        ProofLine(Impl(X0, X1), Hypothesis(0)),
        ProofLine(Impl(Neg(X0), X1), Substituted(0, sigma)),
    )
    verdict = check_proof(Proof((Impl(X0, X1),), lines))
    assert not verdict and verdict.line == 1


def test_strict_mode_requires_verbatim_schemas():
    instance = parse_formula("0 -> (x2 * x2)")
    proof = Proof((), (ProofLine(instance, Axiom()),))
    axioms = builtin_axioms("mv")
    assert check_proof(proof, axioms).valid
    assert not check_proof(proof, axioms, strict=True)
    verbatim = Proof((), (ProofLine(parse_formula("0 -> x0"), Axiom()),))
    assert check_proof(verbatim, axioms, strict=True).valid


def test_oracle_modes():
    excluded_middle = Proof((), (ProofLine(parse_formula("x0 | !x0"), Axiom()),))
    assert check_proof(excluded_middle, None, oracle="boole").valid
    assert not check_proof(excluded_middle, None)

    luk_taut = Proof((), (ProofLine(parse_formula("!!x0 -> x0"), Axiom()),))
    assert check_proof(luk_taut, None, oracle="lukasiewicz").valid
    wide = Proof((), (ProofLine(parse_formula("!!x2 -> x2"), Axiom()),))
    assert not check_proof(wide, None, oracle="lukasiewicz")

    seen = []

    def everything(f):
        seen.append(f)
        return True

    anything = Proof((), (ProofLine(ZERO, Axiom()),))
    assert check_proof(anything, None, oracle=everything).valid
    assert seen == [ZERO]
    with pytest.raises(ValueError):
        check_proof(anything, None, oracle="delphi")


# -- wire format ---------------------------------------------------------------------

def test_jsonl_round_trip():
    proof = mp_proof()
    text = proof_to_jsonl(proof)
    again = proof_from_jsonl(text, hypotheses=proof.hypotheses)
    assert len(again) == len(proof)
    for a, b in zip(again.lines, proof.lines):
        assert a.formula == b.formula
        assert type(a.justification) is type(b.justification)
    assert check_proof(again, builtin_axioms("mv")).valid


def test_jsonl_indices_are_one_based():
    rows = [json.loads(r) for r in proof_to_jsonl(mp_proof()).splitlines()]
    assert rows[0]["just"] == {"hyp": 1}
    assert rows[1]["just"] == {"hyp": 2}
    assert rows[2]["just"] == {"mp": [1, 2]}
    assert rows[3]["just"] == "axiom"
    assert rows[4]["just"]["subst"]["line"] == 3
    assert rows[4]["just"]["subst"]["sigma"] == {"x0": "1", "x1": "!x0"}


def test_jsonl_rejects_unknown_justification():
    with pytest.raises(ValueError):
        proof_from_jsonl('{"formula": "x0", "just": {"wave": 1}}')


@pytest.mark.parametrize("key", ["x\u00b2", "x\u0663", "x" + "1" * 4301, "x", "y0", "x-1", " x0"])
def test_jsonl_substitution_targets_take_ascii_digits_only(key):
    # the parser's rule for a variable name: x and 1 to 4300 ASCII digits
    line = {"formula": "x0", "just": {"subst": {"line": 1, "sigma": {key: "1"}}}}
    with pytest.raises(ValueError, match=r"line 1: .*is not a variable"):
        proof_from_jsonl(json.dumps(line))


def test_jsonl_substitution_target_digits_read_as_the_parser_reads_them():
    line = {"formula": "x0", "just": {"subst": {"line": 1, "sigma": {"x02": "1"}}}}
    sigma = proof_from_jsonl(json.dumps(line)).lines[0].justification.sigma
    assert sigma.images == (Var(0), Var(1), ONE) and parse_formula("x02") is Var(2)


def test_jsonl_blank_lines_ignored():
    text = proof_to_jsonl(mp_proof())
    padded = "\n" + text.replace("\n", "\n\n") + "\n\n"
    again = proof_from_jsonl(padded, hypotheses=mp_proof().hypotheses)
    assert len(again) == 5


def test_jsonl_refuses_a_text_without_proof_lines():
    for text in ("", "\n \n"):
        with pytest.raises(ValueError, match="^no proof lines$"):
            proof_from_jsonl(text)


# -- one memo per proof: the per-line path as the reference -------------------------------

def ref_proof_to_jsonl(proof):
    """proof_to_jsonl with each formula printed by a fold of its own."""
    rows = []
    for line in proof.lines:
        j = line.justification
        if isinstance(j, Axiom):
            just = "axiom"
        elif isinstance(j, Hypothesis):
            just = {"hyp": j.index + 1}
        elif isinstance(j, ModusPonens):
            just = {"mp": [j.premise + 1, j.implication + 1]}
        else:
            sigma = {f"x{i}": print_formula(g) for i, g in enumerate(j.sigma.images)}
            just = {"subst": {"line": j.line + 1, "sigma": sigma}}
        rows.append(json.dumps({"formula": print_formula(line.formula), "just": just},
                               sort_keys=True) + "\n")
    return "".join(rows)


def ref_check_proof(proof):
    """check_proof(proof, None, oracle="boole") as (valid, line, reason), with
    each table and each substitution walked by a fold of its own."""
    lines = proof.lines
    for idx, line in enumerate(lines):
        j = line.justification
        if isinstance(j, Hypothesis):
            if not 0 <= j.index < len(proof.hypotheses):
                return False, idx, f"no hypothesis {j.index + 1}"
            if line.formula != proof.hypotheses[j.index]:
                return False, idx, f"line differs from hypothesis {j.index + 1}"
        elif isinstance(j, Axiom):
            if not tautology_check(line.formula, BOOLE).is_tautology:
                return False, idx, "not an accepted axiom"
        elif isinstance(j, ModusPonens):
            k, m = j.premise, j.implication
            if not (0 <= k < idx and 0 <= m < idx):
                return False, idx, "MP references a later or missing line"
            imp = lines[m].formula.core()
            if imp.op != "impl" or imp.args[0] != lines[k].formula \
                    or imp.args[1] != line.formula:
                return (False, idx,
                        f"line {m + 1} is not an implication from line {k + 1} to this line")
        else:
            if not 0 <= j.line < idx:
                return False, idx, "substitution references a later or missing line"
            try:
                image = j.sigma(lines[j.line].formula)
            except ValueError as exc:
                return False, idx, str(exc)
            if image != line.formula:
                return False, idx, f"not the given substitution instance of line {j.line + 1}"
    return True, None, None


def derivation(hyp, n):
    return derive_from_nontautology(parse_formula(hyp), Neg(X0), n)


def with_line(proof, idx, formula=None, justification=None):
    lines = list(proof.lines)
    old = lines[idx]
    lines[idx] = ProofLine(old.formula if formula is None else formula,
                           old.justification if justification is None else justification)
    return Proof(proof.hypotheses, tuple(lines))


def with_sigmas(proof, make_sigma):
    """proof with the sigma of its k-th substitution line replaced by make_sigma(sigma, k)."""
    lines, k = [], 0
    for line in proof.lines:
        j = line.justification
        if isinstance(j, Substituted):
            line = ProofLine(line.formula, Substituted(j.line, make_sigma(j.sigma, k)))
            k += 1
        lines.append(line)
    return Proof(proof.hypotheses, tuple(lines))


def sugared(sigma):
    """sigma with each image !g written g -> 0: the same substitution up to sugar."""
    return Substitution([Impl(g.args[0], ZERO) if g.op == "neg" else g for g in sigma.images])


def mutants(proof):
    """(name, proof, whether it is valid) for the mutations the memos must not hide."""
    lines = proof.lines
    axioms = [i for i, line in enumerate(lines) if isinstance(line.justification, Axiom)]
    subst = [i for i, line in enumerate(lines) if isinstance(line.justification, Substituted)]
    # a late axiom conj -> (part -> pair), rewritten part -> conj over the same nodes
    late = axioms[-2]
    conj, (part, _) = lines[late].formula.args[0], lines[late].formula.args[1].args
    mp = late + 1
    j = lines[mp].justification
    last = subst[-1]
    yield "part -> conj as an axiom", with_line(proof, late, Impl(part, conj)), False
    yield "MP from the wrong premise", with_line(
        proof, mp, justification=ModusPonens(j.premise - 1, j.implication)), False
    yield "MP premises swapped", with_line(
        proof, mp, justification=ModusPonens(j.implication, j.premise)), False
    fresh = with_sigmas(proof, lambda sigma, k: Substitution(sigma.images))
    yield "every sigma a distinct object", fresh, True
    yield "a distinct sigma on a wrong line", \
        with_line(fresh, last, lines[last - 2].formula), False
    mixed = with_sigmas(proof, lambda sigma, k: sugared(sigma) if k % 2 else sigma)
    yield "every other sigma written with ->", mixed, True
    yield "a sugared sigma on a wrong line", with_line(mixed, last, lines[last - 1].formula), False


@pytest.mark.parametrize("hyp, n", [("x0", 3), ("x0 * x1", 3), ("x0 | !x1", 2)])
def test_the_proof_memos_agree_with_the_per_line_path(hyp, n):
    proof = derivation(hyp, n)
    text = proof_to_jsonl(proof)
    assert text == ref_proof_to_jsonl(proof)
    again = proof_from_jsonl(text, hypotheses=proof.hypotheses)
    for row, line, back in zip(text.splitlines(), proof.lines, again.lines):
        obj = json.loads(row)
        assert back.formula is parse_formula(obj["formula"])
        assert back.justification == line.justification
        if isinstance(back.justification, Substituted):
            for key, image in obj["just"]["subst"]["sigma"].items():
                assert back.justification.sigma.images[int(key[1:])] is parse_formula(image)
    assert check_proof(again, None, oracle="boole").valid
    for name, mutant, valid in mutants(proof):
        expected = ref_check_proof(mutant)
        assert expected[0] is valid, name
        verdict = check_proof(mutant, None, oracle="boole")
        assert (verdict.valid, verdict.line, verdict.reason) == expected, name
        text = proof_to_jsonl(mutant)
        assert text == ref_proof_to_jsonl(mutant), name
        back = proof_from_jsonl(text, hypotheses=mutant.hypotheses)
        assert all(a.formula is b.formula for a, b in zip(back.lines, mutant.lines)), name


def test_the_proof_memos_agree_on_a_hand_written_proof():
    proof = mp_proof()
    assert proof_to_jsonl(proof) == ref_proof_to_jsonl(proof)
    for idx, line in enumerate(proof.lines):
        for formula in (ZERO, Neg(X0), Impl(X0, ZERO), X1):
            mutant = with_line(proof, idx, formula)
            verdict = check_proof(mutant, None, oracle="boole")
            assert (verdict.valid, verdict.line, verdict.reason) == ref_check_proof(mutant)


def fold_steps_per_line(monkeypatch, hyp, n):
    """Steps of every fold during check_proof(..., oracle="boole") of the
    derivation of !x0 from hyp over n variables, per proof line."""
    steps = 0
    fold = formula_module.fold

    def counting_fold(f, step, known=None, **kwargs):
        def counted(*args):
            nonlocal steps
            steps += 1
            return step(*args)
        return fold(f, counted, known, **kwargs)

    proof = derivation(hyp, n)
    with monkeypatch.context() as m:
        m.setattr(formula_module, "fold", counting_fold)
        assert check_proof(proof, None, oracle="boole").valid
    return steps / len(proof.lines)


@pytest.mark.parametrize("hyp", ["x0", "x0 * x1"])
def test_the_boole_check_walks_each_node_once_per_proof(monkeypatch, hyp):
    # each line tables and substitutes only the nodes no earlier line had,
    # and the memos die with the call: no node outlives the proof
    gc.collect()
    start = len(formula_module._NODES)
    low, high = (fold_steps_per_line(monkeypatch, hyp, n) for n in (4, 10))
    assert high <= 2 * low
    assert len(formula_module._NODES) == start


def count_calls(monkeypatch, name, run):
    """run() with formula_module.<name> counted: (its result, the calls)."""
    calls = 0
    real = getattr(formula_module, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(formula_module, name, counted)
        return run(), calls


@pytest.mark.parametrize("hyp", ["x0", "x0 * x1"])
def test_the_boole_check_desugars_no_line(monkeypatch, hyp):
    # every MP line of a derivation, and of its JSONL round trip, holds the
    # very nodes of its premise and conclusion, so none is desugared
    proof = derivation(hyp, 4)
    again = proof_from_jsonl(proof_to_jsonl(proof), hypotheses=proof.hypotheses)
    for p in (proof, again):
        verdict, desugared = count_calls(
            monkeypatch, "_desugar", lambda: check_proof(p, None, oracle="boole"))
        assert verdict.valid
        assert desugared == 0


@pytest.mark.parametrize("hyp, built", [
    ("x0", [(1, 1, 0)]),
    ("x0 * x1 -> x2 & x3", [(4, 1, 0), (4, 1, 1), (4, 1, 2), (4, 1, 3)]),
])
def test_the_boole_check_builds_each_variable_once_per_proof(monkeypatch, hyp, built):
    """Input: the derivation of !x0 from hyp at n = 4 (16 axiom lines, each of
    one variable from x0 and of four from the other hypothesis). Measure:
    the (n, m, i) of each variable's planes the boole check builds. Bound: each
    variable once per proof; a table per axiom line would build all four 16 times."""
    proof = derivation(hyp, 4)
    calls = []
    real = formula_module._variable_planes

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(formula_module, "_variable_planes", recorded)
    assert check_proof(proof, None, oracle="boole").valid
    assert calls == built


def test_the_two_element_search_folds_the_one_chain_step(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the search tabled a formula through boolean_table")

    monkeypatch.setattr(formula_module, "boolean_table", refused)
    assert _countermodel([X0, Impl(X0, X1)], X1, BOOLE, 2) == (None, 1)
    assert _countermodel([Or(X0, X1)], X0, BOOLE, 2) == ((Fraction(0), Fraction(1)), None)
    assert mp_consequence([], Or(X2, Neg(X2)), BOOLE).status == "yes"


@pytest.mark.parametrize("hyp, n", [("x0 * x1", 4), ("x0", 6)])
def test_reading_a_proof_cuts_no_modus_ponens_line(monkeypatch, hyp, n):
    """Input: the JSONL of the derivation of !x0 from hyp at n variables.
    Measure: the texts that the parser cuts at their parentheses
    (formula._PARENS.split). Bound: each text once, and no Modus Ponens
    line's text unless another line or a sigma writes it too: it is the text
    after the top-level '->' of a line read before. Every line read is the
    node a memo-free parse gives."""
    proof = derivation(hyp, n)
    text = proof_to_jsonl(proof)
    cut = []
    parens = formula_module._PARENS

    class Recorded:
        def split(self, s):
            cut.append(s)
            return parens.split(s)

    monkeypatch.setattr(formula_module, "_PARENS", Recorded())
    back = proof_from_jsonl(text, hypotheses=proof.hypotheses)
    monkeypatch.undo()
    rows = [json.loads(raw) for raw in text.splitlines()]
    mp, others = set(), set()
    for row in rows:
        j = row["just"]
        if isinstance(j, dict) and "mp" in j:
            mp.add(row["formula"])
        else:
            others.add(row["formula"])
            others.update(j["subst"]["sigma"].values() if "subst" in j else ())
    assert len(cut) == len(set(cut))
    assert len(mp - others) > len(proof.lines) // 3
    assert cut and (mp - others).isdisjoint(cut)
    assert all(line.formula is parse_formula(row["formula"])
               for line, row in zip(back.lines, rows, strict=True))


def test_reading_a_proof_builds_each_negation_once(monkeypatch):
    """Input: the derivation of !x0 from x0 at n = 6 (254 distinct nodes,
    about 250 KB). Measure: Neg calls of proof_from_jsonl against the distinct
    neg nodes of the proof (72). Bound: one call per node; one call per '!'
    of the text would make 180,779."""
    proof = derivation("x0", 6)
    text = proof_to_jsonl(proof)
    back, calls = count_calls(
        monkeypatch, "Neg", lambda: proof_from_jsonl(text, hypotheses=proof.hypotheses))
    memo = {}
    for line in back.lines:
        formula_module.fold(line.formula, lambda node, *kids: node, memo=memo)
        if isinstance(line.justification, Substituted):
            for g in line.justification.sigma.images:
                formula_module.fold(g, lambda node, *kids: node, memo=memo)
    negations = sum(node.op == "neg" for node in memo.values())
    assert all(a.formula is b.formula for a, b in zip(back.lines, proof.lines))
    assert 0 < calls <= negations
    assert text.count("!") > 100 * negations


# -- semantic consequence --------------------------------------------------------------

def test_mp_consequence_chain_yes():
    sem = chain_semantics(3)
    v = mp_consequence([parse_formula("!!x0")], X0, sem)
    assert v.status == "yes"
    assert v.certificate["method"] == "finite-valuations"
    assert v.certificate["satisfying_assignments"] == 1


def test_mp_consequence_chain_no_with_countermodel():
    sem = chain_semantics(2)
    v = mp_consequence([parse_formula("x0 (+) x0")], X0, sem)
    assert v.status == "no"
    assert v.countermodel == (Fraction(1, 2),)


def test_mp_consequence_lukasiewicz_no():
    v = mp_consequence([parse_formula("x0 (+) x0")], X0, LUKASIEWICZ)
    assert v.status == "no"
    assert v.countermodel == (Fraction(1, 2),)


@pytest.mark.parametrize("sem", [LUKASIEWICZ, chain_semantics(3)], ids=["lukasiewicz", "chain3"])
@pytest.mark.parametrize("delta,r", [([], ZERO), ([ONE], Star(ONE, ZERO))],
                         ids=["nothing-proves-0", "1-proves-1*0"])
def test_mp_consequence_refutes_closed_formulas_at_the_empty_point(sem, delta, r):
    # no variable, so the countermodel has no coordinate, as tautology_check's
    v = mp_consequence(delta, r, sem)
    assert (v.status, v.countermodel) == ("no", ())


def test_mp_consequence_power_certificate():
    six = X0
    for _ in range(5):
        six = Star(six, X0)
    high = mp_consequence([X0], six, LUKASIEWICZ)
    assert high.status == "yes"
    assert high.certificate == {"method": "product-search", "power": 6}


def test_mp_consequence_two_variables():
    v = mp_consequence([X0, Impl(X0, X1)], X1, LUKASIEWICZ)
    assert v.status == "yes"
    assert v.certificate["method"] == "product-search"


def test_mp_consequence_empty_delta():
    v = mp_consequence([], parse_formula("!!x0 -> x0"), LUKASIEWICZ)
    assert v.status == "yes"
    w = mp_consequence([], X0, chain_semantics(2))
    assert w.status == "no"


def test_mp_consequence_guards():
    # past pwl's ceiling, or in a logic with no backend, no exact procedure
    # reaches the input: the one refusal that the fallbacks catch
    with pytest.raises(OutOfReach):
        mp_consequence([Var(3)], X0, LUKASIEWICZ)
    with pytest.raises(OutOfReach, match="no decidable backend for this semantics"):
        mp_consequence([X0], X0, GODEL)
    with pytest.raises(OutOfReach, match="no decidable backend for this semantics"):
        mp_consequence([X0], X0, PRODUCT)


def test_only_mp_consequence_chooses_a_backend_by_kind():
    """Outside TNormSemantics itself, only proofs.mp_consequence branches on a
    semantics' kind; tautology_check keeps only the guards of its explicit
    truth-table and exact-pwl methods. So a new backend plugs in at one place."""
    found = []
    for path in sorted(Path(formula_module.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            within = {id(v): b for b in ast.walk(fn) if isinstance(b, ast.BoolOp) for v in b.values}
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and any(
                        isinstance(x, ast.Attribute) and x.attr == "kind"
                        and ast.unparse(x.value) != "self" for x in [node.left, *node.comparators]):
                    found.append((path.name, fn.name, ast.unparse(within.get(id(node), node))))
    assert sorted(found) == [
        ("formula.py", "tautology_check", "method == 'exact-pwl' and sem.kind != 'lukasiewicz'"),
        ("formula.py", "tautology_check", "method == 'truth-table' and sem.kind != 'chain'"),
        ("proofs.py", "mp_consequence", "sem.kind != 'lukasiewicz'"),
        ("proofs.py", "mp_consequence", "sem.kind == 'chain'"),
    ]


def test_mp_consequence_chain_cap_is_checked_before_the_carrier(monkeypatch):
    def refused(*args):
        raise AssertionError("the carrier or a variable plane was built past the cap")

    monkeypatch.setattr(TNormSemantics, "carrier", refused)
    monkeypatch.setattr("mvdyn.formula._variable_planes", refused)
    with pytest.raises(ValueError, match=r"100000001\*\*1 valuations"):
        mp_consequence([X0], X0, chain_semantics(100_000_000))
    with pytest.raises(ValueError, match=r"2\*\*21 valuations"):
        mp_consequence([Var(20)], X0, BOOLE)


def test_mp_consequence_on_boole_reads_packed_tables(monkeypatch):
    def refused(*args):
        raise AssertionError("a valuation was built point by point")

    monkeypatch.setattr("mvdyn.formula.interpret", refused)
    monkeypatch.setattr(TNormSemantics, "carrier", refused)
    for m, base in itertools.product(range(1, 9), ("lukasiewicz", "godel")):
        sem = chain_semantics(m, base)
        v = mp_consequence([X0, Impl(X0, X1)], X1, sem)
        assert v.certificate == {"method": "finite-valuations", "satisfying_assignments": 1}
        v = mp_consequence([Or(X0, X1)], X0, sem)
        assert (v.status, v.countermodel) == ("no", (Fraction(0), Fraction(1)))
        assert tautology_check(Or(Impl(X0, X1), Impl(X1, X0)), sem).is_tautology
        v = tautology_check(Or(X2, Neg(X2)), sem)
        assert v.point == (None if m == 1 else (0, 0, Fraction(1, m)))
    # a closed formula has one point however long the chain, and x0 on
    # 1,999,999 steps has 2,000,000, at the cap: neither builds a carrier
    v = tautology_check(Impl(ONE, ZERO), chain_semantics(10**9))
    assert (v.status, v.point) == ("countermodel", ())
    assert tautology_check(Impl(X0, X0), chain_semantics(1_999_999)).is_tautology


def test_mp_consequence_matches_brute_force_on_chain():
    rng = random.Random(77)
    sem = chain_semantics(2)
    carrier = sem.carrier()

    def rand_formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([X0, X1, ZERO, ONE])
        ctor = rng.choice([Star, Impl, And, Or, OPlus])
        return ctor(rand_formula(depth - 1), rand_formula(depth - 1))

    from mvdyn.formula import evaluate
    for _ in range(40):
        delta = [rand_formula(2) for _ in range(rng.randint(0, 2))]
        r = rand_formula(2)
        want = all(evaluate(r, sem, (a, b)) == 1
                   for a in carrier for b in carrier
                   if all(evaluate(d, sem, (a, b)) == 1 for d in delta))
        got = mp_consequence(delta, r, sem)
        assert (got.status == "yes") == want, (delta, r)


# -- the one finite-model search against the loops it replaced --------------------------

def ref_boolean_verdict(f, n):
    """The packed verdict on the two-element chain: (status, first countermodel)."""
    falsified = ~boolean_table(f, n) & ((1 << (1 << n)) - 1)
    if not falsified:
        return "tautology", None
    # itertools.product order varies x0 slowest: fix x0, x1, ... in turn to the
    # smaller value whenever some falsifying valuation remains with it
    point = []
    for i in range(n):
        low = falsified & ~sum(1 << p for p in range(1 << n) if p >> i & 1)
        if low:
            falsified = low
            point.append(Fraction(0))
        else:
            point.append(Fraction(1))
    return "countermodel", tuple(point)


def ref_point_verdict(f, sem, axis, exhausted):
    """The point loop of tautology_check: (status, first countermodel)."""
    for point in itertools.product(axis, repeat=arity_of(f)):
        if interpret(f, sem, point) != 1:
            return "countermodel", point
    return exhausted, None


def ref_chain_consequence(delta, r, sem):
    """The finite-chain loop of mp_consequence: (status, countermodel, certificate)."""
    arity = max([arity_of(r)] + [arity_of(d) for d in delta])
    satisfying = 0
    for p in itertools.product(sem.carrier(), repeat=arity):
        if all(interpret(d, sem, p) == 1 for d in delta):
            satisfying += 1
            if interpret(r, sem, p) != 1:
                return "no", p, None
    return "yes", None, {"method": "finite-valuations", "satisfying_assignments": satisfying}


def formulas_over(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(sub.map(Neg), st.builds(
            lambda op, a, b: op(a, b), st.sampled_from([Star, Impl, And, Or, OPlus]), sub, sub)),
        max_leaves=8)


@st.composite
def finite_model_cases(draw):
    """(chain, f, delta, grid semantics, grid bound): a chain of m = 1..4 steps on
    either base, formulas over x0..x_{n-1} for n = 0..4, and 0 to 3 hypotheses."""
    chain = chain_semantics(draw(st.integers(1, 4)), draw(st.sampled_from(["lukasiewicz",
                                                                           "godel"])))
    formulas = formulas_over([Var(i) for i in range(draw(st.integers(0, 4)))] + [ZERO, ONE])
    return (chain, draw(formulas), draw(st.lists(formulas, max_size=3)),
            draw(st.sampled_from([chain, GODEL, PRODUCT, LUKASIEWICZ])), draw(st.integers(1, 3)))


def is_point(p):
    return type(p) is tuple and all(type(v) is Fraction for v in p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(finite_model_cases())
@example((BOOLE, Or(Var(3), Neg(Var(3))), [X0, Neg(X1), Impl(X2, X0)], PRODUCT, 2))
@example((chain_semantics(4, "godel"), Impl(Var(3), X0), [Or(X1, X2)], BOOLE, 3))
@example((chain_semantics(2), ZERO, [], GODEL, 1))
@example((BOOLE, And(Impl(X0, X1), Impl(X1, X0)), [Or(X0, X1)], BOOLE, 1))
def test_the_one_search_decides_as_the_loops_it_replaced(case):
    chain, f, delta, grid, bound = case
    want = ref_point_verdict(f, chain, chain.carrier(), "tautology")
    if chain.m == 1:
        assert ref_boolean_verdict(f, arity_of(f)) == want
    for method in ("auto", "truth-table"):
        got = tautology_check(f, chain, method=method)
        assert (got.status, got.point) == want
        assert got.point is None or is_point(got.point)
    got = tautology_check(f, grid, method="grid", grid_bound=bound)
    axis = [v for v in rationals_up_to(bound) if grid.contains(v)]
    assert (got.status, got.point) == ref_point_verdict(f, grid, axis, "unknown")
    assert got.point is None or is_point(got.point)
    got = mp_consequence(delta, f, chain)
    assert (got.status, got.countermodel, got.certificate) == ref_chain_consequence(delta, f,
                                                                                      chain)
    assert got.countermodel is None or is_point(got.countermodel)


def seeded_formula(rng, n, depth):
    """A formula over x0..x_{n-1}, 0 and 1, drawn from every connective."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var(i) for i in range(n)] + [ZERO, ONE])
    ctor = rng.choice([Neg, Star, Impl, And, Or, OPlus])
    if ctor is Neg:
        return Neg(seeded_formula(rng, n, depth - 1))
    return ctor(seeded_formula(rng, n, depth - 1), seeded_formula(rng, n, depth - 1))


def test_every_chain_is_searched_as_the_point_loop_searches_it():
    """A fixed sweep: chains m = 1..8 on both bases, every n = 0..4 with at
    most 729 points, 0 to 3 hypotheses, 8 cases each. mp_consequence and both
    chain methods of tautology_check give the point loop's verdict, first
    countermodel and count."""
    rng = random.Random(36)
    cases = 0
    for m, base in itertools.product(range(1, 9), ("lukasiewicz", "godel")):
        chain, ops = chain_semantics(m, base), set()
        for n in itertools.takewhile(lambda n: (m + 1) ** n <= 729, range(5)):
            for _ in range(8):
                f = seeded_formula(rng, n, 4)
                delta = [seeded_formula(rng, n, 2) for _ in range(rng.randint(0, 3))]
                want = ref_point_verdict(f, chain, chain.carrier(), "tautology")
                for method in ("auto", "truth-table"):
                    got = tautology_check(f, chain, method=method)
                    assert (got.status, got.point) == want, (m, base, f)
                got = mp_consequence(delta, f, chain)
                assert (got.status, got.countermodel, got.certificate) == \
                    ref_chain_consequence(delta, f, chain), (m, base, delta, f)
                stack = [f, *delta]
                while stack:
                    node = stack.pop()
                    ops.add(node.op)
                    stack.extend(node.args)
                cases += 1
        assert ops == {"var", "zero", "one", "star", "impl", "neg", "and", "or", "oplus"}
    assert cases == 576


# -- Lukasiewicz consequence against the clip-and-search reference ----------------------

def ref_min_over_unit_set(cw, rw):
    """(min of rw over {cw = 1}, first witness), or (None, None) if empty: each
    2-D cell where cw is 1 somewhere is clipped to the face where it is 1."""
    refined, tags = _refine_tagged(cw.complex, rw.complex)
    best = witness = None
    for j, (i1, i2) in enumerate(tags):
        cp, rp = cw.maps[i1], rw.maps[i2]
        pts = refined.cell_points(j)
        vals = [_row_value(cp, p) for p in pts]
        if all(v == 1 for v in vals):
            cand = pts
        elif any(v == 1 for v in vals):
            if refined.dim == 1:
                cand = [p for p, v in zip(pts, vals) if v == 1]
            else:
                face = _scaled((cp.a[0][0], cp.a[0][1], cp.b[0] - 1))[0]
                poly = _clip([refined._triples[i] for i in refined.cells[j]], face)
                cand = [(Fraction(x, w), Fraction(y, w)) for x, y, w in poly]
        else:
            continue
        for p in cand:
            v = _row_value(rp, p)
            if best is None or v < best:
                best, witness = v, p
    return best, witness


def product(delta):
    return reduce(Star, delta) if delta else ONE


def dimension(delta, r):
    return max([arity_of(r), 1] + [arity_of(d) for d in delta])


def ref_mp_consequence(delta, r, star_power_bound=64):
    """(status, countermodel, power): the minimum above, its witness cut to
    the formulas' variables, then the least power of the product of delta
    below r, searched up to the bound ("unknown" past it)."""
    dim = dimension(delta, r)
    cw = pwl_from_formula(product(delta), dim)
    rw = pwl_from_formula(r, dim)
    low, witness = ref_min_over_unit_set(cw, rw)
    if low is not None and low < 1:
        return "no", witness[:max(map(arity_of, [r, *delta]))], None
    power = cw
    for k in range(1, star_power_bound + 1):
        if pwl_le(power, rw):
            return "yes", None, k
        power = pwl_combine("star", power, cw)
    return "unknown", None, None


def star_power(f, k):
    return reduce(Star, [f] * k)


SEVENTY = star_power(X0, 70)


def consequence_cases(leaves):
    """(delta, r) over the leaves: r drawn freely or above a power of the
    product of delta, or delta = [f^j] and r = f^m, whose least power
    ceil(m / j) is not m / j when j does not divide m."""
    formulas = st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(sub.map(Neg), st.builds(
            lambda op, a, b: op(a, b), st.sampled_from([Star, Impl, And, Or, OPlus]), sub, sub)),
        max_leaves=6)

    def with_target(delta):
        c = product(delta)
        above = st.builds(lambda k, g: star_power(c, k) if g is None else Or(star_power(c, k), g),
                          st.integers(1, 5), st.none() | formulas)
        return st.tuples(st.just(delta), st.one_of(formulas, above))
    powers = st.builds(lambda f, j, m: ([star_power(f, j)], star_power(f, m)),
                       formulas, st.integers(1, 3), st.integers(1, 6))
    return st.one_of(st.lists(formulas, max_size=2).flatmap(with_target), powers)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(consequence_cases([X0, X0, ZERO, ONE]),
                 consequence_cases([X0, X1, X0, X1, ZERO, ONE])))
@example(([X0], SEVENTY))
@example(([Star(X0, X0)], star_power(X0, 3)))
@example(([Or(X0, X1)], Star(X0, X1)))
@example(([X0, X1], star_power(Star(X0, X1), 12)))
def test_mp_consequence_decides_as_the_reference(case):
    delta, r = case
    got = mp_consequence(delta, r, LUKASIEWICZ)
    status, countermodel, power = ref_mp_consequence(delta, r)
    if status == "unknown":
        # past the search bound: the power is the least one below r
        assert got.status == "yes"
        k = got.certificate["power"]
        dim, c = dimension(delta, r), product(delta)
        rw = pwl_from_formula(r, dim)
        assert pwl_le(pwl_from_formula(star_power(c, k), dim), rw)
        assert k == 1 or not pwl_le(pwl_from_formula(star_power(c, k - 1), dim), rw)
        return
    assert (got.status, got.countermodel) == (status, countermodel)
    if status == "yes":
        assert got.certificate == {"method": "product-search", "power": power}


def test_mp_consequence_decides_a_power_past_any_search_bound():
    v = mp_consequence([X0], SEVENTY, LUKASIEWICZ)
    assert v.status == "yes"
    assert v.certificate == {"method": "product-search", "power": 70}
