"""Packed Boolean truth tables, the odometer substitution, and derivations
of arbitrary targets from a non-tautological hypothesis."""

import gc
import random

import pytest

import mvdyn.formula as formula_module
from mvdyn.formula import (
    Var, Star, Impl, Neg, And, Or, OPlus, ZERO, ONE, Substitution,
    apply_substitution, compose_substitutions, parse_formula,
)
from mvdyn.proofs import (
    Proof, ProofLine, Substituted, ModusPonens, Hypothesis, Axiom, check_proof,
)
from mvdyn.odometer import (
    TruthTable, truth_table, symmetric_difference, odometer_substitution,
    BoolPermutation, induced_permutation, odometer_induced_permutation,
    derive_from_nontautology, MAX_DERIVE_VARS,
)

X0, X1 = Var(0), Var(1)


def rand_formula(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var(rng.randrange(n)), ZERO, ONE])
    op = rng.choice(["star", "impl", "neg", "and", "or", "oplus"])
    if op == "neg":
        return Neg(rand_formula(rng, n, depth - 1))
    ctor = {"star": Star, "impl": Impl, "and": And, "or": Or, "oplus": OPlus}[op]
    return ctor(rand_formula(rng, n, depth - 1), rand_formula(rng, n, depth - 1))


# -- truth tables -------------------------------------------------------------------

def test_truth_table_hex_oracles():
    assert truth_table(Impl(X0, X1), 2).to_hex() == "2:d"
    assert truth_table(Star(X0, X1), 2).to_hex() == "2:8"
    assert truth_table(Var(0), 3).to_hex() == "3:aa"
    assert truth_table(Var(1), 3).to_hex() == "3:cc"
    assert truth_table(Var(2), 3).to_hex() == "3:f0"
    assert truth_table(ONE, 1).to_hex() == "1:3"
    assert truth_table(ZERO, 0).to_hex() == "0:0"


def test_truth_table_values_and_flags():
    t = truth_table(Or(X0, Neg(X0)), 2)
    assert t.is_tautology and not t.is_contradiction
    u = truth_table(Star(X0, Neg(X0)), 1)
    assert u.is_contradiction
    v = truth_table(Impl(X0, X1), 2)
    assert [v.value(p) for p in range(4)] == [1, 0, 1, 1]


def test_truth_table_from_hex_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(0, 4)
        bits = rng.randrange(1 << (1 << n))
        t = TruthTable(n, bits)
        assert TruthTable.from_hex(t.to_hex()) == t


def test_truth_table_guards():
    with pytest.raises(ValueError):
        truth_table(Var(2), 2)
    with pytest.raises(ValueError):
        TruthTable(1, 16)
    with pytest.raises(ValueError):
        TruthTable(-1, 0)


def test_truth_table_refuses_too_many_variables_before_any_mask(monkeypatch):
    def refused(*args):
        raise AssertionError("a variable plane was built")

    monkeypatch.setattr("mvdyn.formula._variable_planes", refused)
    with pytest.raises(ValueError, match=r"2\*\*21 valuations"):
        truth_table(Var(0), 21)
    with pytest.raises(ValueError, match="at least 0"):
        truth_table(ZERO, -1)


def test_sugar_collapses_to_boolean_connectives():
    assert truth_table(And(X0, X1), 2).bits == truth_table(Star(X0, X1), 2).bits
    assert truth_table(OPlus(X0, X1), 2).bits == truth_table(Or(X0, X1), 2).bits


def test_symmetric_difference_is_xor():
    t = truth_table(symmetric_difference(X0, X1), 2)
    assert t.to_hex() == "2:6"
    rng = random.Random(6)
    for _ in range(30):
        a, b = rand_formula(rng, 2, 3), rand_formula(rng, 2, 3)
        want = truth_table(a, 2).bits ^ truth_table(b, 2).bits
        assert truth_table(symmetric_difference(a, b), 2).bits == want


# -- the odometer --------------------------------------------------------------------

def test_odometer_substitution_shape():
    sigma = odometer_substitution(3)
    assert sigma.arity == 3
    assert sigma.images[0] == Neg(X0)
    with pytest.raises(ValueError):
        odometer_substitution(0)


def test_odometer_is_plus_one():
    for n in range(1, 11):
        perm = odometer_induced_permutation(n)
        size = 1 << n
        assert perm.mapping == tuple((p + 1) % size for p in range(size))
        assert perm.cycle_lengths() == (size,)
        assert perm(size - 1) == 0


def test_induced_permutation_basics():
    ident = Substitution([X0, X1])
    assert induced_permutation(ident, 2).mapping == (0, 1, 2, 3)
    flip = Substitution([Neg(X0)])
    assert induced_permutation(flip, 1).mapping == (1, 0)
    assert induced_permutation(flip, 1).cycle_lengths() == (2,)


def ref_induced_permutation(sigma, n):
    """The per-valuation loop: bit p of every image's table, one shift each."""
    tables = [truth_table(g, n).bits for g in sigma.images]
    mapping = []
    for p in range(1 << n):
        q = 0
        for i in range(n):
            q |= ((tables[i] >> p) & 1) << i
        mapping.append(q)
    return BoolPermutation(n, tuple(mapping))


def rand_bool_permutation(rng, n):
    """An odometer, a flip of some variables, a swap of two, or a composition."""
    kind = rng.choice(["odometer", "flip", "swap", "compose"])
    if kind == "odometer":
        return odometer_substitution(n)
    if kind == "flip":
        return Substitution([Neg(Var(i)) if rng.random() < 0.5 else Var(i) for i in range(n)])
    if kind == "swap":
        images = [Var(i) for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        images[i], images[j] = images[j], images[i]
        return Substitution(images)
    return compose_substitutions(rand_bool_permutation(rng, n), rand_bool_permutation(rng, n))


def test_induced_permutation_matches_the_per_valuation_loop():
    rng = random.Random(25)
    assert induced_permutation(Substitution([]), 0) == ref_induced_permutation(Substitution([]), 0)
    for n in range(1, 9):
        for _ in range(6):
            sigma = rand_bool_permutation(rng, n)
            assert induced_permutation(sigma, n) == ref_induced_permutation(sigma, n)


def test_induced_permutation_rejects_collapse():
    squash = Substitution([And(X0, X1), X1])
    for build in (induced_permutation, ref_induced_permutation):
        with pytest.raises(ValueError, match="not a permutation"):
            build(squash, 2)
    with pytest.raises(ValueError):
        induced_permutation(Substitution([X0]), 2)


def test_induced_permutation_refuses_too_many_variables_before_any_table(monkeypatch):
    def refused(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr("mvdyn.odometer.boolean_table", refused)
    with pytest.raises(ValueError, match=r"the 2\*\*21 valuations of a finite chain"):
        induced_permutation(Substitution.identity(21), 21)


@pytest.mark.parametrize("n, message", [
    (21, "the 2**21 valuations of a finite chain exceed the cap of 2000000"),
    (-1, "variable count must be at least 0, not -1"),
])
def test_every_two_valued_table_refuses_a_count_with_one_message(n, message):
    for build in (lambda: truth_table(ZERO, n), lambda: TruthTable(n, 0),
                  lambda: induced_permutation(Substitution([]), n),
                  lambda: odometer_induced_permutation(n)):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


def test_bool_permutation_guard():
    with pytest.raises(ValueError):
        BoolPermutation(1, (0, 0))


# -- derivations ----------------------------------------------------------------------

def test_derivation_small_shape():
    proof = derive_from_nontautology(X0, Neg(X0), 1)
    assert len(proof) == 7
    assert proof.hypotheses == (X0,)
    assert proof.conclusion == Neg(X0)
    assert proof.lines[1].formula == Neg(X0)
    assert check_proof(proof, None, oracle="boole").valid


def test_derivation_random_cases():
    rng = random.Random(88)
    sigma_cache = {n: odometer_substitution(n) for n in (1, 2, 3)}
    done = 0
    while done < 30:
        n = rng.randint(1, 3)
        r = rand_formula(rng, n, 3)
        if truth_table(r, n).is_tautology:
            continue
        target = rand_formula(rng, n, 3)
        proof = derive_from_nontautology(r, target, n)
        assert check_proof(proof, None, oracle="boole").valid
        assert proof.conclusion == target
        assert len(proof) == 4 * (1 << n) - 1
        sigma = sigma_cache[n]
        for line in proof.lines:
            j = line.justification
            if isinstance(j, Substituted):
                assert j.sigma.images == sigma.images
            else:
                assert isinstance(j, (Hypothesis, ModusPonens, Axiom))
        done += 1


def test_derivation_at_n8_answers_in_process():
    # its running conjunction nests about 1,800 levels deep once desugared
    proof = derive_from_nontautology(Star(X0, X1), Neg(X1), 8)
    assert len(proof.lines) == 1023


def test_derivation_substitution_lines_track_orbit():
    proof = derive_from_nontautology(Star(X0, X1), ZERO, 2)
    sigma = odometer_substitution(2)
    current = Star(X0, X1)
    for k in range(1, 4):
        current = apply_substitution(sigma, current)
        assert proof.lines[k].formula == current
        assert isinstance(proof.lines[k].justification, Substituted)


def ref_derive(r, target, n):
    """The derivation built from tau = sigma^k, composed step by step, so that
    copy k is tau(r); the caps and the tautology check are the library's."""
    sigma = odometer_substitution(n)
    lines = [ProofLine(r, Hypothesis(0))]
    shifted, shift_line = [r], [0]
    tau = Substitution.identity(n)
    for _ in range(1, 1 << n):
        tau = compose_substitutions(tau, sigma)
        nxt = apply_substitution(tau, r)
        lines.append(ProofLine(nxt, Substituted(len(lines) - 1, sigma)))
        shifted.append(nxt)
        shift_line.append(len(lines) - 1)
    conj, conj_line = shifted[0], shift_line[0]
    for k in range(1, 1 << n):
        part = shifted[k]
        pair = And(conj, part)
        lines.append(ProofLine(Impl(conj, Impl(part, pair)), Axiom()))
        lines.append(ProofLine(Impl(part, pair), ModusPonens(conj_line, len(lines) - 1)))
        lines.append(ProofLine(pair, ModusPonens(shift_line[k], len(lines) - 1)))
        conj, conj_line = pair, len(lines) - 1
    lines.append(ProofLine(Impl(conj, target), Axiom()))
    lines.append(ProofLine(target, ModusPonens(conj_line, len(lines) - 1)))
    return Proof((r,), tuple(lines))


def derivation_cases():
    rng = random.Random(61)
    for n in range(1, 7):
        found = 0
        while found < 3:
            r = rand_formula(rng, n, 4)
            if not truth_table(r, n).is_tautology:
                found += 1
                yield r, rand_formula(rng, n, 3), n
    for hyp in ("x0", "x0 * x1"):
        yield parse_formula(hyp), Neg(X1), 8


def test_derivation_matches_the_composed_reference():
    for r, target, n in derivation_cases():
        got, want = derive_from_nontautology(r, target, n), ref_derive(r, target, n)
        assert got.hypotheses == want.hypotheses
        assert len(got.lines) == len(want.lines)
        for a, b in zip(got.lines, want.lines):
            assert a.formula is b.formula
            assert a.justification == b.justification


def derive_fold_steps_per_line(monkeypatch, hyp, n):
    """Steps of every fold during the derivation of !x0 from hyp over n
    variables, per proof line."""
    steps = 0
    fold = formula_module.fold

    def counting_fold(f, step, known=None, **kwargs):
        def counted(*args):
            nonlocal steps
            steps += 1
            return step(*args)
        return fold(f, counted, known, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(formula_module, "fold", counting_fold)
        proof = derive_from_nontautology(parse_formula(hyp), Neg(X0), n)
    return steps / len(proof.lines)


@pytest.mark.parametrize("hyp", ["x0", "x0 * x1"])
def test_the_derivation_walks_each_node_once(monkeypatch, hyp):
    # each copy substitutes only the nodes no earlier copy had, and the memo
    # dies with the call: no node outlives the proof
    gc.collect()
    start = len(formula_module._NODES)
    low, high = (derive_fold_steps_per_line(monkeypatch, hyp, n) for n in (4, 10))
    assert high <= 2 * low
    gc.collect()
    assert len(formula_module._NODES) == start


def test_derivation_guards():
    with pytest.raises(ValueError):
        derive_from_nontautology(parse_formula("x0 | !x0"), X0, 1)
    with pytest.raises(ValueError):
        derive_from_nontautology(Var(4), X0, 2)
    with pytest.raises(ValueError):
        derive_from_nontautology(X0, X0, MAX_DERIVE_VARS + 1)
