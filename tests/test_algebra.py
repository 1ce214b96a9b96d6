"""Finite residuated chains, products, filters, quotients, and the prime
filter spectrum with its duality checks."""

import random
from fractions import Fraction

import pytest

from mvdyn.formula import (
    Var, Star, Impl, Neg, Or, parse_formula, evaluate, chain_semantics,
)
from mvdyn.algebra import (
    FiniteAlgebra, finite_chain, product_algebra, power_algebra,
    subalgebra_generated, evaluate_in, is_filter, filter_generated,
    enumerate_filters, is_prime, quotient_algebra, lemma7_check,
    Homomorphism, identity_homomorphism, compose_homomorphisms,
    spec_space, dual_map, duality_check, algebra_to_json, algebra_from_json,
)

F = Fraction


def two_by_two():
    return power_algebra(finite_chain(1), 2)


def free_boolean_two_generators():
    big = power_algebra(finite_chain(1), 4)
    tuples = [(i, j, k, l) for i in (0, 1) for j in (0, 1)
              for k in (0, 1) for l in (0, 1)]
    index = {t: i for i, t in enumerate(tuples)}
    return subalgebra_generated(big, [index[(0, 0, 1, 1)], index[(0, 1, 0, 1)]])


# -- construction ----------------------------------------------------------------

def test_chain_two_tables():
    c = finite_chain(2)
    assert c.names == ("0", "1/2", "1")
    assert c.star_table == ((0, 0, 0), (0, 0, 1), (0, 1, 2))
    assert c.impl_table == ((2, 2, 2), (1, 2, 2), (0, 1, 2))
    assert c.zero == 0 and c.one == 2
    assert c.neg(0) == 2 and c.neg(1) == 1 and c.neg(2) == 0


def test_godel_chain_tables():
    g = finite_chain(3, base="godel")
    assert g.star(1, 2) == 1
    assert g.impl(2, 1) == 1
    assert g.impl(1, 2) == 3
    assert g.neg(0) == 3 and g.neg(1) == 0 and g.neg(2) == 0


def test_chain_guards():
    with pytest.raises(ValueError):
        finite_chain(0)
    with pytest.raises(ValueError):
        finite_chain(2, base="frobnicate")


def test_validate_accepts_builtins():
    for a in (finite_chain(1), finite_chain(4), finite_chain(3, "godel"),
              two_by_two(), product_algebra(finite_chain(2), finite_chain(3)),
              free_boolean_two_generators()):
        a.validate()


def test_validate_rejects_tampered_table():
    c = finite_chain(2)
    star = [list(row) for row in c.star_table]
    star[1][1] = 2
    broken = FiniteAlgebra(c.names, star, c.impl_table, 0, 2)
    with pytest.raises(ValueError):
        broken.validate()


def test_product_and_power_sizes():
    assert product_algebra(finite_chain(2), finite_chain(3)).size == 12
    assert power_algebra(finite_chain(1), 4).size == 16
    with pytest.raises(ValueError):
        power_algebra(finite_chain(3), 4, cap=64)


def test_subalgebra_free_boolean():
    fb = free_boolean_two_generators()
    assert fb.size == 16
    fb.validate()
    sub = subalgebra_generated(finite_chain(4), [2])
    assert sub.size == 3


def test_lattice_operations_match_order():
    rng = random.Random(11)
    for a in (finite_chain(4), finite_chain(3, "godel"), two_by_two()):
        for _ in range(60):
            x, y = rng.randrange(a.size), rng.randrange(a.size)
            assert a.le(a.meet(x, y), x) and a.le(a.meet(x, y), y)
            assert a.le(x, a.join(x, y)) and a.le(y, a.join(x, y))
            assert a.le(x, y) == (a.meet(x, y) == x)


# -- evaluation -------------------------------------------------------------------

def test_evaluate_in_matches_chain_semantics():
    rng = random.Random(22)
    f = parse_formula("(x0 -> x1) * !x1 (+) x0 & x1")
    for base in ("lukasiewicz", "godel"):
        for m in (1, 2, 3, 5):
            a = finite_chain(m, base)
            sem = chain_semantics(m, base)
            for _ in range(40):
                i, j = rng.randrange(m + 1), rng.randrange(m + 1)
                got = evaluate_in(f, a, (i, j))
                want = evaluate(f, sem, (F(i, m), F(j, m)))
                assert F(got, m) == want


def test_evaluate_in_product_is_pair_of_factor_values():
    rng = random.Random(23)
    f = parse_formula("(x0 -> x1) * !x1 (+) x0 & x1 | (x2 -> 0)")
    left, right = finite_chain(2), finite_chain(3, "godel")
    prod = product_algebra(left, right)
    for _ in range(60):
        p = [rng.randrange(left.size) for _ in range(3)]
        q = [rng.randrange(right.size) for _ in range(3)]
        got = evaluate_in(f, prod, [i * right.size + j for i, j in zip(p, q)])
        want = evaluate_in(f, left, p) * right.size + evaluate_in(f, right, q)
        assert got == want


def test_evaluate_in_guards():
    a = finite_chain(2)
    with pytest.raises(ValueError):
        evaluate_in(Var(1), a, (0,))
    with pytest.raises(ValueError):
        evaluate_in(Var(0), a, (5,))


# -- filters ----------------------------------------------------------------------

def test_filter_counts_on_chains():
    for m in (2, 3, 5):
        filters, primes, maximals = enumerate_filters(finite_chain(m))
        assert len(filters) == 2
        assert len(primes) == 1
        assert len(maximals) == 1
        assert primes[0] == frozenset({m})


def test_filter_counts_godel_chain():
    for m in (2, 3, 4):
        a = finite_chain(m, base="godel")
        filters, primes, _ = enumerate_filters(a)
        assert len(filters) == m + 1
        assert len(primes) == m


def test_filter_counts_products():
    filters, primes, maximals = enumerate_filters(two_by_two())
    assert len(filters) == 4
    assert len(primes) == 2
    assert len(maximals) == 2
    filters, primes, maximals = enumerate_filters(free_boolean_two_generators())
    assert len(filters) == 16
    assert len(primes) == 4
    assert len(maximals) == 4
    filters, primes, _ = enumerate_filters(
        product_algebra(finite_chain(2), finite_chain(3)))
    assert len(filters) == 4
    assert len(primes) == 2


def test_is_filter_and_generation():
    a = finite_chain(4)
    assert is_filter(a, {4})
    assert is_filter(a, set(range(5)))
    assert not is_filter(a, {3, 4})
    assert not is_filter(a, {0, 4})
    assert filter_generated(a, [3]) == frozenset(range(5))
    assert filter_generated(a, []) == frozenset({4})
    g = finite_chain(3, base="godel")
    assert filter_generated(g, [2]) == frozenset({2, 3})


def test_every_enumerated_filter_passes_is_filter():
    for a in (finite_chain(5), finite_chain(4, "godel"), two_by_two(),
              free_boolean_two_generators()):
        filters, primes, maximals = enumerate_filters(a)
        for f in filters:
            assert is_filter(a, f)
            assert filter_generated(a, f) == f
        for p in primes:
            assert is_prime(a, p)
        assert set(maximals) <= set(primes) or a.size == 1
        assert len(set(filters)) == len(filters)


def test_prime_rejects_improper_and_nonprime():
    a = two_by_two()
    assert not is_prime(a, frozenset(range(a.size)))
    assert not is_prime(a, frozenset({a.one}))


def test_quotient_by_prime_is_totally_ordered():
    for a in (two_by_two(), free_boolean_two_generators(),
              finite_chain(3, "godel")):
        _, primes, _ = enumerate_filters(a)
        for p in primes:
            q, class_of = quotient_algebra(a, p)
            q.validate()
            assert all(q.le(x, y) or q.le(y, x)
                       for x in q.elements() for y in q.elements())
            assert class_of[a.one] == q.one


def test_quotient_kernel_round_trip():
    a = finite_chain(4, base="godel")
    filters, _, _ = enumerate_filters(a)
    for f in filters:
        q, class_of = quotient_algebra(a, f)
        kernel = frozenset(x for x in a.elements() if class_of[x] == q.one)
        assert kernel == f


def test_lemma7_all_clauses_agree():
    cases = [finite_chain(2), finite_chain(3), finite_chain(5),
             two_by_two(), free_boolean_two_generators(),
             product_algebra(finite_chain(2), finite_chain(3))]
    cases += [finite_chain(m, "godel") for m in (2, 3, 4)]
    for a in cases:
        report = lemma7_check(a)
        assert report["ok"], report
        assert report["filters_checked"] >= 1


# -- homomorphisms and duality -------------------------------------------------------

def test_homomorphism_validate_and_kernel():
    a = two_by_two()
    first = Homomorphism(a, finite_chain(1), tuple(t // 2 for t in range(4)))
    first.validate()
    assert first.kernel() == frozenset({2, 3})
    bad = Homomorphism(a, finite_chain(1), (0, 1, 1, 0))
    with pytest.raises(ValueError):
        bad.validate()


def test_homomorphism_composition():
    a = two_by_two()
    ident = identity_homomorphism(a)
    proj = Homomorphism(a, finite_chain(1), (0, 0, 1, 1))
    proj.validate()
    comp = compose_homomorphisms(proj, ident)
    comp.validate()
    assert comp.table == proj.table


def test_spec_space_counts():
    sp = spec_space(finite_chain(2))
    assert len(sp.points) == 1
    assert len(sp.opens) == 2
    sp = spec_space(two_by_two())
    assert len(sp.points) == 2
    assert sp.le == ((True, False), (False, True))
    sp = spec_space(free_boolean_two_generators())
    assert len(sp.points) == 4
    assert len(sp.opens) == 16
    assert all(sp.le[i][j] == (i == j) for i in range(4) for j in range(4))


def test_spec_space_godel_chain_is_a_chain():
    sp = spec_space(finite_chain(3, base="godel"))
    assert len(sp.points) == 3
    comparable = sum(sp.le[i][j] or sp.le[j][i]
                     for i in range(3) for j in range(3))
    assert comparable == 9
    assert sp.closure([0]) != frozenset({0}) or all(
        not sp.le[0][j] for j in range(3) if j != 0)


def test_spec_closure_matches_specialization():
    for a in (two_by_two(), finite_chain(4, "godel"),
              free_boolean_two_generators()):
        sp = spec_space(a)
        k = len(sp.points)
        for i in range(k):
            up = frozenset(j for j in range(k) if sp.le[i][j])
            assert sp.closure([i]) == up


def test_dual_map_contravariant():
    a = two_by_two()
    proj = Homomorphism(a, finite_chain(1), (0, 0, 1, 1))
    tgt_spec, src_spec, mapping = dual_map(proj)
    assert len(tgt_spec.points) == 1
    assert len(src_spec.points) == 2
    assert len(mapping) == 1 and mapping[0] in (0, 1)
    ident = identity_homomorphism(a)
    _, _, id_mapping = dual_map(ident)
    assert id_mapping == tuple(range(2))


def test_duality_check_ok_everywhere():
    cases = [finite_chain(2), finite_chain(3), finite_chain(5),
             two_by_two(), free_boolean_two_generators()]
    cases += [finite_chain(m, "godel") for m in (2, 3, 4)]
    for a in cases:
        report = duality_check(a)
        assert report["ok"], (a.names, report)
        assert report["bijective"] and report["order_isomorphism"]


def test_duality_counts_free_boolean():
    report = duality_check(free_boolean_two_generators())
    assert report["filters"] == 16
    assert report["opens"] == 16
    assert report["points"] == 4


# -- serialization ---------------------------------------------------------------------

def test_algebra_json_round_trip():
    for a in (finite_chain(3), two_by_two(), finite_chain(2, "godel")):
        again = algebra_from_json(algebra_to_json(a))
        assert again.names == a.names
        assert again.star_table == a.star_table
        assert again.impl_table == a.impl_table
        assert again.zero == a.zero and again.one == a.one
        again.validate()


def test_algebra_json_rejects_garbage():
    obj = algebra_to_json(finite_chain(2))
    obj["star"][0][0] = 7
    with pytest.raises(ValueError):
        algebra_from_json(obj)
