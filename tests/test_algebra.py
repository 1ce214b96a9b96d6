"""Finite residuated chains, products, filters, quotients, and the prime
filter spectrum with its duality checks."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mvdyn.formula import (
    Var, Star, Impl, Neg, Or, parse_formula, evaluate, chain_semantics,
)
from mvdyn.algebra import (
    FiniteAlgebra, finite_chain, product_algebra, power_algebra,
    subalgebra_generated, evaluate_in, is_filter, filter_generated,
    enumerate_filters, is_prime, quotient_algebra, lemma7_check,
    Homomorphism, identity_homomorphism, compose_homomorphisms,
    SpecSpace, spec_space, dual_map, duality_check, algebra_to_json, algebra_from_json,
)

F = Fraction


# -- references: the closures by fixpoint and search that the library replaces -------

def _reference_filter_generated(a, items):
    """Close under * and under going up until nothing changes."""
    f = {a.one} | set(items)
    changed = True
    while changed:
        changed = False
        for x in sorted(f):
            for y in sorted(f):
                z = a.star(x, y)
                if z not in f:
                    f.add(z)
                    changed = True
        for x in sorted(f):
            for y in a.elements():
                if a.le(x, y) and y not in f:
                    f.add(y)
                    changed = True
    return frozenset(f)


def _reference_enumerate_filters(a):
    """Every filter, by breadth-first search from {1}: add one element, close."""
    bottom = _reference_filter_generated(a, ())
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for f in frontier:
            for x in a.elements():
                if x not in f:
                    g = _reference_filter_generated(a, f | {x})
                    if g not in seen:
                        seen.add(g)
                        nxt.append(g)
        frontier = nxt
    return sorted(seen, key=lambda f: (len(f), tuple(sorted(f))))


def _reference_subalgebra_carrier(a, gens):
    """Close gens, 0 and 1 under * and -> until nothing changes."""
    carrier = {a.zero, a.one} | set(gens)
    changed = True
    while changed:
        changed = False
        current = sorted(carrier)
        for x in current:
            for y in current:
                for z in (a.star(x, y), a.impl(x, y)):
                    if z not in carrier:
                        carrier.add(z)
                        changed = True
    return sorted(carrier)


def _reference_opens(subbasic, k):
    """Close the subbasic opens, the empty set and the whole space under unions."""
    opens = {frozenset(), frozenset(range(k))}
    opens.update(subbasic)
    changed = True
    while changed:
        changed = False
        current = list(opens)
        for u in current:
            for v in current:
                if u | v not in opens:
                    opens.add(u | v)
                    changed = True
    return tuple(sorted(opens, key=lambda s: (len(s), tuple(sorted(s)))))


def _reference_compositions(a):
    """duality_check's two compositions over every subset of the elements and
    of the points."""
    space = spec_space(a)
    k = len(space.points)

    def above(s):
        return frozenset(i for i in range(k) if s <= space.points[i])

    def meet_of(point_set):
        out = frozenset(a.elements())
        for i in point_set:
            out &= space.points[i]
        return out

    def subsets(n):
        return (frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r))

    return {"generated_filter_composition": all(meet_of(above(d)) == filter_generated(a, d)
                                                for d in subsets(a.size)),
            "closure_composition": all(above(meet_of(c)) == space.closure(c)
                                       for c in subsets(k))}


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
        power_algebra(finite_chain(3), 4)


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


# -- the library against the references ------------------------------------------------

chains = st.builds(finite_chain, st.integers(1, 4), st.sampled_from(["lukasiewicz", "godel"]))


@st.composite
def algebras(draw):
    """Products and powers of chains, then perhaps a generated subalgebra or a
    quotient by a filter."""
    factors = draw(st.lists(chains, min_size=1, max_size=3))
    if draw(st.booleans()):
        factors = [factors[0]] * len(factors)
    assume(math.prod(f.size for f in factors) <= 27)
    a = product_algebra(*factors)
    kind = draw(st.sampled_from(["product", "subalgebra", "quotient"]))
    if kind == "subalgebra":
        a = subalgebra_generated(a, draw(st.lists(st.integers(0, a.size - 1), max_size=2)))
    elif kind == "quotient":
        a, _ = quotient_algebra(a, draw(st.sampled_from(_reference_enumerate_filters(a))))
    return a


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(algebras(), st.data())
def test_closures_equal_their_references(a, data):
    assert enumerate_filters(a)[0] == _reference_enumerate_filters(a)
    sp = spec_space(a)
    assert sp.opens == _reference_opens(sp.subbasic, len(sp.points))
    element = st.integers(0, a.size - 1)
    for _ in range(3):
        items = data.draw(st.lists(element, max_size=3))
        assert filter_generated(a, items) == _reference_filter_generated(a, items)
        gens = data.draw(st.lists(element, max_size=2))
        sub = subalgebra_generated(a, gens)
        assert sub.names == tuple(a.names[e] for e in _reference_subalgebra_carrier(a, gens))
        sub.validate()


def test_subalgebras_of_a_product_equal_the_reference():
    # some pairs here close only when y -> x is also taken for y taken before x
    a = product_algebra(finite_chain(3, "godel"), finite_chain(4, "godel"))
    for gens in itertools.combinations(range(a.size), 2):
        want = tuple(a.names[e] for e in _reference_subalgebra_carrier(a, gens))
        assert subalgebra_generated(a, gens).names == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(algebras().filter(lambda a: a.size <= 12))
def test_duality_compositions_equal_the_exhaustive_reference(a):
    report = duality_check(a)
    assert {key: report[key] for key in ("generated_filter_composition",
                                         "closure_composition")} == _reference_compositions(a)


def test_duality_check_on_a_long_godel_chain():
    # 40 prime points: the closure law is decided on the 40 sets C_j, one per point
    report = duality_check(finite_chain(40, "godel"))
    assert report["ok"] and report["points"] == 40 and report["filters"] == 41


def test_duality_check_on_bool_to_the_sixth():
    assert duality_check(power_algebra(finite_chain(1), 6)) == {
        "filters": 64, "opens": 64, "points": 6, "bijective": True,
        "order_isomorphism": True, "subbasis_laws": True,
        "generated_filter_composition": True, "closure_composition": True, "ok": True}


def test_duality_check_flags_a_generated_filter_broken_on_one_coatom(monkeypatch):
    # only a set of elements whose product is the coatom meets the break; a
    # random subset of the 64 elements almost always multiplies to 0
    a = power_algebra(finite_chain(1), 6)
    coatom = a.names.index("(1,1,1,1,1,0)")

    def broken(alg, items):
        items = list(items)
        if functools.reduce(alg.star, items, alg.one) == coatom:
            return frozenset({alg.one})
        return filter_generated(alg, items)

    monkeypatch.setattr("mvdyn.algebra.filter_generated", broken)
    report = duality_check(a)
    assert not report["generated_filter_composition"] and not report["ok"]


def test_duality_check_flags_a_closure_broken_on_one_point_set(monkeypatch):
    # one set C_j of the 40 points, of 19 points, so spec_space's check of each
    # point's closure passes; a random subset of the points is almost never it
    a = finite_chain(40, "godel")
    space = spec_space(a)
    target = frozenset(i for i in range(40) if not space.le[i][20])
    assert len(target) == 19
    closure = SpecSpace.closure

    def broken(self, point_set):
        s = frozenset(point_set)
        out = closure(self, s)
        return out - {min(s)} if s == target else out

    monkeypatch.setattr(SpecSpace, "closure", broken)
    report = duality_check(a)
    assert not report["closure_composition"] and not report["ok"]
