"""Acceptance gate: twelve scenario tests, one per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get exactly one pass/fail
line per criterion. Each test is self-contained, uses fixed seeds, and
asserts exact values (plus the stated wall-clock budget where one applies).
"""

import random
import time
from fractions import Fraction

import pytest

from mvdyn.formula import (
    Var, Star, Impl, Neg, And, Or, OPlus, ZERO, ONE, Substitution,
    evaluate, GODEL, PRODUCT, LUKASIEWICZ,
)
from mvdyn.pwl import (
    pwl_from_formula, pwl_eval, pwl_equal, pwl_integral, pwl_to_formula_1d,
    affine_from_simplex_pair,
)
from mvdyn.algebra import (
    finite_chain, product_algebra, power_algebra, subalgebra_generated,
    enumerate_filters, is_prime, quotient_algebra, Homomorphism,
    duality_check,
)
from mvdyn.proofs import check_proof, Substituted
from mvdyn.odometer import (
    truth_table, odometer_substitution, odometer_induced_permutation,
    derive_from_nontautology,
)
from mvdyn.dynamics import (
    induced_map, map_eval, denominator, full_rational_orbit,
    reachability_substitution, rotation_homeomorphism, validate_homeomorphism,
    tsujii_differential, box_hitting_search, empirical_statistics,
    average_truth_value, tent_substitution,
)

F = Fraction
X0, X1 = Var(0), Var(1)

TENT_1D = And(OPlus(X0, X0), OPlus(Neg(X0), Neg(X0)))
TENT_2D = Substitution([And(OPlus(X0, X0), OPlus(Neg(X0), Neg(X0))),
                        And(OPlus(X1, X1), OPlus(Neg(X1), Neg(X1)))])


@pytest.fixture(scope="module")
def rotation():
    return rotation_homeomorphism()


def rand_formula(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var(rng.randrange(n)), ZERO, ONE])
    op = rng.choice(["star", "impl", "neg", "and", "or", "oplus"])
    if op == "neg":
        return Neg(rand_formula(rng, n, depth - 1))
    ctor = {"star": Star, "impl": Impl, "and": And, "or": Or, "oplus": OPlus}[op]
    return ctor(rand_formula(rng, n, depth - 1), rand_formula(rng, n, depth - 1))


def rand_rational(rng, max_den=12):
    v = F(rng.randint(0, max_den), rng.randint(1, max_den))
    return v if v <= 1 else F(1)


def test_criterion_01_simplex_pair_matrix():
    """The affine map between the two sample triangles of the rotation, as an
    exact integer matrix identity, computed in under a millisecond."""
    src = [(F(1, 4), F(1, 4)), (F(1), F(0)), (F(1, 2), F(1, 4))]
    tgt = [(F(1, 2), F(1, 4)), (F(1), F(0)), (F(1, 4), F(1, 2))]
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        m = affine_from_simplex_pair(src, tgt)
        best = min(best, time.perf_counter() - t0)
    assert m.a == ((F(-1), F(-5)), (F(1), F(4)))
    assert m.b == (F(2), F(-1))
    assert m.is_integral
    assert best < 0.001, f"construction took {best * 1000:.3f} ms"


def test_criterion_02_connective_tables():
    """The three t-norm tables with their case-split residua, at 50 rational
    pairs each, including 1 - a as the involutive negation."""
    t0 = time.perf_counter()

    def godel_impl(a, b):
        return F(1) if a <= b else b

    def product_impl(a, b):
        return F(1) if a <= b else b / a

    def luk_impl(a, b):
        return F(1) if a <= b else 1 - (a - b)

    oracles = (
        (GODEL, min, godel_impl),
        (PRODUCT, lambda a, b: a * b, product_impl),
        (LUKASIEWICZ, lambda a, b: max(a + b - 1, F(0)), luk_impl),
    )
    rng = random.Random(202)
    forced = [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1, 2), F(1, 2)),
              (F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))]
    for sem, star_oracle, impl_oracle in oracles:
        pairs = forced + [(rand_rational(rng), rand_rational(rng))
                          for _ in range(50 - len(forced))]
        assert len(pairs) == 50
        for a, b in pairs:
            assert sem.star(a, b) == star_oracle(a, b)
            assert sem.impl(a, b) == impl_oracle(a, b)
            assert evaluate(Star(X0, X1), sem, (a, b)) == star_oracle(a, b)
            assert evaluate(Impl(X0, X1), sem, (a, b)) == impl_oracle(a, b)
            want_neg = 1 - a if sem is LUKASIEWICZ else (F(1) if a == 0 else F(0))
            assert evaluate(Neg(X0), sem, (a,)) == want_neg
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_adjointness_and_order_relations():
    """Residuation adjointness and the five order relations between star and
    its residuum, at 10,000 random rational tuples per t-norm."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    for sem in (GODEL, PRODUCT, LUKASIEWICZ):
        s, i = sem.star, sem.impl
        for _ in range(10000):
            a, b, c, d = (rand_rational(rng) for _ in range(4))
            assert (s(c, a) <= b) == (c <= i(a, b))
            assert s(a, b) <= min(a, b)
            assert a <= i(b, s(a, b))
            assert s(i(a, b), i(b, c)) <= i(a, c)
            assert s(i(a, b), i(c, d)) <= i(s(a, c), s(b, d))
            assert s(i(a, b), i(c, d)) <= i(i(b, c), i(a, d))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_odometer_single_cycle():
    """For n up to 12 the odometer substitution induces exactly +1 mod 2^n,
    a single cycle through all valuations."""
    t0 = time.perf_counter()
    for n in range(1, 13):
        perm = odometer_induced_permutation(n)
        size = 1 << n
        assert perm.mapping == tuple((p + 1) % size for p in range(size))
        assert perm.cycle_lengths() == (size,)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_05_derivations_from_nontautologies():
    """100 random non-tautologies (up to 4 variables) each prove a random
    target through MP and the one odometer substitution; every proof checks."""
    t0 = time.perf_counter()
    rng = random.Random(555)
    sigmas = {n: odometer_substitution(n) for n in (1, 2, 3, 4)}
    passed = 0
    while passed < 100:
        n = rng.randint(1, 4)
        r = rand_formula(rng, n, 3)
        if truth_table(r, n).is_tautology:
            continue
        target = rand_formula(rng, n, 3)
        proof = derive_from_nontautology(r, target, n)
        assert check_proof(proof, None, oracle="boole").valid
        assert proof.conclusion == target
        used_substitution = False
        for line in proof.lines:
            j = line.justification
            if isinstance(j, Substituted):
                used_substitution = True
                assert j.sigma.images == sigmas[n].images
        assert used_substitution
        passed += 1
    assert passed == 100
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_denominators_and_reachability():
    """Substitution images never enlarge a point's denominator (1,000 random
    pairs, up to 3 variables); reachability substitutions hit their target
    exactly (200 pairs with den(q) dividing den(p))."""
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(1, 3)
        sigma = Substitution([rand_formula(rng, n, 3) for _ in range(n)])
        d = rng.randint(1, 40)
        p = tuple(F(rng.randint(0, d), d) for _ in range(n))
        q = tuple(evaluate(g, LUKASIEWICZ, p) for g in sigma.images)
        assert denominator(p) % denominator(q) == 0, (sigma.images, p, q)

    for _ in range(200):
        n = rng.randint(1, 3)
        d = rng.randint(1, 10)
        p = tuple(F(rng.randint(0, d), d) for _ in range(n))
        dp = max(denominator(p), 1)
        dq = rng.choice([k for k in range(1, dp + 1) if dp % k == 0])
        q = tuple(F(rng.randint(0, dq), dq) for _ in range(n))
        sigma = reachability_substitution(p, q)
        assert tuple(evaluate(g, LUKASIEWICZ, p) for g in sigma.images) == q


def test_criterion_07_unimodular_rotation_and_flip_corollary(rotation):
    """The rotation map validates: every cell determinant equal, in {+1, -1},
    image cells tiling the square with exact area 1. Exhaustively over all
    one-variable formulas with at most two connectives, the only invertible
    induced interval maps are the identity and x -> 1 - x."""
    _, smap = rotation
    rep = validate_homeomorphism(smap)
    assert rep["invertible"] is True
    assert rep["determinants_equal"] is True
    assert rep["unimodular"] is True
    assert rep["common_det"] in (1, -1)
    assert rep["image_measure"] == 1
    assert rep["measure_preserving"] is True
    assert {m.det() for m in smap.maps} == {F(1)}

    atoms = [X0, ZERO, ONE]
    ops = [Star, Impl, And, Or, OPlus]
    depth1 = [Neg(a) for a in atoms] + [op(a, b) for op in ops
                                        for a in atoms for b in atoms]
    depth2 = ([Neg(a) for a in depth1]
              + [op(a, b) for op in ops for a in depth1 for b in atoms]
              + [op(a, b) for op in ops for a in atoms for b in depth1])
    family = atoms + depth1 + depth2
    assert len(family) == 1539

    ident = pwl_from_formula(X0, 1)
    flip = pwl_from_formula(Neg(X0), 1)
    seen = set()
    invertible = 0
    for f in family:
        w = pwl_from_formula(f, 1)
        sig = (tuple(v[0] for v in w.complex.vertices),
               tuple((m.a, m.b) for m in w.maps))
        if sig in seen:
            continue
        seen.add(sig)
        s = induced_map(Substitution([f]))
        if validate_homeomorphism(s.pwl)["invertible"]:
            invertible += 1
            assert pwl_equal(w, ident) or pwl_equal(w, flip), f
    assert invertible >= 2


def test_criterion_08_duality_and_prime_filter_clauses():
    """Filters-versus-opens duality and the six equivalent characterizations
    of primality, exhaustively on the named battery of finite algebras."""
    t0 = time.perf_counter()
    two = finite_chain(1)
    big = power_algebra(two, 4)
    tuples = [(i, j, k, l) for i in (0, 1) for j in (0, 1)
              for k in (0, 1) for l in (0, 1)]
    index = {t: i for i, t in enumerate(tuples)}
    free16 = subalgebra_generated(big, [index[(0, 0, 1, 1)], index[(0, 1, 0, 1)]])
    cases = [
        ("two", two, 2, 1),
        ("two squared", power_algebra(two, 2), 4, 2),
        ("free boolean 16", free16, 16, 4),
        ("luk chain 2", finite_chain(2), 2, 1),
        ("luk chain 3", finite_chain(3), 2, 1),
        ("luk chain 5", finite_chain(5), 2, 1),
        ("luk 2 x luk 3", product_algebra(finite_chain(2), finite_chain(3)), 4, 2),
    ] + [(f"godel chain {m}", finite_chain(m, "godel"), m + 1, m)
         for m in (1, 2, 3, 4)]

    for label, a, want_filters, want_primes in cases:
        filters, primes, _ = enumerate_filters(a)
        assert len(filters) == want_filters, label
        assert len(primes) == want_primes, label

        for p in (f for f in filters if len(f) < a.size):
            meet_irreducible = not any(p == (f & g) and p != f and p != g
                                       for f in filters for g in filters)
            q, class_of = quotient_algebra(a, p)
            totally_ordered = all(q.le(x, y) or q.le(y, x)
                                  for x in q.elements() for y in q.elements())
            nat = Homomorphism(a, q, tuple(class_of))
            nat.validate()
            kernel_witness = nat.kernel() == p and totally_ordered
            above = [f for f in filters if p <= f]
            above_chain = all(f <= g or g <= f for f in above for g in above)
            above_prime = all(is_prime(a, f) for f in above if len(f) < a.size)
            join_condition = is_prime(a, p)
            votes = (meet_irreducible, totally_ordered, kernel_witness,
                     above_chain, above_prime, join_condition)
            assert len(set(votes)) == 1, (label, sorted(p), votes)

        rep = duality_check(a)
        assert rep["ok"], (label, rep)
        assert rep["filters"] == rep["opens"] == want_filters, label
        assert rep["order_isomorphism"] is True, label
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_exact_average_sequence():
    """Average truth value of x0 along tent iterates, starting from the
    uniform measure on [0, 1/4]: 1/8, 1/4, 1/2, then constant 1/2, matching
    the Lebesgue average from k = 2 on. All values exact rationals."""
    rep = average_truth_value(X0, 3, tent_substitution(), [(F(0), F(1, 4))])
    assert rep["sequence"] == [F(1, 8), F(1, 4), F(1, 2), F(1, 2)]
    assert all(isinstance(v, Fraction) for v in rep["sequence"])
    assert rep["lebesgue_average"] == F(1, 2)
    assert rep["sequence"][2] == rep["lebesgue_average"]


def test_criterion_10_equidistribution_orbits_and_box_hitting():
    """Desk-scale transitivity evidence: visit frequencies of tent and
    tent x tent within 0.05 of Lebesgue over 16 boxes at a million float
    steps; every rational grid with denominator up to 12 is carried into
    itself (so all its orbits are finite); and a box-to-box witness search
    succeeds on 20 random interval pairs with both exponents at most 12."""
    tent = induced_map(tent_substitution())
    st1 = empirical_statistics(tent, (F(1, 3),), 1000000, 16, seed=7)
    assert len(st1["table"]) == 16
    assert st1["discrepancy"] < 0.05

    tent2 = induced_map(TENT_2D)
    st2 = empirical_statistics(tent2, (F(1, 3), F(1, 7)), 1000000, 4, seed=7)
    assert len(st2["table"]) == 16
    assert st2["discrepancy"] < 0.05

    for n, s in ((1, tent), (2, tent2)):
        for d in range(1, 13):
            grid = full_rational_orbit(n, d)
            assert len(grid) == (d + 1) ** n
            members = set(grid)
            for p in grid:
                assert map_eval(s, p) in members, (n, d, p)

    rng = random.Random(1010)
    for _ in range(20):
        a = F(rng.randint(0, 29), 36)
        w = F(rng.randint(6, 12), 36)
        b = F(rng.randint(0, 29), 36)
        w2 = F(rng.randint(6, 12), 36)
        src = [(a, min(a + w, F(1)))]
        tgt = [(b, min(b + w2, F(1)))]
        hit = box_hitting_search(tent, tent, src, tgt, h_max=12, k_max=12,
                                 grid_denominator=105)
        assert hit is not None, (src, tgt)
        assert hit.h <= 12 and hit.k <= 12
        x = hit.witness
        assert src[0][0] <= x[0] <= src[0][1]
        for _ in range(hit.h + hit.k):
            x = map_eval(tent, x)
        assert x == hit.image
        assert tgt[0][0] <= x[0] <= tgt[0][1]


def test_criterion_11_pwl_engine_faithfulness():
    """Compiled cell complexes agree with direct evaluation on 500 random
    two-variable formulas at 20 points each; 100 one-variable functions
    survive the synthesis round trip; and the three-piece example function
    integrates to 5/18 + 5/36 + 1/4 = 2/3 exactly.

    The stated headline value 13/18 for that integral contradicts its own
    displayed piece integrals, whose exact sum is 2/3; the assertion here
    follows the displayed piecewise oracle."""
    rng = random.Random(111)
    for _ in range(500):
        f = rand_formula(rng, 2, 4)
        w = pwl_from_formula(f, 2)
        for _ in range(20):
            p = (F(rng.randint(0, 16), 16), F(rng.randint(0, 16), 16))
            assert pwl_eval(w, p) == evaluate(f, LUKASIEWICZ, p), (f, p)

    rng = random.Random(222)
    for _ in range(100):
        f = rand_formula(rng, 1, 4)
        w = pwl_from_formula(f, 1)
        g = pwl_to_formula_1d(w)
        assert pwl_equal(pwl_from_formula(g, 1), w), f

    three_piece = Or(Neg(X0), OPlus(And(X0, Neg(X0)), And(X0, Neg(X0))))
    displayed_oracle = F(5, 18) + F(5, 36) + F(1, 4)
    assert displayed_oracle == F(2, 3)
    assert pwl_integral(pwl_from_formula(three_piece, 1)) == displayed_oracle
    assert displayed_oracle != F(13, 18)
    print("note: headline value 13/18 mis-adds the displayed piece integrals "
          "5/18 + 5/36 + 1/4; their exact sum is 2/3 and the engine matches it")


def test_criterion_12_tsujii_differential(rotation):
    """At 50 random interior points of rotation cells the one-sided
    differential is the cell matrix applied to the direction; at the tent
    crease it is positively homogeneous and equals the exact small-step
    difference quotient from either side."""
    _, smap = rotation
    rng = random.Random(1212)
    checked = 0
    while checked < 50:
        j = rng.randrange(len(smap.complex.cells))
        pts = smap.complex.cell_points(j)
        weights = [rng.randint(1, 9) for _ in range(3)]
        total = sum(weights)
        p = tuple(sum(F(w) * pt[i] for w, pt in zip(weights, pts)) / total
                  for i in range(2))
        v = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        if v == (F(0), F(0)):
            continue
        a = smap.maps[j].a
        want = (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])
        assert tsujii_differential(smap, p, v) == want, (j, p, v)
        checked += 1

    tm = induced_map(tent_substitution()).pwl
    crease = (F(1, 2),)
    for c in (F(1), F(2), F(7, 2)):
        for sign in (1, -1):
            v = (sign * c,)
            got = tsujii_differential(tm, crease, v)
            assert got == (c * tsujii_differential(tm, crease, (F(sign),))[0],)
            h = F(1, 1024)
            quotient = (tm.value((crease[0] + h * v[0],))[0]
                        - tm.value(crease)[0]) / h
            assert quotient == got[0]
