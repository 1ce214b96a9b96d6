"""Induced maps, exact orbits, reachability, the rotation homeomorphism,
one-sided differentials, box hitting, and orbit statistics."""

import bisect
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mvdyn.formula import (
    Var, Neg, Star, Impl, And, OPlus, Substitution, evaluate, LUKASIEWICZ,
    parse_formula,
)
from mvdyn import dynamics, formula, pwl
from mvdyn.odometer import odometer_substitution
from mvdyn.pwl import (
    AffineMap, CellComplex, PWLMap, affine_from_simplex_pair, unit_complex,
    pwl_from_formula, pwl_equal, pwl_map_to_json, pwl_map_from_json,
    pwl_eval, pwl_integral, pwl_min_value, pwl_le, pwl_combine, pwl_to_json,
    pwl_to_formula_1d, pwl_compose,
)
from mvdyn.dynamics import (
    InducedMap, Orbit, induced_map, geometric_form, map_eval, denominator, orbit,
    full_rational_orbit, reachability_substitution, rotation_homeomorphism,
    validate_homeomorphism, tsujii_differential, box_hitting_search,
    empirical_statistics, average_truth_value, tent_substitution,
    flip_substitution,
)

F = Fraction


@pytest.fixture(scope="module")
def tent_map():
    return induced_map(tent_substitution())


@pytest.fixture(scope="module")
def rotation():
    return rotation_homeomorphism()


def rand_substitution(rng, n, depth=3):
    def rand_formula(d):
        if d == 0 or rng.random() < 0.3:
            return Var(rng.randrange(n))
        op = rng.choice([Star, Impl, And, OPlus, "neg"])
        if op == "neg":
            return Neg(rand_formula(d - 1))
        return op(rand_formula(d - 1), rand_formula(d - 1))

    return Substitution([rand_formula(depth) for _ in range(n)])


# -- induced maps -------------------------------------------------------------------

def test_tent_map_values(tent_map):
    assert map_eval(tent_map, (F(1, 4),)) == (F(1, 2),)
    assert map_eval(tent_map, (F(1, 2),)) == (F(1),)
    assert map_eval(tent_map, (F(3, 4),)) == (F(1, 2),)
    assert map_eval(tent_map, (F(1, 8),)) == (F(1, 4),)


def test_tent_map_geometric_form_matches(tent_map):
    assert tent_map.pwl is not None
    tent_map.pwl.validate()
    for k in range(33):
        p = (F(k, 32),)
        assert tent_map.pwl.value(p) == map_eval(tent_map, p)


def test_geometric_form_row_round_trip(tent_map):
    comp = tent_map.pwl.row(0)
    direct = pwl_from_formula(tent_map.images[0], 1)
    assert pwl_equal(comp, direct)


def test_induced_map_respects_denominators():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 2)
        s = induced_map(rand_substitution(rng, n))
        d = rng.randint(1, 9)
        p = tuple(F(rng.randint(0, d), d) for _ in range(n))
        q = map_eval(s, p)
        assert denominator(p) % denominator(q) == 0, (p, q)
        if s.pwl is not None:
            assert s.pwl.value(p) == q


def test_denominator_helper():
    assert denominator((F(1, 5), F(3, 10))) == 10
    assert denominator((F(0), F(1))) == 1
    assert denominator(()) == 1


# -- orbits ----------------------------------------------------------------------------

def test_tent_orbit_one_fifth(tent_map):
    o = orbit(tent_map, (F(1, 5),))
    assert o.status == "cycle"
    assert o.preperiod == 1 and o.period == 2
    assert o.points == ((F(1, 5),), (F(2, 5),), (F(4, 5),), (F(2, 5),))
    assert o.points[o.preperiod + o.period] == o.points[o.preperiod]
    assert o.denominators == (5, 5, 5, 5)


def test_orbit_truncation(tent_map):
    o = orbit(tent_map, (F(1, 5),), max_steps=1)
    assert o.status == "truncated"
    assert o.preperiod is None and o.period is None


def test_orbit_fixed_point(tent_map):
    o = orbit(tent_map, (F(2, 3),))
    assert o.preperiod == 0 and o.period == 1


def test_lattice_step_matches_value_on_the_grid(tent_map):
    pair = induced_map(Substitution([tent_substitution().images[0],
                                     parse_formula("x0 * x1 (+) !x0 & x1")]))
    for s, d in ((tent_map, 35), (pair, 12)):
        step = s.pwl.lattice_step(d)
        for p in full_rational_orbit(s.arity, d):
            k = tuple(int(v * d) for v in p)
            image = (step(k[0]),) if s.arity == 1 else step(k)
            assert tuple(F(x, d) for x in image) == s.pwl.value(p) == map_eval(s, p)


def test_a_one_variable_lattice_point_is_an_int(tent_map, monkeypatch):
    # 7/35 -> 14/35 by the integral form's step and by the one-image program
    step, run = tent_map.pwl.lattice_step(35), dynamics._compile(tent_map.images, "0", "d")
    assert type(step(7)) is int and step(7) == 14
    assert type(run(35, 7)) is int and run(35, 7) == 14
    ks = dynamics._box_points([range(3, 6)])
    assert ks == [3, 4, 5] and all(type(k) is int for k in ks)
    walks = []
    iterate = dynamics._iterate

    def spy(step, start, max_steps):
        index, pre = iterate(step, start, max_steps)
        walks.append(list(index))
        return index, pre

    monkeypatch.setattr("mvdyn.dynamics._iterate", spy)
    for s in (tent_map, InducedMap(1, tent_map.images, None)):
        assert orbit(s, (F(1, 5),)).points == ((F(1, 5),), (F(2, 5),), (F(4, 5),), (F(2, 5),))
    assert walks == [[1, 2, 4]] * 2
    assert all(type(k) is int for walk in walks for k in walk)


def test_odometer_orbit_walks_the_formulas():
    s = induced_map(odometer_substitution(4))
    assert s.pwl is None
    o = orbit(s, (F(0),) * 4)
    assert (o.status, o.preperiod, o.period) == ("cycle", 0, 16)
    assert o.points == tuple(tuple(F((j % 16) >> i & 1) for i in range(4))
                             for j in range(17))
    assert o.denominators == (1,) * 17


def test_orbit_walks_the_formulas_past_a_non_integral_form(tent_map):
    # x -> x/2 on the pieces, the tent in the formulas: the orbit is the tent's
    half = AffineMap(((F(1, 2),),), (F(0),))
    s = InducedMap(1, tent_map.images, PWLMap(unit_complex(1), (half,)))
    assert s.pwl.lattice_step(5) is None
    assert orbit(s, (F(1, 5),)) == orbit(tent_map, (F(1, 5),))


def reference_orbit(s, p, max_steps):
    """The orbit of p by the reference: each point k/d built with Fraction,
    stepped through map_eval, and its numerators over d kept for the cycle."""
    def grid(k):
        return tuple(F(x, d) for x in k)

    start = tuple(F(v) for v in p)
    d = denominator(start)
    ks = [tuple(int(v * d) for v in start)]
    index = {ks[0]: 0}
    pre = None
    for _ in range(max_steps):
        k = tuple(v.numerator * d // v.denominator for v in map_eval(s, grid(ks[-1])))
        ks.append(k)
        if k in index:
            pre = index[k]
            break
        index[k] = len(ks) - 1
    dens = tuple(d // math.gcd(d, *k) for k in ks)
    if pre is None:
        return Orbit(start, tuple(map(grid, ks)), "truncated", None, None, dens)
    return Orbit(start, tuple(map(grid, ks)), "cycle", pre, len(ks) - 1 - pre, dens)


def tent_iterate_map(k):
    """x0 -> tent^k(x0) as an induced map; from k = 9 its form is over CELL_BUDGET."""
    g = Var(0)
    for _ in range(k):
        g = formula.apply_substitution(tent_substitution(), g)
    return induced_map(Substitution([g]))


def test_orbit_matches_the_reference_walk(tent_map):
    rng = random.Random(5)
    over_budget = tent_iterate_map(9)
    assert over_budget.pwl is None
    cases = [(tent_map, (F(1, 4099),)), (over_budget, (F(1, 1023),)),
             (over_budget, (F(5, 37),))]
    for n in range(3, 7):
        s = induced_map(odometer_substitution(n))
        assert s.pwl is None
        cases += [(s, tuple(F(rng.randint(0, d), d) for _ in range(n)))
                  for d in (1, 2, 3, 6)]
    for s, p in cases:
        for max_steps in (0, 1, 3, 10000):
            o = orbit(s, p, max_steps=max_steps)
            assert o == reference_orbit(s, p, max_steps), (s, p, max_steps)
            assert len(o.points) == len(o.denominators) <= max_steps + 1
            assert o.status == ("cycle" if o.period else "truncated")
    assert orbit(tent_map, (F(1, 5),), max_steps=0).points == ((F(1, 5),),)
    assert orbit(tent_map, (F(1, 4099),), max_steps=3).status == "truncated"


big = st.integers(-10 ** 30, 10 ** 30)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(0, 7, 1, 1)
@example(-6, 4, 3, 2)
@example(10 ** 30, 10 ** 30, -(10 ** 30), 1)
@given(big, st.integers(1, 10 ** 30), big, st.integers(1, 10 ** 30))
def test_a_lattice_coordinate_is_the_fraction_the_constructor_makes(k, d, j, e):
    # built without Fraction's constructor, so a change to its layout fails here
    x, y, other = dynamics._reduced_fraction(k, d), F(k, d), F(j, e)
    assert type(x) is Fraction
    assert x == y and (x.numerator, x.denominator) == (y.numerator, y.denominator)
    assert (hash(x), str(x), repr(x)) == (hash(y), str(y), repr(y))
    for z, w in ((x + other, y + other), (x * other, y * other), (other + x, other + y)):
        assert type(z) is Fraction and (z.numerator, z.denominator) == (w.numerator, w.denominator)
    assert (x < other, other < x, x < y, x <= y) == (y < other, other < y, False, True)


def test_an_orbit_builds_its_points_without_fractions_constructor(tent_map, monkeypatch):
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    counts = []
    for d in (4099, 8179):
        start = (F(1, d),)
        calls.clear()
        monkeypatch.setattr(Fraction, "__new__", counted)
        o = orbit(tent_map, start)
        monkeypatch.undo()
        assert o == reference_orbit(tent_map, start, 10000)
        counts.append(len(calls))
    assert len(o.points) == 4091 and counts[0] == counts[1] <= 4, counts
    for s, p in ((induced_map(odometer_substitution(4)), (F(1, 3), F(1, 2), F(0), F(1, 5))),
                 (induced_map(tent_pair()), (F(3, 7), F(2, 9)))):
        o = orbit(s, p)
        assert o.status == "cycle"
        assert o.denominators == tuple(math.lcm(*(x.denominator for x in q)) for q in o.points)


def test_odometer_orbit_never_evaluates_a_formula(monkeypatch):
    s = induced_map(odometer_substitution(4))
    expected = reference_orbit(s, (F(1, 3), F(1, 2), F(0), F(1, 5)), 10000)

    def refused(*args, **kwargs):
        raise AssertionError("an orbit step evaluated a formula")

    monkeypatch.setattr("mvdyn.formula.interpret", refused)
    monkeypatch.setattr("mvdyn.dynamics.interpret", refused)
    assert orbit(s, (F(1, 3), F(1, 2), F(0), F(1, 5))) == expected
    assert expected.points[-1] == expected.points[expected.preperiod]


def test_a_map_compiles_its_lattice_program_once(monkeypatch):
    calls = []
    compile_ = dynamics._compile
    monkeypatch.setattr("mvdyn.dynamics._compile",
                        lambda *args: calls.append(args) or compile_(*args))
    s = induced_map(odometer_substitution(5))
    for d in (1, 3, 7):
        orbit(s, (F(1, d),) * 5)
    assert len(calls) == 1


@pytest.mark.parametrize("call", [
    lambda e: orbit(e, ()),
    lambda e: box_hitting_search(e, e, [], [], 1, 1),
    lambda e: empirical_statistics(e, (), 10, 2),
], ids=["orbit", "boxhit", "stats"])
def test_a_map_of_no_variables_is_refused(call):
    with pytest.raises(ValueError, match="substitution must cover at least x0"):
        call(InducedMap(0, (), None))


def test_geometric_form_reraises_the_kept_refusal_without_compiling(monkeypatch):
    # the variable ceiling is kept as well
    assert "4 variables are outside" in str(induced_map(odometer_substitution(4)).refusal)
    calls = []
    compile_ = pwl.pwl_map_from_formulas

    def once(*args):
        calls.append(args)
        assert len(calls) == 1, "the images were compiled a second time"
        return compile_(*args)

    monkeypatch.setattr("mvdyn.pwl.pwl_map_from_formulas", once)
    s = tent_iterate_map(9)
    assert isinstance(s.refusal, pwl.CellBudgetError) and len(calls) == 1
    for _ in range(2):
        with pytest.raises(pwl.CellBudgetError, match="exceeds the 600-cell budget"):
            geometric_form(s)
    with pytest.raises(pwl.CellBudgetError, match="exceeds the 600-cell budget"):
        average_truth_value(Var(0), 1, s, [(F(0), F(1))])
    assert len(calls) == 1


@pytest.fixture
def compiles(monkeypatch):
    """Every pwl.pwl_map_from_formulas call, recorded by its images."""
    calls = []
    compile_ = pwl.pwl_map_from_formulas

    def record(images, *args):
        calls.append(tuple(images))
        return compile_(images, *args)

    monkeypatch.setattr("mvdyn.pwl.pwl_map_from_formulas", record)
    return calls


def test_a_substitution_compiles_its_form_once(compiles):
    sigma = tent_pair()
    r = Star(Var(0), Var(1))
    for box in ([(F(1, 8), F(5, 8)), (F(1, 4), F(3, 4))],
                [(F(0), F(1, 2)), (F(1, 2), F(1))],
                [(F(1, 4), F(1, 2)), (F(0), F(1, 4))]):
        assert len(average_truth_value(r, 2, sigma, box)["sequence"]) == 3
    assert compiles == [sigma.images]
    assert induced_map(sigma).pwl is geometric_form(sigma)
    assert compiles == [sigma.images]


def test_an_induced_map_without_its_form_compiles_once(compiles):
    s = InducedMap(2, tent_pair().images, None)
    assert geometric_form(s) is geometric_form(s)
    assert s.pwl is None and compiles == [s.images]


def test_a_substitution_keeps_its_refusal(compiles):
    sigma = Substitution(tent_iterate_map(9).images)
    compiles.clear()
    messages = []
    for _ in range(2):
        with pytest.raises(pwl.CellBudgetError, match="exceeds the 600-cell budget") as exc:
            geometric_form(sigma)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and compiles == [sigma.images]


def test_a_truncated_substitution_averages_through_a_throwaway_form(compiles):
    sigma = Substitution([Var(0), Var(0)])
    for _ in range(2):
        avg = average_truth_value(Var(0), 1, sigma, [(F(0), F(1, 2))])
        assert avg["sequence"] == [F(1, 4), F(1, 4)]
    # the one-row throwaway form is not kept on sigma
    assert geometric_form(sigma).rows == 2
    assert compiles == [(Var(0),), (Var(0),), sigma.images]


def test_full_rational_orbit_grid(tent_map):
    grid = full_rational_orbit(1, 4)
    assert grid == [(F(0),), (F(1, 4),), (F(1, 2),), (F(3, 4),), (F(1),)]
    assert len(full_rational_orbit(2, 2)) == 9
    for p in full_rational_orbit(1, 6):
        q = map_eval(tent_map, p)
        assert 6 % denominator(q) == 0
    with pytest.raises(ValueError):
        full_rational_orbit(2, 4000)


# -- reachability ------------------------------------------------------------------------

def test_reachability_doubling():
    sig = reachability_substitution((F(1, 3),), (F(2, 3),))
    assert evaluate(sig.images[0], LUKASIEWICZ, (F(1, 3),)) == F(2, 3)
    f = pwl_from_formula(sig.images[0], 1)
    g = pwl_from_formula(parse_formula("x0 (+) x0"), 1)
    assert pwl_equal(f, g)


def test_reachability_random_exact():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 2)
        d = rng.randint(1, 8)
        p = tuple(F(rng.randint(0, d), d) for _ in range(n))
        dp = max(denominator(p), 1)
        divisors = [k for k in range(1, dp + 1) if dp % k == 0]
        dq = rng.choice(divisors)
        q = tuple(F(rng.randint(0, dq), dq) for _ in range(n))
        s = reachability_substitution(p, q)
        assert tuple(evaluate(img, LUKASIEWICZ, p) for img in s.images) == q


def test_reachability_at_the_clamp_cap():
    # the image of x0 peels 996 unit literals, one level each
    sig = reachability_substitution((F(1, 997),), (F(996, 997),))
    assert map_eval(sig, (F(1, 997),)) == (F(996, 997),)
    with pytest.raises(ValueError, match="2490 unit literals"):
        reachability_substitution((F(2, 997),), (F(5, 997),))


def test_reachability_guards():
    with pytest.raises(ValueError):
        reachability_substitution((F(1, 2),), (F(1, 3),))
    with pytest.raises(ValueError):
        reachability_substitution((F(1, 2),), (F(1, 2), F(0)))
    with pytest.raises(ValueError):
        reachability_substitution((F(3, 2),), (F(1, 2),))


# -- the rotation homeomorphism --------------------------------------------------------------

def test_rotation_cell_count_and_vertex_cycle(rotation):
    sigma, smap = rotation
    assert len(smap.complex.cells) == 14
    assert smap.value((F(1, 4), F(1, 4))) == (F(1, 2), F(1, 4))
    assert smap.value((F(1, 2), F(1, 4))) == (F(1, 4), F(1, 2))
    assert smap.value((F(1, 4), F(1, 2))) == (F(1, 4), F(1, 4))
    assert smap.value((F(3, 4), F(3, 4))) == (F(1, 2), F(3, 4))
    for corner in [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]:
        assert smap.value(corner) == corner


def test_rotation_formula_agrees_with_geometry(rotation):
    sigma, smap = rotation
    s = induced_map(sigma)
    for a in range(9):
        for b in range(9):
            p = (F(a, 8), F(b, 8))
            assert map_eval(s, p) == smap.value(p), p
    rng = random.Random(11)
    for _ in range(120):
        p = (F(rng.randint(0, 240), 240), F(rng.randint(0, 240), 240))
        assert map_eval(s, p) == smap.value(p), p


def test_rotation_sample_cell_matrix(rotation):
    _, smap = rotation
    target = {(F(1, 4), F(1, 4)), (F(1), F(0)), (F(1, 2), F(1, 4))}
    found = None
    for j in range(len(smap.complex.cells)):
        if set(smap.complex.cell_points(j)) == target:
            found = smap.maps[j]
    assert found is not None
    assert found.a == ((F(-1), F(-5)), (F(1), F(4)))
    assert found.b == (F(2), F(-1))
    assert found.det() == 1 and found.is_integral


def test_rotation_validation_report(rotation):
    _, smap = rotation
    rep = validate_homeomorphism(smap)
    assert rep["invertible"] is True
    assert rep["common_det"] == 1
    assert rep["determinants_equal"] is True
    assert rep["unimodular"] is True
    assert rep["image_measure"] == 1
    assert rep["measure_preserving"] is True


def test_rotation_inner_triangle_three_cycle(rotation):
    rot, _ = rotation
    # the exact form's lattice step, then the lattice program of the formulas
    for s in (rot, InducedMap(2, rot.images, None)):
        o = orbit(s, (F(1, 4), F(1, 4)))
        assert o.preperiod == 0 and o.period == 3
        assert o.points == ((F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2)),
                            (F(1, 4), F(1, 4)))
        assert o.denominators == (4, 4, 4, 4)


def test_rotation_formula_compile_falls_back(rotation):
    rot, _ = rotation
    s = induced_map(Substitution(rot.images))
    assert s.pwl is None
    assert map_eval(s, (F(0), F(0))) == (F(0), F(0))


def test_the_rotation_is_an_induced_map_with_its_exact_form(rotation):
    rot, smap = rotation
    assert isinstance(rot, Substitution) and rot.pwl is smap
    assert induced_map(rot) is rot
    with pytest.raises(ValueError, match="2 images for a map of arity 3"):
        InducedMap(3, rot.images, smap)


def test_rotation_orbits_match_the_formula_walk(rotation):
    rot, _ = rotation
    walk = InducedMap(2, rot.images, None)
    for p in itertools.product([F(k, 8) for k in range(9)], repeat=2):
        assert orbit(rot, p) == orbit(walk, p)


def test_tent_and_flip_reports(tent_map):
    rep_t = validate_homeomorphism(tent_map.pwl)
    assert rep_t["invertible"] is False
    assert rep_t["measure_preserving"] is False
    flip = induced_map(flip_substitution())
    rep_f = validate_homeomorphism(flip.pwl)
    assert rep_f["invertible"] is True
    assert rep_f["common_det"] == -1
    assert rep_f["measure_preserving"] is True


def test_a_map_gluing_two_boundary_points_is_not_invertible():
    # a fan from (1, 1/2) onto the square slit from (1/2, 0) to (1/2, 1/2):
    # the image cells tile the square, but (1, 0) and (1, 1) both go to (1/2, 0)
    vertices = [(0, 0), (1, 0), (1, F(1, 2)), (1, 1), (F(2, 3), 1), (F(1, 3), 1), (0, 1)]
    images = [(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2)), (F(1, 2), 0), (1, 0), (1, 1), (0, 1)]
    cells = [(0, 1, 2), (0, 2, 6), (2, 5, 6), (2, 3, 4), (2, 4, 5)]
    smap = PWLMap(CellComplex(2, vertices, cells), tuple(
        affine_from_simplex_pair([vertices[i] for i in c], [images[i] for i in c])
        for c in cells))
    assert smap.value((1, 0)) == smap.value((1, 1))
    rep = validate_homeomorphism(smap)
    assert rep["image_measure"] == 1 and rep["invertible"] is False


def test_pwl_map_json_round_trip(rotation):
    _, smap = rotation
    again = pwl_map_from_json(pwl_map_to_json(smap))
    assert again.value((F(1, 3), F(1, 3))) == smap.value((F(1, 3), F(1, 3)))
    assert len(again.complex.cells) == len(smap.complex.cells)


def test_pwl_map_json_names_bad_field(rotation):
    obj = pwl_map_to_json(rotation[1])
    del obj["maps"]
    with pytest.raises(ValueError, match="'maps'"):
        pwl_map_from_json(obj)
    obj = pwl_map_to_json(rotation[1])
    obj["cells"] = 3
    with pytest.raises(ValueError, match="'cells'"):
        pwl_map_from_json(obj)


def test_pwl_map_validate_rejects_mismatch(tent_map):
    good = tent_map.pwl
    broken = PWLMap(good.complex, good.maps[:1])
    with pytest.raises(ValueError):
        broken.validate()


def test_two_variable_rows_are_the_compiled_images():
    sigma = Substitution([parse_formula("x0 (+) x1"), parse_formula("!x0 & x1")])
    s = induced_map(sigma)
    for i, g in enumerate(sigma.images):
        assert pwl_equal(s.pwl.row(i), pwl_from_formula(g, 2))


def test_one_coordinate_functions_refuse_two_rows(rotation):
    _, smap = rotation
    p = (F(1, 3), F(1, 5))
    assert pwl_eval(smap.row(1), p) == smap.value(p)[1]
    one_row = smap.row(0)
    for call in (lambda: pwl_eval(smap, p), lambda: pwl_integral(smap),
                 lambda: pwl_min_value(smap), lambda: pwl_le(smap, one_row),
                 lambda: pwl_equal(one_row, smap), lambda: pwl_combine("neg", smap),
                 lambda: pwl_combine("min", one_row, smap), lambda: pwl_to_json(smap),
                 lambda: pwl_to_formula_1d(smap)):
        with pytest.raises(ValueError, match="one-row"):
            call()


def test_validate_homeomorphism_refuses_a_function():
    with pytest.raises(ValueError, match="rows"):
        validate_homeomorphism(pwl_from_formula(And(Var(0), Var(1))))


# -- one-sided differentials ---------------------------------------------------------------

def test_tsujii_tent_oracles(tent_map):
    tm = tent_map.pwl
    assert tsujii_differential(tm, (F(1, 2),), (F(1),)) == (F(-2),)
    assert tsujii_differential(tm, (F(1, 2),), (F(-1),)) == (F(-2),)
    assert tsujii_differential(tm, (F(1, 4),), (F(1),)) == (F(2),)
    assert tsujii_differential(tm, (F(3, 4),), (F(5),)) == (F(-10),)
    assert tsujii_differential(tm, (F(1, 2),), (F(0),)) == (F(0),)
    with pytest.raises(ValueError):
        tsujii_differential(tm, (F(0),), (F(-1),))


def test_tsujii_rotation_interior_cell(rotation):
    _, smap = rotation
    p = (F(7, 12), F(1, 6))
    assert tsujii_differential(smap, p, (F(1), F(1))) == (F(-6), F(5))
    assert tsujii_differential(smap, p, (F(-1), F(0))) == (F(1), F(-1))


def test_tsujii_matches_difference_quotient_1d(tent_map):
    tm = tent_map.pwl
    rng = random.Random(5)
    for _ in range(50):
        p = (F(rng.randint(0, 16), 16),)
        v = (F(rng.choice([-3, -2, -1, 1, 2, 3])),)
        if (p[0] == 0 and v[0] < 0) or (p[0] == 1 and v[0] > 0):
            continue
        dv = tsujii_differential(tm, p, v)
        h = F(1, 1024)
        while not (0 <= p[0] + h * v[0] <= 1):
            h /= 2
        lhs = (tm.value((p[0] + h * v[0],))[0] - tm.value(p)[0]) / h
        assert lhs == dv[0], (p, v)


def test_tsujii_matches_difference_quotient_2d(rotation):
    _, smap = rotation
    rng = random.Random(9)
    for _ in range(40):
        p = (F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8))
        v = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        if v == (F(0), F(0)):
            continue
        try:
            dv = tsujii_differential(smap, p, v)
        except ValueError:
            continue
        h = F(1, 4096)
        q = (p[0] + h * v[0], p[1] + h * v[1])
        while not all(0 <= x <= 1 for x in q):
            h /= 2
            q = (p[0] + h * v[0], p[1] + h * v[1])
        img_p, img_q = smap.value(p), smap.value(q)
        assert tuple((img_q[i] - img_p[i]) / h for i in range(2)) == dv, (p, v)


def test_tsujii_raises_only_where_the_ray_leaves_the_cube(rotation, tent_map):
    # grid points lie on vertices and edges, and many directions run along an
    # edge, where the ray enters the closure of two cells
    for smap, den, dirs in ((rotation[1], 4, itertools.product((-1, 0, 1), repeat=2)),
                            (tent_map.pwl, 8, ((-1,), (1,)))):
        for v in dirs:
            if not any(v):
                continue
            for p in itertools.product(range(den + 1), repeat=len(v)):
                p = tuple(F(x, den) for x in p)
                leaves = any(x == 0 and c < 0 or x == 1 and c > 0 for x, c in zip(p, v))
                try:
                    dv = tsujii_differential(smap, p, v)
                except ValueError:
                    assert leaves, (p, v)
                    continue
                assert not leaves, (p, v)
                h = F(1, 64)
                img_p = smap.value(p)
                img_q = smap.value(tuple(x + h * c for x, c in zip(p, v)))
                assert tuple((b - a) / h for a, b in zip(img_p, img_q)) == dv, (p, v)


def ref_tsujii_differential(s, p, v):
    """The reference: tsujii_differential as it located the ray itself, by
    its own bisect over the right cell ends in 1-D and by the half-planes
    evaluated in Fractions in 2-D."""
    p = tuple(F(x) for x in p)
    v = tuple(F(x) for x in v)
    if all(x == 0 for x in v):
        return tuple(F(0) for _ in range(s.dim))
    bounds = s.complex._bounds
    if s.dim == 1:
        if (p[0] < 1) if v[0] > 0 else (p[0] > 0):
            k = (bisect.bisect_right if v[0] > 0 else bisect.bisect_left)(
                bounds, p[0], key=lambda b: b[1])
            return (s.maps[bounds[k][0]].a[0][0] * v[0],)
    else:
        for j, planes in bounds:
            for c0, c1, c2 in planes:
                e = c0 * p[0] + c1 * p[1] + c2
                if e < 0 or e == 0 and c0 * v[0] + c1 * v[1] < 0:
                    break
            else:
                return tuple(sum(r * x for r, x in zip(row, v)) for row in s.maps[j].a)
    raise ValueError("the ray leaves the unit cube immediately")


# criterion 12's directions, and both directions of the line
RAY_DIRECTIONS = {2: [tuple(map(F, v)) for v in itertools.product(range(-3, 4), repeat=2)
                      if any(v)],
                  1: [(F(-1),), (F(1),), (F(-7, 2),), (F(2),)]}


def ray_probes(w):
    """The vertices, edge midpoints and cell centroids of a complex."""
    points = set(w.vertices)
    for j in range(len(w.cells)):
        cell = w.cell_points(j)
        points.update(tuple((a + b) / 2 for a, b in zip(p, q))
                      for p, q in zip(cell, cell[1:] + cell[:1]))
        points.add(tuple(sum(xs) / len(cell) for xs in zip(*cell)))
    return sorted(points)


def assert_rays_located_as_the_reference(smap):
    """tsujii_differential equals the reference, value or message, on every
    probe in every direction; returns how many rays left the cube."""
    left = 0
    for p in ray_probes(smap.complex):
        for v in RAY_DIRECTIONS[smap.dim]:
            outcomes = []
            for differential in (tsujii_differential, ref_tsujii_differential):
                try:
                    outcomes.append(differential(smap, p, v))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (p, v, outcomes)
            left += isinstance(outcomes[0], str)
    return left


def tent_pair():
    x = Var(1)
    return Substitution([tent_substitution().images[0], And(OPlus(x, x), OPlus(Neg(x), Neg(x)))])


def test_rays_are_located_as_the_reference_on_the_named_maps(rotation, tent_map):
    for smap in (rotation[1], tent_map.pwl, induced_map(tent_pair()).pwl):
        # every probe on the boundary has a direction that leaves the cube
        assert assert_rays_located_as_the_reference(smap) > 0
    for p, v in (((F(0),), (F(-1),)), ((F(1),), (F(1),)), ((F(1),), (F(7, 2),))):
        with pytest.raises(ValueError, match="^the ray leaves the unit cube immediately$"):
            tsujii_differential(tent_map.pwl, p, v)
    for p, v in (((F(0), F(1, 2)), (F(-1), F(0))), ((F(1), F(1)), (F(0), F(1)))):
        with pytest.raises(ValueError, match="^the ray leaves the unit cube immediately$"):
            tsujii_differential(rotation[1], p, v)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.booleans())
def test_rays_are_located_as_the_reference_on_compiled_maps(seed, n, one_row):
    sigma = rand_substitution(random.Random(seed), n)
    smap = pwl_from_formula(sigma.images[0], n) if one_row else induced_map(sigma).pwl
    if smap is not None:
        assert_rays_located_as_the_reference(smap)


# -- box hitting and statistics ----------------------------------------------------------------

def test_box_hitting_tent_to_tent(tent_map):
    hit = box_hitting_search(tent_map, tent_map,
                             [(F(1, 5), F(3, 10))], [(F(7, 10), F(9, 10))],
                             h_max=4, k_max=4, grid_denominator=20)
    assert hit is not None
    x = hit.witness
    assert F(1, 5) <= x[0] <= F(3, 10)
    for _ in range(hit.h + hit.k):
        x = map_eval(tent_map, x)
    assert F(7, 10) <= x[0] <= F(9, 10)
    assert x == hit.image


def test_box_hitting_on_the_lattice_matches_the_formula_walk(tent_map):
    pair = induced_map(Substitution([tent_substitution().images[0],
                                     parse_formula("x0 * x1 (+) !x0 & x1")]))
    hits = 0
    for s, g in ((tent_map, 20), (pair, 10)):
        assert s.pwl.lattice_step(g) is not None
        walk = InducedMap(s.arity, s.images, None)
        for lo_a in range(0, 9, 2):
            for lo_b in range(0, 9, 3):
                boxes = ([(F(lo_a, 10), F(lo_a + 2, 10))] * s.arity,
                         [(F(lo_b, 10), F(lo_b + 1, 10)),
                          (F(8 - lo_b, 10), F(10 - lo_b, 10))][:s.arity])
                hit = box_hitting_search(s, s, *boxes, 3, 3, g)
                assert hit == box_hitting_search(walk, walk, *boxes, 3, 3, g)
                hits += hit is not None
    assert 0 < hits < 40


def reference_box_search(q_map, r_map, a_box, b_box, h_max, k_max, g):
    """The first (h, k, witness) by the reference: the source box's grid points
    as Fraction tuples in product order, each step one map_eval."""
    axes = [[F(k, g) for k in range(math.ceil(lo * g), math.floor(hi * g) + 1)]
            for lo, hi in a_box]
    starts = q_iter = list(itertools.product(*axes))
    for h in range(h_max + 1):
        for start, x in zip(starts, q_iter):
            for k in range(k_max + 1):
                if all(lo <= v <= hi for v, (lo, hi) in zip(x, b_box)):
                    return dynamics.BoxHit(h, k, start, x)
                x = map_eval(r_map, x)
        if h < h_max:
            q_iter = [map_eval(q_map, x) for x in q_iter]
    return None


BOX_MAPS = {"tent": induced_map(tent_substitution()), "flip": induced_map(flip_substitution()),
            "tent-pair": induced_map(tent_pair()), "rotation": rotation_homeomorphism()[0]}


@st.composite
def box_search_cases(draw):
    """(map, source box, target box, grid): boxes with ends on the grid (1/g)Z."""
    s = BOX_MAPS[draw(st.sampled_from(sorted(BOX_MAPS)))]
    g = draw(st.integers(1, 12))
    ends = st.lists(st.integers(0, g), min_size=2, max_size=2, unique=True).map(sorted)
    boxes = [[(F(lo, g), F(hi, g)) for lo, hi in draw(st.lists(ends, min_size=s.arity,
                                                               max_size=s.arity))]
             for _ in range(2)]
    return s, *boxes, g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example((BOX_MAPS["tent-pair"], [(F(1, 5), F(2, 5))] * 2, [(F(4, 5), F(1))] * 2, 10), 3, 3)
@example((BOX_MAPS["flip"], [(F(0), F(1, 12))], [(F(1, 6), F(5, 6))], 12), 3, 3)
@given(box_search_cases(), st.integers(0, 3), st.integers(0, 3))
def test_box_hitting_is_the_reference_search(case, h_max, k_max):
    s, a_box, b_box, g = case
    assert (box_hitting_search(s, s, a_box, b_box, h_max, k_max, g)
            == reference_box_search(s, s, a_box, b_box, h_max, k_max, g))


def test_box_hitting_identity_misses():
    ident = induced_map(Substitution([Var(0)]))
    none = box_hitting_search(ident, ident,
                              [(F(0), F(1, 10))], [(F(9, 10), F(1))],
                              h_max=3, k_max=3, grid_denominator=10)
    assert none is None


def test_box_hitting_rejects_degenerate_box(tent_map):
    with pytest.raises(ValueError):
        box_hitting_search(tent_map, tent_map,
                           [(F(1, 2), F(1, 2))], [(F(0), F(1))],
                           h_max=1, k_max=1)


@pytest.mark.parametrize("maps, source, target, text", [
    ("tent", [(F(3, 2), F(2))], [(F(0), F(1, 10))], "source box [3/2, 2] must be nondegenerate"),
    ("tent", [(F(0), F(1))], [(F(1, 2), F(3, 2))], "target box [1/2, 3/2] must be nondegenerate"),
    ("tent", [(F(-1, 2), F(1, 2))], [(F(0), F(1))], "source box [-1/2, 1/2] must be nondegenerate"),
    ("tent", [(F(0), F(1))] * 2, [(F(0), F(1))], "source box [0, 1] x [0, 1] needs one axis"),
    ("tent", [(F(0), F(1))], [], "target box () needs one axis"),
    ("rotation", [(F(0), F(1))], [(F(0), F(1, 10))] * 2,
     "source box [0, 1] needs one axis per variable of the maps (dimension 2)"),
], ids=["source-above", "target-above", "source-below", "source-2d", "target-0d", "rotation-1d"])
def test_box_hitting_refuses_a_box_off_the_cube_before_any_step(tent_map, rotation, monkeypatch,
                                                                 maps, source, target, text):
    s = tent_map if maps == "tent" else rotation[0]
    monkeypatch.setattr("mvdyn.dynamics._lattice_step", None)
    with pytest.raises(ValueError, match=re.escape(text)):
        box_hitting_search(s, s, source, target, h_max=1, k_max=1)


def test_empirical_statistics_tent(tent_map):
    st = empirical_statistics(tent_map, (F(1, 3),), 20000, 4, seed=1)
    assert st["discrepancy"] < 0.05
    assert abs(sum(row["frequency"] for row in st["table"]) - 1.0) < 1e-9
    assert sum(row["count"] for row in st["table"]) == 20000
    assert all(row["volume"] == 0.25 for row in st["table"])


def test_empirical_statistics_identity_clumps():
    ident = induced_map(Substitution([Var(0)]))
    st = empirical_statistics(ident, (F(1, 3),), 2000, 4, seed=1)
    assert st["discrepancy"] > 0.5


def test_empirical_statistics_deterministic(tent_map):
    a = empirical_statistics(tent_map, (F(1, 3),), 5000, 4, seed=42)
    b = empirical_statistics(tent_map, (F(1, 3),), 5000, 4, seed=42)
    c = empirical_statistics(tent_map, (F(1, 3),), 5000, 4, seed=43)
    assert a == b
    assert a != c


def float_program(images):
    """The images' values at a float point x, by one walk of their shared core
    DAG with the float program's ops: star is max(a + b - 1.0, 0.0) and impl
    is 1.0 if a <= b else 1.0 - a + b."""
    nodes = []

    def step(node, a=None, b=None):
        nodes.append((node.op, node.index if node.op == "var" else a, b))
        return len(nodes) - 1

    memo = {}
    cores = [g.core() for g in images]
    outputs = [formula.fold(c, step, memo=memo) for c in cores]

    def run(x):
        v = []
        for op, a, b in nodes:
            if op == "var":
                v.append(x[a])
            elif op in ("zero", "one"):
                v.append(0.0 if op == "zero" else 1.0)
            elif op == "star":
                v.append(max(v[a] + v[b] - 1.0, 0.0))
            else:
                v.append(1.0 if v[a] <= v[b] else 1.0 - v[a] + v[b])
        return [v[i] for i in outputs]

    return run


def reference_statistics(s, start, iterations, box_grid, seed=0):
    """empirical_statistics one step at a time: each step evaluates the
    images, dithers and clamps each coordinate in order, and counts the box
    in a dict keyed by its index tuple."""
    n = s.arity
    run = float_program(s.images)
    rng = random.Random(seed)
    x = [float(v) for v in start]
    counts = {}
    dither = 2.0 ** -40
    for _ in range(iterations):
        y = run(x)
        x = [min(1.0, max(0.0, c + (rng.random() - 0.5) * 2.0 * dither)) for c in y]
        box = tuple(min(int(c * box_grid), box_grid - 1) for c in x)
        counts[box] = counts.get(box, 0) + 1
    volume = 1.0 / box_grid ** n
    table = []
    discrepancy = 0.0
    for idx in itertools.product(range(box_grid), repeat=n):
        freq = counts.get(idx, 0) / iterations
        table.append({"box": list(idx), "count": counts.get(idx, 0),
                      "frequency": freq, "volume": volume})
        discrepancy = max(discrepancy, abs(freq - volume))
    return {"iterations": iterations, "box_grid": box_grid, "dither": dither,
            "table": table, "discrepancy": discrepancy}


def random_images(n):
    """n random images over x0..x_{n-1}, the constants 0 and 1 among the leaves."""
    leaves = st.sampled_from([formula.ZERO, formula.ONE, *map(Var, range(n))])
    formulas = st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Neg), st.builds(lambda op, a, b: op(a, b),
                                st.sampled_from([Star, Impl, And, OPlus]), sub, sub)),
        max_leaves=6)
    return st.lists(formulas, min_size=n, max_size=n)


STATISTICS_MAPS = {"tent": tent_substitution(), "tent-pair": tent_pair(),
                   "odometer:3": odometer_substitution(3),
                   "rotation": rotation_homeomorphism()[0],
                   "zero": Substitution([formula.ZERO]), "one": Substitution([formula.ONE])}
coordinates = st.one_of(st.sampled_from([F(0), F(1)]),
                        st.fractions(min_value=0, max_value=1, max_denominator=50))


@st.composite
def statistics_cases(draw):
    """(substitution, start): a named map, or random images of 1 or 2 variables."""
    name = draw(st.sampled_from([*STATISTICS_MAPS, "random"]))
    if name == "random":
        sigma = Substitution(draw(st.integers(1, 2).flatmap(random_images)))
    else:
        sigma = STATISTICS_MAPS[name]
    return sigma, draw(st.tuples(*[coordinates] * sigma.arity))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example((STATISTICS_MAPS["tent"], (F(1, 3),)), 3000, 6, 7)
@example((STATISTICS_MAPS["tent-pair"], (F(0), F(1))), 3000, 4, 7)
@example((STATISTICS_MAPS["rotation"], (F(1, 3), F(1, 7))), 3000, 5, 1)
@example((STATISTICS_MAPS["odometer:3"], (F(1), F(0), F(1, 2))), 3000, 3, 2)
@example((STATISTICS_MAPS["one"], (F(0),)), 3000, 1, 0)
@given(statistics_cases(), st.integers(1, 3000), st.integers(1, 6), st.integers(0, 2 ** 32))
def test_statistics_are_the_reference_loops(case, iterations, box_grid, seed):
    sigma, start = case
    s = induced_map(sigma)
    assert (empirical_statistics(s, start, iterations, box_grid, seed)
            == reference_statistics(s, start, iterations, box_grid, seed))


@pytest.mark.parametrize("subst, start", [
    (tent_substitution(), (F(1, 3),)),
    (tent_pair(), (F(1, 3), F(1, 7))),
    (odometer_substitution(3), (F(0), F(1), F(1, 2))),
], ids=["tent", "tent-pair", "odometer3"])
def test_statistics_draw_once_per_coordinate_and_compile_once(monkeypatch, subst, start):
    s = induced_map(subst)
    draws, compiles = [], []
    draw, compile_ = random.Random.random, dynamics._compile
    monkeypatch.setattr(random.Random, "random", lambda rng: draws.append(1) or draw(rng))
    monkeypatch.setattr("mvdyn.dynamics._compile",
                        lambda *args: compiles.append(args) or compile_(*args))
    for calls, iterations in enumerate((1, 7, 500), start=1):
        draws.clear()
        rep = empirical_statistics(s, start, iterations, 3, seed=calls)
        assert len(draws) == iterations * s.arity
        assert len(compiles) == calls
        assert sum(row["count"] for row in rep["table"]) == iterations
    monkeypatch.undo()
    assert rep == reference_statistics(s, start, 500, 3, seed=3)


def test_average_truth_value_tent():
    avg = average_truth_value(Var(0), 3, tent_substitution(), [(F(0), F(1, 4))])
    assert avg["sequence"] == [F(1, 8), F(1, 4), F(1, 2), F(1, 2)]
    assert avg["lebesgue_average"] == F(1, 2)


def test_average_truth_value_guards():
    with pytest.raises(ValueError):
        average_truth_value(Var(0), 2, tent_substitution(), [(F(1, 2), F(1, 2))])
    with pytest.raises(ValueError):
        average_truth_value(Var(2), 1, tent_substitution(), [(F(0), F(1))])


def test_average_truth_value_needs_sigma_only_after_step_zero():
    square = [(F(0), F(1)), (F(0), F(1, 2))]
    with pytest.raises(ValueError, match="substitution of arity 1 misses x1"):
        average_truth_value(Var(1), 1, tent_substitution(), square)
    avg = average_truth_value(Var(1), 0, tent_substitution(), square)
    assert avg == {"sequence": [F(1, 4)], "lebesgue_average": F(1, 2)}


def test_average_truth_value_refuses_a_map_over_the_cell_budget(monkeypatch):
    monkeypatch.setattr("mvdyn.dynamics.CELL_BUDGET", 1)
    with pytest.raises(ValueError, match="compilation exceeded 1 cells"):
        average_truth_value(Var(0), 1, tent_substitution(), [(F(0), F(1))])
    avg = average_truth_value(Var(0), 0, tent_substitution(), [(F(0), F(1))])
    assert avg == {"sequence": [F(1, 2)], "lebesgue_average": F(1, 2)}


def test_average_of_a_constant_under_a_substitution_without_images():
    avg = average_truth_value(parse_formula("1"), 2, Substitution([]), [(F(0), F(1, 3))])
    assert avg == {"sequence": [F(1)] * 3, "lebesgue_average": F(1)}


def test_composed_tent_iterates_double_their_cells(tent_map):
    w = pwl_from_formula(Var(0))
    for j in range(11):
        assert len(w.complex.cells) == 2 ** j
        w = pwl_compose(w, tent_map.pwl)


def test_average_truth_value_assembles_no_iterate(monkeypatch):
    # x0 * x1 under the tent pair over a quarter-by-quarter box: the walk
    # cuts the box forward through S, so it assembles the complexes of r's
    # compilation only, at k = 4 as at k = 0; its pieces per step stay at or below
    # the cells of the iterates pulled back over the whole square
    sigma = induced_map(tent_pair())
    box = [(F(1, 4), F(1, 2)), (F(0), F(1, 4))]
    build, integral = pwl._build_complex_2d, pwl._pieces_integral
    builds, pieces = [0], []

    def counting_build(tagged):
        builds[0] += 1
        return build(tagged)

    def recording_integral(f, step):
        pieces.append(len(step))
        return integral(f, step)
    monkeypatch.setattr(pwl, "_build_complex_2d", counting_build)
    monkeypatch.setattr(pwl, "_pieces_integral", recording_integral)
    counts = []
    for k in (0, 4):
        builds[0] = 0
        average_truth_value(Star(Var(0), Var(1)), k, sigma, box)
        counts.append(builds[0])
    assert counts[0] == counts[1] > 0
    pieces.clear()
    avg = average_truth_value(Star(Var(0), Var(1)), 5, sigma, box)
    assert avg["sequence"] == [F(0), F(1, 12)] + [F(1, 6)] * 4
    lebesgue, *steps = pieces      # the Lebesgue average is step 0 over the whole square
    assert (lebesgue, len(steps)) == (1, 6)
    assert all(n <= cells for n, cells in zip(steps, [4, 40, 204, 860, 3484, 13980]))


def test_average_truth_value_piece_cap_at_step_15():
    # 2^14 = 16384 cells fit under PIECE_CAP = 20000, 2^15 do not
    with pytest.raises(ValueError, match="piece cap exceeded at step 15"):
        average_truth_value(Var(0), 15, tent_substitution(), [(F(0), F(1))])
