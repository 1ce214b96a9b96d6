"""Induced maps, exact orbits, reachability, the rotation homeomorphism,
one-sided differentials, box hitting, and orbit statistics."""

import random
from fractions import Fraction

import pytest

from mvdyn.formula import (
    Var, Neg, Star, Impl, And, OPlus, Substitution, evaluate, LUKASIEWICZ,
    parse_formula,
)
from mvdyn.pwl import pwl_from_formula, pwl_equal
from mvdyn.dynamics import (
    PWLMap, InducedMap, induced_map, map_eval, denominator, orbit,
    full_rational_orbit, reachability_substitution, rotation_homeomorphism,
    validate_homeomorphism, tsujii_differential, box_hitting_search,
    empirical_statistics, average_truth_value, tent_substitution,
    flip_substitution, pwl_map_to_json, pwl_map_from_json,
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
    assert tent_map((F(1, 8),)) == (F(1, 4),)


def test_tent_map_geometric_form_matches(tent_map):
    assert tent_map.pwl is not None
    tent_map.pwl.validate()
    for k in range(33):
        p = (F(k, 32),)
        assert tent_map.pwl.value(p) == map_eval(tent_map, p)


def test_component_functions_round_trip(tent_map):
    comp = tent_map.pwl.component_functions()[0]
    direct = pwl_from_formula(tent_map.components[0], 1)
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
    sigma, _ = rotation
    o = orbit(induced_map(sigma), (F(1, 4), F(1, 4)))
    assert o.preperiod == 0 and o.period == 3


def test_rotation_formula_compile_falls_back(rotation):
    sigma, _ = rotation
    s = induced_map(sigma)
    assert s.pwl is None
    assert map_eval(s, (F(0), F(0))) == (F(0), F(0))


def test_tent_and_flip_reports(tent_map):
    rep_t = validate_homeomorphism(tent_map.pwl)
    assert rep_t["invertible"] is False
    assert rep_t["measure_preserving"] is False
    flip = induced_map(flip_substitution())
    rep_f = validate_homeomorphism(flip.pwl)
    assert rep_f["invertible"] is True
    assert rep_f["common_det"] == -1
    assert rep_f["measure_preserving"] is True


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


def test_average_truth_value_tent():
    avg = average_truth_value(Var(0), 3, tent_substitution(), [(F(0), F(1, 4))])
    assert avg["sequence"] == [F(1, 8), F(1, 4), F(1, 2), F(1, 2)]
    assert avg["lebesgue_average"] == F(1, 2)


def test_average_truth_value_guards():
    with pytest.raises(ValueError):
        average_truth_value(Var(0), 2, tent_substitution(), [(F(1, 2), F(1, 2))])
    with pytest.raises(ValueError):
        average_truth_value(Var(2), 1, tent_substitution(), [(F(0), F(1))])
