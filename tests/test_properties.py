"""Property tests of the piecewise-affine engine against the formula semantics.

Examples are derandomized (seeded from each test's name) and nothing is
stored between runs, so every run checks the same cases.
"""

import json
import math
from fractions import Fraction
from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from mvdyn.dynamics import (
    InducedMap, _lattice_step, average_truth_value, geometric_form, induced_map, map_eval, orbit,
    rotation_homeomorphism,
)
from mvdyn.formula import (
    And, Impl, Neg, OPlus, Or, Star, Substitution, Var, ONE, ZERO, LUKASIEWICZ,
    apply_substitution, evaluate, fold, parse_formula, print_formula,
)
from mvdyn.pwl import (
    PWLMap, affine_from_simplex_pair, pwl_compose, pwl_equal, pwl_eval, pwl_from_formula,
    pwl_from_json, pwl_integral, pwl_map_from_json, pwl_map_to_json, pwl_to_json,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

def binary(sub):
    return st.builds(lambda op, a, b: op(a, b),
                     st.sampled_from([Star, Impl, And, Or, OPlus]), sub, sub)


def formulas_over(leaves):
    return st.recursive(st.sampled_from(leaves),
                        lambda sub: st.one_of(sub.map(Neg), binary(sub)), max_leaves=6)


formulas = formulas_over([Var(0), Var(1), ZERO, ONE])
formulas_1 = formulas_over([Var(0)])

rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)


def json_trip(obj):
    return json.loads(json.dumps(obj))


def shape(f):
    """f as nested tuples (op, index, *children): equal iff the trees are the same."""
    return fold(f, lambda node, *kids: (node.op, node.index, *kids))


@SETTINGS
@given(formulas)
def test_parse_inverts_print_up_to_tree_shape(f):
    assert shape(parse_formula(print_formula(f))) == shape(f)


def top_level_arrows(text):
    """The offsets of the '->' outside every group of text, by a scan of its
    characters ('(+)' opens and closes, so it leaves the depth as it was)."""
    depth, found = 0, []
    for i, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if depth == 0 and text.startswith("->", i):
            found.append(i)
    return found


# f_1 -> (f_2 -> ... -> f_k) for 1 to 4 drawn formulas: up to three top-level '->'
implication_chains = st.lists(formulas, min_size=1, max_size=4).map(
    lambda fs: reduce(lambda tail, f: Impl(f, tail), reversed(fs[:-1]), fs[-1]))


@SETTINGS
@given(implication_chains)
def test_each_text_after_a_top_level_arrow_reads_as_a_fresh_parse(f):
    # one memo reads each text, canonical and with the spaces removed, then the
    # text after each of its top-level '->'s, which the text read before keys;
    # every text the memo keys is one that a fresh parse reads as its node
    memo = {}
    for text in (print_formula(f), print_formula(f).replace(" ", "")):
        assert parse_formula(text, memo=memo) is parse_formula(text)
        for i in top_level_arrows(text):
            tail = text[i + 2:].lstrip()
            assert tail in memo
            assert parse_formula(tail, memo=memo) is parse_formula(tail)
    for key, value in memo.items():
        if isinstance(key, str):
            assert parse_formula(key) is (value[0] if isinstance(value, tuple) else value)


@SETTINGS
@given(formulas, st.tuples(rationals, rationals))
def test_pwl_eval_matches_evaluate(f, point):
    dim = max(f.arity, 1)
    p = point[:dim]
    assert pwl_eval(pwl_from_formula(f, dim), p) == evaluate(f, LUKASIEWICZ, p)


@SETTINGS
@given(formulas)
def test_pwl_json_round_trip(f):
    w = pwl_from_formula(f)
    again = pwl_from_json(json_trip(pwl_to_json(w)))
    assert again.complex.vertices == w.complex.vertices
    assert again.complex.cells == w.complex.cells
    assert again.maps == w.maps


@SETTINGS
@given(formulas, formulas)
def test_pwl_map_json_round_trip(g0, g1):
    s = induced_map(Substitution([g0, g1])).pwl
    assume(s is not None)
    again = pwl_map_from_json(json_trip(pwl_map_to_json(s)))
    assert again.complex.vertices == s.complex.vertices
    assert again.complex.cells == s.complex.cells
    assert again.maps == s.maps


@SETTINGS
@given(formulas, formulas, st.tuples(rationals, rationals))
def test_induced_map_geometric_form_matches_map_eval(g0, g1, p):
    s = induced_map(Substitution([g0, g1]))
    assume(s.pwl is not None)
    assert s.pwl.value(p) == map_eval(s, p)
    assert all(isinstance(x, Fraction) for x in s.pwl.value(p))


def walk_orbit(s, p, max_steps):
    """(points, status, preperiod, period, denominators) by iterating map_eval."""
    points = [tuple(p)]
    pre = None
    for _ in range(max_steps):
        q = map_eval(s, points[-1])
        if q in points:
            pre = points.index(q)
        points.append(q)
        if pre is not None:
            break
    period = None if pre is None else len(points) - 1 - pre
    return (tuple(points), "truncated" if pre is None else "cycle", pre, period,
            tuple(math.lcm(*(x.denominator for x in q)) for q in points))


TENT = And(OPlus(Var(0), Var(0)), OPlus(Neg(Var(0)), Neg(Var(0))))


@settings(SETTINGS, max_examples=300)
@example([TENT], (Fraction(1, 11), 0), 400)
@example([TENT, OPlus(Star(Var(0), Var(1)), And(Neg(Var(0)), Var(1)))],
         (Fraction(1, 5), Fraction(2, 7)), 400)
@given(st.one_of(binary(formulas_1).map(lambda g: [g]),
                 st.lists(binary(formulas), min_size=2, max_size=2)),
       st.tuples(rationals, rationals), st.sampled_from([0, 1, 3, 400]))
def test_orbit_matches_the_formula_walk(images, point, max_steps):
    s = induced_map(Substitution(images))
    assume(s.pwl is not None)
    p = point[:s.arity]
    walk = walk_orbit(s, p, max_steps)
    # the geometric form's lattice step, then the lattice program of the formulas
    for m in (s, InducedMap(s.arity, s.images, None)):
        o = orbit(m, p, max_steps=max_steps)
        assert (o.points, o.status, o.preperiod, o.period, o.denominators) == walk
        assert all(isinstance(x, Fraction) for q in o.points for x in q)


def formulas_of_depth(leaves, depth):
    """Formulas of depth at most depth over the leaves, with every connective."""
    sub = st.sampled_from(leaves)
    for _ in range(depth):
        sub = st.one_of(sub, sub.map(Neg), binary(sub))
    return sub


@st.composite
def lattice_cases(draw):
    """(images over n = 1..5 variables, d <= 40, numerators k of a point k/d)."""
    n = draw(st.integers(1, 5))
    leaves = [Var(i) for i in range(n)] + [ZERO, ONE]
    images = draw(st.lists(formulas_of_depth(leaves, 5), min_size=n, max_size=n))
    d = draw(st.integers(1, 40))
    return images, d, draw(st.tuples(*[st.integers(0, d)] * n))


@SETTINGS
@given(lattice_cases())
def test_lattice_program_matches_map_eval(case):
    images, d, k = case
    s = InducedMap(len(images), images, None)
    step = _lattice_step(s, d)
    image = (step(k[0]),) if len(images) == 1 else step(k)
    assert all(type(v) is int for v in image)
    assert tuple(Fraction(v, d) for v in image) == map_eval(s, tuple(Fraction(v, d) for v in k))


def average_by_formula(r, k, sigma, box):
    """(sequence, Lebesgue average) of average_truth_value, by compiling each
    sigma^j(r) from the substituted formula."""
    dim = len(box)
    volume = math.prod(hi - lo for lo, hi in box)
    sequence, current = [], r
    for j in range(k + 1):
        sequence.append(pwl_integral(pwl_from_formula(current, dim), box) / volume)
        current = apply_substitution(sigma, current)
    return sequence, pwl_integral(pwl_from_formula(r, dim))


intervals = st.tuples(rationals, rationals).filter(lambda t: t[0] != t[1]).map(sorted)


@SETTINGS
@given(st.one_of(st.tuples(binary(formulas_1).map(lambda g: [g]), formulas_1,
                           st.integers(1, 4)),
                 st.tuples(st.lists(binary(formulas), min_size=2, max_size=2), formulas,
                           st.integers(1, 2))),
       st.tuples(intervals, intervals))
def test_average_truth_value_matches_the_formula_route(case, box):
    images, r, k = case
    sigma = Substitution(images)
    box = box[:max(r.arity, *(g.arity for g in images), 1)]
    avg = average_truth_value(r, k, sigma, box)
    assert (avg["sequence"], avg["lebesgue_average"]) == average_by_formula(r, k, sigma, box)


def average_by_pullback(r, k, sigma, box):
    """(sequence, Lebesgue average) of average_truth_value by the backward
    route: each iterate r after S^j assembled over the whole cube, pulled back
    through the geometric form S (pwl_compose), then integrated over the box."""
    dim = len(box)
    volume = math.prod(hi - lo for lo, hi in box)
    w = pwl_from_formula(r, dim)
    s = geometric_form(sigma if sigma.arity == dim else Substitution(sigma.images[:dim]))
    sequence = []
    for j in range(k + 1):
        sequence.append(pwl_integral(w, box) / volume)
        if j < k:
            w = pwl_compose(w, s)
    return sequence, pwl_integral(pwl_from_formula(r, dim))


X0, X1 = Var(0), Var(1)
# maps with singular pieces: onto the diagonal, onto a side, and cells of
# determinant 0 beside cells of determinant -1
SINGULAR = [[And(X0, X1)] * 2, [Star(X0, X1), ZERO], [And(Neg(X0), X1), X0]]
ROTATION = rotation_homeomorphism()[0]     # carries its 14-cell form
# sides on cell ends of the tent maps, and the whole interval
sides = st.sampled_from([(Fraction(lo, 4), Fraction(hi, 4))
                         for lo in range(4) for hi in range(lo + 1, 5)])


@st.composite
def rational_self_maps(draw, n):
    """The identity substitution on n variables carrying another geometric
    form: affine on each cell of a compiled complex, with each vertex sent
    to a drawn point of (1/den)Z^n, so its pieces are rational and some may
    be singular."""
    w = pwl_from_formula(draw(formulas_1 if n == 1 else formulas), n).complex
    den = draw(st.sampled_from([2, 3, 5, 12]))
    images = [tuple(Fraction(draw(st.integers(0, den)), den) for _ in range(n))
              for _ in w.vertices]
    s = PWLMap(w, tuple(affine_from_simplex_pair(w.cell_points(j), [images[i] for i in cell])
                        for j, cell in enumerate(w.cells)))
    return InducedMap(n, [Var(i) for i in range(n)], s)


# (images or induced map, r, k) for the averages
average_cases = st.one_of(
    st.tuples(binary(formulas_1).map(lambda g: [g]), formulas_1, st.integers(0, 6)),
    st.tuples(st.one_of(st.lists(binary(formulas), min_size=2, max_size=2),
                        st.sampled_from(SINGULAR)), formulas, st.integers(0, 3)),
    st.tuples(st.just(ROTATION), formulas, st.integers(0, 3)),
    st.tuples(rational_self_maps(1), formulas_1, st.integers(0, 4)),
    st.tuples(rational_self_maps(2), formulas, st.integers(0, 2)))


@SETTINGS
@given(average_cases, st.tuples(sides, sides))
@example(([And(X0, X1)] * 2, Star(X0, X1), 3), ((Fraction(0), Fraction(1)),) * 2)
@example(([Neg(X0), X1], Star(X0, X1), 1), ((Fraction(0), Fraction(1)),) * 2)
@example((ROTATION, parse_formula("x0 * x1 (+) !x0 & x1"), 3),
         ((Fraction(1, 4), Fraction(1, 2)), (Fraction(0), Fraction(1, 4))))
def test_average_truth_value_walks_as_the_pullback(case, box):
    images, r, k = case
    sigma = images if isinstance(images, InducedMap) else Substitution(images)
    box = box[:max(r.arity, *(g.arity for g in sigma.images), 1)]
    assume(induced_map(sigma).pwl is not None)
    avg = average_truth_value(r, k, sigma, box)
    assert (avg["sequence"], avg["lebesgue_average"]) == average_by_pullback(r, k, sigma, box)


@SETTINGS
@given(average_cases, st.tuples(sides, sides))
def test_a_kept_form_averages_as_a_fresh_one(case, box):
    """A substitution compiles its images once and keeps the form: averages
    on it, reused, equal those on a fresh substitution of the same images."""
    images, r, k = case
    sigma = images if isinstance(images, InducedMap) else Substitution(images)
    box = box[:max(r.arity, *(g.arity for g in sigma.images), 1)]
    assume(induced_map(sigma).pwl is not None)
    s = geometric_form(sigma)
    assert s is geometric_form(sigma)
    # an induced map's form need not be its images' (rational_self_maps)
    assume(not isinstance(images, InducedMap))
    for _ in range(2):
        avg = average_truth_value(r, k, sigma, box)
        assert avg == average_truth_value(r, k, Substitution(images), box)
    fresh = geometric_form(Substitution(images))
    assert fresh is not s and all(pwl_equal(s.row(i), fresh.row(i)) for i in range(s.rows))


@SETTINGS
@given(st.one_of(st.tuples(binary(formulas_1).map(lambda g: [g]), formulas_1),
                 st.tuples(st.lists(binary(formulas), min_size=2, max_size=2), formulas)))
def test_pullback_is_the_map_of_the_substituted_formula(case):
    images, r = case
    sigma = Substitution(images)
    s = induced_map(sigma).pwl
    assume(s is not None)
    n = sigma.arity
    w = pwl_compose(pwl_from_formula(r, n), s)
    w.validate()
    assert pwl_equal(w, pwl_from_formula(apply_substitution(sigma, r), n))
