"""Exact piecewise-linear calculus: complexes, compilation, integration,
synthesis, and affine maps."""

import ast
import bisect
import json
import math
import random
import re
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mvdyn.pwl as pwl_module

from mvdyn.formula import (
    Var, Star, Impl, Neg, And, Or, OPlus, ZERO, ONE, Substitution, parse_formula,
    evaluate, apply_substitution, LUKASIEWICZ,
)
from mvdyn.pwl import (
    CellComplex, PWLMap, AffineMap, CellBudgetError,
    unit_complex, common_refinement, pwl_from_formula, pwl_eval, pwl_combine,
    pwl_equal, pwl_le, pwl_min_value, pwl_integral, clamp_affine_formula, MAX_CLAMP_UNITS,
    pwl_to_formula_1d, affine_from_simplex_pair, pwl_to_json, pwl_from_json,
    pwl_compose, pwl_map_from_json, pwl_map_to_json, _synthesize_formula,
    _build_complex_2d, _compose_affine, _pullback, _refine_tagged, _unit_set_min_and_power,
)
from mvdyn.dynamics import (
    induced_map, rotation_homeomorphism, tent_substitution, validate_homeomorphism,
)

F = Fraction

X0, X1 = Var(0), Var(1)
TENT = parse_formula("x0 (+) x0 & !x0 (+) !x0")
FIGURE = parse_formula("!x0 | (x0 & !x0) (+) (x0 & !x0)")


def _area2(poly) -> Fraction:
    """Twice the signed area of a polygon of Fraction points."""
    s = F(0)
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        s += p[0] * q[1] - q[0] * p[1]
    return s


def rand_formula(rng, n, depth, leaf_p=0.25):
    if depth == 0 or rng.random() < leaf_p:
        return rng.choice([Var(rng.randrange(n)), ZERO, ONE])
    op = rng.choice(["star", "impl", "neg", "and", "or", "oplus"])
    if op == "neg":
        return Neg(rand_formula(rng, n, depth - 1, leaf_p))
    ctor = {"star": Star, "impl": Impl, "and": And, "or": Or, "oplus": OPlus}[op]
    return ctor(rand_formula(rng, n, depth - 1, leaf_p), rand_formula(rng, n, depth - 1, leaf_p))


def rand_point(rng, n, den=16):
    return tuple(F(rng.randint(0, den), den) for _ in range(n))


# -- known compilations ----------------------------------------------------------------

def test_tent_pieces():
    w = pwl_from_formula(TENT)
    assert w.dim == 1
    spans = sorted((w.complex.cell_points(j)[0][0], w.complex.cell_points(j)[1][0])
                   for j in range(len(w.complex.cells)))
    assert spans == [(F(0), F(1, 2)), (F(1, 2), F(1))]
    pieces = sorted((m.a, m.b) for m in w.maps)
    assert pieces == [(((-2,),), (2,)), (((2,),), (0,))]


def test_alternate_tent_spelling_is_equal():
    other = parse_formula("(x0 & !x0) (+) (x0 & !x0)")
    assert pwl_equal(pwl_from_formula(TENT), pwl_from_formula(other))


def test_figure_formula_three_pieces():
    w = pwl_from_formula(FIGURE)
    cuts = sorted({v[0] for v in w.complex.vertices})
    assert cuts == [F(0), F(1, 3), F(1, 2), F(1)]
    by_span = {}
    for j in range(len(w.complex.cells)):
        lo = w.complex.cell_points(j)[0][0]
        by_span[lo] = (w.maps[j].a, w.maps[j].b)
    assert by_span[F(0)] == (((-1,),), (1,))
    assert by_span[F(1, 3)] == (((2,),), (0,))
    assert by_span[F(1, 2)] == (((-2,),), (2,))


def test_constant_formula_single_piece():
    w = pwl_from_formula(ONE, dim=1)
    assert len(w.complex.cells) == 1
    assert w.maps[0].a == ((0,),) and w.maps[0].b == (1,)


def test_dimension_guards():
    with pytest.raises(ValueError):
        pwl_from_formula(Var(2))
    with pytest.raises(ValueError):
        pwl_from_formula(X1, dim=1)


# -- semantic faithfulness --------------------------------------------------------------

def test_eval_matches_semantics_1d():
    rng = random.Random(101)
    for _ in range(120):
        f = rand_formula(rng, 1, 4)
        w = pwl_from_formula(f, 1)
        w.validate()
        for _ in range(6):
            p = rand_point(rng, 1)
            assert pwl_eval(w, p) == evaluate(f, LUKASIEWICZ, p), (f, p)


def test_eval_matches_semantics_2d():
    rng = random.Random(202)
    for _ in range(80):
        f = rand_formula(rng, 2, 4)
        w = pwl_from_formula(f, 2)
        w.validate()
        for _ in range(6):
            p = rand_point(rng, 2)
            assert pwl_eval(w, p) == evaluate(f, LUKASIEWICZ, p), (f, p)


def test_combine_examples():
    x = pwl_from_formula(X0, 1)
    two_x = pwl_combine("oplus", x, x)
    assert pwl_eval(two_x, (F(1, 4),)) == F(1, 2)
    assert pwl_eval(two_x, (F(3, 4),)) == 1
    m = pwl_combine("min", x, pwl_combine("neg", x))
    assert pwl_eval(m, (F(1, 4),)) == F(1, 4)
    assert pwl_eval(m, (F(3, 4),)) == F(1, 4)
    with pytest.raises(ValueError):
        pwl_combine("min", x)
    with pytest.raises(ValueError):
        pwl_combine("neg", x, x)


# -- refinement --------------------------------------------------------------------------

def test_refinement_1d_unions_breakpoints():
    w1 = pwl_from_formula(TENT).complex
    w2 = pwl_from_formula(FIGURE).complex
    r = common_refinement(w1, w2)
    cuts = sorted(v[0] for v in r.vertices)
    assert cuts == [F(0), F(1, 3), F(1, 2), F(1)]


def one_d(cuts, pieces):
    """The JSON of a 1-D function with the given cuts and (slope, constant) pieces."""
    return {"dim": 1, "vertices": [[[str(x.numerator), str(x.denominator)]] for x in cuts],
            "cells": [[i, i + 1] for i in range(len(pieces))],
            "pieces": [{"a": [a], "b": b} for a, b in pieces]}


def reversed_cells(obj):
    """The same 1-D function with its cells and vertices listed right to left."""
    last = len(obj["vertices"]) - 1
    return {**obj, "vertices": obj["vertices"][::-1],
            "cells": [[last - i, last - j] for i, j in obj["cells"][::-1]],
            "pieces": obj["pieces"][::-1]}


def test_refinement_1d_of_cells_stored_right_to_left():
    """JSON may list 1-D cells and vertices in any order; combining and comparing
    such maps gives the same cells, vertices and pieces as their sorted forms."""
    tent = one_d([F(0), F(1, 2), F(1)], [(2, 0), (-2, 2)])
    trapezoid = one_d([F(0), F(1, 3), F(2, 3), F(1)], [(3, 0), (0, 1), (-3, 3)])
    f, g = pwl_from_json(tent), pwl_from_json(trapezoid)
    f_rev, g_rev = pwl_from_json(reversed_cells(tent)), pwl_from_json(reversed_cells(trapezoid))
    assert list(f_rev.complex.cells) == [(1, 0), (2, 1)]
    assert pwl_equal(f_rev, f) and pwl_equal(g_rev, g) and not pwl_equal(f_rev, g_rev)
    assert pwl_le(f_rev, g_rev) and not pwl_le(g_rev, f_rev)
    low, high = pwl_combine("min", f_rev, g_rev), pwl_combine("max", g_rev, f_rev)
    cuts = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
    for out, ordered in ((low, pwl_combine("min", f, g)), (high, pwl_combine("max", g, f))):
        assert list(out.complex.vertices) == [(x,) for x in cuts]
        assert list(out.complex.cells) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert list(out.maps) == list(ordered.maps)
    assert [m.a[0][0] for m in low.maps] == [2, 2, -2, -2]
    assert [pwl_eval(high, [x]) for x in (F(1, 6), F(1, 2), F(5, 6))] == [F(1, 2), 1, F(1, 2)]


# -- the Fraction reference of the 2-D kernel ------------------------------------------
#
# The library computes 2-D geometry on reduced integer triples (X, Y, W). These
# are its former Fraction versions, points as pairs of Fractions, kept as the
# reference that it must equal exactly.

def ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def ref_clip(poly, h):
    """Clip a convex polygon by the halfplane h[0]*x + h[1]*y + h[2] >= 0."""
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        hp = h[0] * p[0] + h[1] * p[1] + h[2]
        hq = h[0] * q[0] + h[1] * q[1] + h[2]
        if hp >= 0:
            out.append(p)
            if hq < 0:
                t = hp / (hp - hq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif hq > 0:
            t = hp / (hp - hq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def ref_canon(poly):
    """Deduplicate and drop collinear boundary points; ccw, lex-min first;
    [] for polygons of zero area."""
    pts = []
    for p in poly:
        if not pts or p != pts[-1]:
            pts.append(p)
    while len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        return []
    m = len(pts)
    out = [pts[i] for i in range(m) if ref_cross(pts[i - 1], pts[i], pts[(i + 1) % m]) != 0]
    if len(out) < 3:
        return []
    if _area2(out) < 0:
        out.reverse()
    k = out.index(min(out))
    return out[k:] + out[:k]


def ref_on_open_segment(a, b, v):
    if ref_cross(a, b, v) != 0:
        return False
    dot = (v[0] - a[0]) * (b[0] - a[0]) + (v[1] - a[1]) * (b[1] - a[1])
    return 0 < dot < (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2


def ref_fan(poly):
    v0 = poly[0]
    return [(v0, a, b) for a, b in zip(poly[1:-1], poly[2:]) if ref_cross(v0, a, b) != 0]


def ref_build_complex_2d(tagged_polys):
    polys = [(cp, tag) for cp, tag in ((ref_canon(p), tag) for p, tag in tagged_polys) if cp]
    tris = [(t, tag) for poly, tag in polys for t in ref_fan(poly)]
    vert_set = sorted({p for poly, _ in polys for p in poly})
    out = []
    for tri, tag in tris:
        cycle = []
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            cycle.append(a)
            x_lo, x_hi = sorted((a[0], b[0]))
            y_lo, y_hi = sorted((a[1], b[1]))
            hang = []
            for k in range(bisect.bisect_left(vert_set, (x_lo,)), len(vert_set)):
                v = vert_set[k]
                if v[0] > x_hi:
                    break
                if y_lo <= v[1] <= y_hi and ref_on_open_segment(a, b, v):
                    hang.append(v)
            hang.sort(key=lambda v: (v[0] - a[0]) ** 2 + (v[1] - a[1]) ** 2)
            cycle.extend(hang)
        if len(cycle) == 3:
            out.append((tri, tag))
        else:
            m = len(cycle)
            c = (sum(p[0] for p in cycle) / m, sum(p[1] for p in cycle) / m)
            for i in range(m):
                t = (c, cycle[i], cycle[(i + 1) % m])
                if ref_cross(*t) != 0:
                    out.append((t, tag))
    all_pts = sorted({p for t, _ in out for p in t})
    index = {p: i for i, p in enumerate(all_pts)}
    cells, tags = [], []
    for i in sorted(range(len(out)), key=lambda i: tuple(sorted(index[p] for p in out[i][0]))):
        t, tag = out[i]
        if _area2(t) < 0:
            t = (t[0], t[2], t[1])
        cells.append(tuple(index[p] for p in t))
        tags.append(tag)
    return CellComplex(2, all_pts, cells), tags


def ref_edge_planes(tri):
    """The half-planes whose intersection is a ccw triangle."""
    return [(a[1] - b[1], b[0] - a[0], a[0] * b[1] - b[0] * a[1])
            for a, b in zip(tri, tri[1:] + tri[:1])]


def ref_pullback(w, pieces, v):
    boxes = []
    for i in range(len(v.cells)):
        tri = v.cell_points(i)
        xs, ys = [p[0] for p in tri], [p[1] for p in tri]
        boxes.append((min(xs), max(xs), min(ys), max(ys), i, ref_edge_planes(tri)))
    tagged = []
    for j in range(len(w.cells)):
        sp = pieces[j]
        tri = w.cell_points(j)
        image = [sp.apply(p) for p in tri]
        xlo, xhi = min(p[0] for p in image), max(p[0] for p in image)
        ylo, yhi = min(p[1] for p in image), max(p[1] for p in image)
        (a00, a01), (a10, a11) = sp.a
        b0, b1 = sp.b
        seen = set() if sp.det() == 0 else None
        for bx0, bx1, by0, by1, i, planes in boxes:
            if bx0 > xhi or bx1 < xlo or by0 > yhi or by1 < ylo:
                continue
            poly = list(tri)
            for c0, c1, c2 in planes:
                poly = ref_clip(poly, (c0 * a00 + c1 * a10, c0 * a01 + c1 * a11,
                                       c0 * b0 + c1 * b1 + c2))
            poly = ref_canon(poly)
            if not poly or seen is not None and tuple(poly) in seen:
                continue
            if seen is not None:
                seen.add(tuple(poly))
            tagged.append((poly, (j, i)))
    return ref_build_complex_2d(tagged)


IDENTITY = AffineMap(((1, 0), (0, 1)), (0, 0))


def ref_refine(w1, w2):
    return ref_pullback(w1, (IDENTITY,) * len(w1.cells), w2)


def ref_combine(op, f, g):
    """The 2-D combine of two one-row maps on the Fraction kernel."""
    refined, tags = ref_refine(f.complex, g.complex)
    flat = ((0, 0),)
    zero, one = AffineMap(flat, (0,)), AffineMap(flat, (1,))
    tagged = []
    for j, (i1, i2) in enumerate(tags):
        fp, gp = f.maps[i1], g.maps[i2]
        h = gp - fp if op == "impl" else fp - gp if op in ("min", "max") else (fp + gp).shift(-1)
        pts = refined.cell_points(j)
        hp = (h.a[0][0], h.a[0][1], h.b[0])
        vals = [hp[0] * x + hp[1] * y + hp[2] for x, y in pts]
        if all(v >= 0 for v in vals):
            parts = [(pts, True)]
        elif all(v <= 0 for v in vals):
            parts = [(pts, False)]
        else:
            parts = [(ref_clip(pts, hp), True), (ref_clip(pts, tuple(-c for c in hp)), False)]
        tagged += [(poly, (fp, gp, h, pos)) for poly, pos in parts if ref_canon(poly)]
    out, out_tags = ref_build_complex_2d(tagged)

    def branch(fp, gp, h, positive):
        if op == "min":
            return gp if positive else fp
        if op == "max":
            return fp if positive else gp
        if positive:
            return h if op == "star" else one
        return zero if op == "star" else h.shift(1)
    return PWLMap(out, tuple(branch(*t) for t in out_tags))


def ref_integral(f, box):
    (xlo, xhi), (ylo, yhi) = box
    total = F(0)
    for j, m in enumerate(f.maps):
        poly = f.complex.cell_points(j)
        for h in [(1, 0, -xlo), (-1, 0, xhi), (0, 1, -ylo), (0, -1, yhi)]:
            poly = ref_clip(poly, h)
        poly = ref_canon(poly)
        for tri in ref_fan(poly) if poly else ():
            total += _area2(tri) / 2 * sum(m.apply(p)[0] for p in tri) / 3
    return total


def ref_min_over_unit_set(cw, rw):
    refined, tags = ref_refine(cw.complex, rw.complex)
    best = witness = None
    for j, (i1, i2) in enumerate(tags):
        cp, rp = cw.maps[i1], rw.maps[i2]
        pts = refined.cell_points(j)
        vals = [cp.apply(p)[0] for p in pts]
        if all(v == 1 for v in vals):
            cand = pts
        elif any(v == 1 for v in vals):
            cand = ref_clip(list(pts), (cp.a[0][0], cp.a[0][1], cp.b[0] - 1))
        else:
            continue
        for p in cand:
            v = rp.apply(p)[0]
            if best is None or v < best:
                best, witness = v, p
    return best, witness


def ref_refined_values(f, g):
    """(p, f(p), g(p)) in Fractions at each vertex of each cell of the common
    refinement, the values the comparisons below read."""
    refined, tags = _refine_tagged(f.complex, g.complex)
    for j, (i1, i2) in enumerate(tags):
        for p in refined.cell_points(j):
            yield p, f.maps[i1].apply(p)[0], g.maps[i2].apply(p)[0]


def ref_le(f, g):
    return all(u <= v for _, u, v in ref_refined_values(f, g))


def ref_equal(f, g):
    return all(u == v for _, u, v in ref_refined_values(f, g))


def ref_unit_set_min_and_power(cw, rw):
    low = witness = None
    ratio = 0
    for p, c, r in ref_refined_values(cw, rw):
        if c == 1:
            if low is None or r < low:
                low, witness = r, p
        else:
            ratio = max(ratio, (1 - r) / (1 - c))
    return low, witness, max(1, math.ceil(ratio))


def ref_synthesize_formula(f, clamp):
    """The lattice-of-pieces formula with its dominance test in Fractions;
    clamp(coeffs, const) stands for each piece's clamped formula."""
    rows = [(m.a[0], m.b[0]) for m in f.maps]
    seen_terms, terms = set(), []
    for j, m in enumerate(f.maps):
        pts = f.complex.cell_points(j)
        own = [m.apply(p)[0] for p in pts]
        dominating = [rows[i] for i, other in enumerate(f.maps)
                      if all(other.apply(p)[0] >= v for p, v in zip(pts, own))]
        if frozenset(dominating) not in seen_terms:
            seen_terms.add(frozenset(dominating))
            terms.append(reduce(And, (clamp(*row) for row in dominating)))
    return reduce(Or, terms) if terms else ZERO


def tent_pair():
    x = X1
    return Substitution([tent_substitution().images[0],
                         And(OPlus(x, x), OPlus(Neg(x), Neg(x)))])


def test_integer_kernel_compiles_as_the_reference(monkeypatch):
    # the first 100 formulas of acceptance criterion 11, whose generator
    # draws 20 points after each
    rng = random.Random(111)
    formulas = []
    for _ in range(100):
        formulas.append(rand_formula(rng, 2, 4, leaf_p=0.3))
        for _ in range(20):
            rng.randint(0, 16), rng.randint(0, 16)
    got = [pwl_from_formula(f, 2) for f in formulas]
    monkeypatch.setattr(pwl_module, "_combine", ref_combine)
    for f, w in zip(formulas, got):
        want = pwl_from_formula(f, 2)
        assert (w.complex.vertices, w.complex.cells, w.maps) == \
            (want.complex.vertices, want.complex.cells, want.maps), f


def test_integer_kernel_refines_integrates_and_minimizes_as_the_reference():
    rng = random.Random(1616)
    rotation = rotation_homeomorphism()[1].complex
    pairs = [(rotation, unit_complex(2)), (unit_complex(2), rotation)]
    maps = [pwl_from_formula(rand_formula(rng, 2, 4), 2) for _ in range(40)]
    pairs += [(f.complex, g.complex) for f, g in zip(maps[::2], maps[1::2])]
    for w1, w2 in pairs:
        got, tags = _refine_tagged(w1, w2)
        want, want_tags = ref_refine(w1, w2)
        assert (got.vertices, got.cells, tags) == (want.vertices, want.cells, want_tags)
    for f in maps:
        for _ in range(3):
            box = [tuple(sorted(F(k, 8) for k in rng.sample(range(9), 2))) for _ in range(2)]
            assert pwl_integral(f, box) == ref_integral(f, box), box
    for cw, rw in zip(maps[::2], maps[1::2]):
        assert _unit_set_min_and_power(cw, rw)[:2] == ref_min_over_unit_set(cw, rw)
    # a conjunction that is 1 on a face only, and a flat hypothesis
    for c, r in ((Or(X0, X1), Star(X0, X1)), (And(Neg(X0), X1), X0),
                 (OPlus(X0, X1), Neg(Star(X0, X1))), (ONE, Neg(X1))):
        cw, rw = pwl_from_formula(c, 2), pwl_from_formula(r, 2)
        assert _unit_set_min_and_power(cw, rw)[:2] == ref_min_over_unit_set(cw, rw)


def test_integer_kernel_assembles_hanging_vertices_as_the_reference():
    # one half of the square whole, the other fanned from its far corner
    # through points of the diagonal between them, which hang on the whole
    # half's diagonal edge; both diagonals, both halves, so the edge runs
    # in either lexicographic direction
    rng = random.Random(1717)
    corners = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    for _ in range(12):
        k = rng.randrange(4)
        a, b, c, d = corners[k:] + corners[:k]      # ccw; the diagonal is a-c
        den = rng.choice([3, 4, 5, 7, 12])
        ts = sorted(rng.sample(range(1, den), rng.randint(1, min(3, den - 1))))
        ts = [F(t, den) for t in ts]
        inner = [(a[0] + t * (c[0] - a[0]), a[1] + t * (c[1] - a[1])) for t in ts]
        path = [a] + inner + [c]
        polys = [[a, b, c]] + [[p, q, d] for p, q in zip(path, path[1:])]
        tagged = [(poly, i) for i, poly in enumerate(polys)]
        if rng.random() < 0.5:
            tagged.reverse()
        triples = [([pwl_module._scaled((*p, 1))[0] for p in poly], t) for poly, t in tagged]
        got, tags = _build_complex_2d(triples)
        want, want_tags = ref_build_complex_2d(tagged)
        assert (got.vertices, got.cells, tags) == (want.vertices, want.cells, want_tags)
        got.validate()
        # the whole half is fanned from a Steiner point: 3 + m cells, and m + 1 others
        assert len(got.cells) == 2 * len(ts) + 4


def vertex_image_map(rng, w, den):
    """A continuous self-map of the square, affine on each cell of w, sending
    each vertex to a random point of (1/den)Z^2, a quarter of them onto the
    diagonal, so that some pieces are singular."""
    images = []
    for _ in w.vertices:
        x, y = (F(rng.randint(0, den), den) for _ in range(2))
        images.append((x, x) if rng.random() < 0.25 else (x, y))
    return PWLMap(w, tuple(affine_from_simplex_pair(w.cell_points(j), [images[i] for i in cell])
                           for j, cell in enumerate(w.cells)))


def seeded_self_maps():
    """(self-map, formula) pairs: the geometric forms of seeded two-variable
    substitutions, with integral pieces, and maps built by
    affine_from_simplex_pair from vertex images, with rational ones."""
    rng = random.Random(2752)
    maps = []
    while len(maps) < 5:
        s = induced_map(Substitution([rand_formula(rng, 2, 3) for _ in range(2)])).pwl
        if s is not None and len(s.complex.cells) > 2:
            maps.append(s)
    for den in (2, 3, 5, 12):
        maps.append(vertex_image_map(rng, pwl_from_formula(rand_formula(rng, 2, 3), 2).complex,
                                     den))
    return [(s, rand_formula(rng, 2, 4)) for s in maps]


SEEDED = seeded_self_maps()


def test_seeded_self_maps_have_pieces_of_every_kind():
    integral = [m for s, _ in SEEDED[:5] for m in s.maps]
    rational = [m for s, _ in SEEDED[5:] for m in s.maps]
    assert all(m.is_integral for m in integral)
    assert any(m.det() < 0 for m in integral) and any(m.det() == 0 for m in integral)
    assert any(m.det() < 0 for m in rational) and any(m.det() == 0 for m in rational)
    assert any(m.det() > 0 and not m.is_integral for m in rational)


@pytest.mark.parametrize("s, r, steps", [
    (induced_map(tent_pair()).pwl, Star(X0, X1), 3),
    (rotation_homeomorphism()[1], parse_formula("x0 * x1 (+) !x0 & x1"), 3),
    # singular pieces: onto the diagonal; cells of determinant 0 and -1
    (induced_map(Substitution([parse_formula("x0 & x1")] * 2)).pwl, Star(X0, X1), 2),
    (induced_map(Substitution([parse_formula("!x0 & x1"), X0])).pwl,
     parse_formula("x0 * x1 (+) !x0 & x1"), 2),
    *((s, r, 2) for s, r in SEEDED),
], ids=["tent-pair", "rotation", "diagonal", "singular-cells",
        *(f"seeded-{k}" for k in range(len(SEEDED)))])
def test_integer_kernel_composes_as_the_reference(s, r, steps):
    w = pwl_from_formula(r, 2)
    for _ in range(steps):
        got, tags = _pullback(s.complex, s.maps, w.complex)
        want, want_tags = ref_pullback(s.complex, s.maps, w.complex)
        assert (got.vertices, got.cells, tags) == (want.vertices, want.cells, want_tags)
        nxt = pwl_compose(w, s)
        assert nxt.complex.cells == want.cells
        assert nxt.maps == tuple(_compose_affine(w.maps[i], s.maps[j]) for j, i in want_tags)
        w = nxt


def test_pullback_clips_only_where_a_half_plane_cuts(monkeypatch):
    # the tent pair's iterates of x0 * x1 have 4, 40, 204 and 860 cells
    s, w = induced_map(tent_pair()).pwl, pwl_from_formula(Star(X0, X1), 2)
    clip, build = pwl_module._clip, pwl_module._build_complex_2d
    clips, pieces = [0], []

    def counting_clip(poly, h):
        clips[0] += 1
        return clip(poly, h)

    def recording_build(tagged):
        pieces[:] = tagged
        return build(tagged)
    monkeypatch.setattr(pwl_module, "_clip", counting_clip)
    monkeypatch.setattr(pwl_module, "_build_complex_2d", recording_build)
    sizes = [len(w.complex.cells)]
    for _ in range(3):
        clips[0] = 0
        w = pwl_compose(w, s)
        sizes.append(len(w.complex.cells))
        assert clips[0] <= len(pieces)
        # a nonsingular piece hands on no piece of zero area
        assert all(pwl_module._canon(poly) for poly, (j, _) in pieces if s.maps[j].det())
    assert sizes == [4, 40, 204, 860]


def _poly_intersection(p1, p2):
    """p1 cap p2 for convex ccw polygons, via successive half-plane clips."""
    out = list(p1)
    n = len(p2)
    for i in range(n):
        a, b = p2[i], p2[(i + 1) % n]
        # inside of the directed edge a->b for a ccw polygon: cross(a, b, x) >= 0
        h = (-(b[1] - a[1]), (b[0] - a[0]), (b[1] - a[1]) * a[0] - (b[0] - a[0]) * a[1])
        out = ref_clip(out, h)
        if not out:
            return []
    return out


def all_pairs_refinement(w1, w2):
    """The common refinement by intersecting every pair of 2-D cells, as a
    reference for the pullback through the identity."""
    tagged = []
    for i in range(len(w1.cells)):
        for j in range(len(w2.cells)):
            inter = _poly_intersection(w1.cell_points(i), w2.cell_points(j))
            if inter and ref_canon(inter):
                tagged.append((inter, (i, j)))
    return ref_build_complex_2d(tagged)


def assert_refines_as_all_pairs(w1, w2):
    got, tags = _refine_tagged(w1, w2)
    want, want_tags = all_pairs_refinement(w1, w2)
    assert (got.vertices, got.cells, tags) == (want.vertices, want.cells, want_tags)


def test_refinement_2d_matches_all_pairs_reference():
    rng = random.Random(20)
    for _ in range(30):
        f, g = (pwl_from_formula(rand_formula(rng, 2, 4), 2) for _ in range(2))
        assert_refines_as_all_pairs(f.complex, g.complex)
    rotation = rotation_homeomorphism()[1].complex
    assert_refines_as_all_pairs(rotation, unit_complex(2))
    assert_refines_as_all_pairs(unit_complex(2), rotation)


def test_refinement_idempotent_supports():
    w = pwl_from_formula(FIGURE).complex
    r = common_refinement(w, w)
    assert sorted(v[0] for v in r.vertices) == sorted(v[0] for v in w.vertices)


def test_refinement_opposite_diagonals():
    a = unit_complex(2)
    flipped = CellComplex(2, [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))],
                          [(0, 1, 3), (1, 2, 3)])
    r = common_refinement(a, flipped)
    r.validate()
    assert (F(1, 2), F(1, 2)) in r.vertices
    assert len(r.cells) == 4


# -- queries ------------------------------------------------------------------------------

def test_min_value():
    assert pwl_min_value(pwl_from_formula(ONE, dim=1))[0] == 1
    val, witness = pwl_min_value(pwl_from_formula(TENT))
    assert val == 0 and witness[0] in (F(0), F(1))
    assert pwl_min_value(pwl_from_formula(parse_formula("!!x0 -> x0")))[0] == 1


def test_pwl_equal_and_le():
    assert pwl_equal(pwl_from_formula(And(X0, X1)), pwl_from_formula(And(X1, X0)))
    assert pwl_equal(pwl_from_formula(Neg(Neg(X0))), pwl_from_formula(X0))
    assert not pwl_equal(pwl_from_formula(X0), pwl_from_formula(OPlus(X0, X0)))
    assert pwl_le(pwl_from_formula(Star(X0, X1)), pwl_from_formula(And(X0, X1)))
    assert not pwl_le(pwl_from_formula(OPlus(X0, X0)), pwl_from_formula(X0))


def test_equal_and_le_refuse_a_dimension_mismatch():
    one, two = pwl_from_formula(X0, 1), pwl_from_formula(X0, 2)
    for relation in (pwl_equal, pwl_le):
        with pytest.raises(ValueError, match="dimension mismatch"):
            relation(one, two)


def test_le_random_consistency():
    rng = random.Random(303)
    for _ in range(40):
        f, g = rand_formula(rng, 2, 3), rand_formula(rng, 2, 3)
        wf, wg = pwl_from_formula(f, 2), pwl_from_formula(g, 2)
        le = pwl_le(wf, wg)
        for _ in range(8):
            p = rand_point(rng, 2)
            if le:
                assert pwl_eval(wf, p) <= pwl_eval(wg, p)


# -- integration --------------------------------------------------------------------------

def test_figure_integral():
    w = pwl_from_formula(FIGURE)
    oracle = F(5, 18) + F(5, 36) + F(1, 4)
    assert pwl_integral(w) == oracle == F(2, 3)


def test_tent_integrals():
    w = pwl_from_formula(TENT)
    assert pwl_integral(w) == F(1, 2)
    assert pwl_integral(w, [(F(0), F(1, 4))]) == F(1, 16)
    assert pwl_integral(w, [(F(0), F(1, 2))]) == F(1, 4)


def test_integral_2d():
    assert pwl_integral(pwl_from_formula(X0, 2)) == F(1, 2)
    assert pwl_integral(pwl_from_formula(And(X0, X1))) == F(1, 3)
    assert pwl_integral(pwl_from_formula(Star(X0, X1))) == F(1, 6)
    assert pwl_integral(pwl_from_formula(Or(X0, X1))) == F(2, 3)
    assert pwl_integral(pwl_from_formula(X0, 2),
                        [(F(0), F(1, 2)), (F(0), F(1))]) == F(1, 8)


def test_integral_additive_and_monotone():
    rng = random.Random(404)
    for _ in range(25):
        f = rand_formula(rng, 2, 3)
        w = pwl_from_formula(f, 2)
        c = F(rng.randint(1, 7), 8)
        left = pwl_integral(w, [(F(0), c), (F(0), F(1))])
        right = pwl_integral(w, [(c, F(1)), (F(0), F(1))])
        assert left + right == pwl_integral(w)
        g = rand_formula(rng, 2, 3)
        wg = pwl_from_formula(g, 2)
        assert pwl_integral(pwl_combine("max", w, wg)) >= pwl_integral(w)


def test_degenerate_box_warns():
    w = pwl_from_formula(TENT)
    with pytest.warns(UserWarning):
        val = pwl_integral(w, [(F(1, 2), F(1, 2))])
    assert val == 0


def box_clip_integral(f, box):
    """The integral of a one-row map over a checked box by clipping each cell
    to the box: a scan over every cell in 1-D, the box's four integer
    half-planes in 2-D."""
    if f.dim == 1:
        total = F(0)
        lo, hi = box[0]
        for j in range(len(f.complex.cells)):
            a, b = (p[0] for p in f.complex.cell_points(j))
            clo, chi = max(a, lo), min(b, hi)
            if clo < chi:
                m = f.maps[j]
                total += (chi - clo) * (m.apply((clo,))[0] + m.apply((chi,))[0]) / 2
        return total
    (xlo, xhi), (ylo, yhi) = box
    planes = [pwl_module._scaled(h)[0]
              for h in ((1, 0, -xlo), (-1, 0, xhi), (0, 1, -ylo), (0, -1, yhi))]
    sums = {}
    for cell, m in zip(f.complex.cells, f.maps):
        tri = [f.complex._triples[i] for i in cell]
        cuts = pwl_module._cuts(planes, tri)
        if cuts is None:
            continue
        tris = [tri]
        if cuts:
            tris = pwl_module._fan(pwl_module._canon(reduce(pwl_module._clip, cuts, tri)))
        c, s = pwl_module._scaled(m.a[0] + m.b)
        for p, q, r in tris:
            w = p[2] * q[2] * r[2]
            num = (pwl_module._dot(c, p) * q[2] * r[2] + pwl_module._dot(c, q) * p[2] * r[2]
                   + pwl_module._dot(c, r) * p[2] * q[2])
            sums[s * w * w] = sums.get(s * w * w, 0) + pwl_module._det(p, q, r) * num
    return sum((F(n, 6 * d) for d, n in sums.items()), F(0))


def test_integral_is_the_box_clip_reference():
    # compiled formulas of one and two variables, as the benchmark draws
    # them, and maps with rational pieces, over boxes with corners on the
    # eighths and the whole cube
    rng = random.Random(881)
    cases = []
    for _ in range(40):
        dim = rng.choice([1, 2])
        f = pwl_from_formula(rand_formula(rng, dim, 5), dim)
        if rng.random() < 0.2 and dim == 2:
            f = vertex_image_map(rng, f.complex, rng.choice([3, 5, 12])).row(0)
        boxes = [[tuple(sorted(F(k, 8) for k in rng.sample(range(9), 2))) for _ in range(dim)]
                 for _ in range(2)]
        cases += [(f, box) for box in boxes + [[(F(0), F(1))] * dim]]
    assert any(not m.is_integral for f, _ in cases for m in f.maps)
    for f, box in cases:
        assert pwl_integral(f, box) == box_clip_integral(f, box), box


# -- clamped affine synthesis ---------------------------------------------------------------

def test_clamp_formula_matches_function():
    rng = random.Random(505)
    for _ in range(60):
        n = rng.randint(1, 2)
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        const = rng.randint(-3, 4)
        f = clamp_affine_formula(coeffs, const)
        for _ in range(8):
            p = rand_point(rng, n, den=9)
            want = min(1, max(0, sum(c * x for c, x in zip(coeffs, p)) + const))
            assert evaluate(f, LUKASIEWICZ, p) == want, (coeffs, const, p)


def test_clamp_constant_edges():
    assert evaluate(clamp_affine_formula([0], 5), LUKASIEWICZ, (F(1, 2),)) == 1
    assert evaluate(clamp_affine_formula([0], -1), LUKASIEWICZ, (F(1, 2),)) == 0
    f = clamp_affine_formula([1], 0)
    assert evaluate(f, LUKASIEWICZ, (F(1, 3),)) == F(1, 3)


def test_clamp_unit_cap_is_checked_before_any_work(monkeypatch):
    f = clamp_affine_formula([-MAX_CLAMP_UNITS], MAX_CLAMP_UNITS)
    assert evaluate(f, LUKASIEWICZ, (F(999, 1000),)) == F(1)
    assert evaluate(f, LUKASIEWICZ, (F(9999, 10000),)) == F(1, 10)

    def refused(*args):
        raise AssertionError("a unit literal was built")

    monkeypatch.setattr(pwl_module, "Var", refused)
    for coeffs in ([MAX_CLAMP_UNITS + 1], [600, -401], [10 ** 12, 1]):
        with pytest.raises(ValueError, match=f"{sum(map(abs, coeffs))} unit literals"):
            clamp_affine_formula(coeffs, 0)


def test_clamp_rejects_non_integer_coefficients():
    for coeffs, const in (((F(1, 2),), 0), ((F(3, 2),), 0), ((1,), F(1, 3))):
        with pytest.raises(ValueError):
            clamp_affine_formula(coeffs, const)
    f = clamp_affine_formula((F(2),), F(-1))
    assert evaluate(f, LUKASIEWICZ, (F(3, 4),)) == F(1, 2)


def test_synthesis_round_trip_1d():
    rng = random.Random(606)
    done = 0
    while done < 40:
        f = rand_formula(rng, 1, 4)
        w = pwl_from_formula(f, 1)
        g = pwl_to_formula_1d(w)
        assert pwl_equal(pwl_from_formula(g, 1), w), f
        done += 1


def test_synthesis_round_trip_2d_small():
    rng = random.Random(707)
    for _ in range(12):
        f = rand_formula(rng, 2, 2)
        w = pwl_from_formula(f, 2)
        g = _synthesize_formula(w)
        assert pwl_equal(pwl_from_formula(g, 2), w), f


def test_synthesize_rejects_2d_via_public_gate():
    with pytest.raises(ValueError):
        pwl_to_formula_1d(pwl_from_formula(And(X0, X1)))


# -- validation ------------------------------------------------------------------------------

def test_validate_rejects_gap():
    broken = CellComplex(1, [(F(0),), (F(1, 2),), (F(1),)], [(0, 1)])
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_rejects_overlap_2d():
    verts = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    broken = CellComplex(2, verts, [(0, 1, 2), (0, 2, 3), (0, 1, 3)])
    with pytest.raises(ValueError, match=r"cells 0 and 2 overlap along edge \(0, 1\)"):
        broken.validate()


def test_validate_rejects_a_cell_outside_the_square():
    # area 1, but the cell reaches x = 2; value((1, 1)) would find no cell
    verts = [[["0", "1"], ["0", "1"]], [["2", "1"], ["0", "1"]], [["0", "1"], ["1", "1"]]]
    obj = {"dim": 2, "vertices": verts, "cells": [[0, 1, 2]],
           "pieces": [{"a": [0, 0], "b": 0}]}
    with pytest.raises(ValueError, match="outside the unit cube"):
        pwl_from_json(obj)


def pairwise_tiles(w):
    """The all-pairs check of a 2-D complex: ccw cells of total area 1, any two
    meeting only in a common face; the reference for CellComplex.validate."""
    polys = [w.cell_points(j) for j in range(len(w.cells))]
    if any(_area2(p) <= 0 for p in polys) or sum(_area2(p) for p in polys) != 2:
        return False
    for j in range(len(polys)):
        for k in range(j + 1, len(polys)):
            inter = _poly_intersection(polys[j], polys[k])
            if not inter:
                continue
            shared = {w.vertices[i] for i in set(w.cells[j]) & set(w.cells[k])}
            if ref_canon(inter) or any(p not in shared for p in inter):
                return False
    return True


def pairwise_invertible(s):
    """The all-pairs image check: nondegenerate image cells inside the cube,
    of total measure 1, no two overlapping; the reference for
    validate_homeomorphism's invertible."""
    images, total = [], F(0)
    for j in range(len(s.complex.cells)):
        pts = [s.maps[j].apply(v) for v in s.complex.cell_points(j)]
        if any(not 0 <= x <= 1 for p in pts for x in p):
            return False
        if s.dim == 1:
            lo, hi = sorted(p[0] for p in pts)
            image, measure = (lo, hi), hi - lo
        else:
            image, measure = pts if _area2(pts) > 0 else pts[::-1], abs(_area2(pts)) / 2
        if measure == 0:
            return False
        images.append(image)
        total += measure
    if total != 1:
        return False
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if s.dim == 1:
                if max(images[a][0], images[b][0]) < min(images[a][1], images[b][1]):
                    return False
            else:
                inter = _poly_intersection(images[a], images[b])
                if inter and ref_canon(inter):
                    return False
    return True


def validates(w) -> bool:
    try:
        w.validate()
        return True
    except ValueError:
        return False


def test_validate_agrees_with_the_pairwise_check():
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    complexes = [
        # a T-junction: (1/2, 1/2) lies inside the edge (0, 2) of cell 0
        CellComplex(2, square + [(F(1, 2), F(1, 2))], [(0, 1, 2), (0, 4, 3), (4, 2, 3)]),
        # vertex 4 repeats (0, 0), so the diagonal is two unpaired edges
        CellComplex(2, square + [square[0]], [(0, 1, 2), (4, 2, 3)]),
        unit_complex(2), rotation_homeomorphism()[1].complex,
    ]
    rng = random.Random(11)
    for _ in range(40):
        w = pwl_from_formula(rand_formula(rng, 2, 3), 2).complex
        cells, verts = list(w.cells), list(w.vertices)
        j, i = rng.randrange(len(cells)), rng.randrange(len(verts))
        moved = verts[:i] + [rand_point(rng, 2, rng.choice([2, 3, 4, 6]))] + verts[i + 1:]
        # cell j's first vertex becomes a new vertex at the same point
        twin = cells[:j] + [(len(verts),) + cells[j][1:]] + cells[j + 1:]
        complexes += [w, CellComplex(2, verts, cells[:j] + cells[j + 1:]),
                      CellComplex(2, verts, cells + [cells[j]]),
                      CellComplex(2, moved, cells),
                      CellComplex(2, verts + [verts[cells[j][0]]], twin)]
    verdicts = [validates(w) for w in complexes]
    assert verdicts == [pairwise_tiles(w) for w in complexes]
    assert verdicts[:4] == [False, False, True, True]
    assert 40 < verdicts.count(True) < 100


def test_invertible_agrees_with_the_pairwise_check():
    # the one-variable family of acceptance criterion 07, each map once
    atoms = [X0, ZERO, ONE]
    ops = [Star, Impl, And, Or, OPlus]
    depth1 = [Neg(a) for a in atoms] + [op(a, b) for op in ops for a in atoms for b in atoms]
    depth2 = ([Neg(a) for a in depth1]
              + [op(a, b) for op in ops for a in depth1 for b in atoms]
              + [op(a, b) for op in ops for a in atoms for b in depth1])
    distinct = {}
    for f in atoms + depth1 + depth2:
        w = pwl_from_formula(f, 1)
        distinct.setdefault((tuple(w.complex.vertices), w.maps), w)
    maps = list(distinct.values())
    rng = random.Random(12)
    plain = [X0, X1, Neg(X0), Neg(X1)]
    for _ in range(60):
        images = [rng.choice(plain) if rng.random() < 0.5 else rand_formula(rng, 2, 2)
                  for _ in range(2)]
        s = geometric_form(*images)
        if s is not None:
            maps.append(s)
    maps += [rotation_homeomorphism()[1], geometric_form(X1, X0), geometric_form(Neg(X0), X1)]
    verdicts = [validate_homeomorphism(s)["invertible"] for s in maps]
    assert verdicts == [pairwise_invertible(s) for s in maps]
    assert verdicts.count(True) > 10 and verdicts[-3:] == [True, True, True]


def test_validate_rejects_discontinuity():
    w = unit_complex(1)
    two = CellComplex(1, [(F(0),), (F(1, 2),), (F(1),)], [(0, 1), (1, 2)])
    f = PWLMap(two, (AffineMap(((1,),), (0,)), AffineMap(((0,),), (0,))))
    with pytest.raises(ValueError):
        f.validate()
    g = PWLMap(w, (AffineMap(((2,),), (0,)),))
    with pytest.raises(ValueError):
        g.validate()


def test_locate_and_value_at_every_cut_of_cells_stored_right_to_left():
    cuts = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
    obj = one_d(cuts, [(3, 0), (-6, 3), (6, -3), (-3, 3)])
    f, f_rev = pwl_from_json(obj), pwl_from_json(reversed_cells(obj))
    for x in cuts:
        (lo,), (hi,) = f_rev.complex.cell_points(f_rev.complex.locate((x,)))
        # the leftmost cell containing x
        assert lo < x <= hi or lo == x == 0
        assert f_rev.value((x,)) == f.value((x,)) == (pwl_eval(f, (x,)),)


def test_locate_and_measure():
    w = pwl_from_formula(TENT).complex
    j = w.locate((F(1, 4),))
    assert w.cell_points(j)[0][0] == F(0)
    assert sum(w.measure(j) for j in range(len(w.cells))) == 1
    sq = unit_complex(2)
    assert sum(sq.measure(j) for j in range(len(sq.cells))) == 1
    with pytest.raises(ValueError):
        w.locate((F(3, 2),))


# -- composition ------------------------------------------------------------------------------

def geometric_form(*images):
    return induced_map(Substitution(list(images))).pwl


def assert_composes_to(f, s, expected):
    w = pwl_compose(f, s)
    w.validate()
    assert all(m.is_integral for m in w.maps)
    assert pwl_equal(w, expected)
    return w


def test_compose_tent_with_tent_1d():
    tent = pwl_from_formula(TENT)
    w = assert_composes_to(tent, tent,
                           pwl_from_formula(apply_substitution(Substitution([TENT]), TENT)))
    assert len(w.complex.cells) == 4


def test_compose_decreasing_and_flat_pieces_1d():
    # x0 (+) x0 is flat at 1 on [1/2, 1], where the tent is 0
    double = pwl_from_formula(OPlus(X0, X0))
    w = pwl_compose(pwl_from_formula(TENT), double)
    assert [len(w.complex.cells), pwl_eval(w, (F(3, 4),))] == [3, 0]
    assert_composes_to(pwl_from_formula(TENT), pwl_from_formula(Neg(X0)),
                       pwl_from_formula(TENT))
    assert_composes_to(pwl_from_formula(X0), double, double)


def test_compose_adds_no_cut_where_an_image_starts_on_a_cell_end():
    # both cells of x0 | !x0 map onto [1/2, 1], and 1/2 ends a cell of the tent
    tent = pwl_from_formula(TENT)
    w = assert_composes_to(tent, pwl_from_formula(Or(X0, Neg(X0))), tent)
    assert len(w.complex.cells) == 2


def test_compose_rational_flat_piece_stays_one_cell():
    half = PWLMap(unit_complex(1), (AffineMap(((F(0),),), (F(1, 2),)),))
    w = pwl_compose(pwl_from_formula(TENT), half)
    assert len(w.complex.cells) == 1
    assert pwl_eval(w, (F(1, 3),)) == 1


def test_compose_2d_matches_substituted_formula():
    r = parse_formula("x0 * x1 (+) !x0 & x1")
    images = [TENT, parse_formula("x0 -> x1")]
    assert_composes_to(pwl_from_formula(r, 2), geometric_form(*images),
                       pwl_from_formula(apply_substitution(Substitution(images), r), 2))


@pytest.mark.parametrize("images", [
    [X0, Neg(X0)],      # onto the anti-diagonal
    [ZERO, ONE],        # onto the corner (0, 1)
    [X0, X0],           # onto the diagonal
])
def test_compose_through_a_singular_map(images):
    # each image lies on edges or a vertex of x0 * x1's complex, where the
    # preimages of neighbouring cells coincide
    r = Star(X0, X1)
    assert_composes_to(pwl_from_formula(r), geometric_form(*images),
                       pwl_from_formula(apply_substitution(Substitution(images), r), 2))


def test_compose_needs_a_self_map():
    tent = pwl_from_formula(TENT)
    with pytest.raises(ValueError, match="self-map"):
        pwl_compose(tent, pwl_from_formula(X0, 2))
    with pytest.raises(ValueError, match="self-map"):
        pwl_compose(pwl_from_formula(X0, 2), geometric_form(TENT))


# -- cell budget -------------------------------------------------------------------------------

def ref_geometric_form(images, budget):
    """The reference: each image compiled under the budget, then the two rows
    stacked on their common refinement unless its work passes 50 x budget."""
    try:
        funcs = [pwl_from_formula(g, len(images), cell_budget=budget) for g in images]
    except CellBudgetError:
        return None
    if len(funcs) == 1:
        return funcs[0]
    f, g = funcs
    if len(f.complex.cells) * len(g.complex.cells) > 50 * budget:
        return None
    complex_, tags = _refine_tagged(f.complex, g.complex)
    return PWLMap(complex_, tuple(
        AffineMap(f.maps[i1].a + g.maps[i2].a, f.maps[i1].b + g.maps[i2].b)
        for i1, i2 in tags))


@pytest.mark.parametrize("budget", [600, 12, 4])
def test_stacked_rows_and_their_budget_agree_with_the_reference(budget):
    rng = random.Random(budget)
    outcomes = []
    for _ in range(60):
        n = rng.choice([1, 2])
        images = [rand_formula(rng, n, 6, leaf_p=0.1) for _ in range(n)]
        want = ref_geometric_form(images, budget)
        try:
            got = pwl_module.pwl_map_from_formulas(images, budget)
        except CellBudgetError:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.complex.vertices, got.complex.cells, got.maps) == (
                want.complex.vertices, want.complex.cells, want.maps)
        outcomes.append(got is None)
    assert budget == 600 or 0 < sum(outcomes) < len(outcomes)


def test_stacking_is_charged_to_the_cell_budget(monkeypatch):
    # rows of 54 cells each, stacked with 54 * 54 = 2916 cells of work
    tent3 = apply_substitution(Substitution([TENT]), apply_substitution(
        Substitution([TENT]), TENT))
    images = [tent3, apply_substitution(Substitution([X1, X0]), tent3)]
    rows = {g: pwl_from_formula(g, 2) for g in images}
    assert [len(f.complex.cells) for f in rows.values()] == [54, 54]
    monkeypatch.setattr("mvdyn.pwl.pwl_from_formula", lambda g, dim, budget: rows[g])
    with pytest.raises(CellBudgetError, match="work exceeds the 58-cell budget"):
        pwl_module.pwl_map_from_formulas(images, 58)
    stacked = pwl_module.pwl_map_from_formulas(images, 59)
    assert all(pwl_equal(stacked.row(i), rows[g]) for i, g in enumerate(images))


def test_cell_budget_raises():
    f = X0
    for _ in range(6):
        f = And(OPlus(f, f), OPlus(Neg(f), Neg(f)))
    with pytest.raises(CellBudgetError):
        pwl_from_formula(f, 1, cell_budget=5)


def test_cell_budget_passes_small():
    w = pwl_from_formula(TENT, cell_budget=50)
    assert len(w.complex.cells) == 2


# -- affine maps -------------------------------------------------------------------------------

def test_affine_from_simplex_pair_1d():
    m = affine_from_simplex_pair([(F(0),), (F(1, 2),)], [(F(1),), (F(0),)])
    assert m.a == ((F(-2),),) and m.b == (F(1),)
    assert m.apply((F(1, 4),)) == (F(1, 2),)
    assert m.det() == -2
    assert m.is_integral


def test_affine_from_simplex_pair_2d_rotation_cell():
    src = [(F(1, 4), F(1, 4)), (F(1), F(0)), (F(1, 2), F(1, 4))]
    tgt = [(F(1, 2), F(1, 4)), (F(1), F(0)), (F(1, 4), F(1, 2))]
    m = affine_from_simplex_pair(src, tgt)
    assert m.a == ((F(-1), F(-5)), (F(1), F(4)))
    assert m.b == (F(2), F(-1))
    assert m.det() == 1
    assert m.is_integral
    for s, t in zip(src, tgt):
        assert m.apply(s) == t


def test_affine_degenerate_raises():
    with pytest.raises(ValueError):
        affine_from_simplex_pair([(F(0),), (F(0),)], [(F(0),), (F(1),)])
    with pytest.raises(ValueError):
        affine_from_simplex_pair(
            [(F(0), F(0)), (F(1), F(1)), (F(1, 2), F(1, 2))],
            [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])


def ref_affine_from_simplex_pair(source, target):
    """The reference: the separate closed forms of the 1-D and 2-D solve."""
    src = [tuple(F(x) for x in p) for p in source]
    tgt = [tuple(F(x) for x in p) for p in target]
    d = len(src[0])
    if len(src) != d + 1 or len(tgt) != d + 1:
        raise ValueError("need d+1 vertices for a d-simplex")
    if d == 1:
        dx = src[1][0] - src[0][0]
        if dx == 0:
            raise ValueError("degenerate source simplex")
        a = (tgt[1][0] - tgt[0][0]) / dx
        return AffineMap(((a,),), (tgt[0][0] - a * src[0][0],))
    if d != 2:
        raise ValueError(f"{d} variables are outside the exact geometry, which handles 1 to 2")
    m00, m01 = src[1][0] - src[0][0], src[2][0] - src[0][0]
    m10, m11 = src[1][1] - src[0][1], src[2][1] - src[0][1]
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise ValueError("degenerate source simplex")
    t00, t01 = tgt[1][0] - tgt[0][0], tgt[2][0] - tgt[0][0]
    t10, t11 = tgt[1][1] - tgt[0][1], tgt[2][1] - tgt[0][1]
    # A = T M^{-1}
    a00, a01 = (t00 * m11 - t01 * m10) / det, (t01 * m00 - t00 * m01) / det
    a10, a11 = (t10 * m11 - t11 * m10) / det, (t11 * m00 - t10 * m01) / det
    return AffineMap(((a00, a01), (a10, a11)),
                     (tgt[0][0] - (a00 * src[0][0] + a01 * src[0][1]),
                      tgt[0][1] - (a10 * src[0][0] + a11 * src[0][1])))


def solve_outcome(solve, source, target):
    try:
        return solve(source, target)
    except ValueError as exc:
        return str(exc)


@st.composite
def simplex_pairs(draw):
    """A d-simplex and a target for it, d = 1 or 2, with rational vertices;
    the source is made degenerate (a repeated vertex, or three on a line)
    one time in four."""
    d = draw(st.sampled_from([1, 2]))
    coordinate = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    point = st.tuples(*[coordinate] * d)
    source = draw(st.lists(point, min_size=d + 1, max_size=d + 1))
    target = draw(st.lists(point, min_size=d + 1, max_size=d + 1))
    if draw(st.integers(0, 3)) == 0:
        t = draw(coordinate)
        source[-1] = tuple(a + t * (b - a) for a, b in zip(source[0], source[1 % d]))
    return source, target


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(simplex_pairs())
def test_affine_solve_agrees_with_the_closed_forms(pair):
    source, target = pair
    got = solve_outcome(affine_from_simplex_pair, source, target)
    assert got == solve_outcome(ref_affine_from_simplex_pair, source, target)
    if isinstance(got, AffineMap):
        assert [got.apply(p) for p in source] == [tuple(map(F, q)) for q in target]


def test_affine_solve_refuses_as_the_closed_forms():
    line, square = [(F(0),), (F(1),)], [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    cube = [(F(0),) * 3] + [tuple(F(int(i == k)) for i in range(3)) for k in range(3)]
    for source, target in ((line, line[:1]), (line[:1], line), (square, square[:2]),
                           (line + line, line + line), (cube, cube), ([()], [()]),
                           ([(F(1, 3),)] * 2, line), (square[:1] * 3, square)):
        want = solve_outcome(ref_affine_from_simplex_pair, source, target)
        assert isinstance(want, str)
        assert solve_outcome(affine_from_simplex_pair, source, target) == want


def test_only_pwl_reads_the_cell_format():
    """No module but pwl.py reads a complex's cell tests (_bounds, _triples),
    a cell's vertices, the tags of _refine_tagged, the vertex values of
    _refined_values or AffineMap._apply, so a new cell format touches pwl
    alone; counting cells is allowed."""
    reads = re.compile(r"\b(_bounds|_triples|_refine_tagged|_refined_values|cell_points)\b"
                       r"|\._apply\b|\.cells\b")
    found = []
    for path in sorted(Path(pwl_module.__file__).parent.glob("*.py")):
        if path.name != "pwl.py":
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                if reads.search(re.sub(r"len\([\w.]*\.cells\)", "", line)):
                    found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_only_pwl_reads_its_variable_ceiling():
    """No module but pwl.py reads MAX_DIM, as an attribute or an imported
    name: every other module lets pwl refuse with OutOfReach, so lifting the
    ceiling touches pwl alone. Docstrings may still name it."""
    found = []
    for path in sorted(Path(pwl_module.__file__).parent.glob("*.py")):
        if path.name != "pwl.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute) and node.attr == "MAX_DIM"
                        or isinstance(node, ast.Name) and node.id == "MAX_DIM"
                        or isinstance(node, ast.alias) and node.name == "MAX_DIM"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_dynamics_reads_a_kept_form():
    """No module but dynamics.py reads or writes a substitution's _form slot,
    as an attribute or by name through getattr and its kin: geometric_form
    alone decides what is kept. formula.py only declares the slot."""
    found = []
    for path in sorted(Path(pwl_module.__file__).parent.glob("*.py")):
        if path.name != "dynamics.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute) and node.attr == "_form"
                        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("getattr", "setattr", "hasattr", "delattr")
                        and any(isinstance(a, ast.Constant) and a.value == "_form"
                                for a in node.args)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_imported_name_is_read():
    """Each name a module of the package imports is read in that module;
    __init__.py's re-exports and the __future__ annotations are exempt."""
    unread = []
    for path in sorted(Path(pwl_module.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name != "annotations" and name not in read:
                        unread.append(f"{path.name}:{node.lineno}: {name}")
    assert unread == []


# -- integer comparisons against their Fraction references --------------------------------------

@st.composite
def one_row_maps(draw, dim):
    """A compiled formula of dim variables, or a map on a compiled complex
    with random values in (1/den)Z at its vertices, read back from JSON: its
    pieces are rational."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    w = pwl_from_formula(rand_formula(rng, dim, 3), dim)
    den = draw(st.sampled_from([0, 1, 2, 3, 6]))
    if not den:
        return w
    c = w.complex
    values = [(F(rng.randint(0, den), den),) for _ in c.vertices]
    f = PWLMap(c, tuple(affine_from_simplex_pair(c.cell_points(j), [values[i] for i in cell])
                        for j, cell in enumerate(c.cells)))
    return pwl_map_from_json(json.loads(json.dumps(pwl_map_to_json(f))))


map_pairs = st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(one_row_maps(d), one_row_maps(d)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(map_pairs)
def test_comparisons_and_the_unit_set_walk_agree_with_the_fraction_references(pair):
    f, g = pair
    # f | (f & g) is f on another complex, and f & g lies below f
    below = pwl_combine("min", f, g)
    same = pwl_combine("max", f, below)
    for a, b in ((f, g), (g, f), (f, same), (below, f)):
        assert pwl_le(a, b) == ref_le(a, b)
        assert pwl_equal(a, b) == ref_equal(a, b)
        assert _unit_set_min_and_power(a, b) == ref_unit_set_min_and_power(a, b)
    assert pwl_equal(f, same) and pwl_le(below, f)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2]).flatmap(one_row_maps))
def test_dominance_agrees_with_the_fraction_reference(f):
    # each piece's clamped formula stands in as a variable of its own, so
    # rational pieces synthesize too
    rows = {}

    def clamp(coeffs, const):
        return Var(rows.setdefault((tuple(coeffs), const), len(rows)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pwl_module, "clamp_affine_formula", clamp)
        got = _synthesize_formula(f)
    assert got == ref_synthesize_formula(f, clamp)


# -- serialization ------------------------------------------------------------------------------

def test_json_round_trip():
    for f in (TENT, FIGURE, And(X0, X1), parse_formula("x0 (+) x1 -> x0 * x1")):
        w = pwl_from_formula(f)
        again = pwl_from_json(pwl_to_json(w))
        assert pwl_equal(w, again)


def test_json_rejects_bad_payload():
    w = pwl_from_formula(TENT)
    obj = pwl_to_json(w)
    obj["cells"] = [[0, 99]]
    with pytest.raises(ValueError):
        pwl_from_json(obj)
