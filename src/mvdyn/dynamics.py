"""Substitutions as self-maps of the unit cube: exact orbits, denominators,
reachability, piecewise-affine homeomorphisms, one-sided differentials,
box-hitting search, and empirical statistics.

All orbit, denominator, and integration claims are exact; floating point
appears only in empirical_statistics and is labeled as such.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .formula import (
    Formula, Var, Neg, And, OPlus, Substitution, apply_substitution,
    evaluate, LUKASIEWICZ, arity_of, json_field,
)
from . import pwl as _pwl
from .pwl import (
    AffineMap, CellBudgetError, CellComplex, PWLFunction, AffinePiece,
    affine_from_simplex_pair, clamp_affine_formula, pwl_from_formula,
)

F0 = Fraction(0)
F1 = Fraction(1)
CELL_BUDGET = 600     # most cells in the geometric form of an induced map
PIECE_CAP = 20000     # most pieces in one iterate compiled by average_truth_value


def _cube_point(p, n: Optional[int] = None):
    p = tuple(Fraction(v) for v in p)
    if n is not None and len(p) != n:
        raise ValueError(f"expected a point of dimension {n}")
    for v in p:
        if not (0 <= v <= 1):
            raise ValueError(f"point {p} outside the unit cube")
    return p


# -- piecewise-affine maps -----------------------------------------------------------

@dataclass(frozen=True)
class PWLMap:
    """One affine map per cell of a complex, continuous across shared faces."""

    complex: CellComplex
    maps: tuple            # one AffineMap per cell

    @property
    def dim(self) -> int:
        return self.complex.dim

    def value(self, p):
        p = _cube_point(p, self.dim)
        return self.maps[self.complex.locate(p)].apply(p)

    def validate(self) -> None:
        self.complex.validate()
        if len(self.maps) != len(self.complex.cells):
            raise ValueError("one affine map per cell required")
        seen: dict[int, tuple] = {}
        for j, cell in enumerate(self.complex.cells):
            for i in cell:
                img = self.maps[j].apply(self.complex.vertices[i])
                for v in img:
                    if not (0 <= v <= 1):
                        raise ValueError(f"vertex {i} maps outside the cube")
                if seen.setdefault(i, img) != img:
                    raise ValueError(f"maps disagree at shared vertex {i}")

    def component_functions(self) -> tuple:
        """The coordinate functions as integer-coefficient PWL functions."""
        out = []
        for i in range(self.dim):
            pieces = []
            for m in self.maps:
                row = m.a[i]
                if any(x.denominator != 1 for x in row) or m.b[i].denominator != 1:
                    raise ValueError("map has non-integer coefficients")
                pieces.append(AffinePiece(tuple(int(x) for x in row), int(m.b[i])))
            out.append(PWLFunction(self.complex, pieces))
        return tuple(out)


def pwl_map_to_json(s: PWLMap) -> dict:
    rat = _pwl._rat_to_json
    return {
        "dim": s.dim,
        "vertices": [[rat(x) for x in v] for v in s.complex.vertices],
        "cells": [list(c) for c in s.complex.cells],
        "maps": [{"a": [[rat(x) for x in row] for row in m.a],
                  "b": [rat(x) for x in m.b]} for m in s.maps],
    }


def pwl_map_from_json(obj: dict) -> PWLMap:
    rat = _pwl._rat_from_json
    complex_ = _pwl._complex_from_json(obj)
    maps = json_field(obj, "maps", lambda ms: tuple(
        AffineMap(tuple(tuple(rat(x) for x in row) for row in m["a"]),
                  tuple(rat(x) for x in m["b"]))
        for m in ms))
    s = PWLMap(complex_, maps)
    s.validate()
    return s


# -- induced maps of substitutions ----------------------------------------------------

@dataclass(frozen=True)
class InducedMap:
    """The self-map of [0,1]^n whose i-th coordinate is sigma's image of x_i."""

    arity: int
    components: tuple       # formulas
    pwl: Optional[PWLMap]   # exact geometric form, built when arity <= 2

    def __call__(self, p):
        return map_eval(self, p)


def induced_map(sigma: Substitution) -> InducedMap:
    """Wrap a substitution as a self-map; for one or two variables, also
    compile the exact geometric form unless it exceeds the cell budget."""
    n = sigma.arity
    if n == 0:
        raise ValueError("substitution must cover at least x0")
    pwl_form = None
    if n <= 2:
        try:
            funcs = [pwl_from_formula(g, n, cell_budget=CELL_BUDGET)
                     for g in sigma.images]
        except CellBudgetError:
            return InducedMap(n, tuple(sigma.images), None)
        if n == 1:
            complex_ = funcs[0].complex
            maps = tuple(AffineMap(((Fraction(p.a[0]),),), (Fraction(p.b),))
                         for p in funcs[0].pieces)
        else:
            c1, c2 = len(funcs[0].complex.cells), len(funcs[1].complex.cells)
            if c1 * c2 > 50 * CELL_BUDGET:
                return InducedMap(n, tuple(sigma.images), None)
            complex_, tags = _pwl._refine_tagged(funcs[0].complex, funcs[1].complex)
            maps = []
            for i1, i2 in tags:
                rows = (funcs[0].pieces[i1], funcs[1].pieces[i2])
                maps.append(AffineMap(
                    tuple(tuple(Fraction(c) for c in r.a) for r in rows),
                    tuple(Fraction(r.b) for r in rows)))
            maps = tuple(maps)
        pwl_form = PWLMap(complex_, maps)
    return InducedMap(n, tuple(sigma.images), pwl_form)


def map_eval(s: InducedMap, p) -> tuple:
    p = _cube_point(p, s.arity)
    return tuple(evaluate(g, LUKASIEWICZ, p) for g in s.components)


def tent_substitution() -> Substitution:
    """x0 -> min(2 x0, 2 - 2 x0), the standard tent."""
    x = Var(0)
    return Substitution([And(OPlus(x, x), OPlus(Neg(x), Neg(x)))])


def flip_substitution() -> Substitution:
    return Substitution([Neg(Var(0))])


# -- orbits and denominators -----------------------------------------------------------

def denominator(p) -> int:
    """Least d > 0 making every coordinate of p an integer multiple of 1/d."""
    p = tuple(Fraction(v) for v in p)
    return reduce(math.lcm, (v.denominator for v in p), 1)


@dataclass(frozen=True)
class Orbit:
    start: tuple
    points: tuple
    status: str             # "cycle" or "truncated"
    preperiod: Optional[int]
    period: Optional[int]
    denominators: tuple


def orbit(s: InducedMap, p, max_steps: int = 10000) -> Orbit:
    """Iterate exactly until the first repeated point or the step budget."""
    current = _cube_point(p, s.arity)
    points = [current]
    index = {current: 0}
    for _ in range(max_steps):
        current = map_eval(s, current)
        if current in index:
            pre = index[current]
            points.append(current)
            return Orbit(points[0], tuple(points), "cycle",
                         pre, len(points) - 1 - pre,
                         tuple(denominator(q) for q in points))
        index[current] = len(points)
        points.append(current)
    return Orbit(points[0], tuple(points), "truncated", None, None,
                 tuple(denominator(q) for q in points))


def full_rational_orbit(n: int, d: int, cap: int = 500000) -> list:
    """All points of [0,1]^n whose denominator divides d."""
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if (d + 1) ** n > cap:
        raise ValueError("grid cap exceeded")
    coords = [Fraction(k, d) for k in range(d + 1)]
    out = [()]
    for _ in range(n):
        out = [p + (c,) for p in out for c in coords]
    return out


def _extended_gcd_chain(values: Sequence[int]):
    """(g, coefficients) with sum coeff * value = g."""
    g, coeffs = 0, []
    for v in values:
        if not coeffs:
            g = abs(v)
            coeffs = [1 if v > 0 else -1 if v < 0 else 0]
            continue
        gg, x, y = _xgcd(g, v)
        coeffs = [c * x for c in coeffs] + [y]
        g = gg
    return g, coeffs


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def reachability_substitution(p, q) -> Substitution:
    """A substitution whose induced map sends p to q, built from clamped
    integer affine functions; requires den(q) to divide den(p)."""
    p = tuple(Fraction(v) for v in p)
    q = tuple(Fraction(v) for v in q)
    if len(p) != len(q):
        raise ValueError("points must have the same dimension")
    _cube_point(p)
    _cube_point(q)
    d = denominator(p)
    if denominator(q) != 1 and d % denominator(q) != 0:
        raise ValueError(f"den(q) = {denominator(q)} does not divide den(p) = {d}")
    n = len(p)
    values = [int(v * d) for v in p] + [d]
    g, coeffs = _extended_gcd_chain(values)
    if g != 1:
        raise AssertionError("gcd of scaled coordinates with d must be 1")
    images = []
    for i in range(n):
        c = int(q[i] * d)
        lin = [c * coeffs[k] for k in range(n)]
        const = c * coeffs[n]
        images.append(clamp_affine_formula(lin, const))
    return Substitution(images)


# -- the rotation homeomorphism ---------------------------------------------------------

def _rotation_cells():
    c00, c10 = (F0, F0), (F1, F0)
    c11, c01 = (F1, F1), (F0, F1)
    p0, p1, p2 = (Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2))
    q0, q1, q2 = (Fraction(3, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(3, 4)), (Fraction(3, 4), Fraction(1, 2))
    cells = [
        (p0, p1, p2),             # inner lower triangle
        (q0, q1, q2),             # inner upper triangle
        (c00, c10, p0),           # fan about the corner (1,0)
        (p0, c10, p1),
        (p1, c10, q1),
        (q1, c10, q2),
        (q2, c10, c11),
        (c11, c01, q0),           # the centrally symmetric fan about (0,1)
        (q0, c01, q1),
        (q1, c01, p1),
        (p1, c01, p2),
        (p2, c01, c00),
        (c00, p0, p2),            # corner pockets
        (c11, q0, q2),
    ]
    rotate = {p0: p1, p1: p2, p2: p0, q0: q1, q1: q2, q2: q0}
    return cells, rotate


def rotation_homeomorphism():
    """(substitution, exact map) rotating the two inner triangles one step.

    The square is cut into 14 triangles on 10 vertices; the three vertices of
    each inner triangle cycle while corners stay fixed, and every cell map
    works out to integer matrices of determinant one. Fails loudly if any
    cell's matrix is not integral.
    """
    cells, rotate = _rotation_cells()
    maps = []
    for tri in cells:
        target = tuple(rotate.get(v, v) for v in tri)
        m = affine_from_simplex_pair(tri, target)
        if not m.is_integral:
            raise AssertionError(f"cell {tri} needs a non-integer matrix")
        if m.det() != 1:
            raise AssertionError(f"cell {tri} has determinant {m.det()}")
        maps.append(m)
    vertices = sorted({v for tri in cells for v in tri})
    index = {v: i for i, v in enumerate(vertices)}
    complex_ = CellComplex(2, vertices, [tuple(index[v] for v in tri) for tri in cells])
    smap = PWLMap(complex_, tuple(maps))
    smap.validate()
    comp = smap.component_functions()
    sigma = Substitution([_pwl._synthesize_formula(f) for f in comp])
    return sigma, smap


def validate_homeomorphism(s: PWLMap) -> dict:
    """Determinant and exact image-tiling report for a piecewise-affine map."""
    s.validate()
    dets = {m.det() for m in s.maps}
    common = dets.pop() if len(dets) == 1 else None
    unimodular = common in (1, -1)

    total = F0
    images = []
    degenerate = False
    inside = True
    for j in range(len(s.complex.cells)):
        pts = [s.maps[j].apply(v) for v in s.complex.cell_points(j)]
        for img in pts:
            if any(not (0 <= x <= 1) for x in img):
                inside = False
        if s.dim == 1:
            lo, hi = sorted(x[0] for x in pts)
            if lo == hi:
                degenerate = True
            total += hi - lo
            images.append((lo, hi))
        else:
            area2 = _pwl._area2(pts)
            if area2 == 0:
                degenerate = True
            if area2 < 0:
                pts.reverse()
            total += abs(area2) / 2
            images.append(pts)

    overlap = False
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if s.dim == 1:
                lo = max(images[a][0], images[b][0])
                hi = min(images[a][1], images[b][1])
                if lo < hi:
                    overlap = True
            else:
                inter = _pwl._poly_intersection(images[a], images[b])
                if inter and _pwl._canon(inter):
                    overlap = True

    invertible = (not degenerate) and (not overlap) and inside and total == 1
    report = {
        "invertible": invertible,
        "common_det": int(common) if common is not None and common.denominator == 1 else None,
        "determinants_equal": common is not None,
        "unimodular": unimodular,
        "image_measure": total,
        "measure_preserving": invertible and unimodular,
    }
    return report


# -- one-sided differentials --------------------------------------------------------------

def tsujii_differential(s: PWLMap, p, v) -> tuple:
    """A_j v for the first cell whose interior the ray p + h v enters."""
    p = _cube_point(p, s.dim)
    v = tuple(Fraction(x) for x in v)
    if len(v) != s.dim:
        raise ValueError("direction dimension mismatch")
    if all(x == 0 for x in v):
        return tuple(F0 for _ in range(s.dim))
    for j in range(len(s.complex.cells)):
        pts = s.complex.cell_points(j)
        if s.dim == 1:
            lo, hi = sorted((pts[0][0], pts[1][0]))
            x = p[0]
            if not (lo <= x <= hi):
                continue
            if (x < hi or v[0] < 0) and (x > lo or v[0] > 0):
                a = s.maps[j].a[0][0]
                return (a * v[0],)
            continue
        ok = True
        for i in range(3):
            a, b = pts[i], pts[(i + 1) % 3]
            e = _pwl._cross(a, b, p)
            if e < 0:
                ok = False
                break
            if e == 0:
                rate = _pwl._cross(a, b, (p[0] + v[0], p[1] + v[1]))
                if rate < 0:
                    ok = False
                    break
        if ok:
            m = s.maps[j]
            return tuple(sum(r * x for r, x in zip(row, v)) for row in m.a)
    raise ValueError("the ray leaves the unit cube immediately")


# -- box-hitting search ---------------------------------------------------------------------

@dataclass(frozen=True)
class BoxHit:
    h: int
    k: int
    witness: tuple
    image: tuple


def _box_points(box, grid_denominator: int):
    axes = []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        start = math.ceil(lo * grid_denominator)
        stop = math.floor(hi * grid_denominator)
        axes.append([Fraction(k, grid_denominator) for k in range(start, stop + 1)])
    pts = [()]
    for axis in axes:
        pts = [p + (c,) for p in pts for c in axis]
    return pts


def _in_box(p, box) -> bool:
    return all(Fraction(lo) <= x <= Fraction(hi) for x, (lo, hi) in zip(p, box))


def box_hitting_search(q_map: InducedMap, r_map: InducedMap, a_box, b_box,
                       h_max: int, k_max: int,
                       grid_denominator: int = 16) -> Optional[BoxHit]:
    """First (h, k, grid witness) with R^k(Q^h(a)) in the target box.

    Sound but incomplete: a miss at the given resolution proves nothing.
    """
    if q_map.arity != r_map.arity:
        raise ValueError("maps must share an arity")
    for lo, hi in list(a_box) + list(b_box):
        if not Fraction(lo) < Fraction(hi):
            raise ValueError("boxes must be nondegenerate")
    starts = [p for p in _box_points(a_box, grid_denominator) if _in_box(p, a_box)]
    q_iter = {p: p for p in starts}
    for h in range(h_max + 1):
        for start in starts:
            x = q_iter[start]
            for k in range(k_max + 1):
                if _in_box(x, b_box):
                    return BoxHit(h, k, start, x)
                x = map_eval(r_map, x)
        if h < h_max:
            for start in starts:
                q_iter[start] = map_eval(q_map, q_iter[start])
    return None


# -- statistics and averages ------------------------------------------------------------------

def _compile_float(f: Formula):
    """A float-valued evaluator of the formula's Lukasiewicz semantics."""
    names: dict[int, str] = {}
    lines = []

    def walk(node: Formula) -> str:
        got = names.get(id(node))
        if got is not None:
            return got
        op = node.op
        if op == "var":
            expr = f"p[{node.index}]"
        elif op == "zero":
            expr = "0.0"
        elif op == "one":
            expr = "1.0"
        elif op == "star":
            a, b = walk(node.args[0]), walk(node.args[1])
            expr = f"max({a} + {b} - 1.0, 0.0)"
        else:
            a, b = walk(node.args[0]), walk(node.args[1])
            expr = f"(1.0 if {a} <= {b} else 1.0 - {a} + {b})"
        name = f"v{len(names)}"
        names[id(node)] = name
        lines.append(f"    {name} = {expr}")
        return name

    result = walk(f.core())
    source = "def _fn(p):\n" + "\n".join(lines) + f"\n    return {result}\n"
    scope: dict = {}
    exec(source, scope)
    return scope["_fn"]


def empirical_statistics(s: InducedMap, start, iterations: int, box_grid: int,
                         seed: int = 0) -> dict:
    """Floating-point visit frequencies against the uniform volume.

    Explicitly approximate: exact rational orbits are eventually periodic, so
    equidistribution is probed in floats, with a tiny seeded dither (about
    2**-40 per step) keeping the orbit off the finite dyadic lattice.
    """
    if iterations < 1 or box_grid < 1:
        raise ValueError("need iterations >= 1 and box_grid >= 1")
    n = s.arity
    fns = [_compile_float(g) for g in s.components]
    rng = random.Random(seed)
    x = [float(v) for v in _cube_point(start, n)]
    counts: dict[tuple, int] = {}
    dither = 2.0 ** -40
    for _ in range(iterations):
        y = [fn(x) for fn in fns]
        x = [min(1.0, max(0.0, c + (rng.random() - 0.5) * 2.0 * dither))
             for c in y]
        box = tuple(min(int(c * box_grid), box_grid - 1) for c in x)
        counts[box] = counts.get(box, 0) + 1
    volume = 1.0 / box_grid ** n
    table = []
    discrepancy = 0.0
    for idx in sorted(_all_boxes(box_grid, n)):
        freq = counts.get(idx, 0) / iterations
        table.append({"box": list(idx), "count": counts.get(idx, 0),
                      "frequency": freq, "volume": volume})
        discrepancy = max(discrepancy, abs(freq - volume))
    return {"iterations": iterations, "box_grid": box_grid, "dither": dither,
            "table": table, "discrepancy": discrepancy}


def _all_boxes(g: int, n: int):
    out = [()]
    for _ in range(n):
        out = [p + (i,) for p in out for i in range(g)]
    return out


def average_truth_value(r: Formula, k: int, sigma: Substitution, mu_box) -> dict:
    """Exact averages of sigma^j(r) over a box, plus the Lebesgue average of r."""
    dims = [arity_of(r)] + [arity_of(g) for g in sigma.images]
    dim = max(max(dims), 1)
    if dim > 2:
        raise ValueError("exact averaging handles at most two variables")
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in mu_box)
    if len(box) != dim:
        raise ValueError("box dimension mismatch")
    volume = F1
    for lo, hi in box:
        if not (0 <= lo < hi <= 1):
            raise ValueError("box must be nondegenerate inside the cube")
        volume *= hi - lo
    sequence = []
    current = r
    for j in range(k + 1):
        w = pwl_from_formula(current, dim)
        if len(w.complex.cells) > PIECE_CAP:
            raise ValueError(f"piece cap exceeded at step {j}")
        sequence.append(_pwl.pwl_integral(w, box) / volume)
        if j < k:
            current = apply_substitution(sigma, current)
    lebesgue = _pwl.pwl_integral(pwl_from_formula(r, dim))
    return {"sequence": sequence, "lebesgue_average": lebesgue}
