"""Exact piecewise-linear calculus over rational cell complexes in 1..MAX_DIM variables.

One type, PWLMap, represents continuous maps [0,1]^d -> [0,1]^r that are
affine on each cell of a rational simplicial complex covering the unit
interval (d=1) or unit square (d=2). A formula compiles to the one-row case
with integer coefficients; a substitution's map has one row per variable.
All arithmetic is exact: 2-D geometry computes on reduced integer homogeneous
coordinates and returns Fractions, as does everything else.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key, reduce
from operator import add, mul, sub
from typing import Optional, Sequence

from .formula import (
    Formula, Var, Neg, And, Or, OPlus, Star, ZERO, ONE, OutOfReach, arity_of, fold, json_field,
    json_int, json_list,
)

Point = tuple  # tuple of Fractions, length = dim

F0 = Fraction(0)
F1 = Fraction(1)
MAX_DIM = 2   # most variables of the exact geometry: its cells are intervals or triangles


def _check_dim(n: int) -> None:
    """Refuse a cube of n variables outside the exact geometry's 1..MAX_DIM."""
    if not 1 <= n <= MAX_DIM:
        raise OutOfReach(f"{n} variables are outside the exact geometry, "
                         f"which handles 1 to {MAX_DIM}")


def _frac_point(p) -> Point:
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in p)


# -- exact planar primitives ---------------------------------------------------

# The 2-D geometry computes on integer triples: a point (x, y) is
# the reduced triple (X, Y, W) with x = X/W, y = Y/W, W > 0 and gcd(X, Y, W) = 1.
# The form is canonical, so equal points are equal tuples. A half-plane is an
# integer triple h, the points where h . (X, Y, W) >= 0.

def _reduced(x: int, y: int, w: int) -> tuple:
    """The reduced triple of (x, y, w), w != 0."""
    g = math.gcd(x, y, w) if w > 0 else -math.gcd(x, y, w)
    return (x // g, y // g, w // g)


def _scaled(coeffs) -> tuple:
    """Rational coefficients times the lcm s of their denominators: (integers, s)."""
    s = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (s // c.denominator) for c in coeffs), s


def _dot(h, p) -> int:
    return h[0] * p[0] + h[1] * p[1] + h[2] * p[2]


def _cross(a, b) -> tuple:
    """The half-plane left of the line from a to b: where _det(a, b, .) >= 0."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _cuts(planes, pts):
    """None if one of the half-planes meets the convex hull of the points in
    zero area (it is <= 0 at each point and < 0 at one), else those that cut
    it (< 0 at one point, > 0 at another); the others hold it whole."""
    out = []
    for h in planes:
        c0, c1, c2 = h
        neg = pos = False
        for x, y, w in pts:
            e = c0 * x + c1 * y + c2 * w
            neg |= e < 0
            pos |= e > 0
        if neg:
            if not pos:
                return None
            out.append(h)
    return out


def _det(o, a, b) -> int:
    """Positive, zero or negative as o, a, b turn left, are collinear or turn right."""
    return (o[0] * (a[1] * b[2] - a[2] * b[1]) - o[1] * (a[0] * b[2] - a[2] * b[0])
            + o[2] * (a[0] * b[1] - a[1] * b[0]))


def _lex(p, q) -> int:
    """Negative, zero or positive as p comes before, at or after q in the
    lexicographic order of the points."""
    return p[0] * q[2] - q[0] * p[2] or p[1] * q[2] - q[1] * p[2]


def _clip(poly, h):
    """Clip a convex polygon by the half-plane h; an edge from P to Q that
    crosses its line is cut at (h.P) Q - (h.Q) P."""
    out = []
    vals = [_dot(h, p) for p in poly]
    for p, q, hp, hq in zip(poly, poly[1:] + poly[:1], vals, vals[1:] + vals[:1]):
        if hp >= 0:
            out.append(p)
        if hp >= 0 > hq or hp < 0 < hq:
            out.append(_reduced(hp * q[0] - hq * p[0], hp * q[1] - hq * p[1],
                                hp * q[2] - hq * p[2]))
    return out


def _canon(poly):
    """Deduplicate and drop collinear boundary points of a convex polygon;
    ccw, lexicographically least point first.

    Returns [] for polygons of zero area.
    """
    pts = []
    for p in poly:
        if not pts or p != pts[-1]:
            pts.append(p)
    while len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        return []
    out, turn = [], 0
    for o, p, q in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1]):
        t = _det(o, p, q)
        if t:
            out.append(p)
            turn = turn or t    # a convex polygon turns one way only
    if len(out) < 3:
        return []
    if turn < 0:
        out.reverse()
    k = out.index(min(out, key=cmp_to_key(_lex)))
    return out[k:] + out[:k]


def _on_open_segment(a, b, v) -> bool:
    if _det(a, b, v):
        return False
    # v is collinear with a and b, and inside iff a - v and b - v point apart
    return ((a[0] * v[2] - v[0] * a[2]) * (b[0] * v[2] - v[0] * b[2])
            + (a[1] * v[2] - v[1] * a[2]) * (b[1] * v[2] - v[1] * b[2])) < 0


def _fan(poly):
    """Triangulate a convex polygon by fanning from its first vertex: each
    triangle turns as the polygon does (ccw for a canonical one) or has zero
    area; [] for fewer than three points."""
    return [(poly[0], a, b) for a, b in zip(poly[1:-1], poly[2:])]


# -- cell complexes ------------------------------------------------------------

class CellComplex:
    """Rational simplicial complex covering [0,1]^dim, dim in 1..MAX_DIM.

    cells hold vertex indices: pairs (lo, hi) for dim 1 (in left-to-right
    order), ccw triples for dim 2.
    """

    def __init__(self, dim: int, vertices: Sequence[Point], cells: Sequence[tuple]):
        _check_dim(dim)
        self.dim = dim
        self.vertices = [_frac_point(v) for v in vertices]
        self.cells = [tuple(c) for c in cells]

    def cell_points(self, j: int):
        return tuple(self.vertices[i] for i in self.cells[j])

    def locate(self, p: Point) -> int:
        """Index of the first cell containing p."""
        return self._locate(_cube_point(p))

    def _locate(self, p: Point, v: Optional[Point] = None) -> int:
        """Index of a cell containing p (in 1-D the leftmost), for a point of
        Fractions already checked to lie in the cube; given a nonzero
        direction v, of the first cell whose interior the ray p + h v enters."""
        bounds = self._bounds
        if self.dim == 1:
            # a step right enters the cell ending after p; a point, or a step
            # left, the cell ending at or after p, which a step left from 0 leaves
            right = v is not None and v[0] > 0
            k = (bisect.bisect_right if right else bisect.bisect_left)(
                bounds, p[0], key=lambda b: b[1])
            if k < len(bounds) and (v is None or right or p[0] > 0):
                return bounds[k][0]
        else:
            # the ray enters a cell where each half-plane is positive at p, or
            # zero at p and not decreasing along v (a point has v = 0)
            x, y, w = _scaled((*p, 1))[0]
            dx, dy = (0, 0) if v is None else _scaled(v)[0]
            for j, planes in bounds:
                if all((e := c0 * x + c1 * y + c2 * w) > 0 or e == 0 and c0 * dx + c1 * dy >= 0
                       for c0, c1, c2 in planes):
                    return j
        raise ValueError(f"point ({', '.join(map(str, p))}) not covered by the complex")

    @cached_property
    def _triples(self) -> list:
        """Each vertex p as the integer tuple the exact tests compute on:
        (*p, 1) times the lcm of the denominators."""
        return [_scaled((*p, 1))[0] for p in self.vertices]

    @cached_property
    def _bounds(self) -> list:
        """Each cell's bounds, which every cell test reads (point and ray
        location, PWLMap.lattice_step, the 1-D refinement, the pullback, 1-D
        validation): in dimension 1, (cell, right end) in left-to-right
        order; in dimension 2, (cell, three integer half-planes (c0, c1, c2)),
        each the cross product of one ccw edge's end triples over its gcd, so the
        cell is where all c0 x + c1 y + c2 >= 0."""
        if self.dim == 1:
            order = sorted(range(len(self.cells)),
                           key=lambda j: self.vertices[self.cells[j][0]][0])
            return [(j, self.vertices[self.cells[j][1]][0]) for j in order]
        out = []
        for j, cell in enumerate(self.cells):
            tri = [self._triples[i] for i in cell]
            planes = []
            for a, b in zip(tri, tri[1:] + tri[:1]):
                h = _cross(a, b)
                g = math.gcd(*h) or 1
                planes.append((h[0] // g, h[1] // g, h[2] // g))
            out.append((j, tuple(planes)))
        return out

    def measure(self, j: int) -> Fraction:
        if self.dim == 1:
            pts = self.cell_points(j)
            return pts[1][0] - pts[0][0]
        # twice a triangle's signed area is _det(p, q, r) / (W_p W_q W_r)
        p, q, r = (self._triples[i] for i in self.cells[j])
        return Fraction(_det(p, q, r), 2 * p[2] * q[2] * r[2])

    def validate(self) -> None:
        n = len(self.vertices)
        if any(len(v) != self.dim for v in self.vertices):
            raise ValueError(f"every vertex needs {self.dim} coordinates")
        for j, cell in enumerate(self.cells):
            if len(cell) != self.dim + 1 or not all(0 <= i < n for i in cell):
                raise ValueError(f"cell {j} needs {self.dim + 1} vertex indices "
                                 f"in 0..{n - 1}")
            if not all(0 <= x <= 1 for i in cell for x in self.vertices[i]):
                raise ValueError(f"cell {j} has a vertex outside the unit cube")
        if self.dim == 1:
            for i0, i1 in self.cells:
                if not self.vertices[i0][0] < self.vertices[i1][0]:
                    raise ValueError("degenerate or reversed 1-cell")
            lo = F0
            for j, hi in self._bounds:
                if self.cell_points(j)[0][0] != lo:
                    raise ValueError("cells do not partition [0,1]")
                lo = hi
            if lo != 1:
                raise ValueError("cells do not reach 1")
            return
        # ccw cells, no directed edge twice, and every edge without its
        # reverse on a side of the square: the unpaired edges then run around
        # the square k times, so every point of it is covered k times, and
        # total area 1 makes k = 1. A T-junction or a duplicated vertex leaves
        # an unpaired inner edge.
        total = F0
        edges: dict[tuple, int] = {}
        for j, cell in enumerate(self.cells):
            area = self.measure(j)
            if area <= 0:
                raise ValueError(f"cell {j} is degenerate or not ccw")
            total += area
            for e in zip(cell, cell[1:] + cell[:1]):
                if e in edges:
                    raise ValueError(f"cells {edges[e]} and {j} overlap along edge {e}")
                edges[e] = j
        if total != 1:
            raise ValueError("cells do not cover the unit square exactly")
        for (a, b), j in edges.items():
            p, q = self.vertices[a], self.vertices[b]
            if (b, a) not in edges and not any(p[k] == q[k] in (0, 1) for k in (0, 1)):
                raise ValueError(f"edge {(a, b)} of cell {j} is unpaired inside the square")


def unit_complex(dim: int) -> CellComplex:
    if dim == 1:
        return CellComplex(1, [(F0,), (F1,)], [(0, 1)])
    verts = [(F0, F0), (F1, F0), (F1, F1), (F0, F1)]
    return CellComplex(2, verts, [(0, 1, 2), (0, 2, 3)])


def _build_complex_2d(tagged_polys):
    """Assemble a face-to-face triangulation from tagged convex polygons of
    integer triples.

    The polygons must tile the square with disjoint interiors, and where
    edges of two of them overlap, one must contain the other. Returns
    (CellComplex, tags aligned with cells); its vertices are listed in
    lexicographic order.
    """
    tris = [(t, tag) for poly, tag in tagged_polys for t in _fan(_canon(poly))]
    heads: dict[tuple, list] = {}
    for t, _ in tris:
        for a, b in zip(t, t[1:] + t[:1]):
            heads.setdefault(a, []).append(b)

    # conformity: an edge a->b without its reverse lies on a side of the
    # square, inside a longer edge, or along a chain of edges from b back to
    # a on its other side; the chain's inner vertices hang on a->b
    out = []
    for tri, tag in tris:
        cycle = []
        for a, b in zip(tri, tri[1:] + tri[:1]):
            cycle.append(a)
            if a in heads[b]:
                continue
            chain = [b]
            while step := [w for w in heads[chain[-1]] if _on_open_segment(a, chain[-1], w)]:
                chain += step
            cycle.extend(reversed(chain[1:]))
        if len(cycle) == 3:
            out.append((tri, tag))
        else:
            # fan from an interior Steiner point so every boundary point
            # becomes a real vertex (apex on a collinear run would drop some)
            w = math.lcm(*(p[2] for p in cycle))
            c = _reduced(sum(p[0] * (w // p[2]) for p in cycle),
                         sum(p[1] * (w // p[2]) for p in cycle), w * len(cycle))
            out.extend(((c, p, q), tag) for p, q in zip(cycle, cycle[1:] + cycle[:1]))

    all_pts = sorted({p for t, _ in out for p in t}, key=cmp_to_key(_lex))
    index = {p: i for i, p in enumerate(all_pts)}
    cells = sorted(((tuple(index[p] for p in t), tag) for t, tag in out),
                   key=lambda c: sorted(c[0]))
    complex_ = CellComplex(2, [(Fraction(x, w), Fraction(y, w)) for x, y, w in all_pts],
                           [c for c, _ in cells])
    complex_._triples = all_pts
    return complex_, [tag for _, tag in cells]


def _build_complex_1d(tagged_intervals):
    """The complex of tagged intervals that tile [0,1] in left-to-right order,
    and the tags aligned with its cells."""
    cuts = [tagged_intervals[0][0][0]] + [hi for (_, hi), _ in tagged_intervals]
    cells = [(i, i + 1) for i in range(len(tagged_intervals))]
    return CellComplex(1, [(x,) for x in cuts], cells), [t for _, t in tagged_intervals]


def _refine_tagged(w1: CellComplex, w2: CellComplex):
    """Common refinement; each output cell tagged with its (w1, w2) parents.

    In dimension 1 the two partitions' sorted right ends are merged; in
    dimension 2 it is the pullback of w2 through the identity on w1."""
    if w1.dim != w2.dim:
        raise ValueError("dimension mismatch")
    if w1.dim == 2:
        identity = AffineMap(((1, 0), (0, 1)), (0, 0))
        return _pullback(w1, (identity,) * len(w1.cells), w2)
    b1, b2 = w1._bounds, w2._bounds
    tagged, lo, i, j = [], F0, 0, 0
    while i < len(b1) and j < len(b2):
        (c1, r1), (c2, r2) = b1[i], b2[j]
        hi = min(r1, r2)
        tagged.append(((lo, hi), (c1, c2)))
        lo = hi
        i += r1 == hi
        j += r2 == hi
    return _build_complex_1d(tagged)


def common_refinement(w1: CellComplex, w2: CellComplex) -> CellComplex:
    return _refine_tagged(w1, w2)[0]


# -- affine and piecewise-affine maps ----------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b, with one row of A and one entry of b per output coordinate.

    A compiled formula is a one-row map with integer entries; a map between
    simplices has exact rational entries. Arithmetic acts row by row.
    """

    a: tuple        # rows, each a tuple of one coefficient per input coordinate
    b: tuple        # one constant per row

    @property
    def is_integral(self) -> bool:
        return (all(x.denominator == 1 for row in self.a for x in row)
                and all(x.denominator == 1 for x in self.b))

    def det(self) -> Fraction:
        if len(self.b) == 1:
            return self.a[0][0]
        return self.a[0][0] * self.a[1][1] - self.a[0][1] * self.a[1][0]

    def apply(self, p) -> Point:
        return self._apply(_frac_point(p))

    def _apply(self, p: Point) -> Point:
        """apply on a point of Fractions."""
        return tuple(sum(map(mul, row, p)) + c for row, c in zip(self.a, self.b))

    def __add__(self, other):
        return AffineMap(tuple(tuple(map(add, r, s)) for r, s in zip(self.a, other.a)),
                         tuple(map(add, self.b, other.b)))

    def __sub__(self, other):
        return AffineMap(tuple(tuple(map(sub, r, s)) for r, s in zip(self.a, other.a)),
                         tuple(map(sub, self.b, other.b)))

    def shift(self, k: int):
        return AffineMap(self.a, tuple(c + k for c in self.b))

    def negate(self):
        """1 - (A x + b), the Lukasiewicz negation of every row."""
        return AffineMap(tuple([tuple([-x for x in row]) for row in self.a]),
                         tuple([1 - c for c in self.b]))


def _row_value(m: AffineMap, p) -> Fraction:
    """The first row of m at a point of Fractions, without building a tuple."""
    return sum(map(mul, m.a[0], p)) + m.b[0]


def _cube_point(p, n: Optional[int] = None) -> Point:
    p = _frac_point(p)
    if n is not None and len(p) != n:
        raise ValueError(f"expected a point of dimension {n}")
    for v in p:
        if not (0 <= v <= 1):
            raise ValueError(f"point ({', '.join(map(str, p))}) outside the unit cube")
    return p


def _checked_box(name: str, box, n: int) -> list:
    """box as (lo, hi) Fractions, refused with a message naming it unless it
    has n axes, each nondegenerate inside [0, 1]."""
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    text = " x ".join(f"[{lo}, {hi}]" for lo, hi in box) or "()"
    if len(box) != n:
        raise ValueError(f"{name} box {text} needs one axis per variable of the maps "
                         f"(dimension {n})")
    if not all(0 <= lo < hi <= 1 for lo, hi in box):
        raise ValueError(f"{name} box {text} must be nondegenerate inside [0,1]^{n}")
    return box


@dataclass(frozen=True)
class PWLMap:
    """A piecewise-affine map [0,1]^dim -> [0,1]^rows: one AffineMap per cell
    of a complex, continuous across shared faces. A function of one or two
    variables (a compiled formula) is the one-row case."""

    complex: CellComplex
    maps: tuple            # one AffineMap per cell

    @property
    def dim(self) -> int:
        return self.complex.dim

    @property
    def rows(self) -> int:
        return len(self.maps[0].b)

    def value(self, p) -> Point:
        p = _cube_point(p, self.dim)
        return self.maps[self.complex._locate(p)]._apply(p)

    def lattice_step(self, d: int):
        """This self-map of the cube on the lattice (1/d)Z^dim, as a function
        on integer numerators; None unless every piece is integral.

        An integral piece x -> A x + b sends k/d to (A k + b d)/d, so step(k)
        returns the numerators of value(k/d) over the same d, and an orbit
        never leaves the lattice. In dimension 1 a point is its numerator, an
        int, and step is k -> a k + c; in dimension 2 it is the pair (x, y).
        Point location compares integers only: a bisect over floor(r d) of the
        right cell ends r in dimension 1, the signs of each cell's integer
        half-planes at k in dimension 2.
        """
        if not all(m.is_integral for m in self.maps):
            return None
        bounds = self.complex._bounds
        if self.dim == 1:
            ends = [r.numerator * d // r.denominator for _, r in bounds]
            pieces = [(int(self.maps[j].a[0][0]), int(self.maps[j].b[0]) * d)
                      for j, _ in bounds]

            def step(k):
                a, c = pieces[bisect.bisect_left(ends, k)]
                return a * k + c
            return step

        cells = []
        for j, planes in bounds:
            (a00, a01), (a10, a11) = self.maps[j].a
            b0, b1 = self.maps[j].b
            cells.append((*((c0, c1, c2 * d) for c0, c1, c2 in planes),
                          (int(a00), int(a01), int(b0) * d, int(a10), int(a11), int(b1) * d)))

        def step(k):
            x, y = k
            for (p0, q0, r0), (p1, q1, r1), (p2, q2, r2), piece in cells:
                if (p0 * x + q0 * y + r0 >= 0 and p1 * x + q1 * y + r1 >= 0
                        and p2 * x + q2 * y + r2 >= 0):
                    a00, a01, c0, a10, a11, c1 = piece
                    return (a00 * x + a01 * y + c0, a10 * x + a11 * y + c1)
            raise ValueError(f"point {k} / {d} not covered by the complex")
        return step

    def row(self, i: int) -> "PWLMap":
        """The i-th output coordinate as a one-row map on the same complex."""
        return PWLMap(self.complex, tuple(AffineMap((m.a[i],), (m.b[i],))
                                          for m in self.maps))

    def image_complex(self) -> CellComplex:
        """The images of this self-map's cells on the vertex indices of its
        complex, each cell reversed where its piece's determinant is negative.
        A valid self-map is invertible exactly when this complex validates."""
        w, vertices = self.complex, list(self.complex.vertices)
        for cell, m in zip(w.cells, self.maps):
            for i in cell:
                vertices[i] = m._apply(w.vertices[i])
        return CellComplex(self.dim, vertices, [cell[::-1] if m.det() < 0 else cell
                                                for cell, m in zip(w.cells, self.maps)])

    def validate(self) -> None:
        self.complex.validate()
        if len(self.maps) != len(self.complex.cells):
            raise ValueError("one affine map per cell required")
        rows = self.rows
        for j, m in enumerate(self.maps):
            if (len(m.a) != rows or len(m.b) != rows
                    or any(len(row) != self.dim for row in m.a)):
                raise ValueError(f"map {j} must have shape {rows} x {self.dim}")
        seen: dict[int, tuple] = {}
        for j, cell in enumerate(self.complex.cells):
            for i in cell:
                img = self.maps[j].apply(self.complex.vertices[i])
                for v in img:
                    if not (0 <= v <= 1):
                        raise ValueError(f"vertex {i} maps outside the cube")
                if seen.setdefault(i, img) != img:
                    raise ValueError(f"maps disagree at shared vertex {i}")


def _one_row(*fs: PWLMap) -> None:
    """The functions below read one output coordinate; refuse a wider map."""
    for f in fs:
        if f.rows != 1:
            raise ValueError(f"expected a one-row map (a function), got {f.rows} rows")


def pwl_eval(f: PWLMap, p) -> Fraction:
    _one_row(f)
    return f.value(p)[0]


def _constant(dim: int, k: int) -> PWLMap:
    w = unit_complex(dim)
    m = AffineMap(((0,) * dim,), (k,))
    return PWLMap(w, (m,) * len(w.cells))


def _coordinate(dim: int, i: int) -> PWLMap:
    w = unit_complex(dim)
    m = AffineMap((tuple(1 if k == i else 0 for k in range(dim)),), (0,))
    return PWLMap(w, (m,) * len(w.cells))


def _combine(op: str, f: PWLMap, g: PWLMap) -> PWLMap:
    """min/max/star/oplus/impl of two one-row maps, exactly."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    refined, tags = _refine_tagged(f.complex, g.complex)
    flat = ((0,) * f.dim,)
    zero, one = AffineMap(flat, (0,)), AffineMap(flat, (1,))

    def locus(fp: AffineMap, gp: AffineMap) -> AffineMap:
        if op in ("min", "max"):
            return fp - gp
        if op in ("star", "oplus"):
            return (fp + gp).shift(-1)
        if op == "impl":
            return gp - fp
        raise ValueError(f"unknown op {op!r}")

    def branch(fp: AffineMap, gp: AffineMap, h: AffineMap, positive: bool) -> AffineMap:
        if op == "min":
            return gp if positive else fp
        if op == "max":
            return fp if positive else gp
        if positive:    # star: f + g - 1; oplus: 1; impl (f <= g): 1
            return h if op == "star" else one
        # star: 0; oplus: f + g; impl: 1 - f + g
        return zero if op == "star" else h.shift(1)

    tagged = []
    for j, (i1, i2) in enumerate(tags):
        fp, gp = f.maps[i1], g.maps[i2]
        h = locus(fp, gp)
        hp = _scaled(h.a[0] + h.b)[0]
        if f.dim == 1:
            geom = tuple(refined.vertices[i][0] for i in refined.cells[j])
            lo, hi = (hp[0] * x.numerator + hp[1] * x.denominator for x in geom)
            if lo < 0 < hi or hi < 0 < lo:
                root = Fraction(-h.b[0], h.a[0][0])
                tagged.append(((geom[0], root), (fp, gp, h, lo > 0)))
                tagged.append(((root, geom[1]), (fp, gp, h, hi > 0)))
            else:
                tagged.append((geom, (fp, gp, h, lo >= 0 and hi >= 0)))
            continue
        geom = [refined._triples[i] for i in refined.cells[j]]
        cuts = _cuts((hp,), geom)     # None where the locus is <= 0 on the cell
        if cuts:
            tagged.append((_clip(geom, hp), (fp, gp, h, True)))
            tagged.append((_clip(geom, tuple(-c for c in hp)), (fp, gp, h, False)))
        else:
            tagged.append((geom, (fp, gp, h, cuts is not None)))

    build = _build_complex_1d if f.dim == 1 else _build_complex_2d
    out_complex, out_tags = build(tagged)
    return PWLMap(out_complex, tuple(branch(*tag) for tag in out_tags))


def pwl_combine(op: str, f: PWLMap, g: Optional[PWLMap] = None) -> PWLMap:
    if op == "neg":
        if g is not None:
            raise ValueError("neg is unary")
        _one_row(f)
        return PWLMap(f.complex, tuple(m.negate() for m in f.maps))
    if g is None:
        raise ValueError(f"{op} is binary")
    _one_row(f, g)
    return _combine(op, f, g)


def _compose_affine(fp: AffineMap, sp: AffineMap) -> AffineMap:
    """fp after sp: a row c.y + e under y = A x + b is (cA) x + (c.b + e),
    so integer pieces compose to integer pieces."""
    cols = tuple(zip(*sp.a))
    return AffineMap(tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in fp.a),
                     tuple(sum(map(mul, row, sp.b)) + e for row, e in zip(fp.a, fp.b)))


def _int_piece(m: AffineMap) -> tuple:
    """m over the least common denominator s > 0 of its entries: (a, b, s),
    x -> (a x + b) / s, in dimension 1, and (a00, a01, a10, a11, b0, b1, s),
    x -> (A x + b) / s, in dimension 2. The integers have no common factor."""
    c, s = _scaled(sum(m.a, ()) + m.b)
    return (*c, s)


def _after(t: tuple, m: tuple) -> tuple:
    """The integer map t after the integer map m (_int_piece's form), reduced."""
    if len(m) == 3:
        c, d, u = t
        a, b, s = m
        out = (c * a, c * b + d * s, s * u)
    else:
        c00, c01, c10, c11, d0, d1, u = t
        a00, a01, a10, a11, b0, b1, s = m
        out = (c00 * a00 + c01 * a10, c00 * a01 + c01 * a11, c10 * a00 + c11 * a10,
               c10 * a01 + c11 * a11, c00 * b0 + c01 * b1 + d0 * s,
               c10 * b0 + c11 * b1 + d1 * s, s * u)
    if out[-1] != 1:
        g = math.gcd(*out)
        out = tuple(x // g for x in out)
    return out


def _cut(pairs: Sequence, v: CellComplex):
    """Each (geometry, integer map) pair's geometry cut by the cells of v
    pulled back through its map into the cube of v: yields (piece, index of
    the pair, cell of v). The pieces tile each geometry up to zero area.

    In dimension 1 a geometry is an interval (lo, hi) of Fractions. The ends
    of v's cells inside its image are found by bisection and pulled back; a
    flat map keeps it whole. In dimension 2 it is a convex ccw polygon of
    integer triples, and it meets the cells of v whose bounding box meets its
    image's. A cell that an edge of either one separates from the image is
    skipped, a cell inside the image is pulled back by its vertices, and else
    the polygon is clipped by the half-planes of the cell that cut the image,
    pulled back; such a piece may have zero area or repeated points. A
    singular map sends the polygon onto a segment or a point, whose
    preimages under cells of v that share an edge or vertex coincide; each is
    yielded once.
    """
    bounds = v._bounds
    if v.dim == 1:
        ends = [r for _, r in bounds]
        for k, ((x_lo, x_hi), (a, b, s)) in enumerate(pairs):
            if a == 0:
                starts, cells = [x_lo], [bisect.bisect_left(ends, Fraction(b, s))]
            else:
                # v's cells first..last meet the open image (y0, y1), cut at
                # the ends strictly inside it
                y0, y1 = (Fraction(a * x.numerator + b * x.denominator, s * x.denominator)
                          for x in ((x_lo, x_hi) if a > 0 else (x_hi, x_lo)))
                first, last = bisect.bisect_right(ends, y0), bisect.bisect_left(ends, y1)
                inner, cells = ends[first:last], range(first, last + 1)
                if a < 0:
                    inner, cells = inner[::-1], cells[::-1]
                starts = [x_lo] + [Fraction(s * e.numerator - b * e.denominator, a * e.denominator)
                                   for e in inner]
            for lo, hi, i in zip(starts, starts[1:] + [x_hi], cells):
                yield (lo, hi), k, bounds[i][0]
        return

    # bounding boxes in floats, rounded in order: a box test that skips only
    # cells of v the image misses
    boxes = []
    for i, planes in bounds:
        tri = [v._triples[k] for k in v.cells[i]]
        xs, ys = [p[0] / p[2] for p in tri], [p[1] / p[2] for p in tri]
        boxes.append((min(xs), max(xs), min(ys), max(ys), i, planes, tri))
    for k, (poly, (a00, a01, a10, a11, b0, b1, s)) in enumerate(pairs):
        det = a00 * a11 - a01 * a10
        # a half-plane of v at the image's vertices (M x + c) / s has the
        # values of its pullback at the polygon's
        img = [(a00 * x + a01 * y + b0 * z, a10 * x + a11 * y + b1 * z, s * z)
               for x, y, z in poly]
        xs, ys = [p[0] / p[2] for p in img], [p[1] / p[2] for p in img]
        xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
        # the image's ccw edges, unless the map is singular
        edges = [_cross(p, q) if det > 0 else _cross(q, p)
                 for p, q in zip(img, img[1:] + img[:1])] if det else ()
        seen = None if det else set()
        for bx0, bx1, by0, by1, i, planes, vtri in boxes:
            if bx0 > xhi or bx1 < xlo or by0 > yhi or by1 < ylo:
                continue
            cuts = _cuts(planes, img)
            if cuts is None:
                continue
            if cuts and edges:
                inside = _cuts(edges, vtri)
                if inside is None:
                    continue
                if not inside:
                    # v's cell lies in the image: its vertices y pulled
                    # back are adj(M) (s y - c) / det M
                    yield ([_reduced(a11 * (s * x - b0 * z) - a01 * (s * y - b1 * z),
                                     a00 * (s * y - b1 * z) - a10 * (s * x - b0 * z),
                                     det * z) for x, y, z in vtri], k, i)
                    continue
            piece = poly
            for c0, c1, c2 in cuts:
                piece = _clip(piece, (c0 * a00 + c1 * a10, c0 * a01 + c1 * a11,
                                      c0 * b0 + c1 * b1 + c2 * s))
                if not piece:
                    break
            if seen is not None:
                key = tuple(_canon(piece))
                if key in seen:
                    continue
                seen.add(key)
            yield piece, k, i


def _pullback(w: CellComplex, pieces: Sequence, v: CellComplex):
    """The cells of w cut by v pulled back through w's affine pieces (one per
    cell, each into the cube of v; _cut): (complex, tags), each tag (cell of
    w, cell of v)."""
    maps = [_int_piece(m) for m in pieces]
    if w.dim == 1:
        order = [j for j, _ in w._bounds]
        pairs = [((w.vertices[w.cells[j][0]][0], hi), maps[j]) for j, hi in w._bounds]
        return _build_complex_1d([(g, (order[k], i)) for g, k, i in _cut(pairs, v)])
    pairs = [([w._triples[i] for i in cell], maps[j]) for j, cell in enumerate(w.cells)]
    return _build_complex_2d([(g, (j, i)) for g, j, i in _cut(pairs, v)])


def pwl_compose(f: PWLMap, s: PWLMap) -> PWLMap:
    """f after s, for a self-map s of the cube (as many rows as coordinates),
    on the pullback of f's complex through each cell of s."""
    if s.rows != s.dim or f.dim != s.dim:
        raise ValueError(f"need a self-map of the {f.dim}-cube, got "
                         f"{s.rows} rows on dimension {s.dim}")
    complex_, tags = _pullback(s.complex, s.maps, f.complex)
    return PWLMap(complex_, tuple(_compose_affine(f.maps[i], s.maps[j]) for j, i in tags))


class CellBudgetError(OutOfReach):
    """Raised when an exact compilation grows past its cell budget."""


def _charge(work: list, cell_budget: Optional[int], f: PWLMap, g: PWLMap) -> None:
    """Charge the refinement of f and g, the product of their cell counts, to
    the work of a compilation under a cell budget (None: none), which may
    spend at most 50 per cell of the budget."""
    if cell_budget is not None:
        work[0] += len(f.complex.cells) * len(g.complex.cells)
        if work[0] > 50 * cell_budget:
            raise CellBudgetError(f"refinement work exceeds the {cell_budget}-cell budget")


def pwl_from_formula(f: Formula, dim: Optional[int] = None,
                     cell_budget: Optional[int] = None) -> PWLMap:
    """Exact Lukasiewicz function of a formula with variables among x0..x_{dim-1}.

    Intermediate refinements can grow combinatorially on adversarial inputs;
    an optional cell budget turns that into a CellBudgetError instead of an
    open-ended computation.
    """
    n = arity_of(f)
    if dim is None:
        dim = max(n, 1)
    _check_dim(dim)
    if n > dim:
        raise ValueError(f"formula uses x{n - 1}, beyond dim {dim}")

    work = [0]

    def step(node: Formula, a=None, b=None) -> PWLMap:
        op = node.op
        if op == "var":
            out = _coordinate(dim, node.index)
        elif op == "zero":
            out = _constant(dim, 0)
        elif op == "one":
            out = _constant(dim, 1)
        elif op == "neg":
            out = pwl_combine("neg", a)
        else:
            _charge(work, cell_budget, a, b)
            key = {"star": "star", "impl": "impl", "and": "min", "or": "max",
                   "oplus": "oplus"}[op]
            out = _combine(key, a, b)
        if cell_budget is not None and len(out.complex.cells) > cell_budget:
            raise CellBudgetError(
                f"compilation exceeded {cell_budget} cells")
        return out

    return fold(f, step)


def pwl_map_from_formulas(formulas: Sequence[Formula],
                          cell_budget: Optional[int] = None) -> PWLMap:
    """The map x -> (g(x) for g in formulas) of the cube, for 1..MAX_DIM
    formulas in as many variables: one compiled row per formula, stacked on
    the common refinement of their complexes, which is charged to the cell
    budget as pwl_from_formula charges each of its refinements."""
    _check_dim(len(formulas))
    f, *rest = [pwl_from_formula(g, len(formulas), cell_budget) for g in formulas]
    for g in rest:
        _charge([0], cell_budget, f, g)
        complex_, tags = _refine_tagged(f.complex, g.complex)
        f = PWLMap(complex_, tuple(AffineMap(f.maps[i].a + g.maps[j].a,
                                             f.maps[i].b + g.maps[j].b) for i, j in tags))
    return f


def pwl_min_value(f: PWLMap):
    """(minimum value, witness vertex); exact, attained at a complex vertex."""
    _one_row(f)
    w = f.complex
    return min(((_row_value(m, w.vertices[i]), w.vertices[i])
                for cell, m in zip(w.cells, f.maps) for i in cell), key=lambda t: t[0])


def _refined_values(f: PWLMap, g: PWLMap):
    """(p, u, v, d) for each vertex p of each cell of a common refinement of
    two one-row maps, cell by cell, with f(p) = u/d and g(p) = v/d for
    integers u, v and d > 0. Both are affine on such a cell, so these
    vertices decide pointwise relations between f and g and hold their
    extremes on each cell."""
    _one_row(f, g)
    refined, tags = _refine_tagged(f.complex, g.complex)
    n = f.dim + 1
    for j, (i1, i2) in enumerate(tags):
        fm, gm = f.maps[i1], g.maps[i2]
        c, s = _scaled(fm.a[0] + fm.b + gm.a[0] + gm.b)
        cf, cg = c[:n], c[n:]
        for i in refined.cells[j]:
            t = refined._triples[i]
            yield refined.vertices[i], sum(map(mul, cf, t)), sum(map(mul, cg, t)), s * t[-1]


def pwl_le(f: PWLMap, g: PWLMap) -> bool:
    """Pointwise f <= g, decided exactly on a common refinement."""
    return all(u <= v for _, u, v, _ in _refined_values(f, g))


def pwl_equal(f: PWLMap, g: PWLMap) -> bool:
    return all(u == v for _, u, v, _ in _refined_values(f, g))


def _unit_set_min_and_power(cw, rw):
    """(min of rw over {cw = 1} or None if empty, its first witness, the least
    k with cw^k <= rw given rw = 1 on {cw = 1}), from the common refinement's
    vertices.

    On a cell, cw <= 1 is affine, so it is 1 on the face its vertices of
    value 1 span. Elsewhere cw^k = max(0, 1 - k (1 - cw)) <= rw asks for
    k >= (1 - rw) / (1 - cw); on a cell both sides vanish on that face, so by
    the mediant inequality the ratio peaks at a vertex where cw < 1.
    """
    low = witness = None
    ratio = (0, 1)
    # at each vertex cw = c/d and rw = r/d; fractions compare cross-multiplied
    for p, c, r, d in _refined_values(cw, rw):
        if c == d:
            if low is None or r * low[1] < low[0] * d:
                low, witness = (r, d), p
        elif (d - r) * ratio[1] > ratio[0] * (d - c):
            ratio = (d - r, d - c)
    return None if low is None else Fraction(*low), witness, max(1, -(-ratio[0] // ratio[1]))


def _itinerary(box, s: Optional[PWLMap] = None):
    """The pieces of a box's forward itinerary under the self-map s: for
    j = 0, 1, ..., a list of (geometry, integer map M) pairs in _cut's formats
    whose geometries tile the box up to zero area, with s^j = M on each. Step
    0 is the box under the identity. Step j + 1 cuts each piece by the cells
    of s pulled back through M (_cut), and the child in cell i keeps s_i
    after M. Without s every step is step 0.

    The integral of a function f after s^j over the box is
    _pieces_integral(f, step j), so no iterate f after s^j is assembled."""
    if len(box) == 1:
        pieces = [(box[0], (1, 0, 1))]
    else:
        (x0, x1), (y0, y1) = box
        corners = [_reduced(x.numerator * y.denominator, y.numerator * x.denominator,
                            x.denominator * y.denominator)
                   for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
        pieces = [(corners, (1, 0, 0, 1, 0, 0, 1))]
    maps = () if s is None else [_int_piece(m) for m in s.maps]
    while True:
        yield pieces
        if maps:
            # a polygon is kept ccw and without repeated points, and dropped
            # if it has zero area
            pieces = [(g, _after(maps[i], pieces[k][1]))
                      for piece, k, i in _cut(pieces, s.complex)
                      if (g := piece if s.dim == 1 else _canon(piece))]


def _pieces_integral(f: PWLMap, pieces) -> Fraction:
    """The exact integral of the one-row map f after each piece's map over
    its geometry, summed over the pieces of an itinerary step: each piece is
    cut by the cells of f (_cut), where f after its map is one affine row."""
    rows = [_int_piece(m) for m in f.maps]
    # numerators are summed per denominator
    sums: dict[int, int] = {}
    if f.dim == 1:
        # (c x + e) / d integrates over [lo, hi] to (hi - lo) (c (lo + hi) + 2 e) / 2d,
        # which is x (c (p h + l q) + 2 e p q) / (2 d (p q)^2) for lo = l / p,
        # hi = h / q and x = h p - l q
        for (lo, hi), k, i in _cut(pieces, f.complex):
            c, e, d = _after(rows[i], pieces[k][1])
            l, p, h, q = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            den = 2 * d * (p * q) ** 2
            sums[den] = sums.get(den, 0) + (h * p - l * q) * (c * (p * h + l * q) + 2 * e * p * q)
        return sum((Fraction(n, d) for d, n in sums.items()), F0)
    # a convex polygon fans into triangles pqr of one orientation; each adds
    # |det(p, q, r)| (c.p q_W r_W + c.q p_W r_W + c.r p_W q_W) / (6 d (p_W q_W r_W)^2)
    # for the row c / d
    for poly, k, i in _cut(pieces, f.complex):
        e0, e1, e2, u = rows[i]
        a00, a01, a10, a11, b0, b1, s = pieces[k][1]
        c = (e0 * a00 + e1 * a10, e0 * a01 + e1 * a11, e0 * b0 + e1 * b1 + e2 * s)
        for p, q, r in _fan(poly):
            w = p[2] * q[2] * r[2]
            num = _dot(c, p) * q[2] * r[2] + _dot(c, q) * p[2] * r[2] + _dot(c, r) * p[2] * q[2]
            d = s * u * w * w
            sums[d] = sums.get(d, 0) + abs(_det(p, q, r)) * num
    return sum((Fraction(n, 6 * d) for d, n in sums.items()), F0)


def pwl_integral(f: PWLMap, box=None) -> Fraction:
    """Exact integral of f over a rational box (defaults to the whole cube):
    step 0 of the box's itinerary, the box under the identity, cut by the
    cells of f."""
    _one_row(f)
    if box is None:
        box = [(F0, F1)] * f.dim
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    if (len(box) == f.dim and all(0 <= lo <= hi <= 1 for lo, hi in box)
            and any(lo == hi for lo, hi in box)):
        warnings.warn("integration box has zero measure")
        return F0
    box = _checked_box("integration", box, f.dim)
    return _pieces_integral(f, next(_itinerary(box)))


# -- synthesis: PWL -> formula ---------------------------------------------------

def _integer(x) -> int:
    if Fraction(x).denominator != 1:
        raise ValueError(f"non-integer coefficient {x}: no clamped formula")
    return int(x)


MAX_CLAMP_UNITS = 1000   # most unit literals in one clamped affine formula


def clamp_affine_formula(coeffs: Sequence[int], const: int) -> Formula:
    """Formula whose Lukasiewicz value is ((sum coeffs[i]*x_i + const) v 0) ^ 1.

    Built by peeling one unit literal y at a time with the exact identity
    clamp(t + y) = (clamp(t) (+) y) * clamp(t + 1), valid for any y with
    range inside [0,1]. Coefficients and constant must be integers (ints or
    integral Fractions); anything else raises ValueError, and so does a sum
    of |coefficients| (the unit literals) above MAX_CLAMP_UNITS.
    """
    base = _integer(const)
    coeffs = [_integer(c) for c in coeffs]
    count = sum(map(abs, coeffs))
    if count > MAX_CLAMP_UNITS:
        raise ValueError(f"a clamped formula with {count} unit literals exceeds "
                         f"the cap of {MAX_CLAMP_UNITS}")
    units: list[Formula] = []
    for i, c in enumerate(coeffs):
        if c > 0:
            units.extend([Var(i)] * c)
        elif c < 0:
            units.extend([Neg(Var(i))] * (-c))
            base += c  # c*x = |c|*(!x) - |c|

    # level j holds clamp(base + s + the first j units) for s = 0..len(units) - j
    level = [ONE if base + s >= 1 else ZERO for s in range(len(units) + 1)]
    for y in units:
        nxt = []
        for low, high in zip(level, level[1:]):
            if high is ZERO:
                out = ZERO
            elif low is ONE:
                out = high
            else:
                left = y if low is ZERO else OPlus(low, y)
                out = left if high is ONE else Star(left, high)
            nxt.append(out)
        level = nxt
    return level[0]


def _synthesize_formula(f: PWLMap) -> Formula:
    """Lattice-of-clamped-pieces formula equal to the one-row map f (any dim <= 2).

    f = max over cells j of min over {i : piece_i >= piece_j on cell j} of
    the clamped affine piece_i; clamping distributes over min/max, so the
    leaves are clamp_affine_formula of the raw pieces.
    """
    maps = f.maps
    rows = [(m.a[0], m.b[0]) for m in maps]
    # every piece over one common denominator s: piece i at a vertex triple t
    # is (scaled[i] . t) / (s t_W)
    n = f.dim + 1
    flat = _scaled([x for m in maps for x in m.a[0] + m.b])[0]
    scaled = [flat[k:k + n] for k in range(0, len(flat), n)]
    clamped = cache(lambda row: clamp_affine_formula(*row))
    seen_terms, terms = set(), []
    for j, cell in enumerate(f.complex.cells):
        pts = [f.complex._triples[i] for i in cell]
        own = [sum(map(mul, scaled[j], t)) for t in pts]
        dominating = [rows[i] for i, c in enumerate(scaled)
                      if all(sum(map(mul, c, t)) >= v for t, v in zip(pts, own))]
        key = frozenset(dominating)
        if key not in seen_terms:
            seen_terms.add(key)
            terms.append(reduce(And, map(clamped, dominating)))
    return reduce(Or, terms) if terms else ZERO


def pwl_to_formula_1d(f: PWLMap) -> Formula:
    _one_row(f)
    if f.dim != 1:
        raise ValueError("synthesis is exposed for dimension 1 only")
    return _synthesize_formula(f)


# -- affine maps between simplices ----------------------------------------------

def affine_from_simplex_pair(source: Sequence, target: Sequence) -> AffineMap:
    """The unique affine map sending source simplex vertices to target's, in
    order: row i and constant b_i solve (v, 1) . (row, b_i) = w_i for each
    pair of vertices (v, w), all rows in one Gauss-Jordan elimination."""
    src = [_frac_point(p) for p in source]
    tgt = [_frac_point(p) for p in target]
    d = len(src[0])
    if len(src) != d + 1 or len(tgt) != d + 1:
        raise ValueError("need d+1 vertices for a d-simplex")
    _check_dim(d)
    rows = [[*v, F1, *w] for v, w in zip(src, tgt)]
    for c in range(d + 1):
        k = next((k for k in range(c, d + 1) if rows[k][c]), None)
        if k is None:
            raise ValueError("degenerate source simplex")
        pivot = [x / rows[k][c] for x in rows[k]]
        rows[k] = rows[c]
        rows = [pivot if r == c else [x - row[c] * y for x, y in zip(row, pivot)]
                for r, row in enumerate(rows)]
    cols = list(zip(*(row[d + 1:] for row in rows)))
    return AffineMap(tuple(col[:d] for col in cols), tuple(col[d] for col in cols))


# -- JSON exchange ----------------------------------------------------------------

def _rat_to_json(x: Fraction):
    return [str(x.numerator), str(x.denominator)]

def _rat_from_json(pair) -> Fraction:
    num, den = json_list(pair)
    return Fraction(json_int(num, text=True), json_int(den, text=True))


def _complex_from_json(obj) -> CellComplex:
    return CellComplex(
        json_field(obj, "dim", json_int),
        json_field(obj, "vertices",
                   lambda vs: [tuple(_rat_from_json(x) for x in v) for v in vs]),
        json_field(obj, "cells",
                   lambda cs: [tuple(map(json_int, json_list(c))) for c in json_list(cs)]))


def _map_from_json(obj, field: str, read_map) -> PWLMap:
    complex_ = _complex_from_json(obj)
    s = PWLMap(complex_, json_field(obj, field, lambda ms: tuple(map(read_map, ms))))
    s.validate()
    return s


def _complex_to_json(w: CellComplex) -> dict:
    return {
        "dim": w.dim,
        "vertices": [[_rat_to_json(x) for x in v] for v in w.vertices],
        "cells": [list(c) for c in w.cells],
    }


def pwl_to_json(f: PWLMap) -> dict:
    """A one-row map with integer pieces {"a": [...], "b": k}."""
    _one_row(f)
    return {**_complex_to_json(f.complex),
            "pieces": [{"a": list(m.a[0]), "b": m.b[0]} for m in f.maps]}


def pwl_from_json(obj: dict) -> PWLMap:
    return _map_from_json(obj, "pieces", lambda p: AffineMap(
        (tuple(map(json_int, json_list(p["a"]))),), (json_int(p["b"]),)))


def pwl_map_to_json(s: PWLMap) -> dict:
    """Any map, with rational entries {"a": [[...], ...], "b": [...]}."""
    return {**_complex_to_json(s.complex),
            "maps": [{"a": [[_rat_to_json(x) for x in row] for row in m.a],
                      "b": [_rat_to_json(x) for x in m.b]} for m in s.maps]}


def pwl_map_from_json(obj: dict) -> PWLMap:
    return _map_from_json(obj, "maps", lambda m: AffineMap(
        tuple(tuple(_rat_from_json(x) for x in row) for row in m["a"]),
        tuple(_rat_from_json(x) for x in m["b"])))
