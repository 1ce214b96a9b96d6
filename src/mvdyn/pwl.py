"""Exact piecewise-linear calculus over rational cell complexes in dimension <= 2.

Functions here represent continuous [0,1]^d -> [0,1] maps that are affine with
integer coefficients on each cell of a rational simplicial complex covering the
unit interval (d=1) or unit square (d=2). All arithmetic is exact.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .formula import (
    Formula, Var, Neg, And, Or, OPlus, Star, ZERO, ONE, arity_of,
)

Point = tuple  # tuple of Fractions, length = dim

F0 = Fraction(0)
F1 = Fraction(1)


def _frac_point(p) -> Point:
    return tuple(Fraction(v) for v in p)


# -- exact planar primitives ---------------------------------------------------

def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _area2(poly) -> Fraction:
    s = F0
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        s += p[0] * q[1] - q[0] * p[1]
    return s


def _clip(poly, h):
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


def _canon(poly):
    """Deduplicate and drop collinear boundary points; ccw, lex-min first.

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
    out = []
    m = len(pts)
    for i in range(m):
        if _cross(pts[i - 1], pts[i], pts[(i + 1) % m]) != 0:
            out.append(pts[i])
    if len(out) < 3:
        return []
    if _area2(out) < 0:
        out.reverse()
    k = out.index(min(out))
    return out[k:] + out[:k]


def _poly_intersection(p1, p2):
    """p1 cap p2 for convex ccw polygons, via successive halfplane clips."""
    out = list(p1)
    n = len(p2)
    for i in range(n):
        a, b = p2[i], p2[(i + 1) % n]
        # inside of the directed edge a->b for a ccw polygon: cross(a, b, x) >= 0
        h = (-(b[1] - a[1]), (b[0] - a[0]), (b[1] - a[1]) * a[0] - (b[0] - a[0]) * a[1])
        out = _clip(out, h)
        if not out:
            return []
    return out


def _on_open_segment(a, b, v) -> bool:
    if _cross(a, b, v) != 0:
        return False
    dot = (v[0] - a[0]) * (b[0] - a[0]) + (v[1] - a[1]) * (b[1] - a[1])
    if dot <= 0:
        return False
    ln = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return dot < ln


def _fan(poly):
    """Triangulate a canonical convex polygon by fanning from its first vertex."""
    tris = []
    v0 = poly[0]
    for i in range(1, len(poly) - 1):
        a, b = poly[i], poly[i + 1]
        if _cross(v0, a, b) != 0:
            tris.append((v0, a, b))
    return tris


def _centroid(poly):
    n = len(poly)
    return (sum(p[0] for p in poly) / n, sum(p[1] for p in poly) / n)


# -- cell complexes ------------------------------------------------------------

class CellComplex:
    """Rational simplicial complex covering [0,1]^dim, dim in {1, 2}.

    cells hold vertex indices: pairs (lo, hi) for dim 1 (in left-to-right
    order), ccw triples for dim 2.
    """

    def __init__(self, dim: int, vertices: Sequence[Point], cells: Sequence[tuple]):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.dim = dim
        self.vertices = [_frac_point(v) for v in vertices]
        self.cells = [tuple(c) for c in cells]

    def cell_points(self, j: int):
        return tuple(self.vertices[i] for i in self.cells[j])

    def locate(self, p: Point) -> int:
        """Index of the first cell containing p."""
        p = _frac_point(p)
        for v in p:
            if not (0 <= v <= 1):
                raise ValueError(f"point {p} outside the unit cube")
        if self.dim == 1:
            for j, (i0, i1) in enumerate(self.cells):
                if self.vertices[i0][0] <= p[0] <= self.vertices[i1][0]:
                    return j
        else:
            for j in range(len(self.cells)):
                tri = self.cell_points(j)
                if all(_cross(tri[i], tri[(i + 1) % 3], p) >= 0 for i in range(3)):
                    return j
        raise ValueError(f"point {p} not covered by the complex")

    def measure(self, j: int) -> Fraction:
        pts = self.cell_points(j)
        if self.dim == 1:
            return pts[1][0] - pts[0][0]
        return _area2(pts) / 2

    def validate(self) -> None:
        if self.dim == 1:
            for i0, i1 in self.cells:
                if not self.vertices[i0][0] < self.vertices[i1][0]:
                    raise ValueError("degenerate or reversed 1-cell")
            order = sorted(range(len(self.cells)), key=lambda j: self.vertices[self.cells[j][0]][0])
            lo = F0
            for j in order:
                a, b = self.cell_points(j)
                if a[0] != lo:
                    raise ValueError("cells do not partition [0,1]")
                lo = b[0]
            if lo != 1:
                raise ValueError("cells do not reach 1")
            return
        total = F0
        polys = []
        for j in range(len(self.cells)):
            tri = self.cell_points(j)
            a2 = _area2(tri)
            if a2 <= 0:
                raise ValueError(f"cell {j} is degenerate or not ccw")
            total += a2
            polys.append(tri)
        if total != 2:
            raise ValueError("cells do not cover the unit square exactly")
        vset = [set(c) for c in self.cells]
        for j in range(len(polys)):
            for k in range(j + 1, len(polys)):
                inter = _poly_intersection(polys[j], polys[k])
                if not inter:
                    continue
                if _canon(inter):
                    raise ValueError(f"cells {j} and {k} overlap")
                shared = vset[j] & vset[k]
                shared_pts = {self.vertices[i] for i in shared}
                for p in inter:
                    if p not in shared_pts:
                        raise ValueError(f"cells {j} and {k} meet outside a common face")


def unit_complex(dim: int) -> CellComplex:
    if dim == 1:
        return CellComplex(1, [(F0,), (F1,)], [(0, 1)])
    verts = [(F0, F0), (F1, F0), (F1, F1), (F0, F1)]
    return CellComplex(2, verts, [(0, 1, 2), (0, 2, 3)])


def _build_complex_2d(tagged_polys):
    """Assemble a face-to-face triangulation from tagged convex polygons.

    The polygons must tile the square with disjoint interiors and carry every
    arrangement vertex of the tiling on their boundaries as polygon vertices.
    Returns (CellComplex, tags aligned with cells).
    """
    polys = []
    for poly, tag in tagged_polys:
        cp = _canon(poly)
        if cp:
            polys.append((cp, tag))

    tris = []
    for poly, tag in polys:
        for t in _fan(poly):
            tris.append((t, tag))

    # conformity: vertices of other cells may sit inside a triangle's edges
    vert_set = sorted({p for poly, _ in polys for p in poly})
    out = []
    for tri, tag in tris:
        cycle = []
        hanging = False
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            cycle.append(a)
            x_lo, x_hi = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
            y_lo, y_hi = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
            hang = []
            for k in range(bisect.bisect_left(vert_set, (x_lo,)), len(vert_set)):
                v = vert_set[k]
                if v[0] > x_hi:
                    break
                if y_lo <= v[1] <= y_hi and _on_open_segment(a, b, v):
                    hang.append(v)
            if hang:
                hanging = True
                hang.sort(key=lambda v: (v[0] - a[0]) ** 2 + (v[1] - a[1]) ** 2)
                cycle.extend(hang)
        if not hanging:
            out.append((tri, tag))
        else:
            # fan from an interior Steiner point so every boundary point
            # becomes a real vertex (apex on a collinear run would drop some)
            c = _centroid(cycle)
            m = len(cycle)
            for i in range(m):
                t = (c, cycle[i], cycle[(i + 1) % m])
                if _cross(*t) != 0:
                    out.append((t, tag))

    all_pts = sorted({p for t, _ in out for p in t})
    index = {p: i for i, p in enumerate(all_pts)}
    cells, tags = [], []
    order = sorted(range(len(out)), key=lambda i: tuple(sorted(index[p] for p in out[i][0])))
    for i in order:
        t, tag = out[i]
        if _area2(t) < 0:
            t = (t[0], t[2], t[1])
        cells.append(tuple(index[p] for p in t))
        tags.append(tag)
    return CellComplex(2, all_pts, cells), tags


def _build_complex_1d(tagged_intervals):
    cuts = sorted({x for (lo, hi), _ in tagged_intervals for x in (lo, hi)})
    index = {x: i for i, x in enumerate(cuts)}
    cells, tags = [], []
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        tag = None
        for (lo, hi), t in tagged_intervals:
            if lo <= mid <= hi:
                tag = t
                break
        if tag is None:
            raise ValueError("intervals do not cover [0,1]")
        cells.append((index[a], index[b]))
        tags.append(tag)
    return CellComplex(1, [(x,) for x in cuts], cells), tags


def _refine_tagged(w1: CellComplex, w2: CellComplex):
    """Common refinement; each output cell tagged with its (w1, w2) parents."""
    if w1.dim != w2.dim:
        raise ValueError("dimension mismatch")
    if w1.dim == 1:
        tagged = []
        for i in range(len(w1.cells)):
            a1, b1 = (p[0] for p in w1.cell_points(i))
            for j in range(len(w2.cells)):
                a2, b2 = (p[0] for p in w2.cell_points(j))
                lo, hi = max(a1, a2), min(b1, b2)
                if lo < hi:
                    tagged.append(((lo, hi), (i, j)))
        return _build_complex_1d(tagged)
    tagged = []
    for i in range(len(w1.cells)):
        t1 = w1.cell_points(i)
        for j in range(len(w2.cells)):
            inter = _poly_intersection(t1, w2.cell_points(j))
            if inter and _canon(inter):
                tagged.append((inter, (i, j)))
    return _build_complex_2d(tagged)


def common_refinement(w1: CellComplex, w2: CellComplex) -> CellComplex:
    return _refine_tagged(w1, w2)[0]


# -- PWL functions --------------------------------------------------------------

@dataclass(frozen=True)
class AffinePiece:
    """x -> a . x + b with integer coefficients."""

    a: tuple
    b: int

    def value(self, p: Point) -> Fraction:
        return sum(c * x for c, x in zip(self.a, p)) + self.b

    def __add__(self, other):
        return AffinePiece(tuple(x + y for x, y in zip(self.a, other.a)), self.b + other.b)

    def __sub__(self, other):
        return AffinePiece(tuple(x - y for x, y in zip(self.a, other.a)), self.b - other.b)

    def shift(self, k: int):
        return AffinePiece(self.a, self.b + k)

    def negate(self):
        return AffinePiece(tuple(-x for x in self.a), 1 - self.b)


class PWLFunction:
    def __init__(self, complex_: CellComplex, pieces: Sequence[AffinePiece]):
        if len(pieces) != len(complex_.cells):
            raise ValueError("one piece per cell required")
        self.complex = complex_
        self.pieces = list(pieces)

    @property
    def dim(self) -> int:
        return self.complex.dim

    def value(self, p) -> Fraction:
        p = _frac_point(p)
        return self.pieces[self.complex.locate(p)].value(p)

    def validate(self) -> None:
        self.complex.validate()
        vertex_vals: dict[int, Fraction] = {}
        for j, cell in enumerate(self.complex.cells):
            for i in cell:
                v = self.pieces[j].value(self.complex.vertices[i])
                if not (0 <= v <= 1):
                    raise ValueError(f"value {v} at vertex {i} outside [0,1]")
                if vertex_vals.setdefault(i, v) != v:
                    raise ValueError(f"pieces disagree at vertex {i}: not continuous")


def pwl_eval(f: PWLFunction, p) -> Fraction:
    return f.value(p)


def _constant(dim: int, k: int) -> PWLFunction:
    w = unit_complex(dim)
    piece = AffinePiece((0,) * dim, k)
    return PWLFunction(w, [piece] * len(w.cells))


def _coordinate(dim: int, i: int) -> PWLFunction:
    w = unit_complex(dim)
    a = tuple(1 if k == i else 0 for k in range(dim))
    piece = AffinePiece(a, 0)
    return PWLFunction(w, [piece] * len(w.cells))


def _signs_on_cell(h: AffinePiece, pts) -> tuple:
    return tuple(h.value(p) for p in pts)


def _combine(op: str, f: PWLFunction, g: PWLFunction) -> PWLFunction:
    """min/max/star/oplus/impl of two PWL functions, exactly."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    refined, tags = _refine_tagged(f.complex, g.complex)

    def locus(fp: AffinePiece, gp: AffinePiece) -> AffinePiece:
        if op in ("min", "max"):
            return fp - gp
        if op in ("star", "oplus"):
            return (fp + gp).shift(-1)
        if op == "impl":
            return gp - fp
        raise ValueError(f"unknown op {op!r}")

    def branch(fp: AffinePiece, gp: AffinePiece, positive: bool) -> AffinePiece:
        dim = f.dim
        if op == "min":
            return gp if positive else fp
        if op == "max":
            return fp if positive else gp
        if op == "star":
            return (fp + gp).shift(-1) if positive else AffinePiece((0,) * dim, 0)
        if op == "oplus":
            return AffinePiece((0,) * dim, 1) if positive else fp + gp
        # impl: positive means f <= g
        return AffinePiece((0,) * dim, 1) if positive else (gp - fp).shift(1)

    tagged = []
    for j in range(len(refined.cells)):
        i1, i2 = tags[j]
        fp, gp = f.pieces[i1], g.pieces[i2]
        h = locus(fp, gp)
        pts = refined.cell_points(j)
        vals = _signs_on_cell(h, pts)
        geom = tuple(p for p in pts) if f.dim == 2 else (pts[0][0], pts[1][0])
        if all(v >= 0 for v in vals):
            tagged.append((geom, (fp, gp, True)))
        elif all(v <= 0 for v in vals):
            tagged.append((geom, (fp, gp, False)))
        else:
            if f.dim == 1:
                lo, hi = pts[0][0], pts[1][0]
                root = Fraction(-h.b, h.a[0])
                first_pos = vals[0] > 0
                tagged.append(((lo, root), (fp, gp, first_pos)))
                tagged.append(((root, hi), (fp, gp, not first_pos)))
            else:
                hp = (Fraction(h.a[0]), Fraction(h.a[1]), Fraction(h.b))
                pos = _clip(list(geom), hp)
                neg = _clip(list(geom), tuple(-c for c in hp))
                if _canon(pos):
                    tagged.append((pos, (fp, gp, True)))
                if _canon(neg):
                    tagged.append((neg, (fp, gp, False)))

    build = _build_complex_1d if f.dim == 1 else _build_complex_2d
    out_complex, out_tags = build(tagged)
    pieces = [branch(fp, gp, positive) for (fp, gp, positive) in out_tags]
    return PWLFunction(out_complex, pieces)


def pwl_combine(op: str, f: PWLFunction, g: Optional[PWLFunction] = None) -> PWLFunction:
    if op == "neg":
        if g is not None:
            raise ValueError("neg is unary")
        return PWLFunction(f.complex, [p.negate() for p in f.pieces])
    if g is None:
        raise ValueError(f"{op} is binary")
    return _combine(op, f, g)


class CellBudgetError(ValueError):
    """Raised when an exact compilation grows past its cell budget."""


def pwl_from_formula(f: Formula, dim: Optional[int] = None,
                     cell_budget: Optional[int] = None) -> PWLFunction:
    """Exact Lukasiewicz function of a formula with variables among x0..x_{dim-1}.

    Intermediate refinements can grow combinatorially on adversarial inputs;
    an optional cell budget turns that into a CellBudgetError instead of an
    open-ended computation.
    """
    n = arity_of(f)
    if dim is None:
        dim = max(n, 1)
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if n > dim:
        raise ValueError(f"formula uses x{n - 1}, beyond dim {dim}")

    memo: dict[int, PWLFunction] = {}
    work = [0]

    def walk(node: Formula) -> PWLFunction:
        got = memo.get(id(node))
        if got is not None:
            return got
        op = node.op
        if op == "var":
            out = _coordinate(dim, node.index)
        elif op == "zero":
            out = _constant(dim, 0)
        elif op == "one":
            out = _constant(dim, 1)
        elif op == "neg":
            out = pwl_combine("neg", walk(node.args[0]))
        else:
            a, b = walk(node.args[0]), walk(node.args[1])
            if cell_budget is not None:
                work[0] += len(a.complex.cells) * len(b.complex.cells)
                if work[0] > 50 * cell_budget:
                    raise CellBudgetError(
                        f"refinement work exceeds the {cell_budget}-cell budget")
            key = {"star": "star", "impl": "impl", "and": "min", "or": "max",
                   "oplus": "oplus"}[op]
            out = _combine(key, a, b)
        if cell_budget is not None and len(out.complex.cells) > cell_budget:
            raise CellBudgetError(
                f"compilation exceeded {cell_budget} cells")
        memo[id(node)] = out
        return out

    return walk(f)


def pwl_min_value(f: PWLFunction):
    """(minimum value, witness vertex); exact, attained at a complex vertex."""
    best = None
    witness = None
    for j, cell in enumerate(f.complex.cells):
        for i in cell:
            v = f.pieces[j].value(f.complex.vertices[i])
            if best is None or v < best:
                best, witness = v, f.complex.vertices[i]
    return best, witness


def pwl_le(f: PWLFunction, g: PWLFunction) -> bool:
    """Pointwise f <= g, decided exactly on a common refinement."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    refined, tags = _refine_tagged(f.complex, g.complex)
    for j in range(len(refined.cells)):
        i1, i2 = tags[j]
        for p in refined.cell_points(j):
            if f.pieces[i1].value(p) > g.pieces[i2].value(p):
                return False
    return True


def pwl_equal(f: PWLFunction, g: PWLFunction) -> bool:
    if f.dim != g.dim:
        return False
    refined, tags = _refine_tagged(f.complex, g.complex)
    for j in range(len(refined.cells)):
        i1, i2 = tags[j]
        for p in refined.cell_points(j):
            if f.pieces[i1].value(p) != g.pieces[i2].value(p):
                return False
    return True


def _box_halfplanes(box):
    (xlo, xhi), (ylo, yhi) = box
    return [(F1, F0, -xlo), (-F1, F0, xhi), (F0, F1, -ylo), (F0, -F1, yhi)]


def pwl_integral(f: PWLFunction, box=None) -> Fraction:
    """Exact integral of f over a rational box (defaults to the whole cube)."""
    if box is None:
        box = tuple(((F0, F1)) for _ in range(f.dim))
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
    if len(box) != f.dim:
        raise ValueError("box dimension mismatch")
    for lo, hi in box:
        if not (0 <= lo <= hi <= 1):
            raise ValueError("box must be inside the unit cube with lo <= hi")
    if any(lo == hi for lo, hi in box):
        warnings.warn("integration box has zero measure")
        return F0

    total = F0
    if f.dim == 1:
        lo, hi = box[0]
        for j in range(len(f.complex.cells)):
            a, b = (p[0] for p in f.complex.cell_points(j))
            clo, chi = max(a, lo), min(b, hi)
            if clo < chi:
                piece = f.pieces[j]
                total += (chi - clo) * (piece.value((clo,)) + piece.value((chi,))) / 2
        return total

    planes = _box_halfplanes(box)
    for j in range(len(f.complex.cells)):
        poly = list(f.complex.cell_points(j))
        for h in planes:
            poly = _clip(poly, h)
            if not poly:
                break
        poly = _canon(poly)
        if not poly:
            continue
        piece = f.pieces[j]
        for tri in _fan(poly):
            area = _area2(tri) / 2
            total += area * sum(piece.value(p) for p in tri) / 3
    return total


# -- synthesis: PWL -> formula ---------------------------------------------------

def clamp_affine_formula(coeffs: Sequence[int], const: int) -> Formula:
    """Formula whose Lukasiewicz value is ((sum coeffs[i]*x_i + const) v 0) ^ 1.

    Built by peeling one unit literal y at a time with the exact identity
    clamp(t + y) = (clamp(t) (+) y) * clamp(t + 1), valid for any y with
    range inside [0,1].
    """
    units: list[Formula] = []
    base = int(const)
    for i, c in enumerate(coeffs):
        c = int(c)
        if c > 0:
            units.extend([Var(i)] * c)
        elif c < 0:
            units.extend([Neg(Var(i))] * (-c))
            base += c  # c*x = |c|*(!x) - |c|

    memo: dict[tuple, Formula] = {}

    def level(j: int, s: int) -> Formula:
        key = (j, s)
        got = memo.get(key)
        if got is not None:
            return got
        if j == 0:
            out = ONE if base + s >= 1 else ZERO
        else:
            low = level(j - 1, s)
            high = level(j - 1, s + 1)
            y = units[j - 1]
            if high is ZERO:
                out = ZERO
            elif low is ONE:
                out = high
            else:
                left = y if low is ZERO else OPlus(low, y)
                out = left if high is ONE else Star(left, high)
        memo[key] = out
        return out

    return level(len(units), 0)


def _synthesize_formula(f: PWLFunction) -> Formula:
    """Lattice-of-clamped-pieces formula equal to f (any dim <= 2).

    f = max over cells j of min over {i : piece_i >= piece_j on cell j} of
    the clamped affine piece_i; clamping distributes over min/max, so the
    leaves are clamp_affine_formula of the raw pieces.
    """
    cells = f.complex.cells
    pieces = f.pieces
    clamp_cache: dict[tuple, Formula] = {}

    def clamped(i: int) -> Formula:
        key = (pieces[i].a, pieces[i].b)
        got = clamp_cache.get(key)
        if got is None:
            got = clamp_affine_formula(key[0], key[1])
            clamp_cache[key] = got
        return got

    seen_terms = set()
    terms: list[Formula] = []
    for j in range(len(cells)):
        pts = f.complex.cell_points(j)
        dominating = [i for i in range(len(cells))
                      if all(pieces[i].value(p) >= pieces[j].value(p) for p in pts)]
        key = frozenset((pieces[i].a, pieces[i].b) for i in dominating)
        if key in seen_terms:
            continue
        seen_terms.add(key)
        term = None
        for i in dominating:
            term = clamped(i) if term is None else And(term, clamped(i))
        terms.append(term)
    out = None
    for t in terms:
        out = t if out is None else Or(out, t)
    return out if out is not None else ZERO


def pwl_to_formula_1d(f: PWLFunction) -> Formula:
    if f.dim != 1:
        raise ValueError("synthesis is exposed for dimension 1 only")
    return _synthesize_formula(f)


# -- affine maps between simplices ----------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b with exact rational entries."""

    a: tuple        # d rows, each a tuple of d Fractions
    b: tuple        # d Fractions

    @property
    def dim(self) -> int:
        return len(self.b)

    @property
    def is_integral(self) -> bool:
        return (all(x.denominator == 1 for row in self.a for x in row)
                and all(x.denominator == 1 for x in self.b))

    def det(self) -> Fraction:
        if self.dim == 1:
            return self.a[0][0]
        return self.a[0][0] * self.a[1][1] - self.a[0][1] * self.a[1][0]

    def apply(self, p) -> Point:
        p = _frac_point(p)
        return tuple(sum(r * x for r, x in zip(row, p)) + c
                     for row, c in zip(self.a, self.b))


def affine_from_simplex_pair(source: Sequence, target: Sequence) -> AffineMap:
    """The unique affine map sending source simplex vertices to target's, in order."""
    src = [_frac_point(p) for p in source]
    tgt = [_frac_point(p) for p in target]
    d = len(src[0])
    if len(src) != d + 1 or len(tgt) != d + 1:
        raise ValueError("need d+1 vertices for a d-simplex")
    if d == 1:
        dx = src[1][0] - src[0][0]
        if dx == 0:
            raise ValueError("degenerate source simplex")
        a = (tgt[1][0] - tgt[0][0]) / dx
        b = tgt[0][0] - a * src[0][0]
        return AffineMap(((a,),), (b,))
    if d != 2:
        raise ValueError("only dimensions 1 and 2 are supported")
    m00 = src[1][0] - src[0][0]
    m01 = src[2][0] - src[0][0]
    m10 = src[1][1] - src[0][1]
    m11 = src[2][1] - src[0][1]
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise ValueError("degenerate source simplex")
    t00 = tgt[1][0] - tgt[0][0]
    t01 = tgt[2][0] - tgt[0][0]
    t10 = tgt[1][1] - tgt[0][1]
    t11 = tgt[2][1] - tgt[0][1]
    # A = T M^{-1}
    a00 = (t00 * m11 - t01 * m10) / det
    a01 = (t01 * m00 - t00 * m01) / det
    a10 = (t10 * m11 - t11 * m10) / det
    a11 = (t11 * m00 - t10 * m01) / det
    b0 = tgt[0][0] - (a00 * src[0][0] + a01 * src[0][1])
    b1 = tgt[0][1] - (a10 * src[0][0] + a11 * src[0][1])
    return AffineMap(((a00, a01), (a10, a11)), (b0, b1))


# -- JSON exchange ----------------------------------------------------------------

def _rat_to_json(x: Fraction):
    return [str(x.numerator), str(x.denominator)]

def _rat_from_json(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def pwl_to_json(f: PWLFunction) -> dict:
    return {
        "dim": f.dim,
        "vertices": [[_rat_to_json(x) for x in v] for v in f.complex.vertices],
        "cells": [list(c) for c in f.complex.cells],
        "pieces": [{"a": list(p.a), "b": p.b} for p in f.pieces],
    }


def pwl_from_json(obj: dict) -> PWLFunction:
    dim = int(obj["dim"])
    vertices = [tuple(_rat_from_json(x) for x in v) for v in obj["vertices"]]
    cells = [tuple(int(i) for i in c) for c in obj["cells"]]
    pieces = [AffinePiece(tuple(int(x) for x in p["a"]), int(p["b"])) for p in obj["pieces"]]
    f = PWLFunction(CellComplex(dim, vertices, cells), pieces)
    f.validate()
    return f
