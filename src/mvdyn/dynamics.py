"""Substitutions as self-maps of the unit cube: exact orbits, denominators,
reachability, piecewise-affine homeomorphisms, one-sided differentials,
box-hitting search, and empirical statistics.

All orbit, denominator, and integration claims are exact; floating point
appears only in empirical_statistics and is labeled as such.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Optional, Sequence

from .formula import (
    Formula, Var, Neg, And, OPlus, OutOfReach, Substitution,
    cap_points, interpret, LUKASIEWICZ, arity_of, fold,
)
from . import pwl as _pwl
from .pwl import (
    CellComplex, PWLMap, _checked_box, _cube_point,
    affine_from_simplex_pair, clamp_affine_formula, pwl_from_formula,
)

F0 = Fraction(0)
F1 = Fraction(1)
# most cells in each compiled row of a geometric form; stacking the rows is
# held only to the refinement work (pwl._charge), so the form of x0 -> tent^3(x0),
# x1 -> tent^3(x1) has 940 cells from two rows of 54
CELL_BUDGET = 600
PIECE_CAP = 20000     # most pieces of the box's itinerary in one step of average_truth_value


# -- induced maps of substitutions ----------------------------------------------------

class InducedMap(Substitution):
    """A substitution as a self-map of the cube, with its geometric form pwl
    when known, else the refusal that compiling the form met, if kept.

    A map steps without its form through its lattice program, built on its
    first such step (_lattice_step) and kept.
    """

    __slots__ = ("pwl", "refusal", "_program")

    def __init__(self, arity: int, images: Sequence[Formula], pwl: Optional[PWLMap],
                 refusal: Optional[OutOfReach] = None):
        super().__init__(images)
        if self.arity != arity:
            raise ValueError(f"{self.arity} images for a map of arity {arity}")
        self.pwl = pwl
        self.refusal = refusal
        self._program = None


def _check_covers(sigma: Substitution, n: int) -> None:
    """Refuse sigma unless it maps x0..x_{n-1}. The empty substitution, which
    maps no variable, has one message wherever a map of the cube needs it."""
    if sigma.arity == 0 < n:
        raise ValueError("substitution must cover at least x0")
    if n > sigma.arity:
        raise ValueError(f"substitution of arity {sigma.arity} misses x{n - 1}")


def geometric_form(sigma: Substitution) -> PWLMap:
    """sigma's map of the cube as a PWLMap: the one an InducedMap carries, else
    its images compiled under CELL_BUDGET. Without one it refuses the empty
    substitution, or raises pwl's OutOfReach: too many variables for the exact
    geometry, or CellBudgetError. A refusal an InducedMap keeps is raised
    again without compiling. The images are compiled at most once per
    substitution object: this function alone writes what the compile gave,
    the form or its refusal, to the object's _form slot, and a kept refusal
    is raised as a fresh copy. The form is shared, to be read only."""
    kept = getattr(sigma, "pwl", None)
    if kept is None:
        kept = getattr(sigma, "refusal", None) or getattr(sigma, "_form", None)
    if kept is None:
        _check_covers(sigma, 1)
        try:
            kept = _pwl.pwl_map_from_formulas(sigma.images, CELL_BUDGET)
        except OutOfReach as err:   # pwl's: the variable ceiling, or CellBudgetError
            kept = err.with_traceback(None)
        sigma._form = kept
    if isinstance(kept, OutOfReach):
        raise type(kept)(*kept.args)
    return kept


def induced_map(sigma: Substitution) -> InducedMap:
    """sigma with its geometric form: an InducedMap as it is, else the form
    compiled when the exact geometry takes sigma's variables and the cell
    budget suffices; where compiling raises OutOfReach, pwl is None, the map
    keeps that refusal, and orbits run its lattice program."""
    if isinstance(sigma, InducedMap):
        return sigma
    _check_covers(sigma, 1)
    try:
        form, refusal = geometric_form(sigma), None
    except OutOfReach as err:   # pwl's: the variable ceiling, or CellBudgetError
        form, refusal = None, err.with_traceback(None)
    return InducedMap(sigma.arity, sigma.images, form, refusal)


def map_eval(s: InducedMap, p) -> tuple:
    """The reference image of p: each image formula evaluated in Fractions."""
    p = _cube_point(p, s.arity)
    return tuple(interpret(g, LUKASIEWICZ, p) for g in s.images)


def _compile(images: Sequence[Formula], zero: str, one: str):
    """The images as one straight-line program, wrapped as one function.

    The program has one line per distinct core node of all the images (one
    fold memo) and reads the Lukasiewicz chain from zero to one: star is
    max(a + b - one, zero) and impl is one if a <= b else one - a + b.

    Lattice form ("0", "d"): the function (d, x) -> the images' values at x,
    where x holds the integer numerators of a point over d and x_i is x[i].
    With one image, x is the one numerator, an int, and so is the value.

    Float form ("0.0", "1.0"): the whole loop of empirical_statistics, as the
    function (random, iterations, g, dither, x0, ..., x_{n-1}) -> counts,
    with x_i a local float. Each of the iterations runs the program, sets
    each x_i in coordinate order to its image plus one draw of
    (random() - 0.5) * 2.0 * dither, clamped to [0, 1], and adds one to the
    count of the box whose indices are min(int(x_i * g), g - 1); counts is
    one flat list of the g**n boxes in itertools.product's order.

    The source holds only these names, the ops and integer indices.
    """
    lattice = one == "d"
    single = lattice and len(images) == 1
    lines = []

    def step(node: Formula, a=None, b=None) -> str:
        op = node.op
        if op == "var":
            expr = "x" if single else f"x[{node.index}]" if lattice else f"x{node.index}"
        elif op == "zero":
            expr = zero
        elif op == "one":
            expr = one
        elif op == "star":
            expr = f"max({a} + {b} - {one}, {zero})"
        else:
            expr = f"{one} if {a} <= {b} else {one} - {a} + {b}"
        lines.append(f"v{len(lines)} = {expr}")
        return f"v{len(lines) - 1}"

    cores = [g.core() for g in images]   # alive while the memo keys them
    memo: dict = {}
    outputs = [fold(c, step, memo=memo) for c in cores]
    if lattice:
        head, indent = ["def _run(d, x):"], "    "
        tail = [f"    return {outputs[0]}" if single else f"    return ({', '.join(outputs)},)"]
    else:
        xs = [f"x{i}" for i in range(len(outputs))]
        for x, v in zip(xs, outputs):
            lines += [f"t = {v} + (random() - 0.5) * 2.0 * dither",
                      "t = t if t > 0.0 else 0.0", f"{x} = t if t < 1.0 else 1.0"]
        for i, x in enumerate(xs):
            lines += [f"b = int({x} * g)", "if b > m:", "    b = m",
                      "k = k * g + b" if i else "k = b"]
        lines.append("counts[k] += 1")
        head = [f"def _run(random, iterations, g, dither, {', '.join(xs)}):",
                "    m = g - 1", f"    counts = [0] * g ** {len(xs)}",
                "    for _ in range(iterations):"]
        tail, indent = ["    return counts"], "        "
    source = "\n".join([*head, *(indent + line for line in lines), *tail]) + "\n"
    scope: dict = {}
    exec(source, scope)
    return scope["_run"]


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


def _reduced_fraction(k: int, d: int) -> Fraction:
    """k/d for d > 0 as the reduced Fraction that Fraction(k, d) makes.

    The one place that sets Fraction's two slots: one gcd gives the reduced
    numerator and denominator, set on a bare instance as CPython's own
    Fraction._from_coprime_ints (3.12+) does, without the constructor's
    dispatch on its arguments' types. _lattice_points reads _denominator back.
    """
    g = math.gcd(k, d)
    x = object.__new__(Fraction)
    x._numerator = k // g
    x._denominator = d // g
    return x


def _lattice_points(ks, n: int, d: int) -> tuple:
    """(points, denominators) of the lattice points ks of (1/d)Z^n, in order.

    In one variable a lattice point is its numerator, an int, and makes one
    Fraction, whose denominator is the point's. In n >= 2 it is a tuple of
    numerators: one Fraction and denominator per distinct numerator, and a
    point's denominator is the lcm of its coordinates' ones from that table.
    """
    if n == 1:
        fractions = [_reduced_fraction(k, d) for k in ks]
        return (tuple([(x,) for x in fractions]),
                tuple([x._denominator for x in fractions]))
    columns = tuple(zip(*ks))
    fraction = {k: _reduced_fraction(k, d) for k in set().union(*columns)}
    den = {k: x._denominator for k, x in fraction.items()}
    return (tuple(zip(*[map(fraction.__getitem__, c) for c in columns])),
            tuple(map(math.lcm, *[map(den.__getitem__, c) for c in columns])))


def _lattice_step(s: InducedMap, d: int):
    """s on the lattice (1/d)Z^n, as a function on integer numerators: an
    int in one variable, a tuple of n ints in n >= 2.

    A McNaughton function has integer coefficients, so s sends k/d to a
    point over the same d: the step is the integral geometric form's
    PWLMap.lattice_step when there is one, else s's lattice program at d.
    """
    step = s.pwl.lattice_step(d) if s.pwl is not None else None
    if step is None:
        if s._program is None:
            s._program = _compile(s.images, "0", "d")
        step = partial(s._program, d)
    return step


def _iterate(step, start, max_steps: int):
    """(index, repeat) of the walk start, step(start), ...: index maps each
    distinct point to its place, so its keys in order are the walk; repeat
    is the place of the first point met again, or None when the budget ends."""
    index = {start: 0}
    current = start
    for i in range(1, max_steps + 1):
        current = step(current)
        first = index.setdefault(current, i)
        if first != i:
            return index, first
    return index, None


def orbit(s: InducedMap, p, max_steps: int = 10000) -> Orbit:
    """Iterate exactly until the first repeated point or the step budget.

    A start of denominator d stays on the lattice (1/d)Z^n, so the orbit
    steps integer numerators over d (_lattice_step), plain ints in one
    variable, and builds its points and their denominators once, at the end,
    in one pass (_lattice_points).
    """
    if max_steps < 0:
        raise ValueError("max_steps must be at least 0")
    _check_covers(s, 1)
    n = s.arity
    start = _cube_point(p, n)
    d = denominator(start)
    ks = [int(v * d) for v in start]
    index, pre = _iterate(_lattice_step(s, d), ks[0] if n == 1 else tuple(ks), max_steps)
    points, dens = _lattice_points(index, n, d)
    if pre is None:
        return Orbit(start, points, "truncated", None, None, dens)
    return Orbit(start, points + (points[pre],), "cycle", pre, len(points) - pre,
                 dens + (dens[pre],))


def full_rational_orbit(n: int, d: int) -> list:
    """All points of [0,1]^n whose denominator divides d."""
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    cap_points([d + 1], "points of denominator dividing d", n)
    return list(_lattice_points(_box_points([range(d + 1)] * n), n, d)[0])


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
    """(induced map, its exact form) rotating the two inner triangles one step.

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
    images = [_pwl._synthesize_formula(smap.row(i)) for i in range(2)]
    return InducedMap(2, images, smap), smap


def validate_homeomorphism(s: PWLMap) -> dict:
    """Determinant and exact image-tiling report for a piecewise-affine
    self-map of the cube (as many rows as coordinates).

    s is invertible exactly when its image complex (PWLMap.image_complex)
    validates.
    """
    if s.rows != s.dim:
        raise ValueError(f"a self-map of the {s.dim}-cube needs {s.dim} rows, not {s.rows}")
    s.validate()
    dets = {m.det() for m in s.maps}
    common = dets.pop() if len(dets) == 1 else None
    image = s.image_complex()
    try:
        image.validate()
        invertible = True
    except ValueError:
        invertible = False
    unimodular = common in (1, -1)
    return {
        "invertible": invertible,
        "common_det": int(common) if common is not None and common.denominator == 1 else None,
        "determinants_equal": common is not None,
        "unimodular": unimodular,
        "image_measure": sum(image.measure(j) for j in range(len(image.cells))),
        "measure_preserving": invertible and unimodular,
    }


# -- one-sided differentials --------------------------------------------------------------

def tsujii_differential(s: PWLMap, p, v) -> tuple:
    """A_j v for the first cell whose interior the ray p + h v enters."""
    p = _cube_point(p, s.dim)
    v = tuple(Fraction(x) for x in v)
    if len(v) != s.dim:
        raise ValueError("direction dimension mismatch")
    if all(x == 0 for x in v):
        return tuple(F0 for _ in range(s.dim))
    try:
        j = s.complex._locate(p, v)
    except ValueError:
        raise ValueError("the ray leaves the unit cube immediately") from None
    return tuple(sum(r * x for r, x in zip(row, v)) for row in s.maps[j].a)


# -- box-hitting search ---------------------------------------------------------------------

@dataclass(frozen=True)
class BoxHit:
    h: int
    k: int
    witness: tuple
    image: tuple


def _box_points(numerators) -> list:
    """A box's grid points as lattice points, from one range of numerators
    per axis: the ints of the range for one axis, else the numerator tuples."""
    if len(numerators) == 1:
        return list(numerators[0])
    return list(itertools.product(*numerators))


def box_hitting_search(q_map: InducedMap, r_map: InducedMap, a_box, b_box,
                       h_max: int, k_max: int,
                       grid_denominator: int = 16) -> Optional[BoxHit]:
    """First (h, k, grid witness) with R^k(Q^h(a)) in the target box.

    The witnesses k/g lie on (1/g)Z^n, so both maps step integer numerators
    over g (_lattice_step), plain ints in one variable. Sound but incomplete:
    a miss at the given resolution proves nothing.
    """
    g = grid_denominator
    if g < 1:
        raise ValueError("need grid_denominator >= 1")
    for name, budget in (("h_max", h_max), ("k_max", k_max)):
        if budget < 0:
            raise ValueError(f"{name} must be at least 0")
    if q_map.arity != r_map.arity:
        raise ValueError("maps must share an arity")
    _check_covers(q_map, 1)
    n = q_map.arity
    axes = [range(math.ceil(lo * g), math.floor(hi * g) + 1)  # the k of grid points k/g
            for name, box in (("source", a_box), ("target", b_box))
            for lo, hi in _checked_box(name, box, n)]
    sources, targets = axes[:n], axes[n:]
    cap_points([len(axis) for axis in sources], "grid points of the source box")
    starts = q_iter = _box_points(sources)
    q_step, r_step = _lattice_step(q_map, g), _lattice_step(r_map, g)
    inside = (targets[0].__contains__ if n == 1
              else lambda x: all(map(range.__contains__, targets, x)))
    for h in range(h_max + 1):
        for start, x in zip(starts, q_iter):
            for k in range(k_max + 1):
                if inside(x):
                    return BoxHit(h, k, *_lattice_points((start, x), n, g)[0])
                x = r_step(x)
        if h < h_max:
            q_iter = [q_step(x) for x in q_iter]
    return None


# -- statistics and averages ------------------------------------------------------------------

def empirical_statistics(s: InducedMap, start, iterations: int, box_grid: int,
                         seed: int = 0) -> dict:
    """Floating-point visit frequencies against the uniform volume.

    Explicitly approximate: exact rational orbits are eventually periodic, so
    equidistribution is probed in floats, with a tiny seeded dither (about
    2**-40 per step) keeping the orbit off the finite dyadic lattice.
    """
    if iterations < 1 or box_grid < 1:
        raise ValueError("need iterations >= 1 and box_grid >= 1")
    _check_covers(s, 1)
    n = s.arity
    cap_points([box_grid], "boxes of the statistics table", n)
    x = [float(v) for v in _cube_point(start, n)]
    run = _compile(s.images, "0.0", "1.0")   # the whole loop, in floats
    dither = 2.0 ** -40
    counts = run(random.Random(seed).random, iterations, box_grid, dither, *x)
    volume = 1.0 / box_grid ** n
    table = []
    discrepancy = 0.0
    for idx, count in zip(itertools.product(range(box_grid), repeat=n), counts):
        freq = count / iterations
        table.append({"box": list(idx), "count": count,
                      "frequency": freq, "volume": volume})
        discrepancy = max(discrepancy, abs(freq - volume))
    return {"iterations": iterations, "box_grid": box_grid, "dither": dither,
            "table": table, "discrepancy": discrepancy}


def average_truth_value(r: Formula, k: int, sigma: Substitution, mu_box) -> dict:
    """Exact averages of sigma^j(r) over a box, plus the Lebesgue average of r.

    The map of sigma^j(r) is the map of r after S^j, for the geometric form S
    of sigma's induced map, so the integral of sigma^j(r) over the box is that
    of r over the pieces of the box's itinerary under S: the box is cut
    forward through S once per step, and each piece's integral is read off
    the cells of r, compiled once. No iterate is assembled over the cube.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    dim = max(arity_of(r), *(arity_of(g) for g in sigma.images), 1)
    box = _checked_box("averaging", mu_box, dim)
    volume = math.prod(hi - lo for lo, hi in box)
    if k >= 1:
        _check_covers(sigma, r.arity)
    w = pwl_from_formula(r, dim)
    lebesgue = _pwl.pwl_integral(w)
    # every iterate of a constant r is r; otherwise sigma covers x0..x_{dim-1}
    s = None
    if k >= 1 and r.arity:
        s = geometric_form(sigma if sigma.arity == dim else Substitution(sigma.images[:dim]))
    sequence = []
    for j, pieces in zip(range(k + 1), _pwl._itinerary(box, s)):
        if len(pieces) > PIECE_CAP:
            raise ValueError(f"piece cap exceeded at step {j}")
        sequence.append(_pwl._pieces_integral(w, pieces) / volume)
    return {"sequence": sequence, "lebesgue_average": lebesgue}
