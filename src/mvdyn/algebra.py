"""Finite residuated lattices: chains, products, filters, and prime spectra.

Elements of a FiniteAlgebra are indices 0..n-1 into a name list; the two
defining operations are given by index tables, everything else (order, meet,
join, negation) is derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .formula import Formula, interpret, json_field

DEFAULT_SIZE_CAP = 64
FILTER_CANDIDATE_CAP = 1 << 16
SUBSET_LIMIT = 4096  # duality_check tries every subset of an algebra up to this many


class FiniteAlgebra:
    """A finite commutative residuated lattice given by operation tables."""

    __slots__ = ("names", "star_table", "impl_table", "zero", "one",
                 "_meet", "_join")

    def __init__(self, names: Sequence[str], star_table, impl_table,
                 zero: int, one: int):
        self.names = tuple(str(x) for x in names)
        n = len(self.names)
        self.star_table = tuple(tuple(row) for row in star_table)
        self.impl_table = tuple(tuple(row) for row in impl_table)
        self.zero = zero
        self.one = one
        for t in (self.star_table, self.impl_table):
            if len(t) != n or any(len(row) != n for row in t):
                raise ValueError("operation tables must be n x n")
            if any(not (0 <= x < n) for row in t for x in row):
                raise ValueError("table entry out of range")
        # derived lattice operations: a ^ b = a * (a -> b),
        # a v b = ((a -> b) -> b) ^ ((b -> a) -> a)
        st, im = self.star_table, self.impl_table
        self._meet = tuple(tuple(st[a][im[a][b]] for b in range(n)) for a in range(n))
        mt = self._meet
        self._join = tuple(tuple(
            mt[im[im[a][b]][b]][im[im[b][a]][a]] for b in range(n))
            for a in range(n))

    @property
    def size(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(self.size)

    def star(self, a: int, b: int) -> int:
        return self.star_table[a][b]

    def impl(self, a: int, b: int) -> int:
        return self.impl_table[a][b]

    def neg(self, a: int) -> int:
        return self.impl_table[a][self.zero]

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def le(self, a: int, b: int) -> bool:
        return self.impl_table[a][b] == self.one

    def validate(self) -> None:
        n = self.size
        els = range(n)
        one, zero = self.one, self.zero
        for a in els:
            if self.star(a, one) != a or self.star(one, a) != a:
                raise ValueError("1 is not a unit for the monoid operation")
            if not self.le(zero, a) or not self.le(a, one):
                raise ValueError("0 and 1 are not the lattice bounds")
            if not self.le(a, a):
                raise ValueError("derived order is not reflexive")
        for a in els:
            for b in els:
                if self.star(a, b) != self.star(b, a):
                    raise ValueError("monoid operation is not commutative")
                if self.le(a, b) and self.le(b, a) and a != b:
                    raise ValueError("derived order is not antisymmetric")
        for a in els:
            for b in els:
                for c in els:
                    if self.star(self.star(a, b), c) != self.star(a, self.star(b, c)):
                        raise ValueError("monoid operation is not associative")
                    if self.le(a, b) and self.le(b, c) and not self.le(a, c):
                        raise ValueError("derived order is not transitive")
                    if self.le(a, b) and not self.le(self.star(a, c), self.star(b, c)):
                        raise ValueError("monoid operation is not monotone")
                    # residuation: c * a <= b iff c <= a -> b
                    if self.le(self.star(c, a), b) != self.le(c, self.impl(a, b)):
                        raise ValueError("residuation fails")
        # meet and join must be the lattice glb and lub for the derived order
        for a in els:
            for b in els:
                m, j = self.meet(a, b), self.join(a, b)
                if not (self.le(m, a) and self.le(m, b)):
                    raise ValueError("derived meet is not a lower bound")
                if not (self.le(a, j) and self.le(b, j)):
                    raise ValueError("derived join is not an upper bound")
                for c in els:
                    if self.le(c, a) and self.le(c, b) and not self.le(c, m):
                        raise ValueError("derived meet is not the greatest lower bound")
                    if self.le(a, c) and self.le(b, c) and not self.le(j, c):
                        raise ValueError("derived join is not the least upper bound")


def evaluate_in(f: Formula, algebra: FiniteAlgebra, point: Sequence[int]) -> int:
    """Value of f in a finite algebra at a tuple of element indices."""
    point = tuple(point)
    for v in point:
        if not (0 <= v < algebra.size):
            raise ValueError(f"element index {v} out of range")
    if f.arity > len(point):
        raise ValueError(f"no value given for x{f.arity - 1}")
    return interpret(f, algebra, point)


# -- constructions ---------------------------------------------------------------

def finite_chain(m: int, base: str = "lukasiewicz") -> FiniteAlgebra:
    """The chain {0, 1/m, ..., 1} with Lukasiewicz or Godel connectives."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if base not in ("lukasiewicz", "godel"):
        raise ValueError("base must be 'lukasiewicz' or 'godel'")
    n = m + 1
    names = [str(Fraction(k, m)) for k in range(n)]
    if base == "lukasiewicz":
        star = [[max(i + j - m, 0) for j in range(n)] for i in range(n)]
        impl = [[min(m, m - i + j) for j in range(n)] for i in range(n)]
    else:
        star = [[min(i, j) for j in range(n)] for i in range(n)]
        impl = [[m if i <= j else j for j in range(n)] for i in range(n)]
    return FiniteAlgebra(names, star, impl, 0, m)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra,
                    cap: int = DEFAULT_SIZE_CAP) -> FiniteAlgebra:
    """Componentwise product; element (i, j) has index i * b.size + j."""
    n, m = a.size, b.size
    if n * m > cap:
        raise ValueError("size cap exceeded")
    names = [f"({a.names[i]},{b.names[j]})" for i in range(n) for j in range(m)]

    def idx(i, j):
        return i * m + j

    star = [[idx(a.star(i1, i2), b.star(j1, j2))
             for i2 in range(n) for j2 in range(m)]
            for i1 in range(n) for j1 in range(m)]
    impl = [[idx(a.impl(i1, i2), b.impl(j1, j2))
             for i2 in range(n) for j2 in range(m)]
            for i1 in range(n) for j1 in range(m)]
    return FiniteAlgebra(names, star, impl, idx(a.zero, b.zero), idx(a.one, b.one))


def power_algebra(a: FiniteAlgebra, k: int,
                  cap: int = DEFAULT_SIZE_CAP) -> FiniteAlgebra:
    """k-fold componentwise power with flat tuple-style names."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if a.size ** k > cap:
        raise ValueError("size cap exceeded")
    import itertools
    tuples = list(itertools.product(range(a.size), repeat=k))
    index = {t: i for i, t in enumerate(tuples)}
    names = ["(" + ",".join(a.names[i] for i in t) + ")" for t in tuples]
    star = [[index[tuple(a.star(x, y) for x, y in zip(s, t))] for t in tuples]
            for s in tuples]
    impl = [[index[tuple(a.impl(x, y) for x, y in zip(s, t))] for t in tuples]
            for s in tuples]
    zero = index[tuple([a.zero] * k)]
    one = index[tuple([a.one] * k)]
    return FiniteAlgebra(names, star, impl, zero, one)


def subalgebra_generated(a: FiniteAlgebra, gens: Iterable[int]) -> FiniteAlgebra:
    """Closure of gens with 0 and 1 under the two defining operations."""
    carrier = {a.zero, a.one} | set(gens)
    for g in carrier:
        if not (0 <= g < a.size):
            raise ValueError(f"generator index {g} out of range")
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
    order = sorted(carrier)
    pos = {e: i for i, e in enumerate(order)}
    names = [a.names[e] for e in order]
    star = [[pos[a.star(x, y)] for y in order] for x in order]
    impl = [[pos[a.impl(x, y)] for y in order] for x in order]
    return FiniteAlgebra(names, star, impl, pos[a.zero], pos[a.one])


# -- filters ----------------------------------------------------------------------

def is_filter(a: FiniteAlgebra, subset: Iterable[int]) -> bool:
    """A filter contains 1 and is closed under Modus Ponens."""
    s = frozenset(subset)
    if a.one not in s:
        return False
    for x in s:
        for y in a.elements():
            if a.impl(x, y) in s and y not in s:
                return False
    return True


def filter_generated(a: FiniteAlgebra, items: Iterable[int]) -> frozenset:
    """Smallest filter containing the given elements."""
    f = {a.one} | set(items)
    for g in f:
        if not (0 <= g < a.size):
            raise ValueError(f"element index {g} out of range")
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


def _filter_sort_key(f: frozenset):
    return (len(f), tuple(sorted(f)))


def enumerate_filters(a: FiniteAlgebra):
    """(all filters, prime filters, maximal filters), canonically sorted."""
    if a.size > DEFAULT_SIZE_CAP:
        raise ValueError("size cap exceeded")
    bottom = filter_generated(a, ())
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for f in frontier:
            for x in a.elements():
                if x in f:
                    continue
                g = filter_generated(a, f | {x})
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
                    if len(seen) > FILTER_CANDIDATE_CAP:
                        raise ValueError("filter candidate cap exceeded")
        frontier = nxt
    filters = sorted(seen, key=_filter_sort_key)
    primes = [f for f in filters if is_prime(a, f)]
    proper = [f for f in filters if len(f) < a.size]
    maximals = [f for f in proper
                if not any(f < g for g in proper)]
    return filters, primes, maximals


def is_prime(a: FiniteAlgebra, filt: frozenset) -> bool:
    """Proper, and a v b in the filter forces a or b in it."""
    if len(filt) == a.size:
        return False
    for x in a.elements():
        for y in a.elements():
            if a.join(x, y) in filt and x not in filt and y not in filt:
                return False
    return True


def quotient_algebra(a: FiniteAlgebra, filt: frozenset):
    """(A / filt, class index of each element); classes via x ~ y iff
    x -> y and y -> x both lie in the filter."""
    n = a.size
    class_of = [-1] * n
    reps = []
    for x in range(n):
        for i, r in enumerate(reps):
            if a.impl(x, r) in filt and a.impl(r, x) in filt:
                class_of[x] = i
                break
        else:
            class_of[x] = len(reps)
            reps.append(x)
    k = len(reps)
    star = [[-1] * k for _ in range(k)]
    impl = [[-1] * k for _ in range(k)]
    for x in range(n):
        for y in range(n):
            cx, cy = class_of[x], class_of[y]
            for table, value in ((star, class_of[a.star(x, y)]),
                                 (impl, class_of[a.impl(x, y)])):
                if table[cx][cy] == -1:
                    table[cx][cy] = value
                elif table[cx][cy] != value:
                    raise ValueError("the relation is not a congruence")
    names = [a.names[r] + "/f" for r in reps]
    q = FiniteAlgebra(names, star, impl, class_of[a.zero], class_of[a.one])
    kernel = frozenset(x for x in range(n) if class_of[x] == class_of[a.one])
    if kernel != filt:
        raise ValueError("quotient kernel differs from the filter")
    return q, class_of


def _totally_ordered(a: FiniteAlgebra) -> bool:
    return all(a.le(x, y) or a.le(y, x)
               for x in a.elements() for y in a.elements())


def lemma7_check(a: FiniteAlgebra) -> dict:
    """For every proper filter, check that the five listed characterizations
    of primality agree; reports any filter where they do not."""
    filters, primes, _ = enumerate_filters(a)
    prime_set = set(primes)
    proper = [f for f in filters if len(f) < a.size]
    discrepancies = []
    checked = 0
    for p in proper:
        checked += 1
        join_condition = p in prime_set
        meet_irreducible = not any(
            p == (f & g) and p != f and p != g
            for f in filters for g in filters)
        quotient, _ = quotient_algebra(a, p)
        quotient_total = _totally_ordered(quotient)
        above = [f for f in filters if p <= f]
        above_chain = all(f <= g or g <= f for f in above for g in above)
        above_prime = all(f in prime_set for f in above if len(f) < a.size)
        votes = {
            "meet_irreducible": meet_irreducible,
            "quotient_totally_ordered": quotient_total,
            "filters_above_form_chain": above_chain,
            "proper_filters_above_prime": above_prime,
            "join_condition": join_condition,
        }
        if len(set(votes.values())) != 1:
            discrepancies.append({"filter": sorted(p), "clauses": votes})
    return {"filters_checked": checked,
            "prime_count": len(primes),
            "discrepancies": discrepancies,
            "ok": not discrepancies}


# -- homomorphisms and spectra -----------------------------------------------------

@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    table: tuple

    def __call__(self, x: int) -> int:
        return self.table[x]

    def validate(self) -> None:
        src, tgt, h = self.source, self.target, self.table
        if len(h) != src.size:
            raise ValueError("value table must cover the source")
        if h[src.zero] != tgt.zero or h[src.one] != tgt.one:
            raise ValueError("constants are not preserved")
        for x in src.elements():
            for y in src.elements():
                if h[src.star(x, y)] != tgt.star(h[x], h[y]):
                    raise ValueError("monoid operation is not preserved")
                if h[src.impl(x, y)] != tgt.impl(h[x], h[y]):
                    raise ValueError("residuum is not preserved")

    def kernel(self) -> frozenset:
        return frozenset(x for x in self.source.elements()
                         if self.table[x] == self.target.one)


def identity_homomorphism(a: FiniteAlgebra) -> Homomorphism:
    return Homomorphism(a, a, tuple(a.elements()))


def compose_homomorphisms(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    if inner.target is not outer.source and inner.target.names != outer.source.names:
        raise ValueError("homomorphisms do not compose")
    return Homomorphism(inner.source, outer.target,
                        tuple(outer.table[inner.table[x]] for x in inner.source.elements()))


@dataclass(frozen=True)
class SpecSpace:
    """Prime filters with the topology generated by O_a = {p : a not in p}."""

    points: tuple           # prime filters, each a frozenset of element indices
    subbasic: tuple         # per algebra element a: frozenset of point indices
    opens: tuple            # every open set, as a sorted tuple of frozensets
    le: tuple               # specialization: le[i][j] iff points[i] <= points[j]

    def closure(self, point_set: Iterable[int]) -> frozenset:
        """Topological closure of a set of point indices."""
        s = frozenset(point_set)
        uncovered = frozenset(range(len(self.points))) - s
        interior = frozenset()
        for u in self.opens:
            if u <= uncovered:
                interior |= u
        return frozenset(range(len(self.points))) - interior


def spec_space(a: FiniteAlgebra) -> SpecSpace:
    _, primes, _ = enumerate_filters(a)
    points = tuple(primes)
    k = len(points)
    subbasic = tuple(
        frozenset(i for i in range(k) if x not in points[i])
        for x in a.elements())
    opens = {frozenset(), frozenset(range(k))}
    opens.update(subbasic)
    changed = True
    while changed:
        changed = False
        current = list(opens)
        for u in current:
            for v in current:
                w = u | v
                if w not in opens:
                    opens.add(w)
                    changed = True
    opens = tuple(sorted(opens, key=lambda s: (len(s), tuple(sorted(s)))))
    le = tuple(tuple(points[i] <= points[j] for j in range(k)) for i in range(k))
    space = SpecSpace(points, subbasic, opens, le)
    for i in range(k):
        up = frozenset(j for j in range(k) if le[i][j])
        if space.closure([i]) != up:
            raise ValueError("closure of a point is not its up-set")
        chain = sorted(up, key=lambda j: len(points[j]))
        for x, y in zip(chain, chain[1:]):
            if not le[x][y]:
                raise ValueError("up-set of a point is not a chain")
    return space


def dual_map(phi: Homomorphism):
    """Spec(phi): prime filters of the target pull back along phi.

    Returns (spec of target, spec of source, point mapping) after verifying
    that preimages are prime and that preimages of subbasic opens are
    subbasic opens.
    """
    phi.validate()
    src_spec = spec_space(phi.source)
    tgt_spec = spec_space(phi.target)
    mapping = []
    src_index = {p: i for i, p in enumerate(src_spec.points)}
    for q in tgt_spec.points:
        pre = frozenset(x for x in phi.source.elements() if phi.table[x] in q)
        if not is_prime(phi.source, pre):
            raise ValueError("preimage of a prime filter is not prime")
        mapping.append(src_index[pre])
    # continuity on the subbasis: preimage of O_a is O_{phi(a)}
    for x in phi.source.elements():
        pulled = frozenset(j for j in range(len(tgt_spec.points))
                           if mapping[j] in src_spec.subbasic[x])
        if pulled != tgt_spec.subbasic[phi.table[x]]:
            raise ValueError("dual map fails the continuity law")
    return tgt_spec, src_spec, tuple(mapping)


def duality_check(a: FiniteAlgebra, seed: int = 0) -> dict:
    """Filters versus opens of the spectrum, with the subbasis laws."""
    import itertools
    import random

    filters, primes, _ = enumerate_filters(a)
    space = spec_space(a)
    k = len(space.points)

    def open_of(filt) -> frozenset:
        out = frozenset()
        for x in filt:
            out |= space.subbasic[x]
        return out

    filter_opens = [open_of(f) for f in filters]
    bijective = (len(set(filter_opens)) == len(filters)
                 and set(filter_opens) == set(space.opens))
    order_iso = all((f1 <= f2) == (o1 <= o2)
                    for f1, o1 in zip(filters, filter_opens)
                    for f2, o2 in zip(filters, filter_opens))

    laws = all(space.subbasic[x] & space.subbasic[y] == space.subbasic[a.join(x, y)]
               and space.subbasic[x] | space.subbasic[y] == space.subbasic[a.meet(x, y)]
               for x in a.elements() for y in a.elements())

    # D -> F_D -> intersection recovers the generated filter
    if 2 ** a.size <= SUBSET_LIMIT:
        subsets = [set(c) for r in range(a.size + 1)
                   for c in itertools.combinations(range(a.size), r)]
    else:
        rng = random.Random(seed)
        subsets = [{x for x in a.elements() if rng.random() < 0.5}
                   for _ in range(200)]
    gen_ok = True
    everything = frozenset(a.elements())
    for d in subsets:
        hull = [p for p in space.points if d <= p]
        meet_of_hull = everything
        for p in hull:
            meet_of_hull &= p
        if meet_of_hull != filter_generated(a, d):
            gen_ok = False
            break

    # P -> intersection -> F recovers the topological closure
    closure_ok = True
    for r in range(k + 1):
        for combo in itertools.combinations(range(k), r):
            pts = [space.points[i] for i in combo]
            meet = everything
            for p in pts:
                meet &= p
            hull = frozenset(i for i in range(k) if meet <= space.points[i])
            if hull != space.closure(combo):
                closure_ok = False
    report = {
        "filters": len(filters),
        "opens": len(space.opens),
        "points": k,
        "bijective": bijective,
        "order_isomorphism": order_iso,
        "subbasis_laws": laws,
        "generated_filter_composition": gen_ok,
        "closure_composition": closure_ok,
    }
    report["ok"] = all(report[key] for key in
                       ("bijective", "order_isomorphism", "subbasis_laws",
                        "generated_filter_composition", "closure_composition")) \
        and report["filters"] == report["opens"]
    return report


# -- JSON exchange ------------------------------------------------------------------

def algebra_to_json(a: FiniteAlgebra) -> dict:
    return {"names": list(a.names),
            "star": [list(r) for r in a.star_table],
            "impl": [list(r) for r in a.impl_table],
            "zero": a.zero,
            "one": a.one}


def algebra_from_json(obj: dict) -> FiniteAlgebra:
    def table(rows):
        return [[int(x) for x in row] for row in rows]

    a = FiniteAlgebra(json_field(obj, "names", list),
                      json_field(obj, "star", table), json_field(obj, "impl", table),
                      json_field(obj, "zero", int), json_field(obj, "one", int))
    a.validate()
    return a
