"""Formula syntax, continuous t-norm semantics, exact evaluation, substitutions.

Formulas are immutable trees over variables x0, x1, ... with primitive
connectives * (strong conjunction) and -> (residual implication), constants 0
and 1, and sugar connectives !, &, |, (+) that desugar into the primitives.
All evaluation is exact: over fractions.Fraction point by point, and over
packed integer truth tables on the two-element chain.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from fractions import Fraction
from typing import Callable, Optional, Sequence

ZERO_F = Fraction(0)
ONE_F = Fraction(1)

_CORE_OPS = ("var", "zero", "one", "star", "impl")
_SUGAR_OPS = ("neg", "and", "or", "oplus")
_OPS = frozenset(_CORE_OPS + _SUGAR_OPS)


class ParseError(ValueError):
    """Syntax error with byte offset and the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected: Sequence[str]):
        super().__init__(f"{message} at byte {offset}; expected one of {sorted(expected)}")
        self.offset = offset
        self.expected = frozenset(expected)


class Formula:
    """Immutable formula node; equality and hashing are modulo desugaring.

    ``arity`` is the smallest n such that every variable is among x0..x_{n-1}.
    Two formulas are equal iff ``core()`` returns the same shared node.
    """

    __slots__ = ("op", "args", "index", "arity", "_hash", "_core", "__weakref__")

    def __init__(self, op: str, args: tuple = (), index: Optional[int] = None):
        if op not in _OPS:
            raise ValueError(f"unknown connective {op!r}")
        if op == "var":
            arity = index + 1
        elif args:  # args[0] is args[-1] for a unary connective
            arity = max(args[0].arity, args[-1].arity)
        else:
            arity = 0
        _set(self, "op", op)
        _set(self, "args", args)
        _set(self, "index", index)
        _set(self, "arity", arity)
        _set(self, "_core", None)

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    def __reduce__(self):
        return (Formula, (self.op, self.args, self.index))

    def core(self) -> "Formula":
        """The desugared form, built from var/0/1/*/-> only: one shared node per
        desugared formula, cached on every node it is computed for."""
        c = self._core
        if c is None:
            return _desugar(self)
        return self if c is _SELF else c

    def __hash__(self):
        return self.core()._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return self.core() is other.core()

    def __repr__(self):
        return f"Formula({print_formula(self)!r})"

    def __str__(self):
        return print_formula(self)


_set = object.__setattr__

# Marks a node as its own core in ``_core``; storing the node itself would make a
# reference cycle that only the cyclic garbage collector frees.
_SELF = object()

# Shared core nodes, keyed on (op, index) for a leaf and on (op, id(a), id(b))
# for a * or -> node over a and b. A shared node holds its args, so their ids
# stay unique while its entry lives.
_INTERNED: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()


def _intern(op: str, args: tuple = (), index: Optional[int] = None,
            node: Optional[Formula] = None) -> Formula:
    """The shared core node for op over the shared core nodes args. When there
    is none yet, node (an unshared core node of that shape, if given) becomes it.
    Its hash is built from the args' hashes, never from addresses."""
    if args:
        a, b = args
        key = (op, id(a), id(b))
    else:
        key = (op, index)
    got = _INTERNED.get(key)
    if got is None:
        got = Formula(op, args, index) if node is None else node
        _set(got, "_hash", hash((op, a._hash, b._hash) if args else key))
        _set(got, "_core", _SELF)
        _INTERNED[key] = got
    return got


def _desugar(f: Formula) -> Formula:
    """Core of f. Every visited node keeps its core in ``_core`` and reuses it
    later, so a formula built on top of desugared subterms costs only its new
    nodes."""

    def walk(node: Formula) -> Formula:
        got = node._core
        if got is not None:
            return node if got is _SELF else got
        op, args = node.op, node.args
        if op in ("var", "zero", "one"):
            out = _intern(op, (), node.index, node)
        elif op in ("star", "impl"):
            a, b = walk(args[0]), walk(args[1])
            out = _intern(op, (a, b), None,
                          node if (a is args[0] and b is args[1]) else None)
        elif op == "neg":
            out = _intern("impl", (walk(args[0]), ZERO))
        elif op == "and":
            a, b = walk(args[0]), walk(args[1])
            out = _intern("star", (a, _intern("impl", (a, b))))
        elif op == "or":
            a, b = walk(args[0]), walk(args[1])
            # ((a->b)->b) & ((b->a)->a), with & expanded
            left = _intern("impl", (_intern("impl", (a, b)), b))
            right = _intern("impl", (_intern("impl", (b, a)), a))
            out = _intern("star", (left, _intern("impl", (left, right))))
        else:  # oplus: !a -> b
            a, b = walk(args[0]), walk(args[1])
            out = _intern("impl", (_intern("impl", (a, ZERO)), b))
        if out is not node:
            _set(node, "_core", out)
        return out

    return walk(f)


# -- constructors -------------------------------------------------------------

ZERO = Formula("zero")
ONE = Formula("one")
# Every 0 and 1 desugars to these two; the desugaring of ! and (+) uses ZERO as a core.
ZERO.core()
ONE.core()


def Var(i: int) -> Formula:
    if i < 0:
        raise ValueError("variable index must be >= 0")
    return Formula("var", index=i)


def Star(a: Formula, b: Formula) -> Formula:
    return Formula("star", (a, b))


def Impl(a: Formula, b: Formula) -> Formula:
    return Formula("impl", (a, b))


def Neg(a: Formula) -> Formula:
    return Formula("neg", (a,))


def And(a: Formula, b: Formula) -> Formula:
    return Formula("and", (a, b))


def Or(a: Formula, b: Formula) -> Formula:
    return Formula("or", (a, b))


def OPlus(a: Formula, b: Formula) -> Formula:
    return Formula("oplus", (a, b))


def variables_of(f: Formula) -> frozenset[int]:
    memo: dict[int, frozenset] = {}

    def walk(node: Formula) -> frozenset:
        got = memo.get(id(node))
        if got is not None:
            return got
        if node.op == "var":
            out = frozenset((node.index,))
        elif node.args:
            out = frozenset().union(*(walk(a) for a in node.args))
        else:
            out = frozenset()
        memo[id(node)] = out
        return out

    return walk(f)


def arity_of(f: Formula) -> int:
    """Smallest n such that all variables of f are among x0..x_{n-1}."""
    return f.arity


def json_field(obj, key: str, convert: Callable):
    """convert(obj[key]) for a JSON object obj. A missing field (or obj not an
    object), or a value that convert rejects, raises ValueError naming it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        raise ValueError(f"ill-typed field {key!r}: {type(exc).__name__}: {exc}") from None


# -- parser -------------------------------------------------------------------

_TOKEN_NAMES = {
    "var": "variable", "zero": "'0'", "one": "'1'", "not": "'!'", "star": "'*'",
    "oplus": "'(+)'", "and": "'&'", "or": "'|'", "impl": "'->'",
    "lparen": "'('", "rparen": "')'", "eof": "end of input",
}


def _tokenize(text: str) -> list[tuple[str, int, object]]:
    toks = []
    i, n = 0, len(text)

    def byte_off(pos):
        return len(text[:pos].encode("utf-8"))

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable name needs digits", byte_off(i), ["variable"])
            toks.append(("var", byte_off(i), int(text[i + 1:j])))
            i = j
        elif ch == "0":
            toks.append(("zero", byte_off(i), None)); i += 1
        elif ch == "1":
            toks.append(("one", byte_off(i), None)); i += 1
        elif ch == "!":
            toks.append(("not", byte_off(i), None)); i += 1
        elif ch == "*":
            toks.append(("star", byte_off(i), None)); i += 1
        elif ch == "&":
            toks.append(("and", byte_off(i), None)); i += 1
        elif ch == "|":
            toks.append(("or", byte_off(i), None)); i += 1
        elif ch == "-":
            if text.startswith("->", i):
                toks.append(("impl", byte_off(i), None)); i += 2
            else:
                raise ParseError("stray '-'", byte_off(i), ["'->'"])
        elif ch == "(":
            if text.startswith("(+)", i):
                toks.append(("oplus", byte_off(i), None)); i += 3
            else:
                toks.append(("lparen", byte_off(i), None)); i += 1
        elif ch == ")":
            toks.append(("rparen", byte_off(i), None)); i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", byte_off(i),
                             ["variable", "'0'", "'1'", "'!'", "'('"])
    toks.append(("eof", byte_off(n), None))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind: str):
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise ParseError(f"unexpected {_TOKEN_NAMES[tok[0]]}", tok[1], [_TOKEN_NAMES[kind]])
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.implication()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {_TOKEN_NAMES[tok[0]]}", tok[1], [_TOKEN_NAMES["eof"]])
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "impl":
            self.take("impl")
            return Impl(left, self.implication())  # right-associative
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "or":
            self.take("or")
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.oplus()
        while self.peek()[0] == "and":
            self.take("and")
            f = And(f, self.oplus())
        return f

    def oplus(self) -> Formula:
        f = self.strong()
        while self.peek()[0] == "oplus":
            self.take("oplus")
            f = OPlus(f, self.strong())
        return f

    def strong(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "star":
            self.take("star")
            f = Star(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.peek()[0] == "not":
            self.take("not")
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, off, val = self.peek()
        if kind == "var":
            self.take("var")
            return Var(val)
        if kind == "zero":
            self.take("zero")
            return ZERO
        if kind == "one":
            self.take("one")
            return ONE
        if kind == "lparen":
            self.take("lparen")
            f = self.implication()
            self.take("rparen")
            return f
        raise ParseError(f"unexpected {_TOKEN_NAMES[kind]}", off,
                         ["variable", "'0'", "'1'", "'!'", "'('"])


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


_LEVEL = {"impl": 0, "or": 1, "and": 2, "oplus": 3, "star": 4, "neg": 5,
          "var": 6, "zero": 6, "one": 6}
_SYMBOL = {"impl": "->", "or": "|", "and": "&", "oplus": "(+)", "star": "*"}


def print_formula(f: Formula) -> str:
    memo: dict[int, str] = {}

    def walk(node: Formula) -> str:
        got = memo.get(id(node))
        if got is not None:
            return got
        op = node.op
        if op == "var":
            s = f"x{node.index}"
        elif op == "zero":
            s = "0"
        elif op == "one":
            s = "1"
        elif op == "neg":
            a = node.args[0]
            inner = walk(a)
            s = "!" + (inner if _LEVEL[a.op] >= 5 else f"({inner})")
        else:
            lvl = _LEVEL[op]
            a, b = node.args
            left, right = walk(a), walk(b)
            if op == "impl":  # right-assoc: parenthesize impl on the left
                if _LEVEL[a.op] <= lvl:
                    left = f"({left})"
                if _LEVEL[b.op] < lvl:
                    right = f"({right})"
            else:  # left-assoc
                if _LEVEL[a.op] < lvl:
                    left = f"({left})"
                if _LEVEL[b.op] <= lvl:
                    right = f"({right})"
            s = f"{left} {_SYMBOL[op]} {right}"
        memo[id(node)] = s
        return s

    return walk(f)


# -- semantics ----------------------------------------------------------------

# base t-norm -> (t-norm, its residuum)
_TNORMS = {
    "godel": (min, lambda a, b: ONE_F if a <= b else b),
    "product": (operator.mul, lambda a, b: ONE_F if a <= b else b / a),
    "lukasiewicz": (lambda a, b: max(a + b - 1, ZERO_F),
                    lambda a, b: ONE_F if a <= b else 1 - (a - b)),
}


class TNormSemantics:
    """One of the three basic continuous t-norms, or a closed finite subchain.

    kind is "godel", "product", "lukasiewicz", or "chain"; a chain carries the
    step count m (carrier {0, 1/m, ..., 1}) and a base in {"godel",
    "lukasiewicz"} (the product t-norm does not close on any finite subchain
    other than {0,1}). Like a FiniteAlgebra it has zero, one, star and impl.
    """

    __slots__ = ("kind", "m", "base", "star", "impl")
    zero = ZERO_F
    one = ONE_F

    def __init__(self, kind: str, m: Optional[int] = None, base: Optional[str] = None):
        if kind not in ("godel", "product", "lukasiewicz", "chain"):
            raise ValueError(f"unknown semantics kind {kind!r}")
        if kind == "chain":
            if m is None or m < 1:
                raise ValueError("chain semantics needs m >= 1")
            if base not in ("godel", "lukasiewicz"):
                raise ValueError("chain base must be 'godel' or 'lukasiewicz'")
        self.kind = kind
        self.m = m
        self.base = base
        self.star, self.impl = _TNORMS[base if kind == "chain" else kind]

    def __reduce__(self):
        return (TNormSemantics, (self.kind, self.m, self.base))

    def carrier(self) -> Optional[list[Fraction]]:
        if self.kind != "chain":
            return None
        return [Fraction(i, self.m) for i in range(self.m + 1)]

    def contains(self, v: Fraction) -> bool:
        if not (0 <= v <= 1):
            return False
        if self.kind == "chain":
            return (v * self.m).denominator == 1
        return True

    def __repr__(self):
        if self.kind == "chain":
            return f"TNormSemantics('chain', m={self.m}, base={self.base!r})"
        return f"TNormSemantics({self.kind!r})"

    def __eq__(self, other):
        return (isinstance(other, TNormSemantics)
                and (self.kind, self.m, self.base) == (other.kind, other.m, other.base))

    def __hash__(self):
        return hash((self.kind, self.m, self.base))


GODEL = TNormSemantics("godel")
PRODUCT = TNormSemantics("product")
LUKASIEWICZ = TNormSemantics("lukasiewicz")


def chain_semantics(m: int, base: str = "lukasiewicz") -> TNormSemantics:
    return TNormSemantics("chain", m=m, base=base)


BOOLE = chain_semantics(1)


def evaluate(f: Formula, sem: TNormSemantics, point: Sequence) -> Fraction:
    """Exact value of f at the given point (one Fraction per variable)."""
    vals = tuple(Fraction(v) for v in point)
    for v in vals:
        if not (0 <= v <= 1):
            raise ValueError(f"point value {v} outside [0,1]")
        if not sem.contains(v):
            raise ValueError(f"point value {v} not on the chain carrier")
    if f.arity > len(vals):
        raise ValueError(f"point of length {len(vals)} misses x{f.arity - 1}")
    return interpret(f, sem, vals)


def interpret(f: Formula, alg, vals: Sequence):
    """Value of f in a truth-value algebra when x_i takes vals[i].

    alg is anything with zero, one, star and impl over one set of values: a
    TNormSemantics over Fractions, or an algebra.FiniteAlgebra over element
    indices. vals must cover x0..x_{arity-1} and is not checked.
    """
    zero, one, star, impl = alg.zero, alg.one, alg.star, alg.impl
    memo: dict[int, object] = {}

    def walk(node: Formula):
        got = memo.get(id(node))
        if got is not None:
            return got
        op = node.op
        if op == "var":
            out = vals[node.index]
        elif op == "zero":
            out = zero
        elif op == "one":
            out = one
        elif op == "star":
            out = star(walk(node.args[0]), walk(node.args[1]))
        else:  # impl
            out = impl(walk(node.args[0]), walk(node.args[1]))
        memo[id(node)] = out
        return out

    return walk(f.core())


MAX_TABLE_VARS = 20


def _variable_mask(i: int, n: int) -> int:
    # one period: 2**i zeros then 2**i ones, tiled across all 2**n positions
    period = 1 << (i + 1)
    block = ((1 << (1 << i)) - 1) << (1 << i)
    reps = (1 << n) // period
    return block * (((1 << (period * reps)) - 1) // ((1 << period) - 1))


def boolean_table(f: Formula, n: int) -> int:
    """Two-valued table of f over x0..x_{n-1}, packed into one integer.

    Bit p is the value of f at the valuation whose x_i is bit i of p (least
    significant bit first). A variable beyond x_{n-1} raises ValueError.
    Walks f itself, not its core: on {0,1}, ! is complement, & and * are AND,
    | and (+) are OR.
    """
    if f.arity > n:
        raise ValueError(f"formula uses x{f.arity - 1}, beyond n={n}")
    full = (1 << (1 << n)) - 1
    masks = [_variable_mask(i, n) for i in range(n)]
    memo: dict[int, int] = {}

    def walk(node: Formula) -> int:
        got = memo.get(id(node))
        if got is not None:
            return got
        op = node.op
        if op == "var":
            out = masks[node.index]
        elif op == "zero":
            out = 0
        elif op == "one":
            out = full
        elif op == "neg":
            out = ~walk(node.args[0]) & full
        elif op in ("star", "and"):
            out = walk(node.args[0]) & walk(node.args[1])
        elif op in ("or", "oplus"):
            out = walk(node.args[0]) | walk(node.args[1])
        else:  # impl
            out = (~walk(node.args[0]) | walk(node.args[1])) & full
        memo[id(node)] = out
        return out

    return walk(f)


# -- substitutions ------------------------------------------------------------

class Substitution:
    """A map x_i -> formula over x0..x_{n-1}, extended homomorphically."""

    __slots__ = ("arity", "images")

    def __init__(self, images: Sequence[Formula]):
        images = tuple(images)
        n = len(images)
        for i, g in enumerate(images):
            if g.arity > n:
                raise ValueError(f"image of x{i} uses x{g.arity - 1}, beyond arity {n}")
        self.arity = n
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Substitution":
        return cls([Var(i) for i in range(n)])

    def __call__(self, f: Formula) -> Formula:
        return apply_substitution(self, f)

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        body = "; ".join(f"x{i}={print_formula(g)}" for i, g in enumerate(self.images))
        return f"Substitution({body!r})"


def apply_substitution(sigma: Substitution, f: Formula) -> Formula:
    """sigma applied to f; shares structure so iterated application stays small."""
    memo: dict[int, Formula] = {}

    def walk(node: Formula) -> Formula:
        got = memo.get(id(node))
        if got is not None:
            return got
        op = node.op
        if op == "var":
            if node.index >= sigma.arity:
                raise ValueError(f"substitution of arity {sigma.arity} misses x{node.index}")
            out = sigma.images[node.index]
        elif op in ("zero", "one"):
            out = node
        else:
            args = tuple(walk(a) for a in node.args)
            out = node if all(x is y for x, y in zip(args, node.args)) else Formula(op, args)
        memo[id(node)] = out
        return out

    return walk(f)


def compose_substitutions(sigma: Substitution, tau: Substitution) -> Substitution:
    """x_i -> sigma(tau(x_i)); as point maps this is S_tau after S_sigma."""
    if sigma.arity != tau.arity:
        raise ValueError("substitution arities differ")
    return Substitution([apply_substitution(sigma, g) for g in tau.images])


# -- tautology and identity checking ------------------------------------------

class Verdict:
    """Outcome of a tautology query: tautology, countermodel (with point), or unknown."""

    __slots__ = ("status", "point")

    def __init__(self, status: str, point: Optional[tuple] = None):
        self.status = status
        self.point = point

    @property
    def is_tautology(self) -> bool:
        return self.status == "tautology"

    def __repr__(self):
        if self.status == "countermodel":
            return f"Verdict('countermodel', point={self.point})"
        return f"Verdict({self.status!r})"


def rationals_up_to(bound: int) -> list[Fraction]:
    """All p/q in [0,1] with q <= bound, ascending."""
    vals = {ZERO_F, ONE_F}
    for q in range(1, bound + 1):
        for p in range(q + 1):
            vals.add(Fraction(p, q))
    return sorted(vals)


def _boolean_verdict(f: Formula, n: int, carrier: list[Fraction]) -> Verdict:
    """Truth-table verdict on the two-element chain from one packed table."""
    falsified = ~boolean_table(f, n) & ((1 << (1 << n)) - 1)
    if not falsified:
        return Verdict("tautology")
    # itertools.product order varies x0 slowest: fix x0, x1, ... in turn to the
    # smaller value whenever some falsifying valuation remains with it.
    point = []
    for i in range(n):
        low = falsified & ~_variable_mask(i, n)
        if low:
            falsified = low
            point.append(carrier[0])
        else:
            point.append(carrier[1])
    return Verdict("countermodel", tuple(point))


def tautology_check(f: Formula, sem: TNormSemantics, method: str = "auto",
                    grid_bound: int = 6) -> Verdict:
    """Decide (or refute, or give up on) "f evaluates to 1 everywhere".

    Methods: "truth-table" (finite chains, exhaustive and decisive),
    "exact-pwl" (Lukasiewicz, at most 2 variables, decisive),
    "grid" (any semantics; countermodel search over all points with
    coordinate denominators <= grid_bound, returns unknown if none found).
    """
    n = arity_of(f)
    if method == "auto":
        if sem.kind == "chain":
            method = "truth-table"
        elif sem.kind == "lukasiewicz" and n <= 2:
            method = "exact-pwl"
        else:
            method = "grid"

    if method == "truth-table":
        axis = sem.carrier()
        if axis is None:
            raise ValueError("truth-table method needs a finite chain semantics")
        if sem.m == 1 and n <= MAX_TABLE_VARS:
            return _boolean_verdict(f, n, axis)
        exhausted = "tautology"
    elif method == "exact-pwl":
        if sem.kind != "lukasiewicz":
            raise ValueError("exact-pwl method is Lukasiewicz-only")
        if n > 2:
            raise ValueError("exact-pwl method handles at most 2 variables")
        from . import pwl

        func = pwl.pwl_from_formula(f, dim=max(n, 1))
        val, witness = pwl.pwl_min_value(func)
        if val == 1:
            return Verdict("tautology")
        return Verdict("countermodel", witness[:n])
    elif method == "grid":
        axis = [v for v in rationals_up_to(grid_bound) if sem.contains(v)]
        exhausted = "unknown"
    else:
        raise ValueError(f"unknown method {method!r}")

    # every point lies on sem's carrier and covers f's variables
    for point in itertools.product(axis, repeat=n):
        if interpret(f, sem, point) != 1:
            return Verdict("countermodel", point)
    return Verdict(exhausted)


def identity_check(r: Formula, s: Formula, sem: TNormSemantics, method: str = "auto",
                   grid_bound: int = 6) -> Verdict:
    """r = s as functions iff (r->s) & (s->r) is a tautology."""
    return tautology_check(And(Impl(r, s), Impl(s, r)), sem, method, grid_bound)
