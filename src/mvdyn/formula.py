"""Formula syntax, continuous t-norm semantics, exact evaluation, substitutions.

Formulas are immutable, hash-consed nodes over variables x0, x1, ... with
primitive connectives * (strong conjunction) and -> (residual implication),
constants 0 and 1, and sugar connectives !, &, |, (+) that desugar into the
primitives.
All evaluation is exact: over fractions.Fraction point by point, and over
packed integer tables of all points at once on every finite chain.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
import weakref
from fractions import Fraction
from functools import reduce
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


class OutOfReach(ValueError):
    """No exact procedure reaches this input; a caller with a fallback takes it."""


class Formula:
    """Immutable formula node; equality and hashing are modulo desugaring.

    Formula(op, args, index) returns the one live node of that shape: every
    node, sugar or core, is hash-consed, so equal trees are the same object.
    ``arity`` is the smallest n such that every variable is among x0..x_{n-1}.
    Two formulas are equal iff ``core()`` returns the same node.
    """

    __slots__ = ("op", "args", "index", "arity", "_hash", "_core", "__weakref__")

    def __new__(cls, op: str, args: tuple = (), index: Optional[int] = None):
        # a node holds its args, so their ids stay unique while its entry lives
        if args:
            a, b = args[0], args[-1]  # the same node for a unary connective
            key = (op, id(a), id(b))
        else:
            key = (op, index)
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if op not in _OPS:
            raise ValueError(f"unknown connective {op!r}")
        node = object.__new__(cls)
        if args:
            _set(node, "arity", max(a.arity, b.arity))
            _set(node, "_hash", hash((op, a._hash, b._hash)))
            own = op in _CORE_OPS and a._core is _SELF and b._core is _SELF
        else:
            _set(node, "arity", index + 1 if op == "var" else 0)
            _set(node, "_hash", hash(key))
            own = True
        _set(node, "op", op)
        _set(node, "args", args)
        _set(node, "index", index)
        _set(node, "_core", _SELF if own else None)
        ref = _NODES[key] = _Ref(node, _drop)
        ref.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    def __reduce__(self):
        return (Formula, (self.op, self.args, self.index))

    def core(self) -> "Formula":
        """The desugared form, built from var/0/1/*/-> only, cached on every
        node it is computed for."""
        c = self._core
        if c is None:
            return _desugar(self)
        return self if c is _SELF else c

    def __hash__(self):
        return self.core()._hash

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or self.core() is other.core()

    def __repr__(self):
        return f"Formula({print_formula(self)!r})"

    def __str__(self):
        return print_formula(self)


_set = object.__setattr__

# Marks a node as its own core in ``_core``: a core op over core args, or a
# leaf. Storing the node itself would make a reference cycle that only the
# cyclic garbage collector frees.
_SELF = object()


class _Ref(weakref.ref):
    __slots__ = ("key",)


# The live nodes, keyed on (op, index) for a leaf and on (op, id(a), id(b))
# for a node over a and b; each entry holds only a weak reference.
_NODES: dict[tuple, _Ref] = {}


def _drop(ref: _Ref, nodes=_NODES) -> None:
    """Remove a dead node's entry, unless a new node already took its key."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


# -- traversal ----------------------------------------------------------------

def fold(f: Formula, step: Callable, known: Optional[Callable] = None, *,
         memo: Optional[dict] = None):
    """The value at f of step(node, *values of node.args), called once per
    distinct node of f, children first and left to right.

    known(node), if given, returns a value kept from an earlier call, or None;
    for a node it knows, the fold takes that value and does not descend into it.
    memo, if given, maps id(node) to its value and is shared across calls with
    the same step: a node already in it is not visited again, and every node
    visited is added. The caller keeps every node keyed in it alive while it
    holds the memo, so that no id is reused.
    Nodes wait on a list, each above its parent, not on the call stack: any depth folds.
    """
    if memo is None:
        memo = {}
    stack = [f]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in memo:
            stack.pop()
            continue
        if known is not None and (out := known(node)) is not None:
            memo[key] = out
            stack.pop()
            continue
        args = node.args
        if not args:
            memo[key] = step(node)
            stack.pop()
            continue
        a = args[0]
        va = memo.get(id(a), _MISSING)
        if len(args) == 1:
            if va is _MISSING:
                stack.append(a)
            else:
                memo[key] = step(node, va)
                stack.pop()
            continue
        b = args[1]
        vb = memo.get(id(b), _MISSING)
        if va is _MISSING or vb is _MISSING:
            if vb is _MISSING:
                stack.append(b)
            if va is _MISSING:
                stack.append(a)
            continue
        memo[key] = step(node, va, vb)
        stack.pop()
    return memo[id(f)]


_MISSING = object()


def _desugar_step(node: Formula, a, b=None) -> Formula:
    # leaves and core ops over core args are their own cores, so never reach here
    op = node.op
    if op in ("star", "impl"):
        out = Formula(op, (a, b))
    elif op == "neg":
        out = Impl(a, ZERO)
    elif op == "and":
        out = Star(a, Impl(a, b))
    elif op == "or":
        # ((a->b)->b) & ((b->a)->a), with & expanded
        left = Impl(Impl(a, b), b)
        right = Impl(Impl(b, a), a)
        out = Star(left, Impl(left, right))
    else:  # oplus: !a -> b
        out = Impl(Impl(a, ZERO), b)
    _set(node, "_core", out)
    return out


def _desugar(f: Formula) -> Formula:
    """Core of f. Every visited node keeps its core in ``_core`` and reuses it
    later, so a formula built on top of desugared subterms costs only its new
    nodes."""
    return fold(f, _desugar_step, lambda node: None if node._core is None else node.core())


# -- constructors -------------------------------------------------------------

ZERO = Formula("zero")
ONE = Formula("one")


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


def _variables_step(node: Formula, *vals: frozenset) -> frozenset:
    if node.op == "var":
        return frozenset((node.index,))
    return frozenset().union(*vals)


def variables_of(f: Formula) -> frozenset[int]:
    return fold(f, _variables_step)


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


def json_int(x, text: bool = False) -> int:
    """x if it is a JSON integer, not a bool; with text, also the int that an
    ASCII decimal string with an optional minus sign writes. Else TypeError."""
    digits = x.removeprefix("-") if text and x.__class__ is str else ""
    if digits.isascii() and digits.isdigit():
        return int(x)
    if x.__class__ is not int:
        raise TypeError(f"not an integer: {x!r}")
    return x


def json_list(x) -> list:
    """x if it is a JSON list, else TypeError."""
    if x.__class__ is not list:
        raise TypeError(f"not a list: {x!r}")
    return x


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs; a repeated key is refused, not merged."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


# json.loads for every JSON text mvdyn reads: a repeated key in any object
# raises ValueError naming it, where json.loads keeps the last value
decode_json = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


# -- parser -------------------------------------------------------------------

# Each binary connective, keyed by its op: precedence level (higher binds
# tighter), symbol (also its token), constructor. -> is right-associative,
# the others are left-associative; ! is at level 5 and the leaves at 6.
_BINARY = {
    "impl": (0, "->", Impl),
    "or": (1, "|", Or),
    "and": (2, "&", And),
    "oplus": (3, "(+)", OPlus),
    "star": (4, "*", Star),
}
_INFIX = {symbol: (level, ctor) for level, symbol, ctor in _BINARY.values()}

# One token per match: a variable, a connective, a constant, a run of '!',
# '(' or ')', else any one non-space character, an error (regex \s is str.isspace).
_TOKEN = re.compile(r"x[0-9]+|->|\(\+\)|!+|[01()*&|]|\S")
# The '(' and ')' that open and close groups: not those of '(+)'.
_PARENS = re.compile(r"(\((?!\+\))|(?<!\(\+)\))")
_MAX_INDEX_DIGITS = 4300  # the longest decimal string int() reads by default

_TOKEN_NAMES = {tok: f"'{tok}'" for tok in ("0", "1", "!", "(", ")", *_INFIX)}
_ATOM_STARTS = ["variable", "'0'", "'1'", "'!'", "'('"]
_BAD_CHARS = {"x": ("variable name needs digits", ["variable"]), "-": ("stray '-'", ["'->'"])}


def variable_index(name: str) -> Optional[int]:
    """i if name is the variable x<i>: 'x' then 1 to 4300 ASCII digits; else None."""
    digits = name[1:]
    ok = name[:1] == "x" and 0 < len(digits) <= _MAX_INDEX_DIGITS and digits.isascii()
    return int(digits) if ok and digits.isdigit() else None


class _Stuck(Exception):
    """args: the index of the token that cannot come next (len(tokens): the end), what could."""


def _reduce(operands: list, pending: list, level: int) -> None:
    """Join the pending binary connectives of precedence level >= level, from
    the innermost out, stopping at a pending '('."""
    while pending and pending[-1] in _INFIX and _INFIX[pending[-1]][0] >= level:
        right = operands.pop()
        operands[-1] = _INFIX[pending.pop()][1](operands[-1], right)


def _parse_tokens(tokens: list, chains: dict) -> Formula:
    """Operator-precedence parse on two lists, operands and pending runs of '!',
    '(' and binary connectives, not on the call stack: any depth of nesting
    parses. A Formula among the tokens is an operand: a group parsed before.
    The runs of '!' before an operand x, k in all, give Neg^k(x), read from the
    chain [x, !x, !!x, ...] that chains keeps under id(x) and extends as needed;
    the chain holds x, so the id stays unique while chains lives."""
    operands: list[Formula] = []
    pending: list[str] = []
    open_parens = 0
    after_operand = False
    for i, tok in enumerate(tokens):
        if not after_operand:
            if tok.__class__ is not str:
                operands.append(tok)
            elif tok[0] == "!" or tok == "(":
                pending.append(tok)
                open_parens += tok == "("
                continue
            elif tok == "0" or tok == "1":
                operands.append(ONE if tok == "1" else ZERO)
            elif tok[0] == "x" and 1 < len(tok) <= _MAX_INDEX_DIGITS + 1:  # ASCII by _TOKEN
                operands.append(Var(int(tok[1:])))
            else:
                raise _Stuck(i, _ATOM_STARTS)
        elif tok.__class__ is str and tok in _INFIX:
            # a pending -> of the same level waits: -> is right-associative
            level = _INFIX[tok][0]
            _reduce(operands, pending, level + 1 if tok == "->" else level)
            pending.append(tok)
            after_operand = False
            continue
        elif tok == ")" and open_parens:
            _reduce(operands, pending, 0)
            pending.pop()  # its '('
            open_parens -= 1
        else:
            raise _Stuck(i, [_TOKEN_NAMES[")"] if open_parens else "end of input"])
        after_operand = True
        # an operand is complete, or a parenthesis closed: apply the ! pending before it
        k = 0
        while pending and pending[-1][0] == "!":
            k += len(pending.pop())
        if k:
            chain = chains.setdefault(id(operands[-1]), [operands[-1]])
            while len(chain) <= k:
                chain.append(Neg(chain[-1]))
            operands[-1] = chain[k]
    if not after_operand or open_parens:
        raise _Stuck(len(tokens), [_TOKEN_NAMES[")"]] if after_operand else _ATOM_STARTS)
    _reduce(operands, pending, 0)
    return operands[0]


def _parse_positioned(text: str) -> Formula:
    """The whole text parsed as one token list, to raise its ParseError: at the
    first token the tokenizer rejects, else at the first that cannot come next."""
    matches = list(_TOKEN.finditer(text))
    tokens = [m.group() for m in matches]
    for i, tok in enumerate(tokens):
        if tok[0] != "!" and tok not in _TOKEN_NAMES and variable_index(tok) is None:
            message, expected = (
                _BAD_CHARS.get(tok, (f"unexpected character {tok!r}", _ATOM_STARTS))
                if len(tok) == 1  # else x and more digits than int() reads
                else (f"variable index over {_MAX_INDEX_DIGITS} digits", ["variable"]))
            break
    else:
        try:
            return _parse_tokens(tokens, {})
        except _Stuck as stuck:
            i, expected = stuck.args
        message = "unexpected " + (_TOKEN_NAMES.get("!" if tokens[i][0] == "!" else tokens[i],
                                                    "variable")
                                   if i < len(tokens) else "end of input")
    pos = matches[i].start() if i < len(tokens) else len(text)
    raise ParseError(message, len(text[:pos].encode("utf-8")), expected)


def _top_level_arrows(text: str) -> list:
    """The offsets of the '->' of text outside every group, for a text that
    parses: '(+)' opens and closes, so it leaves the depth as it was."""
    arrows, depth, start, p = [], 0, 0, text.find("->")
    while p >= 0:
        depth += text.count("(", start, p) - text.count(")", start, p)
        if not depth:
            arrows.append(p)
        start, p = p, text.find("->", p + 2)
    return arrows


def _key_consequent(memo: dict, node: Formula, text: str, arrows: list, k: int) -> None:
    """Key the text after the top-level '->' at text[arrows[k]], left-stripped, to
    node's consequent, with what keys the next one: -> is the loosest connective
    and right-associative, so that text parses on its own to the consequent."""
    if k < len(arrows):
        memo.setdefault(text[arrows[k] + 2:].lstrip(), (node.args[1], text, arrows, k + 1))


def parse_formula(text: str, *, memo: Optional[dict] = None) -> Formula:
    """The formula that text writes, read in one pass over its parentheses.

    Each group ( ... ), and the whole text, is keyed by its text segments and
    the nodes of the groups in it, and each distinct group body is parsed once
    per memo: per call, or across the calls that share the dict memo. A run
    of '!' is one token, and each of its nodes is built once per memo. Nodes
    are hash-consed, so a DAG printed as a tree costs its distinct groups and
    runs, not its tokens. On any error the whole text is parsed again as one
    token list, which raises the ParseError.

    A caller's memo also keys each text that parses, and the text after its
    first top-level '->'; reading that one keys the text after the next, so a
    Modus Ponens line of a proof read through one memo is one lookup.
    """
    keyed = memo is not None and text.__class__ is str  # a tuple could be a group key
    if keyed:
        node = memo.get(text)
        if node.__class__ is tuple:  # a consequent: key the one after it
            _key_consequent(memo, *node)
            node = memo[text] = node[0]
        if node is not None:
            return node
    elif memo is None:
        memo = {}
    pieces = iter(_PARENS.split(text) + [")", ""])  # the top level closes like a group
    # group key (a tuple) -> node, id(x) (an int) -> the chain [x, !x, ...]
    # for each group node and each operand of a run of '!' (see _parse_tokens),
    # and text (a str) -> node or consequent; holding the nodes keeps the ids
    # in the keys unique while it lives
    stack = [[]]                      # the items of the groups around this one
    items = [next(pieces)]            # text segments, and node ids between them
    try:
        for paren, segment in zip(pieces, pieces):
            if not stack:
                raise _Stuck  # a parenthesis after a ')' that closed the top level
            if paren == "(":
                stack.append(items)
                items = [segment]
                continue
            key = tuple(items)
            node = memo.get(key)
            if node is None:
                tokens = _TOKEN.findall(items[0])
                for j in range(1, len(items), 2):
                    tokens.append(memo[items[j]][0])
                    tokens += _TOKEN.findall(items[j + 1])
                node = memo[key] = _parse_tokens(tokens, memo)
                memo.setdefault(id(node), [node])
            items = stack.pop()
            items += (id(node), segment)
        if not stack:
            if keyed:
                memo[text] = node
                _key_consequent(memo, node, text, _top_level_arrows(text), 0)
            return node
    except _Stuck:
        pass
    return _parse_positioned(text)


_LEVEL = {**{op: level for op, (level, _, _) in _BINARY.items()},
          "neg": 5, "var": 6, "zero": 6, "one": 6}


def _print_step(node: Formula, left=None, right=None) -> str:
    op = node.op
    if op == "var":
        return f"x{node.index}"
    if op == "zero":
        return "0"
    if op == "one":
        return "1"
    if op == "neg":
        return "!" + (left if _LEVEL[node.args[0].op] >= 5 else f"({left})")
    lvl = _LEVEL[op]
    a, b = node.args
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
    return f"{left} {_BINARY[op][1]} {right}"


def print_formula(f: Formula, *, memo: Optional[dict] = None) -> str:
    """The text of f, which parse_formula reads back as f; memo as in fold."""
    return fold(f, _print_step, memo=memo)


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

    def step(node: Formula, a=None, b=None):
        op = node.op
        if op == "var":
            return vals[node.index]
        if op == "zero":
            return zero
        if op == "one":
            return one
        if op == "star":
            return star(a, b)
        return impl(a, b)

    return fold(f.core(), step)


MAX_CHAIN_VALUATIONS = 2_000_000


def cap_points(sizes: Sequence[int], what: str, repeat: int = 1) -> None:
    """Refuse, before any point is built, itertools.product over axes of these
    sizes (one axis repeated, or several once) when it has more than
    MAX_CHAIN_VALUATIONS points; the message names the count."""
    if math.prod(sizes) ** repeat > MAX_CHAIN_VALUATIONS:
        count = "*".join(map(str, sizes)) + (f"**{repeat}" if len(sizes) == 1 else "")
        raise ValueError(f"the {count} {what} exceed the cap of {MAX_CHAIN_VALUATIONS}")


def _variable_planes(n: int, m: int, i: int) -> list[int]:
    """Plane b of x_i, for each bit b of m: the points of the chain with m steps,
    (m+1)**n in all, whose digit i in base m+1 (x0 least significant) has bit b
    set. By doubling: 2**b clear blocks, 2**b set ones, to a period, then to all."""
    total, block, planes = (m + 1) ** n, (m + 1) ** i, []
    for b in range(m.bit_length()):
        run = block << b
        plane, width = ((1 << run) - 1) << run, 2 * run
        for length in ((m + 1) * block, total):
            while width < length:
                plane |= plane << width
                width <<= 1
            plane, width = plane & ((1 << length) - 1), length
        planes.append(plane)
    return planes


def cap_boolean_table(n: int) -> None:
    """Refuse, before a two-valued table of n variables is built, a negative n
    or 2**n valuations past the one cap."""
    if n < 0:
        raise ValueError(f"variable count must be at least 0, not {n}")
    cap_points([2], "valuations of a finite chain", n)


def boolean_table(f: Formula, n: int, *, memo: Optional[dict] = None) -> int:
    """Two-valued table of f over x0..x_{n-1}, packed into one integer.

    Bit p is the value of f at the valuation whose x_i is bit i of p (least
    significant bit first). A variable beyond x_{n-1} raises ValueError.
    One fold of _chain_step on the two-element chain, after the 2**n
    valuations are held to the one cap. memo is as in fold, shared only by
    calls with the same n; it keeps each variable's table once built.
    """
    cap_boolean_table(n)
    if f.arity > n:
        raise ValueError(f"formula uses x{f.arity - 1}, beyond n={n}")
    return fold(f, _chain_step(n, BOOLE.m, BOOLE.base), memo=memo)


def _sub(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """a - b with a rippled borrow: (its planes mod 2**len(a), the points where a < b)."""
    out, borrow = [], 0
    for x, y in zip(a, b):
        d = x ^ y
        out.append(d ^ borrow)
        borrow = (~x & y) | (~d & borrow)
    return out, borrow


def _chain_step(n: int, m: int, base: str) -> Callable:
    """The fold step on the chain with m steps over x0..x_{n-1}, valued in packed
    tables of its (m+1)**n points. x_i's planes are built when the fold first
    meets x_i; a memo shared by calls with the same (n, m, base) keeps them.
    At m = 1 a value is one table, of f itself, not its core: ! is complement,
    & and * are AND, | and (+) are OR. At m >= 2 it is each point's numerator k
    of its value k/m, plane b where bit b of k is set; a connective, sugar too,
    is O(log m) plane operations: rippled subtractions and selects."""
    full = (1 << (m + 1) ** n) - 1
    if m == 1:
        def step(node: Formula, a=None, b=None) -> int:
            op = node.op
            if op == "var":
                return _variable_planes(n, 1, node.index)[0]
            if op in ("zero", "one"):
                return full if op == "one" else 0
            if op == "neg":
                return ~a & full
            if op in ("star", "and"):
                return a & b
            if op in ("or", "oplus"):
                return a | b
            return (~a | b) & full  # impl

        return step

    top = [full if m >> b & 1 else 0 for b in range(m.bit_length())]

    def cut(a, b):  # max(0, a - b)
        d, below = _sub(a, b)
        return [x & ~below for x in d]

    def select(mask, a, b):  # a where mask is set, else b
        return [(x & mask) | (y & ~mask) for x, y in zip(a, b)]

    def step(node: Formula, a=None, b=None) -> list[int]:
        op = node.op
        if op == "var":
            return _variable_planes(n, m, node.index)
        if op in ("zero", "one"):
            return top if op == "one" else [0] * len(top)
        if op in ("and", "or") or op == "star" and base == "godel":
            below = _sub(a, b)[1]
            return select(below, b, a) if op == "or" else select(below, a, b)
        if base == "godel":
            if op == "impl":
                return select(_sub(b, a)[1], b, top)
            nonzero = reduce(operator.or_, a)
            return [t & ~nonzero for t in top] if op == "neg" else select(nonzero, top, b)
        if op == "neg":
            return _sub(top, a)[0]
        if op == "star":
            return cut(a, _sub(top, b)[0])
        if op == "oplus":  # !a -> b
            a = _sub(top, a)[0]
        return _sub(top, cut(a, b))[0]

    return step


# -- substitutions ------------------------------------------------------------

class Substitution:
    """A map x_i -> formula over x0..x_{n-1}, extended homomorphically.

    The _form slot is unset until dynamics.geometric_form first compiles the
    images; it then keeps the compiled map, or the refusal the compile
    raised, for the object's lifetime. Only that function reads or writes it.
    """

    __slots__ = ("arity", "images", "_form")

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
        if n < 0:
            raise ValueError(f"variable count must be at least 0, not {n}")
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


def apply_substitution(sigma: Substitution, f: Formula, *,
                       memo: Optional[dict] = None) -> Formula:
    """sigma applied to f; shares structure so iterated application stays small.
    memo is as in fold, shared only by calls whose sigmas have the same images."""

    def step(node: Formula, *args: Formula) -> Formula:
        if node.op == "var":
            if node.index >= sigma.arity:
                raise ValueError(f"substitution of arity {sigma.arity} misses x{node.index}")
            return sigma.images[node.index]
        return Formula(node.op, args)

    return fold(f, step, memo=memo)


def compose_substitutions(sigma: Substitution, tau: Substitution) -> Substitution:
    """x_i -> sigma(tau(x_i)); as point maps this is S_tau after S_sigma.
    tau's images share one memo, so a node they share is substituted once."""
    if sigma.arity != tau.arity:
        raise ValueError("substitution arities differ")
    memo: dict = {}
    return Substitution([apply_substitution(sigma, g, memo=memo) for g in tau.images])


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


def _countermodel(delta: Sequence[Formula], f: Formula, sem: TNormSemantics,
                  n: int) -> tuple[Optional[tuple], Optional[int]]:
    """Search the (m+1)**n valuations of the finite chain sem, in
    itertools.product order, for a point where every formula of delta is 1
    and f is not: (the first such point, None), or if there is none (None,
    the number of points where all of delta is 1). Every formula uses only
    x0..x_{n-1}. The one cap refuses first. Every formula folds _chain_step
    through one memo; bit p of a table is the point whose digit i in base m+1
    is x_i's numerator."""
    m = sem.m
    cap_points([m + 1], "valuations of a finite chain", n)
    full = (1 << (m + 1) ** n) - 1
    step, memo = _chain_step(n, m, sem.base), {}

    def ones(g: Formula) -> int:  # the points where g is 1
        value = fold(g, step, memo=memo)
        return value if m == 1 else full & ~_sub(value, step(ONE))[1]

    held = reduce(operator.and_, map(ones, delta), full)
    bad = held & ~ones(f)
    if not bad:
        return None, held.bit_count()
    # itertools.product order varies x0 slowest: give x0, x1, ... in turn the
    # least value some point of bad still has, reading its bits from the top
    point = []
    for i in range(n):
        k = 0
        for plane in reversed(_variable_planes(n, m, i)):
            low = bad & ~plane
            k, bad = (2 * k, low) if low else (2 * k + 1, bad)
        point.append(Fraction(k, m))
    return tuple(point), None


def tautology_check(f: Formula, sem: TNormSemantics, method: str = "auto",
                    grid_bound: int = 6) -> Verdict:
    """Decide (or refute, or give up on) "f evaluates to 1 everywhere".

    Methods: "truth-table" (finite chains, exhaustive and decisive),
    "exact-pwl" (Lukasiewicz, as far as the exact geometry reaches, decisive),
    "grid" (any semantics; countermodel search over all points with
    coordinate denominators <= grid_bound, returns unknown if none found),
    and "auto". The decisive methods ask proofs.mp_consequence whether f
    follows from no hypotheses, which is the same question; "auto" asks it
    for any semantics and runs the grid where it refuses with OutOfReach.
    """
    from .proofs import mp_consequence

    if method == "truth-table" and sem.kind != "chain":
        raise ValueError("truth-table method needs a finite chain semantics")
    if method == "exact-pwl" and sem.kind != "lukasiewicz":
        raise ValueError("exact-pwl method is Lukasiewicz-only")
    if method in ("auto", "truth-table", "exact-pwl"):
        try:
            point = mp_consequence((), f, sem).countermodel
        except OutOfReach:
            if method != "auto":
                raise
        else:
            return Verdict("tautology") if point is None else Verdict("countermodel", point)
    elif method != "grid":
        raise ValueError(f"unknown method {method!r}")
    if grid_bound < 1:
        raise ValueError(f"grid_bound must be at least 1, not {grid_bound}")
    cap_points([grid_bound * (grid_bound + 3) // 2], "candidate values p/q of the grid")
    axis = [v for v in rationals_up_to(grid_bound) if sem.contains(v)]
    cap_points([len(axis)], "points of the grid", f.arity)
    point = next((p for p in itertools.product(axis, repeat=f.arity)
                  if interpret(f, sem, p) != 1), None)
    return Verdict("unknown") if point is None else Verdict("countermodel", point)


def identity_check(r: Formula, s: Formula, sem: TNormSemantics, method: str = "auto",
                   grid_bound: int = 6) -> Verdict:
    """r = s as functions iff (r->s) & (s->r) is a tautology."""
    return tautology_check(And(Impl(r, s), Impl(s, r)), sem, method, grid_bound)
