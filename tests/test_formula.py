"""Formula construction, parsing, printing, semantics, and substitutions."""

import copy
import functools
import gc
import itertools
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mvdyn import formula as formula_module
from mvdyn.algebra import evaluate_in, finite_chain
from mvdyn.dynamics import empirical_statistics, induced_map
from mvdyn.formula import (
    Formula, Var, Star, Impl, Neg, And, Or, OPlus, ZERO, ONE, fold,
    ParseError, parse_formula, print_formula, variables_of, arity_of,
    GODEL, PRODUCT, LUKASIEWICZ, BOOLE, chain_semantics, evaluate,
    Substitution, apply_substitution, compose_substitutions,
    tautology_check, identity_check, rationals_up_to, boolean_table,
)
from mvdyn.odometer import derive_from_nontautology, odometer_substitution
from mvdyn.pwl import pwl_equal, pwl_from_formula, pwl_min_value

F = Fraction

X0, X1, X2 = Var(0), Var(1), Var(2)


def rand_formula(rng, n, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var(rng.randrange(n)), ZERO, ONE])
    op = rng.choice(["star", "impl", "neg", "and", "or", "oplus"])
    if op == "neg":
        return Neg(rand_formula(rng, n, depth - 1))
    ctor = {"star": Star, "impl": Impl, "and": And, "or": Or, "oplus": OPlus}[op]
    return ctor(rand_formula(rng, n, depth - 1), rand_formula(rng, n, depth - 1))


def rand_formula_upto(rng, n, depth):
    """Like rand_formula, but n may be 0 (only constants at the leaves)."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var(i) for i in range(n)] + [ZERO, ONE])
    op = rng.choice(["star", "impl", "neg", "and", "or", "oplus"])
    if op == "neg":
        return Neg(rand_formula_upto(rng, n, depth - 1))
    ctor = {"star": Star, "impl": Impl, "and": And, "or": Or, "oplus": OPlus}[op]
    return ctor(rand_formula_upto(rng, n, depth - 1), rand_formula_upto(rng, n, depth - 1))


def desugared_copy(f, memo=None):
    """f rebuilt from fresh * and -> nodes by the documented desugaring rules,
    without calling core() or reusing any cached node above the leaves."""
    memo = {} if memo is None else memo
    if id(f) in memo:
        return memo[id(f)]
    op = f.op
    if op in ("var", "zero", "one"):
        return f
    if op == "neg":
        out = Impl(desugared_copy(f.args[0], memo), ZERO)
    else:
        a, b = desugared_copy(f.args[0], memo), desugared_copy(f.args[1], memo)
        if op == "star":
            out = Star(a, b)
        elif op == "impl":
            out = Impl(a, b)
        elif op == "oplus":
            out = Impl(Impl(a, ZERO), b)
        elif op == "and":
            out = Star(a, Impl(a, b))
        else:  # or
            left = Impl(Impl(a, b), b)
            right = Impl(Impl(b, a), a)
            out = Star(left, Impl(left, right))
    memo[id(f)] = out
    return out


def rand_point(rng, n, den=12):
    return tuple(F(rng.randint(0, den), den) for _ in range(n))


# -- structure ---------------------------------------------------------------------

def test_variables_and_arity():
    f = Impl(Star(X0, X2), Neg(X0))
    assert variables_of(f) == frozenset({0, 2})
    assert arity_of(f) == 3
    assert arity_of(ONE) == 0


def test_equality_is_modulo_sugar():
    assert Neg(X0) == Impl(X0, ZERO)
    assert And(X0, X1) == Star(X0, Impl(X0, X1))
    assert OPlus(X0, X1) == Impl(Neg(X0), X1)
    assert Or(X0, X1) == And(Impl(Impl(X0, X1), X1), Impl(Impl(X1, X0), X0))
    assert Neg(X0) != Neg(X1)
    assert hash(Neg(X0)) == hash(Impl(X0, ZERO))


def test_cached_cores_keep_equality_modulo_sugar():
    rng = random.Random(31)
    for _ in range(100):
        a, b = rand_formula(rng, 3, 3), rand_formula(rng, 3, 3)
        for sub in (a, b, Neg(a)):
            sub.core()
            hash(sub)
        big = Or(Impl(a, Neg(b)), And(a, OPlus(b, a)))
        plain = desugared_copy(big)
        assert big == plain and plain == big
        assert hash(big) == hash(plain)
        swapped = desugared_copy(Or(Impl(a, Neg(b)), And(a, OPlus(a, b))))
        same = print_formula(plain) == print_formula(swapped)
        assert (big == swapped) == same
        if same:
            assert hash(big) == hash(swapped)


def test_running_conjunction_shares_cached_cores():
    # the shape of an odometer derivation: substitution-shifted copies of r
    # folded into And(conj, part), each step hashed and compared on the way
    sigma = Substitution([Neg(X0), Or(And(X1, Neg(X0)), And(Neg(X1), X0))])
    r = OPlus(Star(X0, Neg(X1)), And(X1, X0))
    part = conj = r
    for _ in range(12):
        part = apply_substitution(sigma, part)
        hash(part)
        pair = And(conj, part)
        step = Impl(conj, Impl(part, pair))
        hash(step)
        core = step.core()
        assert core.args[0] is conj.core()
        assert core.args[1].args[1] is pair.core()
        plain = desugared_copy(pair)
        assert pair == plain and hash(pair) == hash(plain)
        assert pair != desugared_copy(And(part, conj))
        conj = pair


def test_cores_are_interned():
    assert Neg(X0).core() is Impl(X0, ZERO).core()
    assert OPlus(X0, X1).core() is Impl(Impl(X0, ZERO), X1).core()
    assert Impl(X0, ZERO).core().args[0] is Var(0).core()
    rng = random.Random(47)
    for _ in range(100):
        f = rand_formula(rng, 3, 4)
        assert f.core() is desugared_copy(f).core()
        assert f.core().core() is f.core()


def test_arity_is_one_past_the_largest_variable():
    rng = random.Random(53)
    sigma = Substitution([Neg(X1), And(X0, X2), OPlus(X1, ZERO), ONE])
    for n in range(5):
        for _ in range(40):
            f = rand_formula_upto(rng, n, 4)
            for g in (f, parse_formula(print_formula(f)), apply_substitution(sigma, f)):
                assert g.arity == max(variables_of(g), default=-1) + 1
                assert arity_of(g) == g.arity


def test_interned_cores_die_with_their_formulas():
    f = OPlus(Var(911), Neg(Var(912)))
    ref = weakref.ref(f.core())
    assert ref() is not None
    del f
    gc.collect()
    assert ref() is None


def test_every_node_is_hash_consed():
    a = Neg(X0)
    assert Neg(Var(0)) is a and Formula("neg", (X0,)) is a
    assert And(a, X1) is And(Neg(Var(0)), Var(1))
    assert Var(3) is Var(3) and Formula("zero") is ZERO and Formula("one", ()) is ONE
    assert Star(X0, X1) is not Star(X1, X0)
    # a sugar node and its core are two nodes; the core is built once
    assert And(X0, X1) is not Star(X0, Impl(X0, X1))
    assert And(X0, X1).core() is Star(X0, Impl(X0, X1))
    assert Star(Neg(X0), X1).core() is Star(Impl(X0, ZERO), X1)


def distinct_nodes(f):
    nodes = []
    fold(f, lambda node, *kids: nodes.append(node))
    return len(nodes)


def test_parsing_a_printed_formula_returns_its_node():
    rng = random.Random(71)
    for _ in range(200):
        f = rand_formula(rng, 3, 5)
        assert parse_formula(print_formula(f)) is f
    # a derivation line repeats earlier lines inside it: printed as a tree, it
    # parses back into the DAG it was derived as, even after that DAG is gone
    proof = derive_from_nontautology(Star(X0, X1), Neg(X1), 3)
    line = max((ln.formula for ln in proof.lines), key=lambda g: len(print_formula(g)))
    text = print_formula(line)
    nodes = distinct_nodes(line)
    assert parse_formula(text) is line
    assert 100 * nodes < len(text)
    del proof, line
    assert distinct_nodes(parse_formula(text)) == nodes


def test_dropped_formula_and_its_core_are_freed_without_the_collector():
    gc.disable()
    try:
        f = Or(OPlus(Var(913), Neg(Var(914))), Var(913))
        nodes = (f, f.core(), f.args[0], f.args[0].core(), f.args[1], f.core().args[0])
        refs = [weakref.ref(g) for g in nodes]
        del f, nodes
        assert [ref() for ref in refs] == [None] * 6
    finally:
        gc.enable()


def test_node_table_shrinks_back_when_formulas_die():
    gc.collect()
    start = len(formula_module._NODES)
    for seed in (83, 83, 84):
        rng = random.Random(seed)
        fs = [rand_formula(rng, 2, 2) for _ in range(300)]
        fs += [desugared_copy(f) for f in fs[:100]]
        shapes = [shape(desugared_copy(f)) for f in fs]
        assert len(formula_module._NODES) > start
        for (f, sf), (g, sg) in itertools.combinations(zip(fs, shapes), 2):
            assert (f == g) == (sf == sg)
            assert (f.core() is g.core()) == (sf == sg)
        del fs, f, g
        assert len(formula_module._NODES) == start


def test_copy_and_pickle_round_trip():
    for f in (Neg(X0), ONE, Or(And(X0, Neg(X1)), OPlus(X2, ZERO))):
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f)
            assert print_formula(g) == print_formula(f)


def test_core_is_sugar_free():
    core = Or(Neg(X0), OPlus(X0, X1)).core()
    ops = set()
    stack = [core]
    while stack:
        node = stack.pop()
        ops.add(node.op)
        stack.extend(node.args)
    assert ops <= {"star", "impl", "var", "zero", "one"}


# -- parsing and printing -----------------------------------------------------------

def test_parse_precedence():
    assert parse_formula("!x0 * x1") == Star(Neg(X0), X1)
    assert parse_formula("x0 (+) x1 & x2") == And(OPlus(X0, X1), X2)
    assert parse_formula("x0 & x1 | x2") == Or(And(X0, X1), X2)
    assert parse_formula("x0 | x1 -> x2") == Impl(Or(X0, X1), X2)
    assert parse_formula("x0 -> x1 -> x2") == Impl(X0, Impl(X1, X2))
    assert parse_formula("!!x0") == Neg(Neg(X0))
    assert parse_formula("(x0 -> x1) -> x2") == Impl(Impl(X0, X1), X2)
    assert parse_formula("0 -> 1") == Impl(ZERO, ONE)


def test_parse_oplus_vs_parenthesis():
    assert parse_formula("x0 (+) (x1)") == OPlus(X0, X1)
    assert parse_formula("(x0) (+) x1") == OPlus(X0, X1)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse_formula("x0 -> ")
    assert err.value.offset == 6
    assert err.value.expected

    with pytest.raises(ParseError) as err:
        parse_formula("x0 @ x1")
    assert err.value.offset == 3

    # U+00A0 is whitespace of two bytes in UTF-8: offsets count bytes, not chars
    with pytest.raises(ParseError) as err:
        parse_formula("x0\u00a0@")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_formula("x0\u00a0->\u00a0")
    assert err.value.offset == 8

    with pytest.raises(ParseError):
        parse_formula("(x0 -> x1")
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("x")


ATOM_STARTS = ["'!'", "'('", "'0'", "'1'", "variable"]


@pytest.mark.parametrize("text, message, offset, expected", [
    ("x0 x1", "unexpected variable", 3, ["end of input"]),
    ("x0)", "unexpected ')'", 2, ["end of input"]),
    ("(x0 x1", "unexpected variable", 4, ["')'"]),
    ("(x0", "unexpected end of input", 3, ["')'"]),
    ("!)", "unexpected ')'", 1, ATOM_STARTS),
    ("((x0) (+) x1 -> )", "unexpected ')'", 16, ATOM_STARTS),
])
def test_parse_error_message_offset_and_expected(text, message, offset, expected):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == f"{message} at byte {offset}; expected one of {expected}"
    assert err.value.offset == offset
    assert err.value.expected == frozenset(expected)


def negations(depth, leaf):
    f = leaf
    for _ in range(depth):
        f = Neg(f)
    return f


def conjunction_chain(depth, leaf):
    """leaf & (leaf -> 0) & (0 -> leaf) & ..., nested to the left."""
    f = leaf
    for i in range(depth):
        f = And(f, Impl(leaf, ZERO) if i % 2 == 0 else Impl(ZERO, leaf))
    return f


def implication_chain(depth, leaf):
    """1 -> 1 -> ... -> leaf, nested to the right, so it prints without parentheses."""
    f = leaf
    for _ in range(depth):
        f = Impl(ONE, f)
    return f


def left_implication_chain(depth, leaf):
    """((leaf -> leaf) -> leaf) -> ..., nested to the left, so it prints with
    depth - 1 nested parentheses."""
    f = leaf
    for _ in range(depth):
        f = Impl(f, leaf)
    return f


def check_deep_walks(build, depth, reference):
    """Every formula walk on build(depth, x0), far deeper than the default
    recursion limit, against the shallow formula reference with its semantics."""
    f = build(depth, X0)
    text = print_formula(f)
    g = parse_formula(text)
    assert g is f and print_formula(g) == text
    assert g == f and hash(g) == hash(f) and f != Neg(f)
    assert variables_of(f) == {0}
    assert evaluate(f, LUKASIEWICZ, [F(2, 3)]) == evaluate(reference, LUKASIEWICZ, [F(2, 3)])
    chain = finite_chain(3)
    assert evaluate_in(f, chain, [2]) == evaluate_in(reference, chain, [2])
    assert boolean_table(f, 1) == boolean_table(reference, 1)
    assert apply_substitution(Substitution([Neg(X0)]), f) == build(depth, Neg(X0))
    assert pwl_equal(pwl_from_formula(f, dim=1), pwl_from_formula(reference, dim=1))
    stats = [empirical_statistics(induced_map(Substitution([h])), [F(3, 5)], 20, 2)
             for h in (f, reference)]
    assert [c["count"] for c in stats[0]["table"]] == [c["count"] for c in stats[1]["table"]]


def test_deep_negation_chain_through_every_walk():
    check_deep_walks(negations, 5000, X0)


def test_deep_conjunction_chain_through_every_walk():
    check_deep_walks(conjunction_chain, 3000, And(X0, Neg(X0)))


def test_deep_implication_chain_through_every_walk():
    check_deep_walks(implication_chain, 3000, X0)


def test_deep_left_implication_chain_through_every_walk():
    f = left_implication_chain(3000, X0)
    assert print_formula(f).startswith("(" * 2999 + "x0 -> x0)")
    check_deep_walks(left_implication_chain, 3000, X0)


def test_parse_deeply_nested_parentheses():
    f = parse_formula("(" * 100000 + "x0" + ")" * 100000)
    assert f.op == "var" and f.index == 0


def shape(f):
    """f as nested tuples (op, index, *children): equal iff the trees are the same."""
    return fold(f, lambda node, *kids: (node.op, node.index, *kids))


def test_print_parse_round_trip():
    rng = random.Random(42)
    for _ in range(300):
        f = rand_formula(rng, 3, 4)
        g = parse_formula(print_formula(f))
        assert g == f and shape(g) == shape(f)


def test_print_known_forms():
    assert print_formula(Impl(X0, X1)) == "x0 -> x1"
    assert print_formula(Star(Neg(X0), X1)) == "!x0 * x1"
    assert print_formula(Impl(Impl(X0, X1), X2)) == "(x0 -> x1) -> x2"


# -- the reference parser -----------------------------------------------------------
# The character loop and parse loop that parse_formula replaced, kept as the
# reference it must match: the same node for every text the reference accepts,
# and the same ParseError (message, byte offset, expected set) for every text it
# rejects. The one intended difference: the reference reads any Unicode digits
# in a variable name (see test_variable_names_take_ascii_digits_only).

REF_BINARY = {
    "impl": (0, "->", Impl),
    "or": (1, "|", Or),
    "and": (2, "&", And),
    "oplus": (3, "(+)", OPlus),
    "star": (4, "*", Star),
}
REF_TOKEN_NAMES = {
    "var": "variable", "zero": "'0'", "one": "'1'", "not": "'!'",
    "lparen": "'('", "rparen": "')'", "eof": "end of input",
    **{op: f"'{symbol}'" for op, (_, symbol, _) in REF_BINARY.items()},
}
REF_ATOM_STARTS = [REF_TOKEN_NAMES[kind] for kind in ("var", "zero", "one", "not", "lparen")]
REF_ONE_CHAR = {"0": "zero", "1": "one", "!": "not", ")": "rparen",
                **{symbol: op for op, (_, symbol, _) in REF_BINARY.items() if len(symbol) == 1}}


def ref_syntax_error(text, message, pos, expected):
    return ParseError(message, len(text[:pos].encode("utf-8")), expected)


def ref_tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        kind = REF_ONE_CHAR.get(ch)
        if kind is not None:
            toks.append((kind, i, None)); i += 1
        elif ch.isspace():
            i += 1
        elif ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ref_syntax_error(text, "variable name needs digits", i, ["variable"])
            toks.append(("var", i, int(text[i + 1:j])))
            i = j
        elif ch == "-":
            if text.startswith("->", i):
                toks.append(("impl", i, None)); i += 2
            else:
                raise ref_syntax_error(text, "stray '-'", i, ["'->'"])
        elif ch == "(":
            if text.startswith("(+)", i):
                toks.append(("oplus", i, None)); i += 3
            else:
                toks.append(("lparen", i, None)); i += 1
        else:
            raise ref_syntax_error(text, f"unexpected character {ch!r}", i, REF_ATOM_STARTS)
    toks.append(("eof", n, None))
    return toks


def ref_reduce(operands, pending, level):
    while pending and pending[-1] in REF_BINARY and REF_BINARY[pending[-1]][0] >= level:
        right = operands.pop()
        operands[-1] = REF_BINARY[pending.pop()][2](operands[-1], right)


def ref_parse_formula(text):
    operands = []
    pending = []
    open_parens = 0
    after_operand = False
    for kind, pos, val in ref_tokenize(text):
        if not after_operand:
            if kind == "not" or kind == "lparen":
                pending.append(kind)
                open_parens += kind == "lparen"
                continue
            if kind == "var":
                operands.append(Var(val))
            elif kind == "zero" or kind == "one":
                operands.append(Formula(kind))
            else:
                raise ref_syntax_error(text, f"unexpected {REF_TOKEN_NAMES[kind]}", pos,
                                       REF_ATOM_STARTS)
            after_operand = True
        elif kind in REF_BINARY:
            level = REF_BINARY[kind][0]
            ref_reduce(operands, pending, level + 1 if kind == "impl" else level)
            pending.append(kind)
            after_operand = False
            continue
        elif kind == "rparen" and open_parens:
            ref_reduce(operands, pending, 0)
            pending.pop()
            open_parens -= 1
        elif kind == "eof" and not open_parens:
            ref_reduce(operands, pending, 0)
            return operands[0]
        else:
            expected = REF_TOKEN_NAMES["rparen" if open_parens else "eof"]
            raise ref_syntax_error(text, f"unexpected {REF_TOKEN_NAMES[kind]}", pos, [expected])
        while pending and pending[-1] == "not":
            pending.pop()
            operands[-1] = Neg(operands[-1])


def reparse_refused(text):
    raise AssertionError(f"a valid text was parsed again as one token list: {text!r}")


def parse_checked(text, valid):
    """parse_formula(text): its node, or its ParseError. A valid text must parse
    without the whole-text reparse that reports errors."""
    saved = formula_module._parse_positioned
    try:
        if valid:
            formula_module._parse_positioned = reparse_refused
        return parse_formula(text)
    except ParseError as err:
        return err
    finally:
        formula_module._parse_positioned = saved


def assert_parses_as_reference(text):
    """parse_formula(text) is the reference's node, or raises its ParseError
    (message, offset and expected set)."""
    try:
        want = ref_parse_formula(text)
    except ParseError as ref_err:
        err = parse_checked(text, valid=False)
        assert isinstance(err, ParseError)
        assert (str(err), err.offset, err.expected) == \
            (str(ref_err), ref_err.offset, ref_err.expected)
        return None
    assert parse_checked(text, valid=True) is want
    return want


PARSE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Formulas with runs of ! and long -> chains besides the random binary nodes.
parse_leaves = st.sampled_from([Var(0), Var(1), Var(12), ZERO, ONE])
parse_formulas = st.recursive(parse_leaves, lambda sub: st.one_of(
    st.builds(lambda f, k: negations(k, f), sub, st.integers(1, 5)),
    st.builds(lambda op, a, b: op(a, b), st.sampled_from([Star, Impl, And, Or, OPlus]), sub, sub),
    st.builds(lambda fs: functools.reduce(lambda acc, g: Impl(g, acc), reversed(fs)),
              st.lists(sub, min_size=3, max_size=8)),
), max_leaves=12)
SPACES = ["", " ", "  ", "\t", "\n", " ", "　 "]


@st.composite
def printed_variants(draw):
    """A printed random formula and that text with its tokens rejoined by random
    whitespace, with redundant parentheses around atoms, doubled around groups
    and around the whole text."""
    f = draw(parse_formulas)
    out, doubled = [], []
    for kind, _, val in ref_tokenize(print_formula(f))[:-1]:
        if kind == "var":
            tok = f"x{val}"
        elif kind in REF_BINARY:
            tok = REF_BINARY[kind][1]
        else:
            tok = {"zero": "0", "one": "1", "not": "!", "lparen": "(", "rparen": ")"}[kind]
        if kind in ("var", "zero", "one"):
            k = draw(st.integers(0, 2))
            tok = "(" * k + tok + ")" * k
        elif kind == "lparen":
            doubled.append(draw(st.booleans()))
            tok *= 1 + doubled[-1]
        elif kind == "rparen":
            tok *= 1 + doubled.pop()
        out.append(draw(st.sampled_from(SPACES)) + tok)
    wrap = draw(st.integers(0, 2))
    return f, "(" * wrap + "".join(out) + draw(st.sampled_from(SPACES)) + ")" * wrap


@st.composite
def mutated_texts(draw):
    """A printed variant with one to three characters deleted, inserted or
    swapped with the next; the inserted ones include every token's characters."""
    _, text = draw(printed_variants())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["delete", "insert", "swap"]))
        if how == "delete":
            text = text[:i] + text[i + 1:]
        elif how == "insert":
            text = text[:i] + draw(st.sampled_from("x01!()*&|->+ \t @é")) + text[i:]
        else:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text


@PARSE_SETTINGS
@given(printed_variants())
def test_parser_returns_the_reference_node(case):
    f, text = case
    assert assert_parses_as_reference(text) is f


@PARSE_SETTINGS
@given(mutated_texts())
def test_parser_raises_the_reference_error_on_mutated_text(text):
    assert_parses_as_reference(text)


@pytest.mark.parametrize("text", [
    "()", "( + )", "x", "-", "x0 x1 (x2 ->)", "((x0)", "(x0))", ")(", "(+)", "x0 (+",
    "x0 (+ x1)", "x0 (+)(+) x1", "((+) x1)", "(x0)(+)(x1))", "!" * 40, "x0 ->" * 30,
    "(" * 50 + "x0" + ")" * 49, "x0 @ (x1", " x0 x1", "x0 -> x1 -",
    "x0) * (x1", "(x0)) -> ((x1)", "x0" + " " * 300 + ") * (x1", ") (x0)",
    "x0 !!", "!!)", "(!!!", "!! (+) x0", "x0 * !!",
])
def test_parser_matches_the_reference_on_malformed_text(text):
    assert assert_parses_as_reference(text) is None


def test_parser_rejects_a_non_string():
    for bad in (5, None, b"x0", ["x0"]):
        with pytest.raises(TypeError):
            parse_formula(bad)


def test_each_distinct_group_is_parsed_once(monkeypatch):
    proof = derive_from_nontautology(Star(X0, X1), Neg(X1), 3)
    line = max((ln.formula for ln in proof.lines), key=lambda g: len(print_formula(g)))
    text = print_formula(line)
    calls = []
    real = formula_module._parse_tokens
    monkeypatch.setattr(formula_module, "_parse_tokens",
                        lambda tokens, chains: calls.append(len(tokens)) or real(tokens, chains))
    assert parse_formula(text) is line
    # one parse per distinct group body and one for the top level: a few
    # hundred tokens, against about 500 parentheses and 6,000 tokens in the text
    assert len(calls) <= distinct_nodes(line) + 1
    assert 20 * sum(calls) < len(text) and 50 * len(calls) < text.count("(")


@pytest.mark.parametrize("text, offset", [
    ("x²", 0),              # a superscript digit: int() refuses it
    ("x0 * x٣", 5),         # an Arabic-Indic digit: it would print back as x3
    (" x٣", 2),
    ("x1 -> x" + "1" * 4301, 6),  # more digits than int() reads
])
def test_variable_names_take_ascii_digits_only(text, offset):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.offset == offset
    assert err.value.expected == {"variable"}


def test_variable_index_limits():
    assert parse_formula("x" + "1" * 4300) is Var(int("1" * 4300))
    assert parse_formula("x007") is Var(7)
    # the reference read x٣ as x3, which prints back as a different text
    assert print_formula(ref_parse_formula("x٣")) == "x3"


# -- semantics ----------------------------------------------------------------------

def test_godel_connectives():
    a, b = F(1, 3), F(2, 3)
    assert evaluate(Star(X0, X1), GODEL, (a, b)) == a
    assert evaluate(Impl(X0, X1), GODEL, (a, b)) == 1
    assert evaluate(Impl(X0, X1), GODEL, (b, a)) == a
    assert evaluate(Neg(X0), GODEL, (F(0),)) == 1
    assert evaluate(Neg(X0), GODEL, (a,)) == 0


def test_product_connectives():
    a, b = F(1, 3), F(2, 3)
    assert evaluate(Star(X0, X1), PRODUCT, (a, b)) == F(2, 9)
    assert evaluate(Impl(X0, X1), PRODUCT, (b, a)) == F(1, 2)
    assert evaluate(Impl(X0, X1), PRODUCT, (a, b)) == 1
    assert evaluate(Neg(X0), PRODUCT, (F(0),)) == 1
    assert evaluate(Neg(X0), PRODUCT, (a,)) == 0


def test_lukasiewicz_connectives():
    a, b = F(1, 3), F(2, 3)
    assert evaluate(Star(X0, X1), LUKASIEWICZ, (b, b)) == F(1, 3)
    assert evaluate(Star(X0, X1), LUKASIEWICZ, (a, a)) == 0
    assert evaluate(Impl(X0, X1), LUKASIEWICZ, (b, a)) == F(2, 3)
    assert evaluate(Neg(X0), LUKASIEWICZ, (a,)) == F(2, 3)
    assert evaluate(OPlus(X0, X1), LUKASIEWICZ, (b, b)) == 1
    assert evaluate(OPlus(X0, X1), LUKASIEWICZ, (a, a)) == F(2, 3)


def test_min_max_are_lattice_ops_everywhere():
    rng = random.Random(7)
    for sem in (GODEL, PRODUCT, LUKASIEWICZ):
        for _ in range(200):
            a, b = rand_point(rng, 2)
            assert evaluate(And(X0, X1), sem, (a, b)) == min(a, b)
            assert evaluate(Or(X0, X1), sem, (a, b)) == max(a, b)


def test_residuation_adjointness_sampled():
    rng = random.Random(11)
    for sem in (GODEL, PRODUCT, LUKASIEWICZ):
        for _ in range(500):
            a, b, c = rand_point(rng, 3)
            lhs = sem.star(c, a) <= b
            rhs = c <= sem.impl(a, b)
            assert lhs == rhs, (sem.kind, a, b, c)


def test_evaluate_checks_domain():
    with pytest.raises(ValueError):
        evaluate(X0, LUKASIEWICZ, (F(3, 2),))
    with pytest.raises(ValueError):
        evaluate(X1, LUKASIEWICZ, (F(1, 2),))
    with pytest.raises(ValueError):
        evaluate(X0, chain_semantics(3), (F(1, 2),))


def test_evaluate_shared_subterms_once():
    f = X0
    for _ in range(40):
        f = OPlus(f, f)
    assert evaluate(f, LUKASIEWICZ, (F(0),)) == 0
    assert evaluate(f, LUKASIEWICZ, (F(1, 2),)) == 1


# -- finite chains ------------------------------------------------------------------

def test_chain_semantics_carrier():
    sem = chain_semantics(3)
    assert sem.carrier() == [F(0), F(1, 3), F(2, 3), F(1)]
    assert sem.star(F(2, 3), F(2, 3)) == F(1, 3)
    assert sem.impl(F(2, 3), F(1, 3)) == F(2, 3)
    g = chain_semantics(3, "godel")
    assert g.star(F(2, 3), F(1, 3)) == F(1, 3)
    assert g.impl(F(2, 3), F(1, 3)) == F(1, 3)


def test_boole_is_two_valued():
    assert BOOLE.carrier() == [F(0), F(1)]
    assert evaluate(Or(X0, Neg(X0)), BOOLE, (F(1),)) == 1


def test_chain_closure_under_operations():
    for m in (1, 2, 3, 5):
        for base in ("lukasiewicz", "godel"):
            sem = chain_semantics(m, base)
            carrier = sem.carrier()
            for a in carrier:
                for b in carrier:
                    assert sem.star(a, b) in carrier
                    assert sem.impl(a, b) in carrier


# -- tautology and identity checks ----------------------------------------------------

def test_tautology_truth_table():
    v = tautology_check(Impl(Neg(Neg(X0)), X0), chain_semantics(4))
    assert v.is_tautology
    v = tautology_check(Or(X0, Neg(X0)), chain_semantics(2))
    assert v.status == "countermodel"
    assert evaluate(Or(X0, Neg(X0)), chain_semantics(2), v.point) != 1


def test_boolean_truth_table_matches_pointwise_evaluation():
    # the first countermodel is the first falsifying point in
    # itertools.product order over the carrier, as a tuple of Fractions
    rng = random.Random(1701)
    arities = set()
    for sem in (chain_semantics(1), chain_semantics(1, base="godel")):
        for n in range(5):
            for _ in range(40):
                f = rand_formula_upto(rng, n, 4)
                k = arity_of(f)
                arities.add(k)
                want = next((p for p in itertools.product(sem.carrier(), repeat=k)
                             if evaluate(f, sem, p) != 1), None)
                got = tautology_check(f, sem)
                if want is None:
                    assert got.status == "tautology" and got.point is None
                else:
                    assert got.status == "countermodel"
                    assert got.point == want
                    assert all(type(v) is Fraction for v in got.point)
    assert arities == {0, 1, 2, 3, 4}


def test_boolean_table_reads_sugar_like_its_desugaring():
    rng = random.Random(61)
    ops = set()
    for n in range(1, 5):
        for _ in range(60):
            f = rand_formula(rng, n, 4)
            stack = [f]
            while stack:
                node = stack.pop()
                ops.add(node.op)
                stack.extend(node.args)
            assert boolean_table(f, n) == boolean_table(desugared_copy(f), n)
    assert ops == {"var", "zero", "one", "star", "impl", "neg", "and", "or", "oplus"}


def test_chain_valuation_cap_is_checked_before_the_carrier(monkeypatch):
    real_planes = formula_module._variable_planes

    def refused(*args):
        raise AssertionError("a variable plane was built past the cap")

    monkeypatch.setattr(formula_module, "_variable_planes", refused)
    with pytest.raises(ValueError, match=r"100000001\*\*1 valuations"):
        tautology_check(X0, chain_semantics(100_000_000))
    with pytest.raises(ValueError, match=r"2\*\*21 valuations"):
        tautology_check(Var(20), BOOLE, method="truth-table")
    monkeypatch.setattr(formula_module, "_variable_planes", real_planes)
    # the packed Boolean path is under the same cap, which 2**20 valuations meet
    assert tautology_check(Or(Var(19), Neg(Var(19))), BOOLE).is_tautology
    monkeypatch.setattr("mvdyn.formula.MAX_CHAIN_VALUATIONS", 9)
    assert tautology_check(Impl(X1, Or(X0, X1)), chain_semantics(2)).is_tautology
    with pytest.raises(ValueError, match=r"3\*\*3 valuations"):
        tautology_check(Impl(X2, Or(X0, X1)), chain_semantics(2))


def test_tautology_exact_pwl():
    assert tautology_check(Impl(Neg(Neg(X0)), X0), LUKASIEWICZ).is_tautology
    assert tautology_check(Impl(Star(X0, X1), X0), LUKASIEWICZ).is_tautology
    v = tautology_check(Impl(X0, Star(X0, X0)), LUKASIEWICZ)
    assert v.status == "countermodel"
    assert evaluate(Impl(X0, Star(X0, X0)), LUKASIEWICZ, v.point) != 1


def test_tautology_grid_method():
    v = tautology_check(Impl(Neg(Neg(X0)), X0), PRODUCT, method="grid")
    assert v.status == "countermodel"
    v = tautology_check(Impl(X0, X0), PRODUCT, method="grid")
    assert v.status == "unknown"
    v = tautology_check(Impl(X0, Star(X0, X0)), GODEL, method="grid")
    assert v.status == "unknown"


def test_methods_agree_on_lukasiewicz():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_formula(rng, 2, 3)
        exact = tautology_check(f, LUKASIEWICZ, method="exact-pwl")
        grid = tautology_check(f, LUKASIEWICZ, method="grid", grid_bound=4)
        if grid.status == "countermodel":
            assert exact.status == "countermodel"
        if exact.is_tautology:
            assert grid.status != "countermodel"


def ref_exact_pwl_verdict(f):
    """(status, point) of the exact-pwl method as a minimum of f's own
    complex, its witness cut to f's variables."""
    n = arity_of(f)
    low, witness = pwl_min_value(pwl_from_formula(f, max(n, 1)))
    return ("tautology", None) if low == 1 else ("countermodel", witness[:n])


def formulas_of_depth(depth):
    """Formulas over x0, x1 and the constants in every connective, at most
    depth connectives deep."""
    leaves = st.sampled_from([X0, X1, ZERO, ONE])
    if depth == 0:
        return leaves
    sub = formulas_of_depth(depth - 1)
    return st.one_of(leaves, sub.map(Neg), st.builds(
        lambda op, a, b: op(a, b), st.sampled_from([Star, Impl, And, Or, OPlus]), sub, sub))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(formulas_of_depth(5))
@example(ZERO)
@example(Impl(OPlus(X0, X1), Star(X0, X1)))
@example(Or(Impl(X0, X1), Impl(X1, X0)))
def test_exact_pwl_is_the_minimum_of_the_formulas_own_complex(f):
    v = tautology_check(f, LUKASIEWICZ)
    assert (v.status, v.point) == ref_exact_pwl_verdict(f)


def test_identity_check():
    assert identity_check(And(X0, X1), And(X1, X0), LUKASIEWICZ).is_tautology
    assert identity_check(Neg(Neg(X0)), X0, LUKASIEWICZ).is_tautology
    v = identity_check(X0, OPlus(X0, X0), LUKASIEWICZ)
    assert v.status == "countermodel"
    p = v.point
    assert evaluate(X0, LUKASIEWICZ, p) != evaluate(OPlus(X0, X0), LUKASIEWICZ, p)


def test_rationals_up_to():
    assert rationals_up_to(3) == [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]


# -- substitutions ------------------------------------------------------------------

def test_substitution_apply():
    sigma = Substitution([Neg(X0), Star(X0, X1)])
    assert apply_substitution(sigma, Impl(X0, X1)) == Impl(Neg(X0), Star(X0, X1))
    assert apply_substitution(sigma, ONE) == ONE


def test_substitution_arity_guard():
    sigma = Substitution([Neg(X0)])
    with pytest.raises(ValueError):
        apply_substitution(sigma, Star(X0, X1))


def test_substitution_identity_law():
    rng = random.Random(5)
    ident = Substitution.identity(3)
    for _ in range(50):
        f = rand_formula(rng, 3, 3)
        assert apply_substitution(ident, f) == f


def test_composition_matches_sequential_application():
    rng = random.Random(9)
    for _ in range(40):
        sigma = Substitution([rand_formula(rng, 2, 2) for _ in range(2)])
        tau = Substitution([rand_formula(rng, 2, 2) for _ in range(2)])
        comp = compose_substitutions(sigma, tau)
        f = rand_formula(rng, 2, 3)
        assert apply_substitution(comp, f) == \
            apply_substitution(sigma, apply_substitution(tau, f))


def test_composition_returns_the_nodes_of_each_image_substituted_alone():
    # one memo for all of tau's images changes no node: each image is the
    # same object as sigma applied to it with a memo of its own
    rng = random.Random(17)
    pairs = [(odometer_substitution(n), odometer_substitution(n)) for n in range(1, 9)]
    for _ in range(40):
        n = rng.randint(1, 3)
        pairs.append(tuple(Substitution([rand_formula(rng, n, 3) for _ in range(n)])
                           for _ in range(2)))
    for sigma, tau in pairs:
        comp = compose_substitutions(sigma, tau)
        assert all(got is apply_substitution(sigma, g)
                   for got, g in zip(comp.images, tau.images, strict=True))


def test_substitution_semantics_is_composition():
    rng = random.Random(13)
    for _ in range(60):
        sigma = Substitution([rand_formula(rng, 2, 2) for _ in range(2)])
        f = rand_formula(rng, 2, 3)
        p = rand_point(rng, 2)
        image = tuple(evaluate(g, LUKASIEWICZ, p) for g in sigma.images)
        assert evaluate(apply_substitution(sigma, f), LUKASIEWICZ, p) == \
            evaluate(f, LUKASIEWICZ, image)
