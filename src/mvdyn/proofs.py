"""Frege proof objects, proof checking, axiom sets, and semantic MP-consequence.

A proof is a sequence of lines, each carrying a formula and a justification:
an axiom, a hypothesis, Modus Ponens from two earlier lines, or a substitution
instance of an earlier line. Formulas are compared modulo desugaring, so a
line may use any mix of the defined connectives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable, Optional, Sequence, Union

from . import pwl as _pwl
from .formula import (
    Formula, Var, Star, ONE, OutOfReach, Substitution, apply_substitution, _countermodel,
    arity_of, boolean_table, decode_json, json_field, json_int, json_list, parse_formula,
    print_formula, variable_index, TNormSemantics, GODEL, PRODUCT, LUKASIEWICZ, BOOLE,
)


# -- proof objects -----------------------------------------------------------------

@dataclass(frozen=True)
class Axiom:
    pass


@dataclass(frozen=True)
class Hypothesis:
    index: int


@dataclass(frozen=True)
class ModusPonens:
    premise: int        # line index holding a
    implication: int    # line index holding a -> b


@dataclass(frozen=True)
class Substituted:
    line: int
    sigma: Substitution


Justification = Union[Axiom, Hypothesis, ModusPonens, Substituted]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    hypotheses: tuple
    lines: tuple

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty proof")
        return self.lines[-1].formula


@dataclass(frozen=True)
class ProofVerdict:
    valid: bool
    line: Optional[int] = None      # first failing line, 0-based
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.valid


# -- axiom sets ----------------------------------------------------------------------

_THETA_TEXT = (
    "((x0 -> x1) * (x1 -> x2)) -> (x0 -> x2)",
    "(x0 * x1) -> x0",
    "0 -> x0",
    "(x0 * x1) -> (x1 * x0)",
    "(x0 & x1) -> (x1 & x0)",
    "(x0 -> (x1 -> x2)) -> ((x0 * x1) -> x2)",
    "((x0 * x1) -> x2) -> (x0 -> (x1 -> x2))",
    "(((x0 -> x1) -> x2) * ((x1 -> x0) -> x2)) -> x2",
)

_EXTENSION_TEXT = {
    "mv": ("!!x0 -> x0",),
    "product": ("!!x0 -> ((x1 * x0 -> x2 * x0) -> (x1 -> x2))",
                "!(x0 & !x0)"),
    "godel": ("x0 -> (x0 * x0)",),
    "boole": ("x0 | !x0",),
}

_LOGIC_SEMANTICS = {
    "mv": LUKASIEWICZ,
    "product": PRODUCT,
    "godel": GODEL,
    "boole": BOOLE,
}


@dataclass(frozen=True)
class AxiomSet:
    logic: str
    schemas: tuple

    @property
    def semantics(self) -> TNormSemantics:
        return _LOGIC_SEMANTICS[self.logic]


def builtin_axioms(logic: str) -> AxiomSet:
    """The eight shared schemas plus the extension for the chosen logic, parsed
    once per process: every call with the same lower-cased name returns the
    same AxiomSet."""
    key = logic.lower()
    if key not in _EXTENSION_TEXT:
        raise ValueError("logic must be one of MV, Product, Godel, Boole")
    return _axiom_set(key)


@cache
def _axiom_set(key: str) -> AxiomSet:
    return AxiomSet(key, tuple(parse_formula(t) for t in _THETA_TEXT + _EXTENSION_TEXT[key]))


def is_instance_of(schema: Formula, f: Formula) -> bool:
    """Whether f is a substitution instance of the schema (modulo desugaring)."""
    binding: dict[int, Formula] = {}

    # a lockstep match of two trees, not a fold: it recurses only as deep as the schema
    def match(s: Formula, t: Formula) -> bool:
        op = s.op
        if op == "var":
            bound = binding.get(s.index)
            if bound is None:
                binding[s.index] = t
                return True
            return bound == t
        if op in ("zero", "one"):
            return t.op == op
        return (t.op == op and match(s.args[0], t.args[0])
                and match(s.args[1], t.args[1]))

    return match(schema.core(), f.core())


def _oracle_accepts(oracle, f: Formula, tables: dict) -> bool:
    """Whether the oracle takes f as an axiom. The boole oracle's tables of n
    variables share the memo tables[n]."""
    if callable(oracle):
        return bool(oracle(f))
    if oracle == "boole":
        n = f.arity
        return boolean_table(f, n, memo=tables.setdefault(n, {})) == (1 << (1 << n)) - 1
    if oracle == "lukasiewicz":
        try:
            return mp_consequence((), f, LUKASIEWICZ).status == "yes"
        except OutOfReach:
            return False
    raise ValueError(f"unknown axiom oracle {oracle!r}")


def check_proof(proof: Proof, axioms: Optional[AxiomSet] = None,
                oracle: Union[None, str, Callable[[Formula], bool]] = None,
                strict: bool = False) -> ProofVerdict:
    """Validate every line; strict mode requires axiom lines to be schemas
    verbatim (substitution then only enters through the substitution rule).

    The boole oracle's truth tables share one memo per variable count, and
    substitution lines one memo per tuple of images (by identity), so each
    distinct node of the proof is tabled, and substituted by each sigma, once.
    The proof keeps every key node alive; the memos die with the call."""
    lines = proof.lines
    tables: dict[int, dict] = {}
    substituted: dict[tuple, dict] = {}
    for idx, line in enumerate(lines):
        j = line.justification
        if isinstance(j, Hypothesis):
            if not (0 <= j.index < len(proof.hypotheses)):
                return ProofVerdict(False, idx, f"no hypothesis {j.index + 1}")
            if line.formula != proof.hypotheses[j.index]:
                return ProofVerdict(False, idx,
                                    f"line differs from hypothesis {j.index + 1}")
        elif isinstance(j, Axiom):
            ok = False
            if axioms is not None:
                if strict:
                    ok = any(line.formula == s for s in axioms.schemas)
                else:
                    ok = any(is_instance_of(s, line.formula) for s in axioms.schemas)
            if not ok and oracle is not None:
                ok = _oracle_accepts(oracle, line.formula, tables)
            if not ok:
                return ProofVerdict(False, idx, "not an accepted axiom")
        elif isinstance(j, ModusPonens):
            k, m = j.premise, j.implication
            if not (0 <= k < idx and 0 <= m < idx):
                return ProofVerdict(False, idx, "MP references a later or missing line")
            imp = lines[m].formula
            if imp.op != "impl":
                imp = imp.core()
            if imp.op != "impl" or imp.args[0] != lines[k].formula \
                    or imp.args[1] != line.formula:
                return ProofVerdict(
                    False, idx,
                    f"line {m + 1} is not an implication from line {k + 1} to this line")
        elif isinstance(j, Substituted):
            if not (0 <= j.line < idx):
                return ProofVerdict(False, idx,
                                    "substitution references a later or missing line")
            memo = substituted.setdefault(tuple(map(id, j.sigma.images)), {})
            try:
                image = apply_substitution(j.sigma, lines[j.line].formula, memo=memo)
            except ValueError as exc:
                return ProofVerdict(False, idx, str(exc))
            if image != line.formula:
                return ProofVerdict(False, idx,
                                    f"not the given substitution instance of line {j.line + 1}")
        else:
            return ProofVerdict(False, idx, "unknown justification")
    return ProofVerdict(True)


# -- semantic MP-consequence -----------------------------------------------------------

@dataclass(frozen=True)
class ConsequenceVerdict:
    status: str                       # "yes" or "no"
    certificate: Optional[dict] = None
    countermodel: Optional[tuple] = None


def mp_consequence(delta: Sequence[Formula], r: Formula,
                   sem: TNormSemantics) -> ConsequenceVerdict:
    """Does some product of hypotheses lie below r, as functions?

    On a finite chain, the one finite-model search looks for a valuation that
    makes all of delta 1 and r not. Over the Lukasiewicz interval (up to
    pwl.MAX_DIM variables) the same check runs on the vertices of the common
    refinement of the product c of delta and of r, which also give the least
    power of c below r: the local deduction theorem makes that check complete
    for both. Any other input (past pwl's ceiling, or a logic with no backend)
    raises OutOfReach, on which tautology_check's auto and the lukasiewicz
    oracle fall back. A countermodel has one coordinate per variable of the formulas.
    """
    delta = list(delta)
    arity = max([arity_of(r)] + [arity_of(d) for d in delta])
    if sem.kind == "chain":
        point, satisfying = _countermodel(delta, r, sem, arity)
        if point is not None:
            return ConsequenceVerdict("no", countermodel=point)
        return ConsequenceVerdict("yes", certificate={"method": "finite-valuations",
                                                      "satisfying_assignments": satisfying})
    if sem.kind != "lukasiewicz":
        raise OutOfReach("no decidable backend for this semantics")
    dim = max(arity, 1)
    conj = reduce(Star, delta) if delta else ONE
    low, witness, power = _pwl._unit_set_min_and_power(_pwl.pwl_from_formula(conj, dim),
                                                       _pwl.pwl_from_formula(r, dim))
    if low is not None and low < 1:
        return ConsequenceVerdict("no", countermodel=witness[:arity])
    return ConsequenceVerdict("yes", certificate={"method": "product-search", "power": power})


# -- JSON lines exchange -----------------------------------------------------------------

def _sigma_to_json(sigma: Substitution, memo: Optional[dict] = None) -> dict:
    """The images' texts, printed through the caller's memo or one of their own."""
    memo = {} if memo is None else memo
    return {f"x{i}": print_formula(g, memo=memo) for i, g in enumerate(sigma.images)}


def _sigma_from_json(obj: dict, memo: Optional[dict] = None) -> Substitution:
    if not isinstance(obj, dict):
        raise ValueError("a substitution is a JSON object")
    return _sigma_from_parts(obj.items(), memo)


def _sigma_from_parts(parts, memo: Optional[dict] = None) -> Substitution:
    """The substitution x_i -> parse_formula(text, memo=memo) for each part
    (x<i>, text), one per x_i; every other x_i below the arity maps to itself."""
    entries = {}
    for key, text in parts:
        i = variable_index(key)
        if i is None:
            raise ValueError(f"substitution target {key!r} is not a variable")
        if i in entries:
            raise ValueError(f"substitution target {key!r} names x{i} again")
        entries[i] = parse_formula(text, memo=memo)
    arity = max([i + 1 for i in entries] + [g.arity for g in entries.values()], default=0)
    images = [entries.get(i, Var(i)) for i in range(arity)]
    return Substitution(images)


def proof_to_jsonl(proof: Proof) -> str:
    """One JSON object per line; indices are 1-based on the wire. Every
    formula, sigmas' too, is printed through one memo, so each distinct node
    of the proof is printed once."""
    memo: dict = {}
    out = []
    for line in proof.lines:
        j = line.justification
        if isinstance(j, Axiom):
            just = "axiom"
        elif isinstance(j, Hypothesis):
            just = {"hyp": j.index + 1}
        elif isinstance(j, ModusPonens):
            just = {"mp": [j.premise + 1, j.implication + 1]}
        else:
            just = {"subst": {"line": j.line + 1, "sigma": _sigma_to_json(j.sigma, memo)}}
        out.append(json.dumps({"formula": print_formula(line.formula, memo=memo), "just": just},
                              sort_keys=True))
    return "\n".join(out) + ("\n" if out else "")


def _premises(pair) -> tuple[int, int]:
    k, m = json_list(pair)
    return json_int(k) - 1, json_int(m) - 1


def _json_object(obj) -> dict:
    if not isinstance(obj, dict):
        raise TypeError("not a JSON object")
    return obj


def _line_from_json(obj, memo: dict) -> ProofLine:
    formula = json_field(obj, "formula", lambda text: parse_formula(text, memo=memo))
    j = json_field(obj, "just", lambda j: j)
    if j == "axiom":
        return ProofLine(formula, Axiom())
    if isinstance(j, dict) and "hyp" in j:
        return ProofLine(formula, Hypothesis(json_field(j, "hyp", json_int) - 1))
    if isinstance(j, dict) and "mp" in j:
        return ProofLine(formula, ModusPonens(*json_field(j, "mp", _premises)))
    if isinstance(j, dict) and "subst" in j:
        s = json_field(j, "subst", _json_object)
        return ProofLine(formula, Substituted(json_field(s, "line", json_int) - 1,
                                              json_field(s, "sigma",
                                                         lambda o: _sigma_from_json(o, memo))))
    raise ValueError(f"unknown justification {j!r}")


def proof_from_jsonl(text: str, hypotheses: Sequence[Formula] = ()) -> Proof:
    """The proof that proof_to_jsonl wrote. A malformed line raises ValueError
    that names its proof line number (blank lines do not count) and its field;
    a text with no proof line raises one too. Every formula, sigmas' too, is
    parsed through one group memo, so each distinct group is parsed once."""
    memo: dict = {}
    lines = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            lines.append(_line_from_json(decode_json(raw), memo))
        except ValueError as exc:
            raise ValueError(f"line {len(lines) + 1}: {exc}") from None
    if not lines:
        raise ValueError("no proof lines")
    return Proof(tuple(hypotheses), tuple(lines))
