"""Boolean truth tables, the binary odometer substitution, and the
constructive derivation of arbitrary formulas from a non-tautology.

Valuations over n variables are encoded least-significant-bit first: bit i of
the valuation index is the value of x_i. A whole table is one Python integer
whose bit p is the formula's value at valuation p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .formula import (
    Formula, Var, Neg, And, Or, Impl, Substitution, apply_substitution,
    arity_of, boolean_table, cap_boolean_table,
)
from .proofs import (
    Proof, ProofLine, Axiom, Hypothesis, ModusPonens, Substituted,
)

MAX_DERIVE_VARS = 12


@dataclass(frozen=True)
class TruthTable:
    """All 2**n Boolean values of a formula, packed into an integer."""

    n: int
    bits: int

    def __post_init__(self):
        cap_boolean_table(self.n)
        if not (0 <= self.bits < (1 << (1 << self.n))):
            raise ValueError("bit vector length is not 2**n")

    def value(self, valuation: int) -> int:
        return (self.bits >> valuation) & 1

    @property
    def is_tautology(self) -> bool:
        return self.bits == (1 << (1 << self.n)) - 1

    @property
    def is_contradiction(self) -> bool:
        return self.bits == 0

    def to_hex(self) -> str:
        digits = max(1, (1 << self.n) // 4)
        return f"{self.n}:{self.bits:0{digits}x}"

    @classmethod
    def from_hex(cls, text: str) -> "TruthTable":
        head, _, body = text.partition(":")
        return cls(int(head), int(body, 16))


def truth_table(f: Formula, n: int) -> TruthTable:
    """Exact Boolean table of f over x0..x_{n-1}."""
    return TruthTable(n, boolean_table(f, n))


def symmetric_difference(a: Formula, b: Formula) -> Formula:
    """Boolean exclusive-or: (a and not b) or (not a and b)."""
    return Or(And(a, Neg(b)), And(Neg(a), b))


def odometer_substitution(n: int) -> Substitution:
    """x0 flips; x_i flips exactly when all lower variables are true."""
    if n < 1:
        raise ValueError("need at least one variable")
    images = [Neg(Var(0))]
    for i in range(1, n):
        lower = reduce(And, (Var(k) for k in range(i)))
        images.append(symmetric_difference(Var(i), lower))
    return Substitution(images)


@dataclass(frozen=True)
class BoolPermutation:
    """A permutation of the 2**n valuations."""

    n: int
    mapping: tuple

    def __post_init__(self):
        if sorted(self.mapping) != list(range(1 << self.n)):
            raise ValueError("not a permutation of the valuations")

    def __call__(self, p: int) -> int:
        return self.mapping[p]

    def cycle_lengths(self) -> tuple:
        seen = [False] * len(self.mapping)
        out = []
        for start in range(len(self.mapping)):
            if seen[start]:
                continue
            length = 0
            p = start
            while not seen[p]:
                seen[p] = True
                p = self.mapping[p]
                length += 1
            out.append(length)
        return tuple(sorted(out))


def induced_permutation(sigma: Substitution, n: int) -> BoolPermutation:
    """The valuation map p -> (value of each image at p), for Boolean sigma."""
    cap_boolean_table(n)
    if sigma.arity != n:
        raise ValueError("substitution arity differs from n")
    size = 1 << n
    # each table read once as a binary string, x_(n-1) first: column j of the
    # strings is q = sigma(p) in binary for p = size - 1 - j; the zeros column
    # keeps one column when n is 0. The images share one memo, which sigma keeps alive.
    memo: dict = {}
    columns = zip("0" * size, *(format(boolean_table(g, n, memo=memo), f"0{size}b")
                                for g in reversed(sigma.images)))
    return BoolPermutation(n, tuple(int("".join(c), 2) for c in columns)[::-1])


def odometer_induced_permutation(n: int) -> BoolPermutation:
    """Induced valuation map of the odometer; provably addition of one."""
    cap_boolean_table(n)
    perm = induced_permutation(odometer_substitution(n), n)
    if perm.mapping != (*range(1, 1 << n), 0):
        raise AssertionError("odometer permutation is not +1 mod 2**n")
    return perm


def derive_from_nontautology(r: Formula, target: Formula, n: int) -> Proof:
    """A checkable proof of target from the single hypothesis r.

    The odometer substitution walks r through all 2**n valuation shifts; the
    conjunction of the shifted copies is unsatisfiable, so one final axiom
    line reaches the target. Uses only MP, one substitution, and Boolean
    tautology axioms of the shapes a -> (b -> (a & b)) and c -> target.
    """
    if n < 1 or max(arity_of(r), arity_of(target)) > n:
        raise ValueError("variables of r and target must fit in n >= 1")
    if n > MAX_DERIVE_VARS:
        raise ValueError(f"proof would have about 2**{n} lines; n is capped "
                         f"at {MAX_DERIVE_VARS}")
    if truth_table(r, n).is_tautology:
        raise ValueError("the hypothesis is a tautology; its orbit never fails")

    sigma = odometer_substitution(n)
    lines = [ProofLine(r, Hypothesis(0))]
    # line k is sigma applied to line k - 1, as check_proof walks it; one memo
    # for all lines walks each node of the orbit once
    memo: dict = {}
    for k in range(1, 1 << n):
        lines.append(ProofLine(apply_substitution(sigma, lines[k - 1].formula, memo=memo),
                               Substituted(k - 1, sigma)))

    conj, conj_line = r, 0
    for k in range(1, 1 << n):
        part = lines[k].formula
        pair = And(conj, part)
        lines.append(ProofLine(Impl(conj, Impl(part, pair)), Axiom()))
        lines.append(ProofLine(Impl(part, pair),
                               ModusPonens(conj_line, len(lines) - 1)))
        lines.append(ProofLine(pair, ModusPonens(k, len(lines) - 1)))
        conj, conj_line = pair, len(lines) - 1

    if not truth_table(conj, n).is_contradiction:
        raise AssertionError("orbit conjunction is satisfiable; generator bug")
    lines.append(ProofLine(Impl(conj, target), Axiom()))
    lines.append(ProofLine(target, ModusPonens(conj_line, len(lines) - 1)))
    return Proof((r,), tuple(lines))
