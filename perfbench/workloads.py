"""The three benchmark workloads: fixed task lists generated from a seed.

Every workload is a function ``build(seed, tr, n_rounds)`` returning a
``Workload``: ``rounds``, a list of rounds, each a list of ``Task``, and
``probes``, tasks run once before them. Building is the timed set-up. Every
round has the same mix of task kinds, so every run measures the same mix
whatever the seed; the seed only changes the inputs, and the first rounds do
not depend on how many are built.

A task's ``run(tr)`` makes the calls into mvdyn, each through ``tr.call`` so a
traced run records a span for it. ``check(raw, tr)`` then verifies the result
by an independent path, outside the timed task but with its library calls
traced too, and raises ``Wrong`` if it is not right; it also adds the output
counts to ``tr``. ``output(raw)`` gives a canonical JSON value that is
compared with the expected file for the default seed; ``verdict`` in it, when
present, may change from "unknown" to a checked verdict without counting as
wrong.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import lcm
from typing import Callable

from mvdyn import algebra, cli, dynamics, formula, odometer, proofs, pwl
from mvdyn.formula import (
    And, Impl, Neg, OPlus, Or, Star, Var, ONE, ZERO, BOOLE, GODEL, LUKASIEWICZ,
)
from mvdyn.proofs import Axiom, Hypothesis, ModusPonens


class Wrong(Exception):
    """A task returned a result that its independent check rejects."""


@dataclass
class Task:
    kind: str
    run: Callable
    check: Callable
    output: Callable


@dataclass
class Workload:
    rounds: list
    probes: list = field(default_factory=list)   # run once per run, before the rounds


def expect(cond, message):
    if not cond:
        raise Wrong(message)


def q(x):
    return str(F(x))


def qs(point):
    return [q(v) for v in point]


# -- inputs ------------------------------------------------------------------------

_CTORS = {"star": Star, "impl": Impl, "and": And, "or": Or, "oplus": OPlus}
_OPS = ["star", "impl", "neg", "and", "or", "oplus"]


def rand_formula(rng, n, depth, leaf_p=0.3):
    """The generator of the acceptance tests: variables, 0 and 1 as leaves."""
    if depth == 0 or rng.random() < leaf_p:
        return rng.choice([Var(rng.randrange(n)), ZERO, ONE])
    op = rng.choice(_OPS)
    if op == "neg":
        return Neg(rand_formula(rng, n, depth - 1, leaf_p))
    return _CTORS[op](rand_formula(rng, n, depth - 1, leaf_p),
                      rand_formula(rng, n, depth - 1, leaf_p))


def text(f):
    return formula.print_formula(f)


def ev(tr, f, sem, point):
    return tr.call("formula.evaluate", formula.evaluate, f, sem, point)


def ev_in(tr, f, alg, indices):
    return tr.call("algebra.evaluate_in", algebra.evaluate_in, f, alg, indices)


def run_cli(argv, stdin_text=""):
    """mvdyn.cli.run in-process with stdin supplied and stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def cli_task(tr_steps):
    """A task running a fixed pipeline of CLI commands.

    ``tr_steps`` is a list of argv lists; each command's stdout is the next
    one's stdin. The stdout of every command is compared byte for byte with the
    expected file on every seed, since the commands do not depend on the seed.
    """
    def run(tr):
        outs, stdin = [], ""
        for argv in tr_steps:
            rc, out = tr.call("cli.run", run_cli, argv, stdin)
            outs.append((rc, out))
            stdin = out
        return outs

    def check(raw, tr):
        for argv, (rc, out) in zip(tr_steps, raw):
            expect(rc == 0, f"mvdyn {' '.join(argv)} exited {rc}")
            tr.count("cli.run.stdout_bytes", len(out.encode()))

    def output(raw):
        return {"argv": cli_key(tr_steps), "stdout": [out for _rc, out in raw]}

    return Task("cli", run, check, output)


def cli_key(steps):
    return " | ".join(" ".join(argv) for argv in steps)


# -- finite_logic -------------------------------------------------------------------

CHAINS = [(m, base) for m in (1, 2, 3, 4) for base in ("lukasiewicz", "godel")]


def _chain_point(point, m):
    """Carrier indices of a point of the m-chain (values k/m)."""
    return [int(v * m) for v in point]


def _all_indices(m, n):
    pts = [()]
    for _ in range(n):
        pts = [p + (i,) for p in pts for i in range(m + 1)]
    return pts


def _check_countermodel(tr, f, sem, alg, m, point):
    expect(ev(tr, f, sem, point) < 1, "countermodel evaluates to 1")
    expect(ev_in(tr, f, alg, _chain_point(point, m)) != alg.size - 1,
           "countermodel is top under evaluate_in")


def _dag_nodes(formulas):
    """Distinct formula nodes reachable from the given roots (iterative walk)."""
    seen = set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.args)
    return len(seen)


def same(a, b):
    """Structural equality of two formula DAGs: iterative, memoised on node pairs."""
    stack, seen = [(a, b)], set()
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        if x.op != y.op or x.index != y.index or len(x.args) != len(y.args):
            return False
        seen.add((id(x), id(y)))
        stack.extend(zip(x.args, y.args))
    return True


def _check_proof_independently(tr, proof, r, target, n):
    """Structure by our own DAG comparison, axioms by the bit-parallel truth
    table (the checker's oracle evaluates point by point)."""
    lines = proof.lines
    for i, line in enumerate(lines):
        j = line.justification
        if isinstance(j, Hypothesis):
            expect(same(line.formula, r), f"line {i + 1} is not the hypothesis")
        elif isinstance(j, Axiom):
            table = tr.call("odometer.truth_table", odometer.truth_table, line.formula, n)
            expect(table.is_tautology, f"axiom line {i + 1} is not a Boolean tautology")
        elif isinstance(j, ModusPonens):
            imp = lines[j.implication].formula
            expect(imp.op == "impl" and same(imp.args[0], lines[j.premise].formula)
                   and same(imp.args[1], line.formula), f"MP line {i + 1} does not match")
    expect(same(proof.conclusion, target), "conclusion differs from the target")


def proof_task(n, r_text, target_text, roundtrip):
    """truth_table -> derive_from_nontautology -> check_proof(oracle="boole"),
    with a proof_to_jsonl -> proof_from_jsonl round trip when asked."""
    def run(tr):
        r = tr.call("formula.parse_formula", formula.parse_formula, r_text)
        target = tr.call("formula.parse_formula", formula.parse_formula, target_text)
        table = tr.call("odometer.truth_table", odometer.truth_table, r, n)
        proof = tr.call("odometer.derive_from_nontautology",
                        odometer.derive_from_nontautology, r, target, n)
        verdict = tr.call("proofs.check_proof", proofs.check_proof, proof, None,
                          oracle="boole")
        tr.count(f"check_proof.busy.n{n}", tr.last)
        raw = {"r": r, "target": target, "table": table, "proof": proof,
               "valid": verdict.valid}
        if roundtrip:
            wire = tr.call("proofs.proof_to_jsonl", proofs.proof_to_jsonl, proof)
            raw["wire"] = wire
            raw["back"] = tr.call("proofs.proof_from_jsonl", proofs.proof_from_jsonl,
                                  wire, (r,))
        return raw

    def check(raw, tr):
        r, target, proof, table = raw["r"], raw["target"], raw["proof"], raw["table"]
        expect(raw["valid"], "check_proof rejected the derivation")
        _check_proof_independently(tr, proof, r, target, n)
        falsified = [v for v in range(1 << n) if not table.value(v)]
        expect(falsified, "truth table says the hypothesis is a tautology")
        bits = falsified[0]
        point = tuple(F((bits >> i) & 1) for i in range(n))
        _check_countermodel(tr, r, BOOLE, algebra.finite_chain(1), 1, point)
        if roundtrip:
            back = raw["back"]
            expect(len(back.lines) == len(proof.lines), "round trip changed the length")
            expect(proofs.proof_to_jsonl(back) == raw["wire"], "round trip changed the bytes")
            tr.count("proofs.proof_to_jsonl.bytes", len(raw["wire"].encode()))
        axioms = sum(isinstance(l.justification, Axiom) for l in proof.lines)
        tr.count("odometer.derive_from_nontautology.lines", len(proof.lines))
        tr.count("proofs.check_proof.lines", len(proof.lines))
        tr.count(f"check_proof.lines.n{n}", len(proof.lines))
        tr.count("proofs.check_proof.axiom_lines", axioms)
        tr.count("proofs.check_proof.dag_nodes", _dag_nodes([l.formula for l in proof.lines]))
        tr.count("formula.parse_formula.bytes", len(r_text.encode()) + len(target_text.encode()))

    def output(raw):
        out = {"valid": raw["valid"], "lines": len(raw["proof"].lines),
               "table": raw["table"].to_hex(), "conclusion": text(raw["proof"].conclusion)}
        if roundtrip:
            out["wire"] = raw["wire"]
        return out

    return Task(f"proof_n{n}", run, check, output)


def chain_task(m, base, f_text, g_text):
    """tautology_check (or identity_check when g_text is given) on chain:m."""
    sem = formula.chain_semantics(m, base)

    def run(tr):
        f = tr.call("formula.parse_formula", formula.parse_formula, f_text)
        if g_text is None:
            v = tr.call("formula.tautology_check", formula.tautology_check, f, sem)
            return f, v
        g = tr.call("formula.parse_formula", formula.parse_formula, g_text)
        v = tr.call("formula.identity_check", formula.identity_check, f, g, sem)
        return And(Impl(f, g), Impl(g, f)), v

    def check(raw, tr):
        f, v = raw
        alg = algebra.finite_chain(m, base)
        n = formula.arity_of(f)
        if v.status == "countermodel":
            _check_countermodel(tr, f, sem, alg, m, v.point)
        else:
            expect(v.status == "tautology", f"verdict {v.status} on a finite chain")
            top = alg.size - 1
            expect(all(ev_in(tr, f, alg, p) == top for p in _all_indices(m, n)),
                   "tautology verdict but evaluate_in finds a value below top")
        tr.count("verdicts", 1)
        tr.count("verdicts.decided", 1)
        tr.count("formula.parse_formula.bytes",
                 len(f_text.encode()) + len((g_text or "").encode()))

    def output(raw):
        f, v = raw
        return {"verdict": v.status, "point": qs(v.point) if v.point else None}

    return Task("chain_identity" if g_text else "chain_taut", run, check, output)


def godel_task(f_text):
    """Grid tautology check in Godel logic; answers "unknown" when no grid
    countermodel exists."""
    def run(tr):
        f = tr.call("formula.parse_formula", formula.parse_formula, f_text)
        return f, tr.call("formula.tautology_check", formula.tautology_check, f, GODEL)

    def check(raw, tr):
        f, v = raw
        expect(v.status in ("unknown", "tautology", "countermodel"), f"verdict {v.status}")
        if v.status == "countermodel":
            # A Godel value depends only on the order of the inputs, so the
            # point lies on the finite Godel chain with the common denominator.
            m = lcm(*(F(x).denominator for x in v.point))
            _check_countermodel(tr, f, GODEL, algebra.finite_chain(m, "godel"), m, v.point)
        tr.count("verdicts", 1)
        tr.count("verdicts.decided", v.status != "unknown")
        tr.count("formula.parse_formula.bytes", len(f_text.encode()))

    def output(raw):
        f, v = raw
        return {"verdict": v.status, "point": qs(v.point) if v.point else None}

    return Task("godel_taut", run, check, output)


def mp_task(m, delta_texts, r_text):
    sem = formula.chain_semantics(m)

    def run(tr):
        delta = [tr.call("formula.parse_formula", formula.parse_formula, t)
                 for t in delta_texts]
        r = tr.call("formula.parse_formula", formula.parse_formula, r_text)
        return delta, r, tr.call("proofs.mp_consequence", proofs.mp_consequence,
                                 delta, r, sem)

    def check(raw, tr):
        delta, r, v = raw
        alg = algebra.finite_chain(m)
        top = alg.size - 1
        n = max(formula.arity_of(x) for x in delta + [r])
        if v.status == "no":
            idx = _chain_point(v.countermodel, m)
            expect(all(ev_in(tr, d, alg, idx) == top for d in delta),
                   "countermodel does not satisfy the hypotheses")
            expect(ev(tr, r, sem, v.countermodel) < 1, "countermodel satisfies r")
        else:
            expect(v.status == "yes", f"verdict {v.status} on a finite chain")
            for p in _all_indices(m, n):
                if all(ev_in(tr, d, alg, p) == top for d in delta):
                    expect(ev_in(tr, r, alg, p) == top,
                           "consequence claimed but a valuation separates")

    def output(raw):
        _delta, _r, v = raw
        return {"verdict": v.status, "certificate": v.certificate,
                "countermodel": qs(v.countermodel) if v.countermodel else None}

    return Task("mp_chain", run, check, output)


def _algebra_catalogue():
    c1, c2, g2 = (algebra.finite_chain(1), algebra.finite_chain(2),
                  algebra.finite_chain(2, "godel"))
    return [
        ("bool^2", algebra.power_algebra(c1, 2)),
        ("bool^3", algebra.power_algebra(c1, 3)),
        ("bool x luk:2", algebra.product_algebra(c1, c2)),
        ("bool x godel:2", algebra.product_algebra(c1, g2)),
        ("luk:2^2", algebra.power_algebra(c2, 2)),
        ("luk:3", algebra.finite_chain(3)),
    ]


def algebra_task(name, alg, seed):
    def run(tr):
        filters = tr.call("algebra.enumerate_filters", algebra.enumerate_filters, alg)
        spec = tr.call("algebra.spec_space", algebra.spec_space, alg)
        report = tr.call("algebra.duality_check", algebra.duality_check, alg, seed=seed)
        return filters, spec, report

    def check(raw, tr):
        (filters, primes, maximals), spec, report = raw
        expect(report.get("ok") is True, f"duality check failed on {name}")
        expect(len(primes) == len(spec.points), "primes and spectrum points differ")
        expect(set(maximals) <= set(primes), "a maximal filter is not prime")
        expect(all(algebra.is_filter(alg, f) for f in filters), "not a filter")

    def output(raw):
        (filters, primes, maximals), spec, report = raw
        return {"algebra": name, "filters": sorted(sorted(f) for f in filters),
                "primes": sorted(sorted(p) for p in primes),
                "opens": len(spec.opens), "ok": report["ok"]}

    return Task("algebra", run, check, output)


def probe_task(depth):
    """A nested-negation chain: parse, Boolean tautology check, print."""
    source = "!" * depth + "x0"

    def run(tr):
        f = tr.call("formula.parse_formula", formula.parse_formula, source)
        v = tr.call("formula.tautology_check", formula.tautology_check, f, BOOLE)
        return v, tr.call("formula.print_formula", formula.print_formula, f)

    def check(raw, tr):
        v, printed = raw
        # An even number of negations is x0 itself, an odd one is !x0 (Boole).
        want = (F(0),) if depth % 2 == 0 else (F(1),)
        expect(v.status == "countermodel" and tuple(v.point) == want,
               f"depth {depth}: verdict {v}")
        expect(printed == source, f"depth {depth}: printed form differs")

    def output(raw):
        v, printed = raw
        return {"verdict": v.status, "point": qs(v.point), "printed": len(printed)}

    return Task(f"probe_{depth}", run, check, output)


FINITE_CLI = [["odometer", "derive", "--n", "3", "--hyp", "x0 * x1", "--target", "!x1"],
              ["prove", "check", "-", "--hyp", "x0 * x1", "--oracle", "boole"]]
# Runs of FINITE_CLI per round. Above the CLI tasks sit only the four probes
# (which raise today) and one n = 4 proof per round, so at two rounds
# task_tail_ms, the eleventh-largest latency, is about the median of the ten
# CLI runs, whose input is fixed. With one CLI run per round it was the
# third-slowest of forty random n = 3 proofs, which moved by a quarter from
# seed to seed.
FINITE_CLI_RUNS = 5
PROBE_DEPTHS = (500, 1000, 1200, 2000)


def _hypothesis(rng, n):
    """A criterion-05 style non-tautology that mentions x_{n-1}, so it is
    genuinely n-ary and its derivation cost is set by n."""
    while True:
        r = rand_formula(rng, n, 3)
        if (n - 1) in formula.variables_of(r) and not odometer.truth_table(r, n).is_tautology:
            return r


def finite_logic(seed, tr, n_rounds):
    rng = random.Random(seed)
    algebras = _algebra_catalogue()
    rounds = []
    for _ in range(n_rounds):
        tasks = []
        for n, count in ((2, 60), (3, 20), (4, 1)):
            for _ in range(count):
                r = _hypothesis(rng, n)
                tasks.append(proof_task(n, text(r), text(rand_formula(rng, n, 3)),
                                        roundtrip=(n == 2)))
        for i, (m, base) in enumerate(CHAINS):
            f = rand_formula(rng, 3, 4)
            g = rand_formula(rng, 3, 4) if i % 2 else None
            tasks.append(chain_task(m, base, text(f), g and text(g)))
        tasks.append(godel_task(text(rand_formula(rng, 2, 4))))
        for m in (1, 2, 3):
            delta = [text(rand_formula(rng, 2, 3)) for _ in range(2)]
            tasks.append(mp_task(m, delta, text(rand_formula(rng, 2, 3))))
        for name, alg in rng.sample(algebras, 2):
            tasks.append(algebra_task(name, alg, rng.randrange(1000)))
        tasks.extend(cli_task(FINITE_CLI) for _ in range(FINITE_CLI_RUNS))
        rng.shuffle(tasks)
        rounds.append(tasks)
    return Workload(rounds, [probe_task(d) for d in PROBE_DEPTHS])


# -- pwl_geometry -------------------------------------------------------------------

def _grid_point(rng, dim, den=16):
    return tuple(F(rng.randint(0, den), den) for _ in range(dim))


def _box(rng, dim, width=None):
    """A box with corners on the grid of eighths; ``width`` (in eighths) fixes
    its side, which keeps the cost of averaging over it nearly constant."""
    out = []
    for _ in range(dim):
        if width is None:
            lo, hi = sorted(rng.sample(range(0, 9), 2))
        else:
            lo = rng.randint(0, 8 - width)
            hi = lo + width
        out.append((F(lo, 8), F(hi, 8)))
    return out


def compile_task(f_text, box, points):
    """pwl_from_formula -> pwl_integral -> pwl_min_value -> pwl_eval."""
    def run(tr):
        f = tr.call("formula.parse_formula", formula.parse_formula, f_text)
        w = tr.call("pwl.pwl_from_formula", pwl.pwl_from_formula, f, 2)
        integral = tr.call("pwl.pwl_integral", pwl.pwl_integral, w, box)
        low, witness = tr.call("pwl.pwl_min_value", pwl.pwl_min_value, w)
        values = [tr.call("pwl.pwl_eval", pwl.pwl_eval, w, p) for p in points]
        return f, w, integral, low, witness, values

    def check(raw, tr):
        f, w, integral, low, witness, values = raw
        for p, v in zip(points, values):
            expect(v == ev(tr, f, LUKASIEWICZ, p), f"pwl_eval differs at {p}")
        expect(ev(tr, f, LUKASIEWICZ, witness) == low, "minimum witness is off")
        expect(all(low <= v for v in values), "a sample lies below the minimum")
        area = (box[0][1] - box[0][0]) * (box[1][1] - box[1][0])
        expect(low * area <= integral <= area, "integral outside [min, 1] x area")
        tr.count("pwl.pwl_from_formula.cells", len(w.complex.cells))
        tr.count("formula.parse_formula.bytes", len(f_text.encode()))

    def output(raw):
        _f, w, integral, low, witness, values = raw
        return {"cells": len(w.complex.cells), "integral": q(integral), "min": q(low),
                "witness": qs(witness), "values": qs(values)}

    return Task("compile2", run, check, output)


def roundtrip1_task(f_text):
    """pwl_from_formula -> pwl_to_formula_1d -> pwl_from_formula -> pwl_equal."""
    grid = [(F(k, 12),) for k in range(13)]

    def run(tr):
        f = tr.call("formula.parse_formula", formula.parse_formula, f_text)
        w = tr.call("pwl.pwl_from_formula", pwl.pwl_from_formula, f, 1)
        g = tr.call("pwl.pwl_to_formula_1d", pwl.pwl_to_formula_1d, w)
        w2 = tr.call("pwl.pwl_from_formula", pwl.pwl_from_formula, g, 1)
        return f, w, g, w2, tr.call("pwl.pwl_equal", pwl.pwl_equal, w, w2)

    def check(raw, tr):
        f, w, g, w2, same = raw
        expect(same, "synthesized formula is not equal to the original")
        for p in grid:
            expect(ev(tr, f, LUKASIEWICZ, p) == ev(tr, g, LUKASIEWICZ, p),
                   f"synthesized formula differs at {p}")
        tr.count("pwl.pwl_from_formula.cells", len(w.complex.cells) + len(w2.complex.cells))
        tr.count("formula.parse_formula.bytes", len(f_text.encode()))

    def output(raw):
        return {"formula": text(raw[2]), "cells": len(raw[1].complex.cells)}

    return Task("roundtrip1", run, check, output)


def avg_task(kind, r, k, sigma, box, lebesgue, first):
    """average_truth_value; ``first`` is the known average of r over the box."""
    def run(tr):
        return tr.call("dynamics.average_truth_value", dynamics.average_truth_value,
                       r, k, sigma, box)

    def check(raw, tr):
        seq = raw["sequence"]
        expect(len(seq) == k + 1, "wrong sequence length")
        expect(all(0 <= v <= 1 for v in seq), "an average lies outside [0, 1]")
        expect(raw["lebesgue_average"] == lebesgue, "wrong Lebesgue average")
        expect(first is None or seq[0] == first, "wrong average of r itself")

    def output(raw):
        return {"sequence": qs(raw["sequence"]), "lebesgue": q(raw["lebesgue_average"])}

    return Task(kind, run, check, output)


PWL_CLI = [["pwl", "integrate", "--box", "0:1/4", "x0 (+) x0 & !x0 (+) !x0"],
           ["pwl", "compile", "x0 * x1 (+) !x0 & x1"]]


def tent_pair():
    x = Var(1)
    return formula.Substitution([dynamics.tent_substitution().images[0],
                                 And(OPlus(x, x), OPlus(Neg(x), Neg(x)))])


def pwl_geometry(seed, tr, n_rounds):
    rng = random.Random(seed)
    tent, tt = dynamics.tent_substitution(), tent_pair()
    x0, x0x1 = Var(0), Star(Var(0), Var(1))
    rounds = []
    for _ in range(n_rounds):
        tasks = []
        for _ in range(24):
            f = rand_formula(rng, 2, 5)
            tasks.append(compile_task(text(f), _box(rng, 2),
                                      [_grid_point(rng, 2) for _ in range(4)]))
        for _ in range(200):
            tasks.append(roundtrip1_task(text(rand_formula(rng, 1, 3))))
        box = _box(rng, 1, width=2)
        tasks.append(avg_task("avg_tent", x0, 8, tent, box, F(1, 2),
                              (box[0][0] + box[0][1]) / 2))
        for _ in range(5):
            tasks.append(avg_task("avg_tent2", x0x1, 2, tt, _box(rng, 2, width=4),
                                  F(1, 6), None))
        tasks.append(cli_task([PWL_CLI[len(rounds) % len(PWL_CLI)]]))
        rng.shuffle(tasks)
        rounds.append(tasks)
    return Workload(rounds)


# -- exact_orbits -------------------------------------------------------------------

def _tent_int(k, d):
    return 2 * k if 2 * k <= d else 2 * d - 2 * k


def tent_orbit_shape(k, d):
    """(preperiod, period) of k/d under the tent, in integer arithmetic."""
    seen = {}
    i = 0
    while k not in seen:
        seen[k] = i
        k = _tent_int(k, d)
        i += 1
    return seen[k], i - seen[k]


def _primes(lo, hi):
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [p for p in range(lo, hi + 1) if sieve[p]]


# Narrow bands of orbit length (steps), with a fixed number of starts from
# each band per round: every round then does the same orbit work whatever the
# seed, while the tasks still span short and long orbits. The counts put the
# median task inside the second band.
TENT_BANDS = (((300, 330), 2), ((1000, 1100), 6), ((2000, 2200), 5), ((4000, 4400), 5))
PAIR_BAND = (900, 1000)


def _tent_steps(p):
    """Orbit steps of 1/p under the tent, p an odd prime: one step onto the
    cycle, whose length is the least j with 2**j = +-1 (mod p)."""
    order, n, f = p - 1, p - 1, 2
    while f * f <= n:
        if n % f == 0:
            while n % f == 0:
                n //= f
            while order % f == 0 and pow(2, order // f, p) == 1:
                order //= f
        f += 1
    if n > 1 and pow(2, order // n, p) == 1:
        order //= n
    return 1 + (order // 2 if order % 2 == 0 else order)


def _pick_pair(rng):
    while True:
        d1, d2 = rng.randint(20, 300), rng.randint(20, 300)
        k1, k2 = rng.randint(1, d1 - 1), rng.randint(1, d2 - 1)
        (a, b), (c, e) = tent_orbit_shape(k1, d1), tent_orbit_shape(k2, d2)
        if PAIR_BAND[0] <= max(a, c) + lcm(b, e) < PAIR_BAND[1]:
            return (F(k1, d1), F(k2, d2))


def orbit_task(kind, smap, start, *tent_coords):
    """orbit; the check applies map_eval to close the cycle, checks that every
    denominator divides the start's, and, for the tent maps, compares the
    preperiod and period with an integer simulation of each coordinate
    ``(numerator, denominator)`` in ``tent_coords``."""
    def run(tr):
        return tr.call("dynamics.orbit", dynamics.orbit, smap, start, max_steps=10000)

    def check(o, tr):
        expect(o.status == "cycle", "orbit did not close")
        pts = o.points
        last = tr.call("dynamics.map_eval", dynamics.map_eval, smap, pts[-2])
        expect(last == pts[-1], "last step is not map_eval")
        expect(pts[-1] == pts[o.preperiod], "cycle does not close")
        expect(len(set(pts)) == len(pts) - 1, "orbit repeats before its end")
        d = dynamics.denominator(start)
        expect(all(d % e == 0 for e in o.denominators), "a denominator grew")
        if tent_coords:
            shapes = [tent_orbit_shape(k, d) for k, d in tent_coords]
            shape = (max(a for a, _ in shapes), lcm(*(b for _, b in shapes)))
            expect((o.preperiod, o.period) == shape, f"orbit shape {shape} expected")
        tr.count("dynamics.orbit.steps", len(pts) - 1)

    def output(o):
        return {"preperiod": o.preperiod, "period": o.period,
                "points": [qs(p) for p in o.points]}

    return Task(kind, run, check, output)


def reach_task(p, target):
    def run(tr):
        sigma = tr.call("dynamics.reachability_substitution",
                        dynamics.reachability_substitution, p, target)
        s = dynamics.InducedMap(len(p), tuple(sigma.images), None)
        return sigma, tr.call("dynamics.map_eval", dynamics.map_eval, s, p)

    def check(raw, tr):
        sigma, image = raw
        expect(image == tuple(target), "reachability image is not the target")
        expect(all(ev(tr, g, LUKASIEWICZ, p) == t
                   for g, t in zip(sigma.images, target)), "an image misses the target")

    def output(raw):
        return {"images": [text(g) for g in raw[0].images]}

    return Task("reach", run, check, output)


def _in_box(p, box):
    return all(lo <= x <= hi for x, (lo, hi) in zip(p, box))


def boxhit_task(smap, a_box, b_box):
    def run(tr):
        return tr.call("dynamics.box_hitting_search", dynamics.box_hitting_search,
                       smap, smap, a_box, b_box, 4, 4, 20)

    def check(hit, tr):
        tr.count("boxhit.searches", 1)
        if hit is None:
            return
        tr.count("boxhit.hits", 1)
        expect(_in_box(hit.witness, a_box), "witness outside the source box")
        x = hit.witness
        for _ in range(hit.h + hit.k):
            x = tr.call("dynamics.map_eval", dynamics.map_eval, smap, x)
        expect(x == hit.image, "image is not R^k Q^h of the witness")
        expect(_in_box(x, b_box), "image outside the target box")

    def output(hit):
        if hit is None:
            return {"found": False}
        return {"h": hit.h, "k": hit.k, "witness": qs(hit.witness), "image": qs(hit.image)}

    return Task("boxhit", run, check, output)


def tsujii_task(smap, p, v):
    def run(tr):
        return tr.call("dynamics.tsujii_differential", dynamics.tsujii_differential,
                       smap, p, v)

    def check(dv, tr):
        # The map is affine on the cell the ray enters, so a short exact
        # difference quotient equals the one-sided differential.
        h = F(1, 10 ** 6)
        moved = tuple(a + h * b for a, b in zip(p, v))
        quotient = tuple((y - x) / h for x, y in zip(smap.value(p), smap.value(moved)))
        expect(quotient == tuple(dv), f"differential {dv} but quotient {quotient}")

    def output(dv):
        return {"differential": qs(dv)}

    return Task("tsujii", run, check, output)


def validate_task(smap):
    def run(tr):
        return tr.call("dynamics.validate_homeomorphism",
                       dynamics.validate_homeomorphism, smap)

    def check(rep, tr):
        expect(rep["invertible"] and rep["measure_preserving"], "rotation not invertible")
        expect(rep["common_det"] == 1 and rep["image_measure"] == 1, "wrong determinant")

    def output(rep):
        return {k: (q(v) if isinstance(v, F) else v) for k, v in rep.items()}

    return Task("validate", run, check, output)


STATS_STEPS = 20000


def stats_task(smap, start, seed):
    def run(tr):
        return tr.call("dynamics.empirical_statistics", dynamics.empirical_statistics,
                       smap, start, STATS_STEPS, 4, seed=seed)

    def check(rep, tr):
        expect(sum(row["count"] for row in rep["table"]) == STATS_STEPS, "visits lost")
        expect(0 <= rep["discrepancy"] <= 1, "discrepancy out of range")
        tr.count("stats.steps", STATS_STEPS)

    def output(rep):
        return {"counts": [row["count"] for row in rep["table"]]}

    return Task("stats", run, check, output)


ORBIT_CLI = [["orbit", "--subst", "tent", "--start", "1/5"],
             ["subst", "reach", "--source", "1/3", "--target", "2/3"],
             ["boxhit", "--q", "tent", "--r", "tent", "--source", "1/5:3/10",
              "--target", "7/10:9/10", "--hmax", "4", "--kmax", "4", "--grid", "20"]]


def orbit_maps(tr):
    """The timed set-up of exact_orbits: one induced_map per map."""
    sigma_rot, rot = tr.call("dynamics.rotation_homeomorphism",
                             dynamics.rotation_homeomorphism)
    sigmas = {"tent": dynamics.tent_substitution(), "tent2": tent_pair(),
              "odometer4": odometer.odometer_substitution(4), "rotation": sigma_rot}
    maps = {}
    for name, sigma in sigmas.items():
        maps[name] = tr.call("dynamics.induced_map", dynamics.induced_map, sigma)
        tr.count("induced_map.built", 1)
        tr.count("induced_map.pwl", maps[name].pwl is not None)
    return maps, rot


def _rational(rng, dmax):
    d = rng.randint(1, dmax)
    return F(rng.randint(0, d), d)


def exact_orbits(seed, tr, n_rounds):
    maps, rot = orbit_maps(tr)
    rng = random.Random(seed)
    steps = {p: _tent_steps(p) for p in _primes(1000, 10000)}
    in_band = {band: [p for p, s in steps.items() if band[0] <= s < band[1]]
               for band, _count in TENT_BANDS}
    rounds = []
    for _ in range(n_rounds):
        tasks = []
        for band, count in TENT_BANDS:
            for p in (rng.choice(in_band[band]) for _ in range(count)):
                tasks.append(orbit_task("orbit_tent", maps["tent"], (F(1, p),),
                                        (1, p)))
        for _ in range(2):
            start = _pick_pair(rng)
            tasks.append(orbit_task("orbit_tent2", maps["tent2"], start,
                                    *((x.numerator, x.denominator) for x in start)))
        for _ in range(2):
            start = tuple(_rational(rng, 6) for _ in range(4))
            tasks.append(orbit_task("orbit_odometer4", maps["odometer4"], start))
        for _ in range(2):
            start = tuple(F(rng.randint(1, 7), 8) for _ in range(2))
            tasks.append(orbit_task("orbit_rotation", maps["rotation"], start))
        # Common denominators up to 10, as in acceptance criterion 06: the
        # clamped formulas grow with the Bezout coefficients.
        n, d = rng.randint(1, 2), rng.randint(2, 10)
        p = tuple(F(rng.randint(0, d), d) for _ in range(n))
        d = dynamics.denominator(p)
        dq = rng.choice([k for k in range(1, d + 1) if d % k == 0])
        tasks.append(reach_task(p, tuple(F(rng.randint(0, dq), dq) for _ in range(n))))
        lo_a, lo_b = rng.randint(0, 8), rng.randint(0, 8)
        tasks.append(boxhit_task(maps["tent"], [(F(lo_a, 10), F(lo_a + 2, 10))],
                                 [(F(lo_b, 10), F(lo_b + 1, 10))]))
        p = (F(rng.randint(1, 11), 12), F(rng.randint(1, 11), 12))
        v = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (2, -1)])
        tasks.append(tsujii_task(rot, p, v))
        tasks.append(validate_task(rot))
        tasks.append(stats_task(maps["tent"], (_rational(rng, 9),), rng.randrange(1000)))
        tasks.append(cli_task([ORBIT_CLI[len(rounds) % len(ORBIT_CLI)]]))
        rng.shuffle(tasks)
        rounds.append(tasks)
    return Workload(rounds)


WORKLOADS = {"finite_logic": finite_logic, "pwl_geometry": pwl_geometry,
             "exact_orbits": exact_orbits}
