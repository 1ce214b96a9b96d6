"""Command-line interface: every library feature as a subcommand.

Conventions: rationals are "num/den" strings, points are comma-separated
coordinates, boxes are comma-separated "lo:hi" ranges. Output is JSON by
default (sorted keys, so identical arguments and seed give identical bytes);
--format text gives short human-readable lines and --format csv is available
for tabular statistics. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .formula import (
    GODEL, PRODUCT, LUKASIEWICZ, Substitution, apply_substitution,
    chain_semantics, compose_substitutions, evaluate, identity_check,
    parse_formula, print_formula, tautology_check,
)
from . import pwl as _pwl
from . import algebra as _alg
from . import proofs as _proofs
from . import odometer as _odo
from . import dynamics as _dyn


# -- argument parsing helpers -------------------------------------------------------

def _semantics(name: str):
    key = name.lower()
    if key in ("luk", "lukasiewicz"):
        return LUKASIEWICZ
    if key in ("godel", "goedel"):
        return GODEL
    if key == "product":
        return PRODUCT
    if key in ("bool", "boole"):
        return chain_semantics(1)
    if key.startswith("chain:"):
        parts = key.split(":")
        m = int(parts[1])
        base = parts[2] if len(parts) > 2 else "lukasiewicz"
        return chain_semantics(m, base)
    raise ValueError(f"unknown logic {name!r}")


def _point(text: str) -> tuple:
    return tuple(Fraction(x.strip()) for x in text.split(","))


def _box(text: str):
    out = []
    for axis in text.split(","):
        lo, hi = axis.split(":")
        out.append((Fraction(lo.strip()), Fraction(hi.strip())))
    return out


def _substitution(spec: str) -> Substitution:
    """Named maps (tent, flip, rotation, identity:n, odometer:n) or explicit
    semicolon-separated assignments like "x0=!x1;x1=x0*x1"."""
    key = spec.strip().lower()
    if key == "tent":
        return _dyn.tent_substitution()
    if key == "flip":
        return _dyn.flip_substitution()
    if key == "rotation":
        return _dyn.rotation_homeomorphism()[0]
    if key.startswith("identity:"):
        return Substitution.identity(int(key.split(":")[1]))
    if key.startswith("odometer:"):
        return _odo.odometer_substitution(int(key.split(":")[1]))
    images: dict[int, object] = {}
    arity = 0
    for part in spec.split(";"):
        lhs, rhs = part.split("=", 1)
        lhs = lhs.strip()
        if not (lhs.startswith("x") and lhs[1:].isdigit()):
            raise ValueError(f"assignment target {lhs!r} is not a variable")
        i = int(lhs[1:])
        g = parse_formula(rhs)
        images[i] = g
        arity = max(arity, i + 1, g.arity)
    base = Substitution.identity(arity)
    return Substitution([images.get(i, base.images[i]) for i in range(arity)])


def _algebra(spec: str) -> _alg.FiniteAlgebra:
    """bool | luk:M | godel:M | @file.json | "-" for JSON on stdin."""
    key = spec.strip()
    if key == "-":
        return _alg.algebra_from_json(json.load(sys.stdin))
    if key.startswith("@"):
        with open(key[1:], "r", encoding="utf-8") as fh:
            return _alg.algebra_from_json(json.load(fh))
    low = key.lower()
    if low in ("bool", "boole"):
        return _alg.finite_chain(1)
    if low.startswith("luk:"):
        return _alg.finite_chain(int(low.split(":")[1]))
    if low.startswith("godel:"):
        return _alg.finite_chain(int(low.split(":")[1]), "godel")
    raise ValueError(f"unknown algebra spec {spec!r}")


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, frozenset):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(args, payload, text_line=None) -> None:
    if args.format == "text" and text_line is not None:
        print(text_line)
    else:
        print(json.dumps(_jsonable(payload), sort_keys=True))


# -- subcommand bodies --------------------------------------------------------------

def _cmd_eval(args) -> int:
    f = parse_formula(args.formula)
    val = evaluate(f, _semantics(args.logic), _point(args.point))
    _emit(args, {"value": val}, str(val))
    return 0


def _cmd_taut(args) -> int:
    v = tautology_check(parse_formula(args.formula), _semantics(args.logic),
                        method=args.method, grid_bound=args.grid_bound)
    payload = {"status": v.status}
    if v.point is not None:
        payload["point"] = list(v.point)
    text = {"tautology": "Tautology", "unknown": "Unknown"}.get(
        v.status, f"Countermodel at ({', '.join(str(x) for x in v.point or ())})")
    _emit(args, payload, text)
    return 0


def _cmd_identity(args) -> int:
    v = identity_check(parse_formula(args.left), parse_formula(args.right),
                       _semantics(args.logic), method=args.method,
                       grid_bound=args.grid_bound)
    payload = {"status": "identity" if v.is_tautology else v.status}
    if v.point is not None:
        payload["point"] = list(v.point)
    text = {"tautology": "Identity", "unknown": "Unknown"}.get(
        v.status, f"Differs at ({', '.join(str(x) for x in v.point or ())})")
    _emit(args, payload, text)
    return 0


def _cmd_pwl_compile(args) -> int:
    f = parse_formula(args.formula)
    w = _pwl.pwl_from_formula(f, dim=args.dim)
    _emit(args, _pwl.pwl_to_json(w),
          f"{len(w.complex.cells)} cells over {len(w.complex.vertices)} vertices")
    return 0


def _cmd_pwl_integrate(args) -> int:
    f = parse_formula(args.formula)
    w = _pwl.pwl_from_formula(f, dim=args.dim)
    box = _box(args.box) if args.box else None
    val = _pwl.pwl_integral(w, box)
    _emit(args, {"integral": val}, str(val))
    return 0


def _cmd_pwl_synthesize(args) -> int:
    if args.file == "-":
        obj = json.load(sys.stdin)
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    w = _pwl.pwl_from_json(obj)
    if w.dim != 1:
        raise ValueError("synthesis to a formula is exposed for dimension 1")
    f = _pwl.pwl_to_formula_1d(w)
    _emit(args, {"formula": print_formula(f)}, print_formula(f))
    return 0


def _cmd_orbit(args) -> int:
    s = _dyn.induced_map(_substitution(args.subst))
    o = _dyn.orbit(s, _point(args.start), max_steps=args.max)
    payload = {
        "start": list(o.start), "status": o.status,
        "preperiod": o.preperiod, "period": o.period,
        "points": [list(p) for p in o.points],
        "denominators": list(o.denominators),
    }
    text = (f"{o.status}: preperiod {o.preperiod}, period {o.period}"
            if o.status == "cycle" else f"truncated after {len(o.points) - 1} steps")
    _emit(args, payload, text)
    return 0


def _cmd_subst_apply(args) -> int:
    g = apply_substitution(_substitution(args.subst), parse_formula(args.formula))
    _emit(args, {"formula": print_formula(g)}, print_formula(g))
    return 0


def _cmd_subst_compose(args) -> int:
    sig = compose_substitutions(_substitution(args.first), _substitution(args.second))
    payload = {f"x{i}": print_formula(g) for i, g in enumerate(sig.images)}
    _emit(args, payload, "; ".join(f"x{i}={v}" for i, v in sorted(payload.items())))
    return 0


def _cmd_subst_reach(args) -> int:
    sig = _dyn.reachability_substitution(_point(args.source), _point(args.target))
    payload = {f"x{i}": print_formula(g) for i, g in enumerate(sig.images)}
    _emit(args, payload, "; ".join(f"{k}={v}" for k, v in sorted(payload.items())))
    return 0


def _homeo_payload(smap: _dyn.PWLMap, with_report: bool):
    payload = _dyn.pwl_map_to_json(smap)
    if with_report:
        payload["report"] = _dyn.validate_homeomorphism(smap)
    return payload


def _cmd_homeo_build(args) -> int:
    s = _dyn.induced_map(_substitution(args.subst))
    if s.pwl is None:
        raise ValueError("no geometric form within budget (or arity > 2)")
    payload = _homeo_payload(s.pwl, args.validate)
    _emit(args, payload, f"{len(s.pwl.complex.cells)} affine cells")
    return 0


def _cmd_homeo_validate(args) -> int:
    s = _dyn.induced_map(_substitution(args.subst))
    if s.pwl is None:
        raise ValueError("no geometric form within budget (or arity > 2)")
    rep = _dyn.validate_homeomorphism(s.pwl)
    _emit(args, rep, _report_line(rep))
    return 0


def _report_line(rep: dict) -> str:
    return (f"invertible={str(rep['invertible']).lower()} "
            f"common_det={rep['common_det']} "
            f"measure_preserving={str(rep['measure_preserving']).lower()}")


def _cmd_homeo_rotation(args) -> int:
    sigma, smap = _dyn.rotation_homeomorphism()
    payload = _homeo_payload(smap, args.validate)
    payload["substitution"] = {f"x{i}": print_formula(g)
                               for i, g in enumerate(sigma.images)}
    text = f"{len(smap.complex.cells)} affine cells"
    if args.validate:
        text = _report_line(payload["report"])
    _emit(args, payload, text)
    return 0


def _named_map(args) -> _dyn.PWLMap:
    if args.map == "rotation":
        return _dyn.rotation_homeomorphism()[1]
    s = _dyn.induced_map(_substitution(args.map))
    if s.pwl is None:
        raise ValueError("no geometric form within budget (or arity > 2)")
    return s.pwl


def _cmd_diff(args) -> int:
    smap = _named_map(args)
    dv = _dyn.tsujii_differential(smap, _point(args.point), _point(args.dir))
    _emit(args, {"differential": list(dv)}, ", ".join(str(x) for x in dv))
    return 0


def _cmd_boxhit(args) -> int:
    q = _dyn.induced_map(_substitution(args.q))
    r = _dyn.induced_map(_substitution(args.r))
    hit = _dyn.box_hitting_search(q, r, _box(args.source), _box(args.target),
                                  h_max=args.hmax, k_max=args.kmax,
                                  grid_denominator=args.grid)
    if hit is None:
        _emit(args, {"found": False}, "no witness at this resolution")
        return 0
    payload = {"found": True, "h": hit.h, "k": hit.k,
               "witness": list(hit.witness), "image": list(hit.image)}
    _emit(args, payload,
          f"h={hit.h} k={hit.k} witness=({', '.join(str(x) for x in hit.witness)})")
    return 0


def _cmd_stats(args) -> int:
    s = _dyn.induced_map(_substitution(args.subst))
    rep = _dyn.empirical_statistics(s, _point(args.start), args.iters,
                                    args.grid, seed=args.seed)
    if args.format == "csv":
        print("box,count,frequency,volume")
        for row in rep["table"]:
            box = ":".join(str(i) for i in row["box"])
            print(f"{box},{row['count']},{row['frequency']:.6f},{row['volume']:.6f}")
        return 0
    _emit(args, rep, f"discrepancy {rep['discrepancy']:.4f}")
    return 0


def _cmd_avg(args) -> int:
    rep = _dyn.average_truth_value(parse_formula(args.formula), args.k,
                                   _substitution(args.subst), _box(args.box))
    text = ", ".join(str(x) for x in rep["sequence"])
    _emit(args, rep, f"{text}; Lebesgue {rep['lebesgue_average']}")
    return 0


def _cmd_odometer_perm(args) -> int:
    perm = _odo.odometer_induced_permutation(args.n)
    payload = {"n": args.n, "order": 2 ** args.n,
               "cycle_lengths": list(perm.cycle_lengths()),
               "single_cycle": perm.cycle_lengths() == (2 ** args.n,)}
    if args.n <= 6:
        payload["mapping"] = list(perm.mapping)
    _emit(args, payload, f"single {2 ** args.n}-cycle")
    return 0


def _cmd_odometer_derive(args) -> int:
    proof = _odo.derive_from_nontautology(parse_formula(args.hyp),
                                          parse_formula(args.target), args.n)
    sys.stdout.write(_proofs.proof_to_jsonl(proof))
    return 0


def _cmd_prove_check(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    hyps = tuple(parse_formula(h) for h in args.hyp or [])
    try:
        proof = _proofs.proof_from_jsonl(text, hypotheses=hyps)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"malformed proof: {exc}", file=sys.stderr)
        return 2
    axioms = None if args.no_axioms else _proofs.builtin_axioms(args.logic)
    oracle = None if args.oracle == "none" else args.oracle
    verdict = _proofs.check_proof(proof, axioms=axioms, oracle=oracle,
                                  strict=args.strict)
    payload = {"valid": verdict.valid}
    if not verdict.valid:
        payload["line"] = verdict.line + 1
        payload["reason"] = verdict.reason
    _emit(args, payload,
          "Valid" if verdict.valid
          else f"Invalid at line {verdict.line + 1}: {verdict.reason}")
    return 0 if verdict.valid else 1


def _cmd_algebra_chain(args) -> int:
    a = _alg.finite_chain(args.m, args.logic)
    _emit(args, _alg.algebra_to_json(a), f"chain with {a.size} elements")
    return 0


def _cmd_algebra_product(args) -> int:
    a = _alg.product_algebra(_algebra(args.left), _algebra(args.right))
    _emit(args, _alg.algebra_to_json(a), f"product with {a.size} elements")
    return 0


def _cmd_algebra_sub(args) -> int:
    base = _algebra(args.base)
    gens = [int(x) for x in args.gens.split(",")] if args.gens else []
    a = _alg.subalgebra_generated(base, gens)
    _emit(args, _alg.algebra_to_json(a), f"subalgebra with {a.size} elements")
    return 0


def _cmd_filters(args) -> int:
    a = _algebra(args.algebra)
    filters, primes, maximals = _alg.enumerate_filters(a)
    payload = {
        "size": a.size,
        "filters": [sorted(f) for f in filters],
        "primes": [sorted(p) for p in primes],
        "maximals": [sorted(m) for m in maximals],
        "counts": {"filters": len(filters), "primes": len(primes),
                   "maximals": len(maximals)},
    }
    _emit(args, payload,
          f"{len(filters)} filters, {len(primes)} prime, {len(maximals)} maximal")
    return 0


def _cmd_spec(args) -> int:
    a = _algebra(args.algebra)
    sp = _alg.spec_space(a)
    payload = {
        "points": [sorted(p) for p in sp.points],
        "subbasic": [sorted(sp.subbasic[i]) for i in range(a.size)],
        "open_count": len(sp.opens),
        "specialization": [[i, j] for i in range(len(sp.points))
                           for j in range(len(sp.points))
                           if sp.le[i][j]],
    }
    _emit(args, payload,
          f"{len(sp.points)} prime filters, {len(sp.opens)} opens")
    return 0


def _cmd_duality(args) -> int:
    a = _algebra(args.algebra)
    rep = _alg.duality_check(a, seed=args.seed)
    _emit(args, rep, f"ok={str(rep['ok']).lower()}")
    return 0


# -- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mvdyn",
        description="Exact many-valued logic, piecewise-linear geometry, and "
                    "substitution dynamics.")
    top.add_argument("--format", choices=("json", "csv", "text"), default="json",
                     help="output format (default json; csv only for stats)")
    top.add_argument("--seed", type=int, default=0,
                     help="RNG seed for the statistics command")
    sub = top.add_subparsers(dest="command", required=True)

    def logic_flag(p, default="lukasiewicz"):
        p.add_argument("--logic", default=default,
                       help="luk | godel | product | bool | chain:M[:base]")

    p = sub.add_parser("eval", help="evaluate a formula at a rational point")
    logic_flag(p)
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("taut", help="decide or refute 'formula is always 1'")
    logic_flag(p)
    p.add_argument("--method", default="auto",
                   choices=("auto", "truth-table", "exact-pwl", "grid"))
    p.add_argument("--grid-bound", type=int, default=6)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_taut)

    p = sub.add_parser("identity", help="decide whether two formulas agree everywhere")
    logic_flag(p)
    p.add_argument("--method", default="auto",
                   choices=("auto", "truth-table", "exact-pwl", "grid"))
    p.add_argument("--grid-bound", type=int, default=6)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("pwl", help="piecewise-linear geometry of formulas")
    psub = p.add_subparsers(dest="pwl_command", required=True)
    q = psub.add_parser("compile", help="formula to exact cell complex + pieces")
    q.add_argument("--dim", type=int, default=None)
    q.add_argument("formula")
    q.set_defaults(func=_cmd_pwl_compile)
    q = psub.add_parser("integrate", help="exact integral over a box")
    q.add_argument("--dim", type=int, default=None)
    q.add_argument("--box", default=None, help="comma-separated lo:hi ranges")
    q.add_argument("formula")
    q.set_defaults(func=_cmd_pwl_integrate)
    q = psub.add_parser("synthesize", help="1-D PWL JSON back to a formula")
    q.add_argument("file", help="path to PWL JSON, or - for stdin")
    q.set_defaults(func=_cmd_pwl_synthesize)

    p = sub.add_parser("orbit", help="exact orbit of a point under a substitution")
    p.add_argument("--subst", required=True,
                   help="tent | flip | rotation | identity:N | odometer:N | x0=...;x1=...")
    p.add_argument("--start", required=True)
    p.add_argument("--max", type=int, default=10000, help="step budget")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("subst", help="apply, compose, or solve for substitutions")
    psub = p.add_subparsers(dest="subst_command", required=True)
    q = psub.add_parser("apply", help="substitute into a formula")
    q.add_argument("--subst", required=True)
    q.add_argument("formula")
    q.set_defaults(func=_cmd_subst_apply)
    q = psub.add_parser("compose", help="first after second, as one substitution")
    q.add_argument("--first", required=True)
    q.add_argument("--second", required=True)
    q.set_defaults(func=_cmd_subst_compose)
    q = psub.add_parser("reach", help="substitution sending one point to another")
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.set_defaults(func=_cmd_subst_reach)

    p = sub.add_parser("homeo", help="piecewise-affine maps and their validation")
    psub = p.add_subparsers(dest="homeo_command", required=True)
    q = psub.add_parser("build", help="geometric form of a substitution's map")
    q.add_argument("--subst", required=True)
    q.add_argument("--validate", action="store_true")
    q.set_defaults(func=_cmd_homeo_build)
    q = psub.add_parser("validate", help="determinant and tiling report")
    q.add_argument("--subst", required=True)
    q.set_defaults(func=_cmd_homeo_validate)
    q = psub.add_parser("rotation", help="the 14-cell unimodular rotation map")
    q.add_argument("--validate", action="store_true")
    q.set_defaults(func=_cmd_homeo_rotation)

    p = sub.add_parser("diff", help="one-sided directional differential")
    p.add_argument("--map", required=True,
                   help="rotation, or any substitution spec with a geometric form")
    p.add_argument("--point", required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("boxhit", help="search (h, k) with R^k Q^h mapping box to box")
    p.add_argument("--q", required=True, help="substitution spec for Q")
    p.add_argument("--r", required=True, help="substitution spec for R")
    p.add_argument("--source", required=True, help="box as lo:hi[,lo:hi]")
    p.add_argument("--target", required=True)
    p.add_argument("--hmax", type=int, default=8)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--grid", type=int, default=16, help="witness grid denominator")
    p.set_defaults(func=_cmd_boxhit)

    p = sub.add_parser("stats", help="float visit frequencies vs uniform volume")
    p.add_argument("--subst", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--iters", type=int, default=100000)
    p.add_argument("--grid", type=int, default=16, help="boxes per axis")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("avg", help="exact average truth values along iterates")
    p.add_argument("--subst", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--box", required=True, help="comma-separated lo:hi ranges")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_avg)

    p = sub.add_parser("odometer", help="binary odometer substitution")
    psub = p.add_subparsers(dest="odometer_command", required=True)
    q = psub.add_parser("perm", help="induced permutation on 0/1 assignments")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=_cmd_odometer_perm)
    q = psub.add_parser("derive", help="proof of a target from a non-tautology")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--hyp", required=True, help="non-tautological hypothesis")
    q.add_argument("--target", required=True)
    q.set_defaults(func=_cmd_odometer_derive)

    p = sub.add_parser("prove", help="proof checking")
    psub = p.add_subparsers(dest="prove_command", required=True)
    q = psub.add_parser("check", help="check a JSONL proof object")
    q.add_argument("file", help="path to proof JSONL, or - for stdin")
    q.add_argument("--logic", default="mv", choices=("mv", "product", "godel", "boole"),
                   help="axiom schema family (shared core plus extension)")
    q.add_argument("--hyp", action="append", help="hypothesis formula (repeatable)")
    q.add_argument("--oracle", default="none",
                   choices=("none", "boole", "lukasiewicz"),
                   help="semantic fallback for axiom lines")
    q.add_argument("--no-axioms", action="store_true",
                   help="drop the built-in schema list")
    q.add_argument("--strict", action="store_true",
                   help="axiom lines must be schemas verbatim")
    q.set_defaults(func=_cmd_prove_check)

    p = sub.add_parser("algebra", help="build finite truth-value algebras")
    psub = p.add_subparsers(dest="algebra_command", required=True)
    q = psub.add_parser("chain", help="finite chain")
    q.add_argument("--m", type=int, required=True, help="subdivisions: carrier {0, 1/m, .., 1}")
    q.add_argument("--logic", default="lukasiewicz",
                   choices=("lukasiewicz", "godel"))
    q.set_defaults(func=_cmd_algebra_chain)
    q = psub.add_parser("product", help="direct product of two algebras")
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)
    q.set_defaults(func=_cmd_algebra_product)
    q = psub.add_parser("sub", help="subalgebra generated by elements")
    q.add_argument("--base", required=True)
    q.add_argument("--gens", default="", help="comma-separated element indices")
    q.set_defaults(func=_cmd_algebra_sub)

    p = sub.add_parser("filters", help="all filters, primes, and maximals")
    p.add_argument("--algebra", required=True,
                   help="bool | luk:M | godel:M | @file.json | -")
    p.set_defaults(func=_cmd_filters)

    p = sub.add_parser("spec", help="prime spectrum with hull-kernel topology")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=_cmd_spec)

    p = sub.add_parser("duality", help="filters-vs-opens duality report")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=_cmd_duality)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, ArithmeticError, AssertionError, OSError,
            json.JSONDecodeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
