"""Exact many-valued logic over t-norms and the dynamics of logical substitutions."""

from .formula import (
    Formula, Var, Star, Impl, Neg, And, Or, OPlus, ZERO, ONE,
    ParseError, parse_formula, print_formula, variables_of, arity_of,
    TNormSemantics, GODEL, PRODUCT, LUKASIEWICZ, BOOLE, chain_semantics,
    evaluate, Substitution, apply_substitution, compose_substitutions,
    Verdict, tautology_check, identity_check, rationals_up_to,
)
from .pwl import (
    CellComplex, PWLMap, AffineMap, CellBudgetError, unit_complex,
    common_refinement, pwl_from_formula, pwl_eval, pwl_combine, pwl_compose, pwl_equal,
    pwl_le, pwl_min_value, pwl_integral, clamp_affine_formula, pwl_to_formula_1d, affine_from_simplex_pair, pwl_to_json, pwl_from_json,
    pwl_map_to_json, pwl_map_from_json,
)
from .algebra import (
    FiniteAlgebra, Homomorphism, SpecSpace, evaluate_in, finite_chain,
    product_algebra, power_algebra, subalgebra_generated, is_filter,
    filter_generated, enumerate_filters, is_prime, quotient_algebra,
    lemma7_check, identity_homomorphism, compose_homomorphisms, spec_space,
    dual_map, duality_check, algebra_to_json, algebra_from_json,
)
from .proofs import (
    Axiom, Hypothesis, ModusPonens, Substituted, ProofLine, Proof,
    ProofVerdict, AxiomSet, ConsequenceVerdict, builtin_axioms, is_instance_of,
    check_proof, mp_consequence, proof_to_jsonl, proof_from_jsonl,
)
from .odometer import (
    TruthTable, BoolPermutation, truth_table, symmetric_difference,
    odometer_substitution, induced_permutation, odometer_induced_permutation,
    derive_from_nontautology,
)
from .dynamics import (
    InducedMap, Orbit, BoxHit, induced_map, geometric_form, map_eval, denominator,
    orbit, full_rational_orbit, reachability_substitution,
    rotation_homeomorphism, validate_homeomorphism, tsujii_differential,
    box_hitting_search, empirical_statistics, average_truth_value,
    tent_substitution, flip_substitution,
)

__all__ = [
    "Formula", "Var", "Star", "Impl", "Neg", "And", "Or", "OPlus", "ZERO", "ONE",
    "ParseError", "parse_formula", "print_formula", "variables_of", "arity_of",
    "TNormSemantics", "GODEL", "PRODUCT", "LUKASIEWICZ", "BOOLE", "chain_semantics",
    "evaluate", "Substitution", "apply_substitution", "compose_substitutions",
    "Verdict", "tautology_check", "identity_check", "rationals_up_to",
    "CellComplex", "PWLMap", "AffineMap", "CellBudgetError",
    "unit_complex", "common_refinement", "pwl_from_formula", "pwl_eval",
    "pwl_combine", "pwl_compose", "pwl_equal", "pwl_le", "pwl_min_value", "pwl_integral",
    "clamp_affine_formula", "pwl_to_formula_1d", "affine_from_simplex_pair",
    "pwl_to_json", "pwl_from_json", "pwl_map_to_json", "pwl_map_from_json",
    "FiniteAlgebra", "Homomorphism", "SpecSpace", "evaluate_in", "finite_chain",
    "product_algebra", "power_algebra", "subalgebra_generated", "is_filter",
    "filter_generated", "enumerate_filters", "is_prime", "quotient_algebra",
    "lemma7_check", "identity_homomorphism", "compose_homomorphisms",
    "spec_space", "dual_map", "duality_check", "algebra_to_json",
    "algebra_from_json",
    "Axiom", "Hypothesis", "ModusPonens", "Substituted", "ProofLine", "Proof",
    "ProofVerdict", "AxiomSet", "ConsequenceVerdict", "builtin_axioms",
    "is_instance_of", "check_proof", "mp_consequence", "proof_to_jsonl",
    "proof_from_jsonl",
    "TruthTable", "BoolPermutation", "truth_table", "symmetric_difference",
    "odometer_substitution", "induced_permutation",
    "odometer_induced_permutation", "derive_from_nontautology",
    "InducedMap", "Orbit", "BoxHit", "induced_map", "geometric_form", "map_eval",
    "denominator", "orbit", "full_rational_orbit", "reachability_substitution",
    "rotation_homeomorphism", "validate_homeomorphism", "tsujii_differential",
    "box_hitting_search", "empirical_statistics", "average_truth_value",
    "tent_substitution", "flip_substitution",
]
