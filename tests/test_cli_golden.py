"""Golden CLI outputs: the exact stdout bytes of the README tour and of the
piecewise-affine commands, recorded in tests/data/cli/<name>.out.

A case that reads a file reads an earlier case's recorded output, so the
pipeline compile -> synthesize and derive -> check is pinned as well.
"""

from pathlib import Path

import pytest

from mvdyn.cli import run

DATA = Path(__file__).resolve().parent / "data" / "cli"

CASES = [
    # the README tour, in its order
    ("eval", ["eval", "--point", "1/4,1/2", "x0 -> x1"]),
    ("eval_chain", ["eval", "--logic", "chain:3", "--point", "2/3", "x0 * x0"]),
    ("taut_text", ["--format", "text", "taut", "!!x0 -> x0"]),
    ("taut_chain_text", ["--format", "text", "taut", "--logic", "chain:2", "x0 | !x0"]),
    ("identity", ["identity", "x0 & x1", "x1 & x0"]),
    ("pwl_compile_tent", ["pwl", "compile", "x0 (+) x0 & !x0 (+) !x0"]),
    ("pwl_integrate", ["pwl", "integrate", "x0 (+) x0"]),
    ("pwl_integrate_box", ["pwl", "integrate", "--box", "0:1/4",
                           "x0 (+) x0 & !x0 (+) !x0"]),
    ("orbit_tent", ["orbit", "--subst", "tent", "--start", "1/5"]),
    ("subst_apply", ["subst", "apply", "--subst", "flip", "x0"]),
    ("subst_reach", ["subst", "reach", "--source", "1/3", "--target", "2/3"]),
    ("homeo_rotation_validate", ["homeo", "rotation", "--validate"]),
    ("homeo_validate_flip", ["homeo", "validate", "--subst", "flip"]),
    ("diff_tent", ["diff", "--map", "tent", "--point", "1/2", "--dir", "1"]),
    ("boxhit", ["boxhit", "--q", "tent", "--r", "tent", "--source", "1/5:3/10",
                "--target", "7/10:9/10", "--hmax", "4", "--kmax", "4", "--grid", "20"]),
    ("stats", ["--seed", "7", "stats", "--subst", "tent", "--start", "1/3",
               "--iters", "20000", "--grid", "4"]),
    ("avg", ["avg", "--subst", "tent", "--k", "3", "--box", "0:1/4", "x0"]),
    ("odometer_perm", ["odometer", "perm", "--n", "3"]),
    ("odometer_derive", ["odometer", "derive", "--n", "2", "--hyp", "x0 * x1",
                         "--target", "!x1"]),
    ("algebra_chain", ["algebra", "chain", "--m", "2"]),
    ("filters_godel", ["filters", "--algebra", "godel:3"]),
    ("spec_luk", ["spec", "--algebra", "luk:3"]),
    ("duality_bool", ["duality", "--algebra", "bool"]),
    # 41 elements and 40 points: past any all-subsets check
    ("duality_godel40", ["duality", "--algebra", "godel:40"]),
    # piecewise-affine maps in one and two variables
    ("pwl_compile_2d", ["pwl", "compile", "x0 * x1 (+) !x0 & x1"]),
    ("pwl_synthesize_tent", ["pwl", "synthesize", str(DATA / "pwl_compile_tent.out")]),
    ("homeo_build_tent", ["homeo", "build", "--validate", "--subst", "tent"]),
    ("homeo_build_swap", ["homeo", "build", "--validate", "--subst", "x0=x1;x1=x0"]),
    ("homeo_build_2d", ["homeo", "build", "--validate",
                        "--subst", "x0=x0 (+) x1;x1=!x0 & x1"]),
    ("homeo_rotation", ["homeo", "rotation"]),
    ("diff_rotation", ["diff", "--map", "rotation", "--point", "1/2,1/4",
                       "--dir", "1,-1"]),
    ("avg_2d", ["avg", "--subst", "x0=(x0 (+) x0) & (!x0 (+) !x0);x1=(x1 (+) x1) & (!x1 (+) !x1)",
                "--k", "2", "--box", "0:1/2,1/4:3/4", "x0 * x1"]),
    ("orbit_rotation", ["orbit", "--subst", "rotation", "--start", "1/8,3/8"]),
    ("orbit_2d", ["orbit", "--subst", "x0=(x0 (+) x0) & (!x0 (+) !x0);x1=x0 * x1 (+) !x0 & x1",
                  "--start", "1/5,2/7"]),
    # four variables: no geometric form, so each step runs the map's program
    ("orbit_odometer4", ["orbit", "--subst", "odometer:4", "--start", "1/3,1/2,0,1/5"]),
    # the Lukasiewicz decision's witness in two variables
    ("taut_countermodel_2d", ["taut", "(x0 (+) x1) -> (x0 * x1)"]),
    ("identity_differs_text", ["--format", "text", "identity", "x0 * x1", "x0 & x1"]),
    ("prove_check_derived", ["prove", "check", str(DATA / "odometer_derive.out"),
                             "--hyp", "x0 * x1", "--no-axioms", "--oracle", "boole"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_stdout_matches_golden(capsys, name, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (DATA / f"{name}.out").read_bytes()


def test_every_golden_file_has_one_case():
    names = [name for name, _ in CASES]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(path.stem for path in DATA.glob("*.out"))
