#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny length (about two minutes).

    python3 perfbench/smoke.py

Checks that each workload runs one round correctly on the default seed, that
the metric names match BENCHMARK.json in both modes, that a corrupted
expected value, or a corrupted expected CLI stdout, fails the run, and that
a deep-input probe is compared with its expected entry.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = HERE / "out" / "smoke"


def bench(*args):
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "0.01",
           "--out", str(TMP), *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def probe_compare():
    """Whether Loop.compare reports a deep-input probe's output wrong, first
    against an expected error entry, then against a corrupted expected output."""
    sys.path.insert(0, str(HERE))
    import run
    task = SimpleNamespace(kind="probe_500")
    out = {"verdict": "countermodel", "point": ["0"], "printed": 501}
    wrong = []
    for want in ({"kind": "probe_500", "error": "RecursionError"},
                 {"kind": "probe_500", "verdict": "countermodel", "sha256": "0" * 64}):
        loop = run.Loop(None, None, {"rounds": 1, "cli": {}, "tasks": {"probe.0": want}},
                        check_tasks=True)
        try:
            loop.compare("probe.0", task, out)
        except Exception as exc:  # as in Loop.one, a check that cannot run fails
            loop.wrong.append(("probe.0", repr(exc)))
        wrong.append(bool(loop.wrong))
    return wrong


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)
    failures = []

    def expect(cond, message):
        print(("ok   " if cond else "FAIL ") + message)
        if not cond:
            failures.append(message)

    for w in spec["workloads"]:
        rc, res = bench("--workload", w["name"], "--trace", "0")
        expect(rc == 0 and res["correct"], f"{w['name']}: one round is correct")
        expect(set(res["metrics"]) == e2e, f"{w['name']}: end-to-end metric names")
    rc, res = bench("--workload", "exact_orbits", "--trace", "1")
    expect(rc == 0 and res["correct"], "exact_orbits traced: correct")
    expect(set(res["metrics"]) == layers, "exact_orbits traced: per-layer metric names")

    expected = json.loads((HERE / "expected" / "pwl_geometry.json").read_text())
    task = next(tid for tid, e in sorted(expected["tasks"].items()) if tid.startswith("0."))
    bad = json.loads(json.dumps(expected))
    bad["tasks"][task]["sha256"] = "0" * 64
    (TMP / "bad_task.json").write_text(json.dumps(bad))
    rc, res = bench("--workload", "pwl_geometry", "--expected", str(TMP / "bad_task.json"))
    expect(rc == 1 and not res["correct"], "a corrupted expected task output fails the run")

    bad = json.loads(json.dumps(expected))
    for entry in bad["cli"].values():
        entry["sha256"] = "0" * 64
    (TMP / "bad_cli.json").write_text(json.dumps(bad))
    rc, res = bench("--workload", "pwl_geometry", "--seed", "7",
                    "--expected", str(TMP / "bad_cli.json"))
    expect(rc == 1 and not res["correct"], "a corrupted expected CLI stdout fails any seed")

    after_error, after_corrupt = probe_compare()
    expect(not after_error, "a probe that now answers, where an error was expected, "
                            "is not wrong")
    expect(after_corrupt, "a probe whose output differs from the expected file is wrong")

    shutil.rmtree(TMP, ignore_errors=True)
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
