#!/usr/bin/env python3
"""Benchmark of the mvdyn library, stdlib only.

    python3 perfbench/run.py --workload finite_logic --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root; the library is imported from ``src/``. Each
workload is one closed loop (one client, one process, one thread) over a
fixed task list generated from ``--seed`` (see workloads.py). ``--seconds``
sets the amount of work: the number of rounds of tasks that takes about that
long on the machine the nominal round times below were measured on. The same
seconds always give the same tasks, so a faster library finishes sooner
rather than doing different work. The loop checks every result and prints a
report; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` one pass runs the tasks untraced. Each task's time, and
each set-up's, is divided by the CPU speed around it (SpeedProbe: a fixed loop
timed between tasks, over REF_PROBE_S), because the CPU of the shared machine
this was built on changes speed every few seconds; the unscaled metrics are
kept in the result file. ``setup_s`` is the median of at least three builds
of the task list. With ``--trace 1`` an untraced pass is followed by a pass
that records a span around every call into mvdyn; the metrics are then the
per-layer ones (unscaled) plus both passes' scaled throughputs, whose ratio
is the tracing overhead.
Spans go to ``perfbench/out/spans/``; every run also writes its full result,
with metadata, to ``perfbench/out/results/`` (or ``--out``), which
``perfbench/compare.py`` reads.

A task that raises counts as failed (``error_rate``) and as infinitely slow in
the latency percentiles; a task whose result is wrong fails the run (exit 1).
For the default seed every task's output is also compared with
``perfbench/expected/<workload>.json``, and the CLI tasks' stdout is compared
byte for byte on every seed. ``--record`` runs the default seed's first
RECORDED_ROUNDS rounds once and rewrites that file.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# Seconds one round of each workload takes at the commit that defined the
# benchmark (2-core shared VM, Python 3.11); they only convert --seconds into
# a number of rounds.
NOMINAL_ROUND_S = {"finite_logic": 14.5, "pwl_geometry": 6.9, "exact_orbits": 3.9}
# Seconds of SpeedProbe's loop on the benchmark's reference CPU state (the
# fast state of the machine the nominal round times were measured on).
REF_PROBE_S = 1.9e-3
RECORDED_ROUNDS = 5      # rounds of the default seed kept in the expected files

# The library functions the per-layer metrics cover, by module.
LAYER_FUNCTIONS = {
    "formula": ["parse_formula", "print_formula", "evaluate", "tautology_check",
                "identity_check"],
    "odometer": ["truth_table", "derive_from_nontautology"],
    "proofs": ["check_proof", "proof_to_jsonl", "proof_from_jsonl", "mp_consequence"],
    "pwl": ["pwl_from_formula", "pwl_integral", "pwl_min_value", "pwl_eval",
            "pwl_to_formula_1d", "pwl_equal"],
    "dynamics": ["induced_map", "orbit", "map_eval", "reachability_substitution",
                 "box_hitting_search", "tsujii_differential", "validate_homeomorphism",
                 "average_truth_value", "empirical_statistics"],
    "algebra": ["evaluate_in", "enumerate_filters", "spec_space", "duality_check"],
    "cli": ["run"],
}


def import_library():
    """Put this checkout's src/ first on the path and import mvdyn from it."""
    if not (SRC / "mvdyn" / "__init__.py").is_file():
        sys.exit(f"error: no mvdyn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import mvdyn
    if Path(mvdyn.__file__).resolve().parent != (SRC / "mvdyn").resolve():
        sys.exit(f"error: imported mvdyn from {mvdyn.__file__}, not from {SRC}")


# -- the loop -----------------------------------------------------------------------

class SpeedProbe:
    """Measures how fast the CPU runs, between tasks.

    On the shared 2-vCPU VM this benchmark was built on, the whole machine
    switches between a fast state and states up to 2x slower every few
    seconds, and process CPU time grows with wall time, so this is slower
    execution, not time taken from the process. At most every ``interval``
    seconds, between tasks, this times a short fixed loop (the fastest of
    three tries) and records when; ``scale`` turns those records into a
    speed factor for any moment of the run. The loop mixes integer and
    ``Fraction`` arithmetic because on that machine a mix slows down by about
    as much as the library's own work: over five minutes of library tasks
    timed between probes, dividing by an integer-only loop left 0.17-0.18 of
    quartile spread across 5-s blocks, a 40/60 integer/Fraction mix 0.05-0.08.
    It uses only the standard library, so no change to mvdyn moves it.
    """

    def __init__(self, interval=0.25):
        self.interval = interval
        self.times = []       # perf_counter at each probe
        self.probes = []      # seconds of the loop at that moment

    @staticmethod
    def loop():
        t0 = perf_counter()
        x = 0
        for i in range(10000):
            x += i * i % 7
        y = Fraction(0)
        for i in range(1, 400):
            y += Fraction(i % 7 + 1, i % 11 + 2)
        return perf_counter() - t0

    def maybe(self):
        if self.times and perf_counter() - self.times[-1] < self.interval:
            return
        self.probes.append(min(self.loop() for _ in range(3)))
        self.times.append(perf_counter())

    def scale(self, t):
        """How much slower than REF_PROBE_S the CPU ran at time ``t``: the
        mean of the probes just before and just after it."""
        i = bisect.bisect_right(self.times, t)
        near = self.probes[max(i - 1, 0):i + 1]
        return statistics.fmean(near) / REF_PROBE_S


class Loop:
    """One closed-loop pass over a workload's task list."""

    def __init__(self, workload, tr, expected, check_tasks=False, record=False, speed=None):
        self.workload = workload
        self.speed = speed
        self.tr = tr
        self.expected = expected      # {"cli": ..., "tasks": ...} from the expected file
        self.check_tasks = check_tasks
        self.recorded = {"cli": {}, "tasks": {}} if record else None
        self.latencies = []           # seconds; math.inf for a task that raised
        self.starts = []              # perf_counter at each task's start
        self.errors = []              # (task id, exception name)
        self.wrong = []               # (task id, message)

    def run(self):
        """The probes, then every round in order."""
        for i, task in enumerate(self.workload.probes):
            self.one(f"probe.{i}", task)
        for r, tasks in enumerate(self.workload.rounds):
            for i, task in enumerate(tasks):
                self.one(f"{r}.{i}", task)

    def one(self, tid, task):
        from workloads import Wrong

        tr = self.tr
        if self.speed is not None:
            self.speed.maybe()
        tr.set_task(tid)
        t0 = perf_counter()
        self.starts.append(t0)
        try:
            raw = tr.call("task." + task.kind, task.run, tr)
        except Exception as exc:  # a failing task is measured, not fatal
            self.latencies.append(math.inf)
            self.errors.append((tid, type(exc).__name__))
            if self.recorded is not None:
                self.recorded["tasks"][tid] = {"kind": task.kind, "error": type(exc).__name__}
            return
        self.latencies.append(perf_counter() - t0)
        try:
            tr.call("check." + task.kind, task.check, raw, tr)
            if task.kind == "cli" or self.check_tasks or self.recorded is not None:
                self.compare(tid, task, task.output(raw))
        except Wrong as exc:
            self.wrong.append((tid, str(exc)))
        except Exception as exc:  # a check that cannot run is a failed check
            self.wrong.append((tid, f"check raised {type(exc).__name__}: {exc}"))

    def compare(self, tid, task, out):
        if task.kind == "cli":
            key, got = out["argv"], digest(out["stdout"])
            if self.recorded is not None:
                self.recorded["cli"][key] = got
            elif self.expected["cli"].get(key) != got:
                self.wrong.append((tid, f"stdout of `mvdyn {key}` differs from the "
                                        "expected file"))
            return
        entry = {"kind": task.kind, "sha256": digest(out)["sha256"],
                 "verdict": out.get("verdict")}
        if self.recorded is not None:
            self.recorded["tasks"][tid] = entry
            return
        # Probes run once per run; only the first rounds of tasks are recorded.
        if not tid.startswith("probe.") and int(tid.split(".")[0]) >= self.expected["rounds"]:
            return
        want = self.expected["tasks"].get(tid)
        if want is None or want["kind"] != task.kind:
            self.wrong.append((tid, "no expected output for this task"))
        elif "error" in want or want["verdict"] == "unknown" != entry["verdict"]:
            pass   # newly answered: the independent check above has passed
        elif want["sha256"] != entry["sha256"]:
            self.wrong.append((tid, f"{task.kind} output differs from the expected file"))


def digest(value):
    blob = json.dumps(value, sort_keys=True, default=str).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(sorted_values):
    """(p, value): the highest percentile with at least ten tasks beyond it,
    i.e. the eleventh-largest latency, and which percentile that is."""
    n = len(sorted_values)
    k = max(1, n - 10)
    return 100 * k / n, sorted_values[k - 1]


# -- metrics -------------------------------------------------------------------------

def throughput(latencies):
    """Tasks completed per second of their summed latencies."""
    done = [x for x in latencies if x != math.inf]
    return len(done) / sum(done)


def end_to_end(latencies, setup_times):
    lat = sorted(latencies)
    _, v_tail = tail(lat)
    metrics = {
        "tasks_per_s": (throughput(lat), "1/s"),
        "task_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "task_tail_ms": (v_tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr, untraced, traced):
    spans = tr.per_name()
    c = tr.counts
    metrics = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            calls, busy = spans.get(f"{module}.{name}", (0, 0.0))
            metrics[f"{module}.{name}.calls"] = (calls, "count")
            metrics[f"{module}.{name}.busy_s"] = (busy, "s")

    def busy(name):
        return spans.get(name, (0, 0.0))[1]

    metrics.update({
        "formula.parse_formula.bytes": (c["formula.parse_formula.bytes"], "B"),
        "formula.tautology_check.decided_ratio":
            (ratio(c["verdicts.decided"], c["verdicts"]), "ratio"),
        "odometer.derive_from_nontautology.lines":
            (c["odometer.derive_from_nontautology.lines"], "count"),
        "proofs.check_proof.lines": (c["proofs.check_proof.lines"], "count"),
        "proofs.check_proof.axiom_lines": (c["proofs.check_proof.axiom_lines"], "count"),
        "proofs.check_proof.dag_nodes": (c["proofs.check_proof.dag_nodes"], "count"),
    })
    for n in (2, 3, 4):
        metrics[f"proofs.check_proof.us_per_line.n{n}"] = (
            1e6 * ratio(c[f"check_proof.busy.n{n}"], c[f"check_proof.lines.n{n}"]), "us")
    metrics.update({
        "proofs.proof_to_jsonl.bytes": (c["proofs.proof_to_jsonl.bytes"], "B"),
        "pwl.pwl_from_formula.cells": (c["pwl.pwl_from_formula.cells"], "count"),
        "pwl.pwl_from_formula.us_per_cell":
            (1e6 * ratio(busy("pwl.pwl_from_formula"), c["pwl.pwl_from_formula.cells"]), "us"),
        "dynamics.induced_map.pwl_ratio":
            (ratio(c["induced_map.pwl"], c["induced_map.built"]), "ratio"),
        "dynamics.orbit.steps": (c["dynamics.orbit.steps"], "count"),
        "dynamics.orbit.us_per_step":
            (1e6 * ratio(busy("dynamics.orbit"), c["dynamics.orbit.steps"]), "us"),
        "dynamics.box_hitting_search.hit_ratio":
            (ratio(c["boxhit.hits"], c["boxhit.searches"]), "ratio"),
        "dynamics.empirical_statistics.steps_per_s":
            (ratio(c["stats.steps"], busy("dynamics.empirical_statistics")), "1/s"),
        "cli.run.stdout_bytes": (c["cli.run.stdout_bytes"], "B"),
        "trace.tasks_per_s.untraced": (untraced, "1/s"),
        "trace.tasks_per_s.traced": (traced, "1/s"),
        "trace.overhead": (ratio(untraced, traced) - 1, "ratio"),
    })
    return metrics


# -- one workload --------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout's git repository, read from .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args):
    import_library()
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    expected_path = Path(args.expected) if args.expected else (
        HERE / "expected" / f"{args.workload}.json")

    n_rounds = RECORDED_ROUNDS if args.record else max(
        1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    # Set up several times and report the median; the last build is used, and
    # a fresh tracer for each build makes the per-layer figures cover one set-up.
    speed = SpeedProbe()
    setup_times, setup_starts = [], []
    while len(setup_times) < 3 or (sum(setup_times) < 2.0 and len(setup_times) < 50):
        speed.maybe()
        tr = Tracer() if args.trace else NullTracer()
        t0 = perf_counter()
        workload = build(args.seed, tr, n_rounds)
        setup_times.append(perf_counter() - t0)
        setup_starts.append(t0)

    if args.record:
        loop = Loop(workload, NullTracer(), None, record=True)
        loop.run()
        for tid, msg in loop.wrong:
            print(f"wrong {tid}: {msg}", file=sys.stderr)
        if loop.wrong:
            return 1
        expected_path.write_text(json.dumps(
            {"seed": args.seed, "rounds": n_rounds, **loop.recorded},
            indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(loop.recorded['tasks'])} task outputs to {expected_path}")
        return 0

    expected = json.loads(expected_path.read_text())
    check_tasks = args.seed == expected["seed"]
    passes = [Loop(workload, tr, expected, check_tasks, speed=speed)]
    if args.trace:
        passes.insert(0, Loop(workload, NullTracer(), expected, check_tasks, speed=speed))
    setup_probes = len(speed.probes)
    for loop in passes:
        loop.run()
    speed.maybe()   # a probe after the last task, for its scale
    scaled = [[x / speed.scale(t) for x, t in zip(p.latencies, p.starts)] for p in passes]
    raw = None
    if args.trace:
        metrics = per_layer(tr, *(throughput(lat) for lat in scaled))
    else:
        setup = [x / speed.scale(t) for x, t in zip(setup_times, setup_starts)]
        metrics = end_to_end(scaled[0], setup)
        raw = {k: v for k, (v, _u) in end_to_end(loop.latencies, setup_times).items()}
    wrong = [w for p in passes for w in p.wrong]
    errors = sorted({e for p in passes for e in p.errors})
    attempted = len(loop.latencies)
    lat = sorted(loop.latencies)
    p_tail, _ = tail(lat)
    result = {"correct": not wrong, "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    meta = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "seconds": args.seconds, "rounds": n_rounds, "samples": len(lat),
        "tail_percentile": p_tail, "error_rate": len(errors) / attempted,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "compared_with_expected": check_tasks,
        "setup_runs": len(setup_times), "errors": errors, "wrong": wrong,
        "probe_ms": {"setup": [1e3 * x for x in speed.probes[:setup_probes]],
                     "passes": [1e3 * x for x in speed.probes[setup_probes:]]},
        "unscaled_metrics": raw,
    }
    out = Path(args.out) if args.out else HERE / "out"
    if args.trace:
        (out / "spans").mkdir(parents=True, exist_ok=True)
        spans_path = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tr.write_spans(spans_path)
        meta["spans"] = str(spans_path)
        meta["all_spans"] = {name: {"calls": c, "busy_s": b}
                             for name, (c, b) in sorted(tr.per_name().items())}
    (out / "results").mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (out / "results" / f"{stamp}.json").write_text(
        json.dumps({**meta, **result}, indent=1) + "\n")

    report(meta, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(meta, result):
    print(f"workload {meta['workload']}  seed {meta['seed']}  traced {meta['traced']}  "
          f"python {meta['python']}  nproc {meta['nproc']}  git {meta['git_sha']}")
    probes = meta["probe_ms"]["setup"] + meta["probe_ms"]["passes"]
    print(f"  CPU probe {min(probes):.3f}..{max(probes):.3f} ms, median "
          f"{statistics.median(probes):.3f} (times are divided by it over "
          f"{1e3 * REF_PROBE_S:.3f})")
    print(f"  {meta['samples']} tasks in {meta['rounds']} rounds; tail is "
          f"p{meta['tail_percentile']:.3f} of {meta['samples']}; "
          f"error_rate {meta['error_rate']:.6f} ({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for tid, name in meta["errors"]:
        print(f"  error {tid}: {name}")
    for tid, msg in meta["wrong"]:
        print(f"  WRONG {tid}: {msg}")


# -- every workload ------------------------------------------------------------------

def run_all(args):
    """Each workload in its own interpreter, so peak RSS is per workload."""
    failed = False
    rows = []
    for name in NOMINAL_ROUND_S:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--out", args.out] if args.out else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failed = True
            if result is not None:
                rows.append((name, trace, result))
    print("\nsummary")
    for name, trace, result in rows:
        err = result["failed"] / result["attempted"]
        print(f"{name} (trace {trace}): correct {result['correct']}, "
              f"error_rate {err:.6f} ratio")
        for metric, m in result["metrics"].items():
            if trace == 0 or metric.startswith("trace."):
                print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*NOMINAL_ROUND_S, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for results and spans (default perfbench/out)")
    ap.add_argument("--expected", help="expected-output file (default perfbench/expected/)")
    ap.add_argument("--record", action="store_true",
                    help="run the default seed's first rounds once and write the "
                         "expected-output file")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
