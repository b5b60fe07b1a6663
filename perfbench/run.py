#!/usr/bin/env python3
"""convecopt benchmark: time to a checked solution, end to end and per layer.

    python3 perfbench/run.py --workload control-64 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

One invocation runs one workload in this process (``all`` runs each
workload in its own child process and prints a table).  With ``--trace 0``
it reports the end-to-end metrics: the median set-up time over several
set-ups, the median solve time over the repetitions that fit in
``--seconds``, and the process's peak RSS.  With ``--trace 1`` it wraps the
package's layer entry points (see layertrace.py) and reports per-layer
counts and self times, alternating traced and untraced repetitions to
measure the tracer's own overhead.

Every repetition is checked against the paper's invariants and the recorded
reference results.  A repetition that raises, returns a non-zero status or
fails a check counts as failed; the benchmark carries on with the next one.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the machine and library fingerprint is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")

# Set-ups per run: this process, then fresh child processes until there
# are SETUP_MIN samples and their total exceeds SETUP_BUDGET_S, or SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 4.0
MIN_REPS = 3            # solve repetitions per run, even past --seconds
CHILD_TIMEOUT_S = 150

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "grid.poisson.calls": ("count", "lower"),
    "grid.poisson.self_s": ("s", "lower"),
    "grid.helmholtz_vec.calls": ("count", "lower"),
    "grid.helmholtz_vec.self_s": ("s", "lower"),
    "grid.helmholtz_scalar.calls": ("count", "lower"),
    "grid.helmholtz_scalar.self_s": ("s", "lower"),
    "grid.factor_s": ("s", "lower"),
    "grid.advect.calls": ("count", "lower"),
    "grid.advect.self_s": ("s", "lower"),
    "grid.advect_t.calls": ("count", "lower"),
    "grid.advect_t.self_s": ("s", "lower"),
    "grid.projection.calls": ("count", "lower"),
    "grid.projection.self_s": ("s", "lower"),
    "boussinesq.forward_sweeps": ("count", "lower"),
    "boussinesq.steps": ("count", "lower"),
    "boussinesq.step.self_s": ("s", "lower"),
    "boussinesq.ms_per_step": ("ms", "lower"),
    "sensitivity.adjoint_sweeps": ("count", "lower"),
    "sensitivity.tangent_sweeps": ("count", "lower"),
    "sensitivity.adjoint.self_s": ("s", "lower"),
    "sensitivity.tangent.self_s": ("s", "lower"),
    "sensitivity.second_rhs.self_s": ("s", "lower"),
    "objective.state.lookups": ("count", "lower"),
    "objective.state.hit_ratio": ("ratio", "higher"),
    "objective.adjoint.lookups": ("count", "lower"),
    "objective.adjoint.hit_ratio": ("ratio", "higher"),
    "objective.self_s": ("s", "lower"),
    "optimizer.runs": ("count", "lower"),
    "optimizer.iterations": ("count", "lower"),
    "optimizer.backtracks": ("count", "lower"),
    "optimizer.trials": ("count", "lower"),
    "optimizer.trial_accept_ratio": ("ratio", "higher"),
    "optimizer.self_s": ("s", "lower"),
    "stability_lab.points": ("count", "lower"),
    "stability_lab.self_s": ("s", "lower"),
    "mms.build_case_s": ("s", "lower"),
    "mms.source_eval_s": ("s", "lower"),
    "config.build_problem_s": ("s", "lower"),
    "cli.artifacts_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def fingerprint():
    """Machine and library versions, recorded in every results file."""
    import numpy
    import scipy
    import sympy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu, "platform": platform.platform(),
        "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def reference_for(reference, wl, size, pseed):
    by_size = reference.get(wl.name, {}).get(size, {})
    return by_size if pseed is None else by_size.get(str(pseed))


def _setup_child(name, seed, size):
    """One set-up in a fresh interpreter; returns (seconds, error)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", name, "--seed", str(seed), "--size", size]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"set-up child timed out after {CHILD_TIMEOUT_S} s"
    if p.returncode != 0:
        return None, f"set-up child exited {p.returncode}: {p.stderr.strip()[-500:]}"
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"], None


def run_workload(name, seed, seconds, trace, size="full", setup_samples=SETUP_MAX,
                 min_reps=MIN_REPS, reference=None, work_dir=WORK):
    """Run one workload in this process; returns the results document."""
    import workloads
    wl = workloads.WORKLOADS[name]
    pseed = wl.problem_seed(seed)
    ref = reference_for(load_reference() if reference is None else reference, wl, size, pseed)
    tracer = None
    if trace:
        import layertrace
        tracer = layertrace.Tracer()
    failures = []       # one message per failed check, with its cause
    setup_failures = 0  # failed set-ups, each counted as a failed attempt
    reps = []
    os.makedirs(work_dir, exist_ok=True)

    t0 = time.perf_counter()
    try:
        wl.imports()
        if tracer:
            tracer.install()
        ctx = wl.prepare(size, pseed, work_dir)
    except Exception as exc:  # a failed set-up is reported, not raised
        ctx = None
        setup_failures += 1
        failures.append(f"set-up: {type(exc).__name__}: {exc}")
    setup_s = [time.perf_counter() - t0]
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()
    if ref is None:
        setup_failures += 1
        failures.append(f"no reference result for {name} size {size} problem seed {pseed}")
    if not trace and ctx is not None:
        while len(setup_s) + setup_failures < setup_samples and (
                len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_BUDGET_S):
            s, err = _setup_child(name, seed, size)
            if err:
                setup_failures += 1
                failures.append(err)
            else:
                setup_s.append(s)

    rep_spans = []
    start = time.perf_counter()
    while ctx is not None and ref is not None:
        i = len(reps)
        traced = bool(tracer) and i % 2 == 0
        gc.collect()
        if traced:
            tracer.phase = f"rep{i}"
            tracer.install()
        t = time.perf_counter()
        try:
            out, err = wl.solve(ctx, i), None
        except Exception as exc:  # counted as a failed repetition
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if traced:
            tracer.uninstall()
            rep_spans.append(tracer.take())
        rec = {"rep": i, "solve_s": dt, "traced": traced}
        if err is None:
            try:
                bad, info = wl.check(ctx, out, ref, i)
            except Exception as exc:  # a check that cannot run is a failure
                bad, info = [f"check raised {type(exc).__name__}: {exc}"], {}
            rec["info"] = info
        else:
            bad = [err]
        rec["ok"] = not bad
        failures.extend(f"rep {i}: {m}" for m in bad)
        reps.append(rec)
        out = None      # free this repetition's trajectories before the next
        # Stop when one more repetition would end further past --seconds
        # than stopping now falls short of it.
        typical = statistics.median(r["solve_s"] for r in reps)
        if len(reps) >= min_reps and time.perf_counter() - start + typical / 2 >= seconds:
            break

    attempted = len(reps) + setup_failures
    failed = sum(1 for r in reps if not r["ok"]) + setup_failures
    doc = {
        "workload": name, "seed": seed, "problem_seed": pseed, "size": size,
        "seconds": seconds, "trace": int(bool(trace)),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures,
        "setup_samples_s": setup_s, "reps": reps,
    }
    if tracer:
        doc.update(_traced_metrics(setup_spans, rep_spans, reps))
    else:
        doc["metrics"] = _end_to_end(setup_s, reps)
    return doc


def _median_solve(reps, traced=False):
    ok = [r["solve_s"] for r in reps if r["ok"] and r["traced"] == traced]
    return statistics.median(ok) if ok else None


def _end_to_end(setup_s, reps):
    solve = _median_solve(reps)
    if solve is None:       # nothing passed: report what was measured
        solve = statistics.median([r["solve_s"] for r in reps]) if reps else 0.0
    return {
        "setup_s": statistics.median(setup_s),
        "solve_s": solve,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced_metrics(setup_spans, rep_spans, reps):
    import layertrace
    metrics = {k: 0 for k in PER_LAYER}
    counts = layertrace.layer_counts(setup_spans + rep_spans[0]) if rep_spans else {}
    metrics.update(counts)
    per_rep = [layertrace.layer_times(setup_spans + s) for s in rep_spans]
    for key in {k for t in per_rep for k in t}:
        metrics[key] = statistics.median(t.get(key, 0.0) for t in per_rep)
    traced, plain = _median_solve(reps, True), _median_solve(reps, False)
    metrics["trace.overhead_frac"] = traced / plain - 1.0 if traced and plain else 0.0
    repeat = [layertrace.layer_counts(s) == layertrace.layer_counts(rep_spans[0])
              for s in rep_spans[1:]]
    spans = [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
              "phase": s[5]} for s in setup_spans + (rep_spans[0] if rep_spans else [])]
    return {"metrics": metrics, "counts_repeat_within_run": all(repeat),
            "traced_reps": len(rep_spans), "spans": spans}


def result_line(doc):
    table = PER_LAYER if doc["trace"] else END_TO_END
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {k: {"value": doc["metrics"][k], "unit": table[k][0]} for k in table}}


def write_results(doc):
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}"
    spans = doc.pop("spans", None)
    if spans is not None:
        with open(os.path.join(RESULTS, stem + "-spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    doc["fingerprint"] = fingerprint()
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def print_report(doc):
    m = doc["metrics"]
    seed = f"seed {doc['seed']}" + (f" (problem seed {doc['problem_seed']})"
                                    if doc["problem_seed"] is not None else " (unused)")
    print(f"{doc['workload']}  {seed}  trace={doc['trace']}")
    ok = [r for r in doc["reps"] if r["ok"] and not r["traced"]]
    if doc["trace"]:
        for k, (unit, _) in PER_LAYER.items():
            print(f"  {k:32s} {m[k]:.6g} {unit}")
        print(f"  counts repeat within run: {doc['counts_repeat_within_run']}")
    else:
        iters = sorted({r["info"]["iterations"] for r in ok if "iterations" in r.get("info", {})})
        extra = f"; optimizer.iterations {iters}" if iters else ""
        print(f"  setup_s      {m['setup_s']:.4f} s  (median of {len(doc['setup_samples_s'])})")
        print(f"  solve_s      {m['solve_s']:.4f} s  (median of {len(ok)} solves{extra})")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {doc['failed_frac']:.4f}  ({doc['failed']} of {doc['attempted']})")
    for f in doc["failures"]:
        print(f"  FAILED {f}")


def run_all(args):
    """Each workload in its own process; prints one row per workload."""
    import workloads
    rows = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        p = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(p.stdout[:p.stdout.rstrip().rfind("\n") + 1])
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            status = 1
            continue
        rows[name] = json.loads(p.stdout.strip().splitlines()[-1])
    if not args.trace:
        print(f"{'workload':12s} {'setup_s':>9s} {'solve_s':>9s} {'peak_rss_mb':>12s} {'failed_frac':>12s}")
        for name, r in rows.items():
            v = {k: r["metrics"][k]["value"] for k in END_TO_END}
            print(f"{name:12s} {v['setup_s']:8.3f}s {v['solve_s']:8.3f}s "
                  f"{v['peak_rss_mb']:10.1f}MB {r['failed'] / r['attempted']:12.4f}")
    print(json.dumps({"correct": status == 0 and all(r["correct"] for r in rows.values()),
                      "attempted": sum(r["attempted"] for r in rows.values()) or 1,
                      "failed": sum(r["failed"] for r in rows.values()),
                      "workloads": rows}))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("control-64", "lab-16", "mms-refine", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is a small version of each workload for the tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "convecopt", "__init__.py")):
        sys.stderr.write(f"convecopt sources not found under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    # One BLAS thread unless the caller chose otherwise: an OpenBLAS worker
    # busy-waits on the second core after each call, so on a 2-core host the
    # timed solve would compete with its own helper thread.  Set before numpy
    # loads; set-up children inherit it; the fingerprint records the value.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        t0 = time.perf_counter()
        wl.imports()
        wl.prepare(args.size, wl.problem_seed(args.seed), WORK)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    work_dir = os.path.join(WORK, str(os.getpid()))
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace,
                           args.size, work_dir=work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)      # only if no other run is using it
    line = result_line(doc)
    write_results(doc)
    print_report(doc)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
