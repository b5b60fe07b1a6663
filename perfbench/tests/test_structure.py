"""Traced counts of tiny workloads follow the solver's known structure.

Every forward, adjoint and tangent sweep makes two Poisson solves and one
solve of each Helmholtz kind per time step; the optimizer's sweep counts
follow its iterations and backtracks; and every metric the benchmark
defines is emitted with its unit.
"""

import json
import os
import subprocess
import sys

import pytest

import layertrace
import run
import workloads

NAMED_METRICS = {
    "end_to_end": ["setup_s", "solve_s", "peak_rss_mb"],
    "per_layer": [
        "grid.poisson.calls", "grid.poisson.self_s", "grid.helmholtz_vec.calls",
        "grid.helmholtz_vec.self_s", "grid.helmholtz_scalar.calls",
        "grid.helmholtz_scalar.self_s", "grid.factor_s", "grid.advect.calls",
        "grid.advect.self_s", "grid.advect_t.calls", "grid.advect_t.self_s",
        "grid.projection.self_s", "boussinesq.forward_sweeps", "boussinesq.steps",
        "boussinesq.step.self_s", "boussinesq.ms_per_step",
        "sensitivity.adjoint_sweeps", "sensitivity.tangent_sweeps",
        "sensitivity.adjoint.self_s", "sensitivity.tangent.self_s",
        "sensitivity.second_rhs.self_s", "objective.state.hit_ratio",
        "objective.adjoint.hit_ratio", "objective.self_s", "optimizer.iterations",
        "optimizer.backtracks", "optimizer.trial_accept_ratio", "optimizer.self_s",
        "stability_lab.points", "stability_lab.self_s", "mms.build_case_s",
        "mms.source_eval_s", "config.build_problem_s", "cli.artifacts_s",
        "cli.artifact_bytes", "trace.overhead_frac"],
}
NT = {"control-64": workloads.ControlWorkload.sizes["tiny"]["nt"],
      "lab-16": workloads.LabWorkload.sizes["tiny"]["time"]["nt"]}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("work"))
    return {name: run.run_workload(name, 0, 0, trace=1, size="tiny", min_reps=3,
                                   work_dir=work)
            for name in workloads.WORKLOADS}


def _below(spans):
    """span id -> {name: count} over all spans under it."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    memo = {}

    def walk(sid):
        if sid not in memo:
            acc = {}
            for c in kids.get(sid, ()):
                acc[c["name"]] = acc.get(c["name"], 0) + 1
                for k, v in walk(c["id"]).items():
                    acc[k] = acc.get(k, 0) + v
            memo[sid] = acc
        return memo[sid]

    return {s["id"]: walk(s["id"]) for s in spans}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_runs_pass_and_counts_repeat(traced, name):
    doc = traced[name]
    assert doc["failed"] == 0, doc["failures"]
    assert doc["traced_reps"] == 2
    assert doc["counts_repeat_within_run"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_sweep_solves_per_step(traced, name):
    spans = traced[name]["spans"]
    below = _below(spans)
    sweeps = [s for s in spans if s["name"] in layertrace.SWEEPS]
    assert sweeps
    for s in sweeps:
        n = below[s["id"]]
        steps = n.get("boussinesq.step", 0) if s["name"] == "boussinesq.forward_sweep" \
            else NT[name]
        assert steps > 0
        assert n.get("grid.poisson", 0) == 2 * steps, s
        assert n.get("grid.helmholtz_vec", 0) == steps, s
        assert n.get("grid.helmholtz_scalar", 0) == steps, s
        if name in NT:
            assert steps == NT[name]


def test_control_sweeps_follow_iterations(traced):
    m, nt = traced["control-64"]["metrics"], NT["control-64"]
    it, bt = m["optimizer.iterations"], m["optimizer.backtracks"]
    fwd, adj = m["boussinesq.forward_sweeps"], m["sensitivity.adjoint_sweeps"]
    assert m["optimizer.runs"] == 1
    assert fwd == 1 + it + bt
    assert adj == 1 + it
    assert m["optimizer.trials"] == it + bt
    # one warm-up solve of each kind in set-up
    assert m["grid.poisson.calls"] == 2 * nt * (fwd + adj) + 1
    assert m["grid.helmholtz_vec.calls"] == nt * (fwd + adj) + 1
    assert m["grid.helmholtz_scalar.calls"] == nt * (fwd + adj) + 1
    assert m["sensitivity.tangent_sweeps"] == 0


def test_lab_counts(traced):
    m, nt = traced["lab-16"]["metrics"], NT["lab-16"]
    tiny = workloads.LabWorkload.sizes["tiny"]
    points = len(tiny["sweep"]["magnitudes"])
    assert m["stability_lab.points"] == points
    assert m["optimizer.runs"] == 2 + points      # one base solve per command
    assert m["sensitivity.tangent_sweeps"] == \
        tiny["growth"]["n_samples"] * len(tiny["growth"]["radius_grid"])
    sweeps = m["boussinesq.forward_sweeps"] + m["sensitivity.adjoint_sweeps"] \
        + m["sensitivity.tangent_sweeps"]
    assert m["grid.poisson.calls"] == 2 * nt * sweeps + 1
    assert m["grid.helmholtz_vec.calls"] == nt * sweeps + 1
    assert m["cli.artifact_bytes"] > 0


def test_mms_counts(traced):
    m = traced["mms-refine"]["metrics"]
    steps = sum(run.load_reference()["mms-refine"]["tiny"]["steps"])
    assert m["boussinesq.steps"] == steps
    assert m["boussinesq.forward_sweeps"] == len(workloads.MMSWorkload.sizes["tiny"]["levels"])
    assert m["grid.poisson.calls"] == 2 * steps
    assert m["optimizer.runs"] == 0 and m["sensitivity.adjoint_sweeps"] == 0
    assert m["mms.build_case_s"] > 0


def test_metric_tables_match_benchmark_json_and_named_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        assert declared == table
        assert set(NAMED_METRICS[kind]) <= set(table)


def test_every_metric_emitted_with_unit(traced):
    for doc in traced.values():
        line = run.result_line(doc)
        assert set(line["metrics"]) == set(run.PER_LAYER)
        for k, v in line["metrics"].items():
            assert v["unit"] == run.PER_LAYER[k][0]
            assert isinstance(v["value"], (int, float))


def test_command_prints_end_to_end_metrics_and_failed_frac():
    p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                        "--workload", "control-64", "--seed", "1", "--seconds", "0",
                        "--trace", "0", "--size", "tiny"],
                       capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {k: u for k, (u, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert any(s.strip().startswith("failed_frac") for s in lines[:-1])
