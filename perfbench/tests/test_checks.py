"""The result checks fail runs that are wrong, and failures never abort a run."""

import copy
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads


def _run(name, tmp_path, **kw):
    kw.setdefault("min_reps", 2)
    return run.run_workload(name, 0, 0, trace=0, size="tiny", setup_samples=1,
                            work_dir=str(tmp_path), **kw)


def _wrong(reference, name, edit):
    ref = copy.deepcopy(reference)
    entry = ref[name]["tiny"]
    pseed = workloads.WORKLOADS[name].problem_seed(0)
    edit(entry if pseed is None else entry[str(pseed)])
    return ref


@pytest.mark.parametrize("name,edit", [
    ("control-64", lambda e: e.update(J=e["J"] * 1.01)),
    ("lab-16", lambda e: e["summary"]["growth"].update(margin=e["summary"]["growth"]["margin"] + 1.0)),
    ("mms-refine", lambda e: e["errors"].__setitem__(0, e["errors"][0] * 1.001)),
])
def test_wrong_reference_fails_every_repetition(tmp_path, name, edit):
    doc = _run(name, tmp_path, reference=_wrong(run.load_reference(), name, edit))
    assert doc["attempted"] == 2
    assert doc["failed"] == 2 and doc["failed_frac"] == 1.0
    assert all("recorded" in f for f in doc["failures"])
    assert run.result_line(doc)["correct"] is False


def test_correct_reference_passes(tmp_path):
    doc = _run("control-64", tmp_path)
    assert doc["failed"] == 0 and doc["failed_frac"] == 0.0
    assert run.result_line(doc)["correct"] is True


def test_numerical_failure_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    from convecopt import optimizer
    from convecopt.grid import NumericalFailure
    real = optimizer.projected_gradient
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalFailure("step 3: injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "projected_gradient", fail_once)
    doc = _run("control-64", tmp_path, min_reps=3)
    assert doc["attempted"] == 3 and doc["failed"] == 1
    assert doc["failed_frac"] == pytest.approx(1 / 3)
    assert doc["failures"] == ["rep 0: NumericalFailure: step 3: injected"]
    assert [r["ok"] for r in doc["reps"]] == [False, True, True]
    assert run.result_line(doc)["correct"] is False


def test_nonzero_cli_status_is_counted(tmp_path, monkeypatch):
    from convecopt import stability_lab
    from convecopt.grid import NumericalFailure
    real = stability_lab.stability_sweep
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalFailure("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(stability_lab, "stability_sweep", fail_once)
    doc = _run("lab-16", tmp_path)
    assert doc["attempted"] == 2 and doc["failed"] == 1
    assert any("sweep returned status 1" in f for f in doc["failures"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "control-64",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
    assert not any(line.startswith("{") for line in p.stderr.splitlines())
