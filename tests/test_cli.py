"""Command-line layer tests: exit codes, artifacts, manifest determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from convecopt.cli import main, run_command
from convecopt.config import from_dict

SMALL = {"grid": {"nx": 8, "ny": 8}, "time": {"T": 0.2, "nt": 6},
         "duality": {"seeds": 2},
         "optimizer": {"max_iters": 60},
         "sweep": {"magnitudes": [1e-2, 1e-1]},
         "growth": {"n_samples": 2, "radius_grid": [0.1]},
         "second_order": {"n_samples": 2},
         "taylor": {"seeds": 1, "t_values": [1e-1, 1e-2]},
         "mms": {"levels": [8, 16]}}


def write_cfg(tmp_path, extra=None):
    data = json.loads(json.dumps(SMALL))
    if extra:
        for k, v in extra.items():
            data.setdefault(k, {}).update(v)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    return p


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


TRACKING_CLOSE = Path(__file__).resolve().parents[1] / "configs" / "tracking-close.json"


def test_solve_writes_artifacts_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out),
               "--snapshot-stride", "3"])
    assert rc == 0
    man = read_manifest(out)
    names = {f["path"] for f in man["files"]}
    assert "energy.csv" in names and "summary.json" in names
    assert any(n.startswith("state_") and n.endswith(".vtk") for n in names)
    assert len(man["config_hash"]) == 64
    # CSV header carries provenance
    head = (out / "energy.csv").read_text().splitlines()[0]
    assert head.startswith("# config_hash=")


def test_summary_json_carries_provenance(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["duality-check", "--config", str(cfg),
                 "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["provenance"]["command"] == "duality-check"
    assert s["max_residual"] <= 1e-11
    assert s["pass_1e-11"] is True


def test_uncoupled_duality_check_checks_the_uncoupled_pair(tmp_path):
    # the tangent and adjoint marches read the advection switch from the
    # model, so an uncoupled config checks the uncoupled pair: its residuals
    # pass and are not the coupled (default) config's
    nc = tmp_path / "nocoupling.json"
    nc.write_text(json.dumps({"coupling": False}))
    got = {}
    for name, argv in (("coupled", []), ("uncoupled", ["--config", str(nc)])):
        out = tmp_path / name
        assert main(["duality-check", "--out", str(out)] + argv) == 0
        got[name] = json.loads((out / "summary.json").read_text())["residuals"]
    assert max(got["uncoupled"]) <= 1e-11
    assert got["uncoupled"] != got["coupled"]


def test_optimize_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["admissible"] is True
    assert s["kkt"] >= 0
    rows = (out / "iterates.csv").read_text().splitlines()
    header = next(r for r in rows if not r.startswith("#"))
    assert header == "iter,J,kkt,step,backtracks,bang_fraction_q,bang_fraction_th"
    npz = np.load(out / "control.npz")
    assert npz["q"].shape[0] == 6


def test_config_error_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"physics": {"nu": -1.0}}))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("doc,field", [
    ({"grid": {"lx": "one"}}, "grid.lx"),
    ([], "top level"),
    ({"sweep": {"family": "bogus"}}, "sweep.family"),
    ({"mms": {"levels": [2, 4]}}, "mms.levels"),
    ({"duality": {"seeds": 0}}, "duality.seeds"),
    ({"mms": {"levels": [16, 16]}}, "mms.levels"),
    ({"taylor": {"seeds": 0}}, "taylor.seeds"),
    ({"growth": {"n_samples": 0}}, "growth.n_samples"),
    ({"second_order": {"n_samples": -1}}, "second_order.n_samples"),
    ({"targets": {"modes": 0}}, "targets.modes"),
    ({"initial": {"modes": 0}}, "initial.modes"),
    ({"sources": {"modes": 0}}, "sources.modes"),
    ({"sweep": {"modes": 0}}, "sweep.modes"),
    ({"measure": {"eps_grid": [1, 10 ** 400]}}, "measure.eps_grid"),
    ({"grid": {"lx": 10 ** 400}}, "grid.lx"),
    ({"weights": {"alpha1": float("inf")}}, "weights.alpha1"),
    ({"control": {"q_bounds": [-float("inf"), 1]}}, "control.q_bounds"),
    ({"control": {"q_region": [2, 3, 2, 3]}}, "control.q_region"),
    ({"control": {"h_region": [2, 3, 2, 3]}}, "control.h_region"),
    ({"seed": -1}, "seed"),
    ({"output": {"snapshot_stride": -1}}, "output.snapshot_stride"),
    ({"mms": {"T": -0.1}}, "mms.T"),
    ({"mms": {"dt_factor": -1}}, "mms.dt_factor"),
    ({"mms": {"dt_factor": 0}}, "mms.dt_factor"),
])
def test_ill_typed_config_exits_2_with_field_path(tmp_path, capsys, doc, field):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))       # inf is written as Infinity
    out = tmp_path / "o"
    assert main(["stability-sweep", "--config", str(p), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    pytest.param("--seed", "-1", id="--seed"),
    pytest.param("--snapshot-stride", "-1", id="--snapshot-stride"),
    pytest.param("--threads", "0", id="--threads-0"),
    pytest.param("--threads", "-1", id="--threads--1"),
])
def test_flag_overrides_follow_the_config_rules(tmp_path, capsys, flag, value):
    # the flags override config fields (or, for --threads, size the sweep
    # pool) and obey their rules: exit 2 naming the flag, before any run
    # directory is made
    out = tmp_path / "o"
    assert main(["solve", "--config", str(write_cfg(tmp_path)),
                 "--out", str(out), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc,step", [
    ({"time": {"T": 50, "nt": 5},
      "initial": {"kind": "fourier", "amplitude": 30},
      "sources": {"kind": "fourier", "amplitude": 30}}, 2),
    # finite values whose squares overflow
    ({"time": {"T": 5, "nt": 10},
      "initial": {"kind": "fourier", "amplitude": 10},
      "sources": {"kind": "fourier", "amplitude": 10}}, 3),
])
def test_blow_up_exits_1_naming_its_step(tmp_path, doc, step):
    p = tmp_path / "blow.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["type"] == "NumericalFailure"
    assert fail["error"].startswith(f"step {step}: energy")
    assert not (out / "summary.json").exists()


def test_tracking_close_config_runs_the_paper_regime(tmp_path, monkeypatch):
    from convecopt import boussinesq
    check, seen = boussinesq.check_step, []

    def spy(grid, k, u, theta, bound=np.inf):
        seen.append((grid.norm2(u) ** 2 + grid.norm2(theta) ** 2, bound))
        return check(grid, k, u, theta, bound)

    monkeypatch.setattr(boussinesq, "check_step", spy)
    cfg = str(TRACKING_CLOSE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    nt = from_dict(json.loads(TRACKING_CLOSE.read_text()))["time"]["nt"]
    assert len(seen) == nt
    assert all(0 < e < 1e-3 * bound < np.inf for e, bound in seen)
    assert main(["second-order-check", "--config", cfg,
                 "--out", str(tmp_path / "so")]) == 0
    so = json.loads((tmp_path / "so" / "summary.json").read_text())
    assert so["skipped"] is False and so["margin"] > 0


def _vtk_scalar(path, name, nx, ny):
    lines = path.read_text().splitlines()
    start = lines.index(f"SCALARS {name} double 1") + 2
    vals = np.array([float(x) for x in lines[start:start + nx * ny]])
    return vals.reshape(ny, nx).T


def test_snapshot_pressure_is_the_march_pressure(tmp_path):
    # the trajectory keeps no pressure; snapshots must still carry the one
    # the march produced at that level, bitwise
    from convecopt.boussinesq import step
    from convecopt.config import build_problem
    from convecopt.objective import Perturbation
    out = tmp_path / "s"
    assert main(["solve", "--config", str(TRACKING_CLOSE), "--out", str(out),
                 "--snapshot-stride", "3"]) == 0
    cfg = from_dict(json.loads(TRACKING_CLOSE.read_text()))
    prob = build_problem(cfg, cfg["seed"])
    g = prob.grid
    assert np.all(_vtk_scalar(out / "state_00000.vtk", "p", g.nx, g.ny) == 0.0)
    sources = prob._sources_for(prob.space.zero(), Perturbation())
    u, th = prob.u0.copy().zero_normal_boundary(), prob.theta0
    for k in range(3):
        u, p, th = step(g, prob.phys, prob.tg.dt, u, th, *sources.at(k))
    got = _vtk_scalar(out / "state_00003.vtk", "p", g.nx, g.ny)
    assert np.abs(got).max() > 0.0
    assert np.array_equal(got, p)


def test_solve_reduces_as_it_marches(tmp_path):
    # energy.csv and summary.json are the stored-trajectory energy_report and
    # divergence, bitwise, and the rows are the reductions over the whole
    # stack, while the run holds no trajectory: its peak is the control's
    # source stacks (nt levels) and a few levels more: 1.26 trajectories at
    # 32^2, nt = 100, where a march into a stored trajectory peaks at 3.25.
    import tracemalloc
    from convecopt.boussinesq import energy_report, _sq, _h1_semi_sq
    from convecopt.config import build_problem
    from convecopt.objective import Perturbation
    cfg = from_dict({"grid": {"nx": 32, "ny": 32}, "time": {"T": 0.5, "nt": 100},
                     "initial": {"kind": "fourier"}})
    assert run_command("solve", cfg, str(tmp_path / "warm")) == 0
    out = tmp_path / "s"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run_command("solve", cfg, str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n, nt = 32, 100
    traj_bytes = (nt + 1) * ((n + 1) * n + n * (n + 1) + n * n) * 8
    assert peak <= 1.3 * traj_bytes, peak / traj_bytes

    prob = build_problem(cfg, cfg["seed"])
    traj = prob.state(prob.space.zero())
    rep = energy_report(prob.grid, prob.tg, traj,
                        prob._sources_for(prob.space.zero(), Perturbation()),
                        prob.u0, prob.theta0)
    assert rep.max_energy > 0.0
    lines = [ln for ln in (out / "energy.csv").read_text().splitlines()
             if not ln.startswith("#")][1:]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines])
    assert np.array_equal(rows, rep.series)
    g = prob.grid
    stacked = [_sq(g, traj.u), _sq(g, traj.theta),
               _h1_semi_sq(g, traj.u), _h1_semi_sq(g, traj.theta)]
    assert np.array_equal(rows[:, 2:], np.column_stack(stacked))
    s = json.loads((out / "summary.json").read_text())
    assert (s["max_energy"], s["dissipation"], s["data_norm"], s["energy_ratio"]) \
        == (rep.max_energy, rep.dissipation, rep.data_norm, rep.ratio)
    assert s["max_div"] == max(g.norm_lp(g.divergence(u), np.inf) for u in traj.u)


def test_failed_solve_lists_the_snapshots_it_wrote(tmp_path):
    # snapshots are written as the march goes; a run that fails at step 2
    # has written levels 0 and 1, and its manifest lists them
    p = tmp_path / "blow.json"
    p.write_text(json.dumps({"time": {"T": 50, "nt": 5},
                             "initial": {"kind": "fourier", "amplitude": 30},
                             "sources": {"kind": "fourier", "amplitude": 30}}))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out),
                 "--snapshot-stride", "1"]) == 1
    names = [f["path"] for f in read_manifest(out)["files"]]
    assert names == ["state_00000.vtk", "state_00001.vtk", "failure.json"]
    assert sorted(q.name for q in out.iterdir()) == sorted(names + ["manifest.json"])


def test_duality_check_linearizes_around_the_configured_problem(tmp_path):
    # the base state is the config's state at a random admissible control,
    # so a config with other sources, initial data and targets checks
    # another base: its residuals pass and differ from the default's
    got = {}
    for name, argv in (("default", []), ("close", ["--config", str(TRACKING_CLOSE)])):
        out = tmp_path / name
        assert main(["duality-check", "--out", str(out)] + argv) == 0
        got[name] = json.loads((out / "summary.json").read_text())["residuals"]
    assert max(got["close"]) <= 1e-11 and max(got["default"]) <= 1e-11
    assert got["close"] != got["default"]


def test_missing_config_file_exit_code(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_command_exit_code(tmp_path, capsys):
    rc = run_command("frobnicate", from_dict(SMALL), str(tmp_path / "o"))
    assert rc == 2
    assert "unknown command" in capsys.readouterr().err


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from convecopt import cli
    from convecopt.grid import NumericalFailure

    def boom(cfg, run, seed, snapshot_stride=0):
        raise NumericalFailure("synthetic blow-up")

    monkeypatch.setitem(cli.DISPATCH, "solve", boom)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert "blow-up" in fail["error"]
    assert fail["type"] == "NumericalFailure"
    assert (out / "manifest.json").exists()


def test_unexpected_exception_exits_1_with_failure_record(tmp_path, capsys,
                                                          monkeypatch):
    from convecopt import cli

    def boom(cfg, run, seed, snapshot_stride=0):
        raise RuntimeError("synthetic bug")

    monkeypatch.setitem(cli.DISPATCH, "solve", boom)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["type"] == "RuntimeError"
    assert fail["error"] == "synthetic bug"
    assert "in boom" in fail["traceback"]
    names = {f["path"] for f in read_manifest(out)["files"]}
    assert names == {"failure.json"}
    assert "synthetic bug" in capsys.readouterr().err


def test_manifest_checksums_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(out)]) == 0
        outs.append(read_manifest(out)["files"])
    assert outs[0] == outs[1]


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    mans = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert main(["optimize", "--config", str(cfg), "--out", str(out),
                     "--seed", seed]) == 0
        mans.append({f["path"]: f["sha256"]
                     for f in read_manifest(out)["files"]})
    assert mans[0]["control.npz"] != mans[1]["control.npz"]


def test_remaining_commands_run_clean(tmp_path):
    cfg = write_cfg(tmp_path)
    for cmd in ("taylor-test", "tikhonov-path", "stability-sweep",
                "growth-probe", "second-order-check", "measure-condition"):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()


def test_mms_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "mms"
    assert main(["mms", "--config", str(cfg), "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["min_order"] >= 1.8


def test_sweep_threads_flag_bitwise_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    sums = []
    for t, name in (("1", "t1"), ("4", "t4")):
        out = tmp_path / name
        assert main(["stability-sweep", "--config", str(cfg),
                     "--out", str(out), "--threads", t]) == 0
        sums.append({f["path"]: f["sha256"]
                     for f in read_manifest(out)["files"]})
    assert sums[0]["sweep.csv"] == sums[1]["sweep.csv"]
    assert sums[0]["summary.json"] == sums[1]["summary.json"]
