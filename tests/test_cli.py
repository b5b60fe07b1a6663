"""Command-line layer tests: exit codes, artifacts, manifest determinism."""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convecopt import stability_lab as lab
from convecopt.cli import COMMANDS, main, run_command
from convecopt.config import DEFAULTS, from_dict

from conftest import JSON, NUMBERS, energy_report, leaf_paths

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
    ({"optimizer": {"initial_step": 0}}, "optimizer.initial_step"),
    ({"taylor": {"t_values": [0.1, -0.01]}}, "taylor.t_values"),
    ({"taylor": {"t_values": []}}, "taylor.t_values"),
    ({"taylor": {"t_values": [0.1, 0.1, 0.1]}}, "taylor.t_values"),
    ({"optimizer": {"armijo": 2.0}}, "optimizer.armijo"),
    ({"optimizer": {"armijo": 0}}, "optimizer.armijo"),
    ({"optimizer": {"max_backtracks": -1}}, "optimizer.max_backtracks"),
    ({"optimizer": {"nonmonotone_window": 0}}, "optimizer.nonmonotone_window"),
    ({"optimizer": {"stagnation_window": 0}}, "optimizer.stagnation_window"),
    ({"optimizer": {"stagnation_rtol": -1e-3}}, "optimizer.stagnation_rtol"),
    ({"growth": {"radius_grid": []}}, "growth.radius_grid"),
    ({"growth": {"radius_grid": [0.0]}}, "growth.radius_grid"),
    ({"sweep": {"trust_radius": -1.0}}, "sweep.trust_radius"),
    ({"sweep": {"trust_radius": 0}}, "sweep.trust_radius"),
    ({"taylor": {"amplitude": 0}}, "taylor.amplitude"),
    ({"taylor": {"order": 3}}, "taylor.order"),
    ({"taylor": {"order": 0}}, "taylor.order"),
    ({"second_order": {"magnitude": -1.0}}, "second_order.magnitude"),
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
])
def test_flag_overrides_follow_the_config_rules(tmp_path, capsys, flag, value):
    # the flags override config fields and obey their rules: exit 2 naming
    # the flag, before any run directory is made
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


def test_second_order_taylor_slopes_fit_only_remainders_above_rounding(tmp_path):
    # at t = 1e-3 the order-2 remainder sits at J's rounding; fitted with
    # the others it pulled the slopes to 1.6-1.8 on this config
    cfg = tmp_path / "aniso.json"
    cfg.write_text(json.dumps({"grid": {"nx": 12, "ny": 20, "lx": 1.0, "ly": 0.6},
                               "time": {"nt": 8}, "taylor": {"order": 2}}))
    assert main(["taylor-test", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    fits = json.loads((tmp_path / "t" / "summary.json").read_text())["fits"]
    assert len(fits) == 3
    assert all(abs(f["slope"] - 3) <= 0.1 and f["n_used"] >= 2 for f in fits), fits


def test_taylor_test_fits_no_slope_on_one_step_size(tmp_path):
    # the 1e-9 remainder sits below J's rounding, which leaves two remainders
    # at the one t = 0.1: no slope, so no fit is listed
    cfg = tmp_path / "dup.json"
    cfg.write_text(json.dumps({"grid": {"nx": 8, "ny": 8}, "time": {"nt": 4},
                               "taylor": {"t_values": [0.1, 0.1, 1e-9], "seeds": 1}}))
    assert main(["taylor-test", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    assert json.loads((tmp_path / "t" / "summary.json").read_text())["fits"] == []


def test_lab_commands_make_no_lstsq_call(tmp_path, monkeypatch):
    # every fitted exponent is closed form: the LAPACK least-squares solve,
    # the largest resident-memory step a lab run could take, is off its path
    def lstsq(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq called")
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    cfg = from_dict({"grid": {"nx": 8, "ny": 8}, "time": {"T": 0.5, "nt": 6},
                     "sweep": {"magnitudes": [1e-2, 1e-1]},
                     "growth": {"n_samples": 2, "radius_grid": [0.1, 0.2]}})
    for cmd in ("stability-sweep", "growth-probe"):
        assert run_command(cmd, cfg, tmp_path / cmd) == 0


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
    out = tmp_path / "s"
    assert main(["solve", "--config", str(TRACKING_CLOSE), "--out", str(out),
                 "--snapshot-stride", "3"]) == 0
    cfg = from_dict(json.loads(TRACKING_CLOSE.read_text()))
    prob = build_problem(cfg, cfg["seed"])
    g = prob.grid
    assert np.all(_vtk_scalar(out / "state_00000.vtk", "p", g.nx, g.ny) == 0.0)
    sources = prob._sources_for(prob.space.zero())
    u, th = prob.u0.copy().zero_normal_boundary(), prob.theta0
    for k in range(3):
        u, p, th = step(g, prob.phys, prob.tg.dt, u, th, *sources.at(k))
    got = _vtk_scalar(out / "state_00003.vtk", "p", g.nx, g.ny)
    assert np.abs(got).max() > 0.0
    assert np.array_equal(got, p)


def _solve_peak(tmp_path, doc):
    """Config of doc at 32^2, nt = 100, the directory `solve` wrote it to,
    and the run's tracemalloc peak in state trajectories (after a warm-up)."""
    import tracemalloc
    n, nt = 32, 100
    cfg = from_dict({"grid": {"nx": n, "ny": n}, "time": {"T": 0.5, "nt": nt}, **doc})
    assert run_command("solve", cfg, str(tmp_path / "warm")) == 0
    out = tmp_path / "s"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run_command("solve", cfg, str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    traj_bytes = (nt + 1) * ((n + 1) * n + n * (n + 1) + n * n) * 8
    return cfg, out, peak / traj_bytes


def test_solve_reduces_as_it_marches(tmp_path):
    # energy.csv and summary.json are the stored-trajectory energy_report and
    # divergence, bitwise, and the rows are the reductions over the whole
    # stack, while the run holds no trajectory: its peak is the control, the
    # region-box stacks of its per-step sources and a few levels more: 0.66
    # trajectories at 32^2, nt = 100 (1.26 with the control's full source
    # stacks), where a march into a stored trajectory peaks at 3.25.
    from convecopt.boussinesq import _h1_semi_sq
    from convecopt.config import build_problem
    cfg, out, peak = _solve_peak(tmp_path, {"initial": {"kind": "fourier"}})
    assert peak <= 1.3, peak

    prob = build_problem(cfg, cfg["seed"])
    traj = prob.state(prob.space.zero())
    rep = energy_report(prob.grid, prob.tg, traj,
                        prob._sources_for(prob.space.zero()),
                        prob.u0, prob.theta0)
    assert rep.max_energy > 0.0
    lines = [ln for ln in (out / "energy.csv").read_text().splitlines()
             if not ln.startswith("#")][1:]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines])
    assert np.array_equal(rows, rep.series)
    g = prob.grid
    stacked = [[g.inner(a, a) for a in traj.u], [g.inner(a, a) for a in traj.theta],
               _h1_semi_sq(g, traj.u), _h1_semi_sq(g, traj.theta)]
    assert np.array_equal(rows[:, 2:], np.column_stack(stacked))
    s = json.loads((out / "summary.json").read_text())
    assert (s["max_energy"], s["dissipation"], s["data_norm"], s["energy_ratio"]) \
        == (rep.max_energy, rep.dissipation, rep.data_norm, rep.ratio)
    assert s["max_div"] == max(g.norm_lp(g.divergence(u), np.inf) for u in traj.u)


def test_solve_with_base_sources_holds_one_source_stack(tmp_path):
    # the config's sources are added in place on the control's source
    # stacks: 1.30 trajectories, where adding them into a second force
    # stack peaked at 1.96
    _, _, peak = _solve_peak(tmp_path, {"initial": {"kind": "fourier"},
                                        "sources": {"kind": "fourier"}})
    assert peak <= 1.35, peak


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


def test_duality_sources_are_drawn_per_level_on_each_read():
    from convecopt.cli import _Drawn
    calls = []

    def draw(rng):
        calls.append(1)
        return rng.standard_normal(3)

    src = _Drawn(draw, (5, 2), start=1)
    assert src[0] is None and not calls
    assert np.array_equal(src[4], src[4]) and len(calls) == 2
    assert np.array_equal(src[4], np.random.default_rng((5, 2, 4)).standard_normal(3))
    assert not np.array_equal(src[3], src[4])
    assert not np.array_equal(src[4], _Drawn(draw, (5, 3))[4])


def test_duality_check_holds_no_source_stacks(tmp_path):
    # the source levels are drawn as the marches read them, so at 32^2,
    # nt 100 the peak is the base state's solve: the trajectory, the random
    # control and its per-step sources (about 1.52), where the source lists
    # held 3.2
    from convecopt.cli import Run, cmd_duality
    from convecopt.grid import Grid, GridConfig
    from conftest import traced_peak
    cfg = from_dict({"grid": {"nx": 32, "ny": 32}, "time": {"nt": 100},
                     "duality": {"seeds": 1}})
    run = Run(str(tmp_path), cfg, "duality-check", 0)
    cmd_duality(cfg, run, 0)        # warm-up: first-call allocations
    peak = traced_peak(lambda: cmd_duality(cfg, run, 0), Grid(GridConfig(32, 32)), 100)
    assert json.loads((tmp_path / "summary.json").read_text())["pass_1e-11"] is True
    assert peak <= 1.65, peak


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


def test_the_manifest_records_the_blas_thread_setting(tmp_path, monkeypatch):
    # the thread variables, null if unset, next to unchanged file checksums
    cfg = write_cfg(tmp_path)
    mans = []
    for name, omp in (("a", None), ("b", "1")):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        if omp is None:
            monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OMP_NUM_THREADS", omp)
        out = tmp_path / name
        assert main(["duality-check", "--config", str(cfg), "--out", str(out)]) == 0
        mans.append(read_manifest(out))
    assert [m["env"] for m in mans] == [
        {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1"},
        {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}]
    assert mans[0]["files"] == mans[1]["files"]


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


def test_mms_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "mms"
    assert main(["mms", "--config", str(cfg), "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["min_order"] >= 1.8


# header row of every table and the key order of summary.json, per command
SCHEMAS = {
    "solve": ({"energy.csv": "k,t,ke_u,ke_theta,enstrophy_u,grad_theta"},
              ["max_energy", "dissipation", "data_norm", "energy_ratio", "max_div"]),
    "optimize": ({"iterates.csv":
                  "iter,J,kkt,step,backtracks,bang_fraction_q,bang_fraction_th"},
                 ["J", "kkt", "iterations", "termination", "bang_fraction_q",
                  "bang_fraction_th", "sign_violation_mass_q",
                  "sign_violation_mass_th", "admissible"]),
    "taylor-test": ({"taylor.csv": "seed,t,remainder"}, ["order", "fits"]),
    "duality-check": ({"duality.csv": "seed,residual"},
                      ["max_residual", "residuals", "pass_1e-11"]),
    "mms": ({"mms.csv": "n,nt,error_l2q"}, ["errors", "orders", "min_order"]),
    "tikhonov-path": ({"path.csv": "eps,control_dist_l1,J,kkt,iterations"},
                      ["slope", "slope_value", "r2", "mu_hat", "mu_r2",
                       "slope_minus_mu", "base_kkt"]),
    "stability-sweep": ({"sweep.csv": "magnitude,zeta_norm,control_dist_l1,"
                         "state_dist_l2,state_dist_linf,adjoint_grad_gap,kkt,"
                         "iterations,termination,seed,in_trust_region,flags"},
                        ["control_fit", "control_slope", "control_r2", "state_fit",
                         "state_slope", "state_r2", "linf_constant",
                         "exponent_consistency"]),
    "growth-probe": ({"growth_samples.csv": "radius,delta_l1,lhs,rhs,ratio,kind"},
                     ["variant", "tau", "min_ratio_per_radius", "c_hat", "mu_hat",
                      "fit_r2", "tracking_misfit", "adjoint_grad_sup", "delta_hat",
                      "margin", "margin_positive"]),
    "second-order-check": ({}, ["skipped", "reason", "margin",
                                "perturbation_magnitude", "zeta_norm", "smallness",
                                "min_ratio", "adjoint_margin_degradation"]),
    "measure-condition": ({"measure.csv": "component,eps,mass"},
                          ["fits", "bang_fraction"]),
}
RECORDS = {"sweep.csv": lab.StabilityRecord, "path.csv": lab.PathPoint,
           "growth_samples.csv": lab.GrowthSample}


def _not_strict_json(name):
    raise ValueError(f"summary.json holds {name}")


@pytest.mark.parametrize("cmd", COMMANDS)
def test_every_command_runs_clean_and_keeps_its_schema(tmp_path, cmd):
    # the record tables' columns are their records' fields; summaries are
    # strict JSON (non-finite values are written as "nan" or "inf")
    tables, keys = SCHEMAS[cmd]
    out = tmp_path / "o"
    assert main([cmd, "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    heads = {p.name: next(ln for ln in p.read_text().splitlines()
                          if not ln.startswith("#"))
             for p in out.glob("*.csv")}
    assert heads == tables
    for name, cls in RECORDS.items():
        if name in heads:
            assert heads[name] == ",".join(f.name for f in dataclasses.fields(cls))
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_not_strict_json)
    assert list(summary) == ["provenance"] + keys


@pytest.mark.parametrize("cmd", COMMANDS)
def test_every_command_on_terminal_tracking_runs_without_warnings(tmp_path, cmd):
    # the adjoint's terminal velocity datum is the projected misfit, so no
    # command warns that it was not divergence-free
    cfg = write_cfg(tmp_path, {"weights": {"beta1": 1.0}, "targets": {"terminal": True}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


# forward, adjoint and tangent sweeps per command on the family sweeps'
# 8^2, nt 6 config, second-order-check with tracking-close's data (whose
# margin is positive, so its point is solved): the caches' hits and misses,
# end to end.  Last, the gradient misses filled by replaying a held full
# adjoint, here the sweep's reference adjoint, which cost no sweep.
SWEEP_COUNTS = {"stability-sweep": (64, 66, 0, 1), "growth-probe": (23, 23, 24, 0),
                "tikhonov-path": (101, 95, 0, 0), "second-order-check": (91, 75, 6, 0)}


@pytest.mark.parametrize("cmd", SWEEP_COUNTS)
def test_each_command_makes_its_known_number_of_sweeps(tmp_path, monkeypatch, cmd):
    from convecopt import boussinesq, objective, sensitivity
    n = [0, 0, 0, 0]

    def counting(module, name, i):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            n[i] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counting(objective, "solve_state", 0)
    counting(sensitivity, "solve_adjoint", 1)
    counting(sensitivity, "solve_linearized", 2)
    replay = boussinesq.StateTrajectory.replay

    def replaying(traj, out, ks):
        n[3] += isinstance(out, objective._GradientWindows)
        return replay(traj, out, ks)
    monkeypatch.setattr(boussinesq.StateTrajectory, "replay", replaying)
    cfg = from_dict({"grid": {"nx": 8, "ny": 8}, "time": {"nt": 6},
                     "sweep": {"magnitudes": [0.01, 0.1]},
                     **(json.loads(TRACKING_CLOSE.read_text())
                        if cmd == "second-order-check" else {})})
    assert run_command(cmd, cfg, tmp_path / "o") == 0
    assert tuple(n) == SWEEP_COUNTS[cmd]


# where each command's summary reports a fit: its value, or "no reliable fit"
FIT_KEYS = {"stability-sweep": [("control_fit",), ("state_fit",)],
            "tikhonov-path": [("slope",)], "growth-probe": [("mu_hat",)],
            "measure-condition": [("fits", name, "mu_hat") for name in ("w1", "w2", "psi")]}


@pytest.mark.parametrize("reliable", [True, False])
def test_every_summary_writes_no_reliable_fit_as_fit_reliable_says(tmp_path, monkeypatch,
                                                                    reliable):
    from convecopt.optimizer import Fit
    monkeypatch.setattr(Fit, "reliable", property(lambda fit: reliable))
    for cmd, keys in FIT_KEYS.items():
        out = tmp_path / cmd
        assert main([cmd, "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for key in keys:
            value = summary
            for part in key:
                value = value[part]
            assert (value == "no reliable fit") is not reliable, (cmd, key, value)


def test_measure_condition_on_a_saturated_curve_has_no_reliable_fit(tmp_path):
    # zero data and terminal tracking only: the optimum is the zero control,
    # whose adjoint vanishes, so every mass is the whole region
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"nx": 6, "ny": 6}, "time": {"nt": 3},
                               "weights": {"alpha1": 0, "alpha2": 0, "beta1": 1}}))
    out = tmp_path / "o"
    assert main(["measure-condition", "--config", str(cfg), "--out", str(out)]) == 0
    fits = json.loads((out / "summary.json").read_text(),
                      parse_constant=_not_strict_json)["fits"]
    assert {name: fit["mu_hat"] for name, fit in fits.items()} == dict.fromkeys(
        ("w1", "w2", "psi"), "no reliable fit")


def test_summaries_write_arrays_and_numpy_scalars_as_strict_json(tmp_path):
    from convecopt.cli import Run
    run = Run(str(tmp_path), from_dict({}), "solve", 0)
    path = run.write_json("s.json", {"a": np.array([np.nan, 1.0]),
                                     "b": np.array([[np.inf], [2.0]]),
                                     "c": np.float64(-np.inf), "d": np.int64(3),
                                     "e": np.bool_(True), "f": (np.float32(0.5),)})
    s = json.loads(Path(path).read_text(), parse_constant=_not_strict_json)
    assert {k: s[k] for k in "abcdef"} == {
        "a": ["nan", 1.0], "b": [["inf"], [2.0]], "c": "-inf", "d": 3,
        "e": True, "f": [0.5]}


def _solve_exits_cleanly(doc):
    """main runs `solve` on doc as its config file: exit 0, 1 or 2, and no
    traceback on stderr."""
    with tempfile.TemporaryDirectory() as d:
        cfg = os.path.join(d, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)      # nan and inf are written as NaN, Infinity
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["solve", "--config", cfg, "--out", os.path.join(d, "o")])
    assert rc in (0, 1, 2), rc
    assert "Traceback" not in err.getvalue(), err.getvalue()


_fuzz_main = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# every leaf but those that size the run: grid, steps and Fourier modes stay tiny
_FREE_LEAVES = [p for p in leaf_paths(DEFAULTS)
                if p not in (("grid", "nx"), ("grid", "ny"), ("time", "nt"))
                and p[-1] != "modes"]


@_fuzz_main
@given(JSON)
def test_main_on_arbitrary_json(doc):
    _solve_exits_cleanly(doc)


@_fuzz_main
@given(st.integers(4, 6), st.integers(4, 6), st.integers(1, 2),
       st.sampled_from(["zero", "fourier"]), st.sampled_from(["zero", "fourier"]),
       st.lists(st.tuples(st.sampled_from(_FREE_LEAVES),
                          NUMBERS | JSON | st.lists(NUMBERS, max_size=5)),
                min_size=1, max_size=2))
def test_main_on_a_tiny_config_with_random_leaves(nx, ny, nt, initial, sources,
                                                  edits):
    doc = {"grid": {"nx": nx, "ny": ny}, "time": {"nt": nt},
           "initial": {"kind": initial}, "sources": {"kind": sources}}
    for path, val in edits:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = val
    _solve_exits_cleanly(doc)
