"""Command-line surface: experiment orchestration and persistence.

Every command reads one JSON config, writes its artifacts (CSV for curves,
JSON for summaries, VTK for field snapshots) into the output directory, and
finishes by writing a run manifest with the config hash and per-file
checksums.  Exit codes: 0 success, 1 failure during the run (recorded in
failure.json next to the manifest), 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
import tempfile
import traceback

import numpy as np

from . import __version__
from .grid import Vec2, fields_to_vtk
from .boussinesq import EnergySeries, solve_state
from .optimizer import projected_gradient, pointwise_sign_check, adjoint_measure_fits, fit_loglog
from . import sensitivity as sen
from . import stability_lab as lab
from .config import (ConfigError, ExperimentConfig, load_config, default_config,
                     build_problem, opt_options)


# ---------------------------------------------------------------------------
# persistence helpers
# ---------------------------------------------------------------------------

def _sha256(path):
    hsh = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            hsh.update(chunk)
    return hsh.hexdigest()


class Run:
    """Collects produced files and writes the manifest atomically at the end."""

    def __init__(self, out_dir, cfg: ExperimentConfig, cmd, seed):
        self.out_dir = out_dir
        # heads the CSV files, summary.json and the manifest
        self.provenance = {"config_hash": cfg.hash(),
                           "build": f"convecopt-{__version__}",
                           "command": cmd, "seed": seed}
        self.files = []
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.files.append(p)
        return p

    def write_csv(self, name, columns, rows, units=None):
        p = self.path(name)
        with open(p, "w") as fh:
            for key, value in self.provenance.items():
                fh.write(f"# {key}={value}\n")
            if units:
                fh.write(f"# units: {units}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return p

    def write_records(self, name, cls, records):
        """A table of dataclass records: one column per field of cls, in order."""
        return self.write_csv(name, [f.name for f in dataclasses.fields(cls)],
                              map(dataclasses.astuple, records))

    def write_json(self, name, obj):
        p = self.path(name)
        payload = _finite({"provenance": self.provenance, **obj})
        with open(p, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        return p

    def finish(self):
        manifest = {
            **self.provenance,
            "started": self.started,
            "ended": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            # null if unset; provenance only, as no artifact depends on it
            "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
            "files": [{"path": os.path.basename(p), "sha256": _sha256(p)}
                      for p in self.files],
        }
        final = os.path.join(self.out_dir, "manifest.json")
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, final)
        return final


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _finite(x):
    """x as plain JSON values: numpy scalars as Python numbers, arrays as
    lists, and every non-finite float, however deep, as its name ("nan",
    "inf", "-inf"), so that summaries are strict JSON."""
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    if isinstance(x, float) and not np.isfinite(x):
        return str(x)
    return x


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------

def _solve_base(cfg, seed):
    """The configured problem, its solution from the zero control, the options."""
    prob = build_problem(cfg, seed)
    opts = opt_options(cfg)
    return prob, projected_gradient(prob, prob.space.zero(), opts), opts


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class _SolveLevels(EnergySeries):
    """Level sink of `solve`: the energy rows, the largest divergence, and a
    VTK snapshot of every stride-th level with the pressure the march made."""

    def __init__(self, grid, tg, out_dir, stride):
        super().__init__(grid, tg)
        self.out_dir, self.stride = out_dir, stride
        self.max_div = 0.0
        self.snapshots = []     # paths written, to join the run's files

    def put(self, k, u, theta, p):
        super().put(k, u, theta, p)
        g = self.grid
        self.max_div = max(self.max_div, g.norm_lp(g.divergence(u), np.inf))
        if self.stride > 0 and k % self.stride == 0:
            path = os.path.join(self.out_dir, f"state_{k:05d}.vtk")
            fields_to_vtk(g, path, title=f"state level {k}",
                          scalars={"theta": theta, "p": g.scalar() if p is None else p},
                          vectors={"u": u})
            self.snapshots.append(path)


def cmd_solve(cfg, run, seed, snapshot_stride):
    prob = build_problem(cfg, seed)
    sources = prob._sources_for(prob.space.zero())
    levels = _SolveLevels(prob.grid, prob.tg, run.out_dir, snapshot_stride)
    try:
        solve_state(prob.grid, prob.phys, prob.tg, sources, prob.u0, prob.theta0,
                    out=levels)
        rep = levels.report(sources, prob.u0, prob.theta0)
        run.write_csv("energy.csv",
                      ["k", "t", "ke_u", "ke_theta", "enstrophy_u", "grad_theta"],
                      [tuple(r) for r in rep.series],
                      units="t time units; energies are squared L2 norms")
    finally:
        # the manifest lists the snapshots after energy.csv; a failed run's
        # lists those it wrote
        run.files += levels.snapshots
    run.write_json("summary.json", {
        "max_energy": rep.max_energy, "dissipation": rep.dissipation,
        "data_norm": rep.data_norm, "energy_ratio": rep.ratio,
        "max_div": levels.max_div})


def cmd_optimize(cfg, run, seed):
    prob, res, _ = _solve_base(cfg, seed)
    # iterate 0 is the start, reached by no step
    rows = zip(res.J_history, res.kkt_history,
               [0.0] + res.step_history, [0] + res.backtrack_history)
    run.write_csv("iterates.csv",
                  ["iter", "J", "kkt", "step", "backtracks",
                   "bang_fraction_q", "bang_fraction_th"],
                  [(i, *row, *res.bang_fraction) for i, row in enumerate(rows)],
                  units="J dimensionless, kkt L1-normalized")
    vio = pointwise_sign_check(prob, res.control)
    run.write_json("summary.json", {
        "J": res.J_history[-1], "kkt": res.kkt_history[-1],
        "iterations": res.iterations, "termination": res.termination,
        "bang_fraction_q": res.bang_fraction[0],
        "bang_fraction_th": res.bang_fraction[1],
        "sign_violation_mass_q": vio.mass_q,
        "sign_violation_mass_th": vio.mass_th,
        "admissible": res.control.is_admissible()})
    np.savez(run.path("control.npz"), q=res.control.q, th=res.control.th)


def cmd_taylor(cfg, run, seed):
    prob = build_problem(cfg, seed)
    tcfg = cfg["taylor"]
    order = int(tcfg.get("order", 1))
    rows = []
    slopes = []
    for s in range(int(tcfg["seeds"])):
        rng = np.random.default_rng(seed + 1000 + s)
        ctrl, delta = prob.space.zero(), prob.space.zero()
        # ctrl's q and th, then delta's
        for c, scale in ((ctrl, 0.3), (delta, tcfg["amplitude"])):
            for a in c.parts:
                a += scale * rng.standard_normal(a.shape)
        J0 = prob.eval_J(ctrl)
        dd = prob.grad_J(ctrl).dot_l2(delta)
        j2 = prob.second_variation(ctrl, delta) if order >= 2 else 0.0
        rs, keep = [], []
        for t in tcfg["t_values"]:
            J = prob.eval_J(ctrl.axpy(t, delta))
            rem = J - J0 - t * dd
            if order >= 2:
                rem -= 0.5 * t * t * j2
            rows.append((s, t, abs(rem)))
            rs.append(abs(rem))
            # a remainder at J's rounding measures the rounding, not the slope
            keep.append(abs(rem) > 16 * np.finfo(float).eps * abs(J))
        fit = fit_loglog(tcfg["t_values"], rs, np.array(keep))
        if np.isfinite(fit.slope):
            slopes.append({"seed": s, "slope": fit.slope, "r2": fit.r2, "n_used": fit.n_used})
    run.write_csv("taylor.csv", ["seed", "t", "remainder"], rows)
    run.write_json("summary.json", {"order": order, "fits": slopes})


class _Drawn:
    """Per-step sources whose level k is draw(default_rng((*key, k))), drawn
    on each read, so repeated reads agree and no level is kept; `None` below
    level start."""

    def __init__(self, draw, key, start=0):
        self.draw, self.key, self.start = draw, key, start

    def __getitem__(self, k):
        return None if k < self.start else self.draw(np.random.default_rng((*self.key, k)))


def cmd_duality(cfg, run, seed):
    prob = build_problem(cfg, seed)
    g, pp, tg = prob.grid, prob.phys, prob.tg

    def rv(rng):
        return Vec2(0.3 * rng.standard_normal((g.nx + 1, g.ny)),
                    0.3 * rng.standard_normal((g.nx, g.ny + 1))).zero_normal_boundary()

    def rs(rng):
        return 0.3 * rng.standard_normal((g.nx, g.ny))

    residuals = []
    for s in range(int(cfg["duality"]["seeds"])):
        key = seed + 2000 + s
        rng = np.random.default_rng(key)
        # around the configured problem's state at a random admissible control
        base = prob.state(prob.space.uniform(rng))
        res = sen.duality_residual(
            g, pp, tg, base, tanF=_Drawn(rv, (key, 0)), tanG=_Drawn(rs, (key, 1)),
            v0=g.leray_project(rv(rng)), theta0=rs(rng),
            adjF=_Drawn(rv, (key, 2), 1), adjG=_Drawn(rs, (key, 3), 1),
            wT=g.leray_project(rv(rng)), psiT=rs(rng))
        residuals.append(res)
    run.write_csv("duality.csv", ["seed", "residual"],
                  list(enumerate(residuals)))
    run.write_json("summary.json", {"max_residual": max(residuals),
                                    "residuals": residuals,
                                    "pass_1e-11": max(residuals) <= 1e-11})


def cmd_mms(cfg, run, seed):
    from .mms import convergence_study
    m = cfg["mms"]
    errs, orders, nts = convergence_study(tuple(m["levels"]),
                                          cfg["physics"]["nu"],
                                          cfg["physics"]["kappa"],
                                          m["T"], m["dt_factor"])
    run.write_csv("mms.csv", ["n", "nt", "error_l2q"],
                  list(zip(m["levels"], nts, errs)))
    run.write_json("summary.json", {"errors": errs, "orders": orders,
                                    "min_order": min(orders)})


def cmd_tikhonov(cfg, run, seed):
    prob, res, opts = _solve_base(cfg, seed)
    rep = lab.tikhonov_path(prob, res.control, cfg["tikhonov"]["eps_grid"],
                            opts, np.asarray(cfg["measure"]["eps_grid"]))
    run.write_records("path.csv", lab.PathPoint, rep.points)
    run.write_json("summary.json", {
        "slope": rep.fit.describe(), "slope_value": rep.fit.slope,
        "r2": rep.fit.r2, "mu_hat": rep.mu_hat, "mu_r2": rep.mu_r2,
        "slope_minus_mu": rep.slope_vs_mu,
        "base_kkt": res.kkt_history[-1]})


def cmd_sweep(cfg, run, seed):
    prob, res, opts = _solve_base(cfg, seed)
    plan = lab.SweepPlan(seed=seed, **cfg["sweep"])
    rep = lab.stability_sweep(prob, res.control, plan, opts, s_norm=cfg["s_norm"])
    run.write_records("sweep.csv", lab.StabilityRecord, rep.records)
    run.write_json("summary.json", {
        "control_fit": rep.control_fit.describe(),
        "control_slope": rep.control_fit.slope,
        "control_r2": rep.control_fit.r2,
        "state_fit": rep.state_fit.describe(),
        "state_slope": rep.state_fit.slope,
        "state_r2": rep.state_fit.r2,
        "linf_constant": rep.linf_constant,
        "exponent_consistency": rep.exponent_consistency})


def cmd_growth(cfg, run, seed):
    prob, res, _ = _solve_base(cfg, seed)
    rep = lab.growth_probe(prob, res.control, seed=seed, s_norm=cfg["s_norm"],
                           **cfg["growth"])
    run.write_records("growth_samples.csv", lab.GrowthSample, rep.samples)
    run.write_json("summary.json", {
        "variant": rep.variant, "tau": rep.tau,
        "min_ratio_per_radius": {str(k): v for k, v in rep.min_ratio_per_radius.items()},
        "c_hat": rep.c_hat,
        "mu_hat": rep.fit.reported(rep.mu_hat),
        "fit_r2": rep.fit.r2,
        "tracking_misfit": rep.tracking_misfit,
        "adjoint_grad_sup": rep.adjoint_grad_sup,
        "delta_hat": rep.delta_hat,
        "margin": rep.margin,
        "margin_positive": rep.margin_positive})


def cmd_second_order(cfg, run, seed):
    prob, res, opts = _solve_base(cfg, seed)
    so = cfg["second_order"]
    tracking = lab.tracking_margin(prob, res.control, cfg["s_norm"])
    mag = so["magnitude"]
    if mag is None:
        mag = 0.5 * max(tracking[-1], 0.0)
    pert = lab.make_perturbation(prob, so["family"], mag, seed + 7)
    rep = lab.second_order_stability_check(prob, res.control, pert,
                                           so["n_samples"], seed, opts,
                                           tracking, cfg["s_norm"])
    run.write_json("summary.json", {
        "skipped": rep.skipped, "reason": rep.reason,
        "margin": rep.margin, "perturbation_magnitude": mag,
        "zeta_norm": rep.zeta_norm, "smallness": rep.smallness,
        "min_ratio": rep.min_ratio,
        "adjoint_margin_degradation": rep.adjoint_margin_degradation})


def cmd_measure(cfg, run, seed):
    prob, res, _ = _solve_base(cfg, seed)
    eps = np.asarray(cfg["measure"]["eps_grid"])
    out = {}
    rows = []
    for name, fit in adjoint_measure_fits(prob, res.control, eps).items():
        out[name] = {
            "mu_hat": fit.mu_hat if fit.vacuous else fit.reported(fit.mu_hat),
            "r2": fit.r2, "n_used": fit.n_used}
        for e, m in zip(fit.eps, fit.mass):
            rows.append((name, e, m))
    run.write_csv("measure.csv", ["component", "eps", "mass"], rows)
    run.write_json("summary.json", {"fits": out,
                                    "bang_fraction": res.bang_fraction})


DISPATCH = {
    "solve": cmd_solve,
    "optimize": cmd_optimize,
    "taylor-test": cmd_taylor,
    "duality-check": cmd_duality,
    "mms": cmd_mms,
    "tikhonov-path": cmd_tikhonov,
    "stability-sweep": cmd_sweep,
    "growth-probe": cmd_growth,
    "second-order-check": cmd_second_order,
    "measure-condition": cmd_measure,
}
COMMANDS = tuple(DISPATCH)


def run_command(cmd, cfg: ExperimentConfig, out_dir=None, seed=None,
                threads=1, snapshot_stride=None):
    """Dispatch one command; returns the exit status (0/1/2)."""
    # threads is ignored; perfbench/workloads.py passes threads=2
    if cmd not in DISPATCH:
        sys.stderr.write(f"unknown command {cmd!r}; choose from: "
                         + ", ".join(COMMANDS) + "\n")
        return 2
    out_dir = out_dir or cfg["output"]["dir"]
    seed = cfg["seed"] if seed is None else seed
    if snapshot_stride is None:
        snapshot_stride = cfg["output"]["snapshot_stride"]
    run = Run(out_dir, cfg, cmd, seed)
    extra = (snapshot_stride,) if cmd == "solve" else ()
    try:
        DISPATCH[cmd](cfg, run, seed, *extra)
    except ConfigError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    except Exception as exc:
        kind = type(exc).__name__
        run.write_json("failure.json", {"type": kind, "error": str(exc),
                                        "traceback": traceback.format_exc()})
        run.finish()
        sys.stderr.write(f"{kind}: {exc}\n")
        return 1
    run.finish()
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="convecopt",
        description="Adjoint-based optimal control and stability experiments "
                    "for 2D buoyancy-driven flow.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file (defaults used if omitted)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--snapshot-stride", type=int, default=None)
    args = parser.parse_args(argv)
    # the config rules for the values these flags override
    for flag, value, low in (("--seed", args.seed, 0),
                             ("--snapshot-stride", args.snapshot_stride, 0)):
        if value is not None and value < low:
            sys.stderr.write(f"{flag}: must be >= {low}\n")
            return 2
    try:
        cfg = load_config(args.config) if args.config else default_config()
    except ConfigError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return 2
    return run_command(args.command, cfg, args.out, args.seed,
                       snapshot_stride=args.snapshot_stride)


if __name__ == "__main__":
    sys.exit(main())
