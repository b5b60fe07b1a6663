"""The three benchmark workloads, each driven through convecopt's public API.

A workload has four steps.  ``imports`` loads the package modules it uses
and ``prepare`` builds the inputs from a problem seed; together they are the
timed set-up.  ``solve`` is one timed repetition and ``check`` validates its
result, untimed, against the paper's invariants and the reference results
recorded in ``reference.json``.  A check returns a list of failure messages;
an empty list means the repetition passed.

The benchmark's ``--seed`` is mapped onto a fixed pool of problem seeds.  Each
pool holds seeds that do the same amount of numerical work as seed 0 (see
README.md), so ``solve_s`` compares like with like across seeds.  Nothing
in this module imports numpy or the package at import time, so the set-up
timing starts before either is loaded.
"""

from __future__ import annotations

import csv
import json
import math
import os

# Problem seeds whose 64x64 solve takes 7 iterations with no backtracking,
# like seed 0 (8 forward and 8 adjoint sweeps).  Seeds 0-89 were screened.
CONTROL_POOL = (0, 15, 23, 24, 60, 75)
# Problem seeds whose lab-16 run makes 114-118 forward sweeps, like seed 0
# (116).  Seeds 0-59 were screened.
LAB_POOL = (0, 13, 48, 58)

J_RTOL = 1e-6           # control-64: final objective against the record
DUALITY_TOL = 1e-11     # control-64: discrete duality identity
LAB_RTOL = 1e-4         # lab-16: summary.json numbers against the record
LAB_ATOL = 1e-12
MMS_RTOL = 1e-8         # mms-refine: L2(Q) errors against the record
MMS_MIN_ORDER = 1.9


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


class ControlWorkload:
    """64x64 tracking control solved to KKT <= 1e-6 from the zero control."""

    name = "control-64"
    sizes = {"full": {"n": 64, "T": 0.5, "nt": 40},
             "tiny": {"n": 12, "T": 0.5, "nt": 6}}

    def problem_seed(self, seed):
        return CONTROL_POOL[seed % len(CONTROL_POOL)]

    def imports(self):
        from convecopt import config, optimizer, sensitivity
        return config, optimizer, sensitivity

    def prepare(self, size, pseed, work_dir):
        config, _, _ = self.imports()
        s = self.sizes[size]
        cfg = config.from_dict({"grid": {"nx": s["n"], "ny": s["n"]},
                                "time": {"T": s["T"], "nt": s["nt"]}})
        prob = config.build_problem(cfg, pseed)
        _warm_up(prob)
        return {"prob": prob, "opts": config.opt_options(cfg), "seed": pseed}

    def solve(self, ctx, rep):
        import dataclasses
        _, optimizer, _ = self.imports()
        # A fresh Problem per repetition: empty state and adjoint caches,
        # while the grid keeps the factorizations made in set-up.
        prob = dataclasses.replace(ctx["prob"])
        res = optimizer.projected_gradient(prob, prob.space.zero(), ctx["opts"])
        vio = optimizer.pointwise_sign_check(prob, res.control)
        return prob, res, vio

    def summarize(self, out):
        _, res, vio = out
        return {"J": res.J_history[-1], "kkt": res.kkt_history[-1],
                "iterations": res.iterations,
                "backtracks": int(sum(res.backtrack_history)),
                "termination": res.termination,
                "sign_violation_mass": vio.mass_q + vio.mass_th}

    def check(self, ctx, out, ref, rep):
        info = self.summarize(out)
        bad = []
        if info["termination"] != "kkt_tol":
            bad.append(f"termination {info['termination']!r}, expected 'kkt_tol'")
        if not _close(info["J"], ref["J"], J_RTOL):
            bad.append(f"J {info['J']!r} differs from the recorded {ref['J']!r} "
                       f"by more than {J_RTOL:g} relative")
        info["iterations_match_reference"] = info["iterations"] == ref["iterations"]
        if rep == 0:
            prob, res, _ = out
            info["duality_residual"] = _duality_residual(prob, res.control, ctx["seed"])
            if not info["duality_residual"] <= DUALITY_TOL:
                bad.append(f"duality residual {info['duality_residual']:.3e} "
                           f"exceeds {DUALITY_TOL:g}")
        return bad, info

    def record(self, ctx, out):
        info = self.summarize(out)
        return {k: info[k] for k in ("J", "iterations", "backtracks")}


class LabWorkload:
    """Default CLI config: stability sweep on 2 threads, then a growth probe."""

    name = "lab-16"
    sizes = {"full": {},
             "tiny": {"grid": {"nx": 8, "ny": 8}, "time": {"T": 0.5, "nt": 6},
                      "sweep": {"magnitudes": [1e-2, 1e-1]},
                      "growth": {"n_samples": 2, "radius_grid": [0.1, 0.2]}}}
    commands = (("sweep", "stability-sweep", 2), ("growth", "growth-probe", 1))

    def problem_seed(self, seed):
        return LAB_POOL[seed % len(LAB_POOL)]

    def imports(self):
        from convecopt import cli, config
        return cli, config

    def prepare(self, size, pseed, work_dir):
        _, config = self.imports()
        cfg = config.from_dict(self.sizes[size])
        # The CLI builds its own Problem; this one warms the solver code on
        # the workload's grid and time step, as for control-64.
        _warm_up(config.build_problem(cfg, pseed))
        return {"cfg": cfg, "seed": pseed, "work_dir": work_dir, "checksums": None}

    def solve(self, ctx, rep):
        cli, _ = self.imports()
        base = os.path.join(ctx["work_dir"], f"{self.name}-rep{rep}")
        status = {}
        for sub, cmd, threads in self.commands:
            status[sub] = cli.run_command(cmd, ctx["cfg"], os.path.join(base, sub),
                                          ctx["seed"], threads=threads)
        return base, status

    def summarize(self, out):
        base, status = out
        info = {"status": status, "summary": {}, "checksums": {}, "terminations": []}
        for sub, _, _ in self.commands:
            d = os.path.join(base, sub)
            if os.path.exists(os.path.join(d, "summary.json")):
                with open(os.path.join(d, "summary.json")) as fh:
                    info["summary"][sub] = json.load(fh)
            if os.path.exists(os.path.join(d, "manifest.json")):
                with open(os.path.join(d, "manifest.json")) as fh:
                    for f in json.load(fh)["files"]:
                        info["checksums"][f"{sub}/{f['path']}"] = f["sha256"]
        sweep_csv = os.path.join(base, "sweep", "sweep.csv")
        if os.path.exists(sweep_csv):
            with open(sweep_csv) as fh:
                rows = csv.DictReader(line for line in fh if not line.startswith("#"))
                info["terminations"] = [r["termination"] for r in rows]
        return info

    def check(self, ctx, out, ref, rep):
        info = self.summarize(out)
        bad = [f"{sub} returned status {st}" for sub, st in info["status"].items() if st != 0]
        # the first record is the unperturbed reference point, not a solve
        for i, term in enumerate(info["terminations"][1:], start=1):
            if term not in ("kkt_tol", "stagnation"):
                bad.append(f"sweep record {i} ended in {term!r}")
        if len(info["terminations"]) != len(ref["terminations"]):
            bad.append(f"sweep has {len(info['terminations'])} records, "
                       f"recorded {len(ref['terminations'])}")
        for sub in ref["summary"]:
            got = info["summary"].get(sub)
            if got is None:
                bad.append(f"{sub}/summary.json missing")
                continue
            bad.extend(f"{sub}/summary.json {m}"
                       for m in _compare(got, ref["summary"][sub], ""))
        if ctx["checksums"] is None:
            if not bad:     # the first passing repetition sets the run's checksums
                ctx["checksums"] = info["checksums"]
        elif info["checksums"] != ctx["checksums"]:
            bad.append("manifest checksums differ from the first repetition")
        info["checksums_match_reference"] = info["checksums"] == ref["checksums"]
        del info["terminations"]
        return bad, info

    def record(self, ctx, out):
        info = self.summarize(out)
        return {"summary": info["summary"], "checksums": info["checksums"],
                "terminations": info["terminations"]}


class MMSWorkload:
    """Manufactured-solution refinement: forward marches at 16, 32 and 64."""

    name = "mms-refine"
    sizes = {"full": {"levels": (16, 32, 64)}, "tiny": {"levels": (8, 16)}}
    nu, kappa, T, dt_factor = 0.05, 0.02, 0.1, 1.0

    def problem_seed(self, seed):
        return None     # the case is analytic: the seed is unused

    def imports(self):
        from convecopt import boussinesq, mms
        return boussinesq, mms

    def prepare(self, size, pseed, work_dir):
        boussinesq, mms = self.imports()
        return {"case": mms.build_case(self.nu, self.kappa),
                "pp": boussinesq.PhysicalParams(self.nu, self.kappa),
                "levels": self.sizes[size]["levels"]}

    def solve(self, ctx, rep):
        _, mms = self.imports()
        return [mms.run_level(n, ctx["pp"], ctx["case"], T=self.T,
                              dt_factor=self.dt_factor) for n in ctx["levels"]]

    def summarize(self, out):
        errs = [e for e, _ in out]
        return {"errors": errs, "steps": [nt for _, nt in out],
                "orders": [math.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]}

    def check(self, ctx, out, ref, rep):
        info = self.summarize(out)
        bad = [f"observed order {o:.4f} below {MMS_MIN_ORDER}"
               for o in info["orders"] if not o >= MMS_MIN_ORDER]
        if len(info["errors"]) != len(ref["errors"]) or not all(
                _close(e, r, MMS_RTOL) for e, r in zip(info["errors"], ref["errors"])):
            bad.append(f"errors {info['errors']} differ from the recorded "
                       f"{ref['errors']} by more than {MMS_RTOL:g} relative")
        return bad, info

    def record(self, ctx, out):
        return self.summarize(out)


WORKLOADS = {w.name: w for w in (ControlWorkload(), LabWorkload(), MMSWorkload())}


def _warm_up(prob):
    """First Poisson and Helmholtz solves on the problem's grid and time step."""
    g, dt, pp = prob.grid, prob.tg.dt, prob.phys
    g.poisson_neumann(g.scalar())
    g.helmholtz_solve_vec(dt * pp.nu, g.vec2())
    g.helmholtz_solve_scalar(dt * pp.kappa, g.scalar())


def _duality_residual(prob, ctrl, seed):
    """Duality identity on the optimal state with random tangent/adjoint data."""
    import numpy as np
    from convecopt import sensitivity
    from convecopt.grid import Vec2
    g, tg = prob.grid, prob.tg
    rng = np.random.default_rng(seed + 2000)

    def rv():
        return Vec2(0.3 * rng.standard_normal((g.nx + 1, g.ny)),
                    0.3 * rng.standard_normal((g.nx, g.ny + 1))).zero_normal_boundary()

    def rs():
        return 0.3 * rng.standard_normal((g.nx, g.ny))

    return sensitivity.duality_residual(
        g, prob.phys, tg, prob.state(ctrl),
        tanF=[rv() for _ in range(tg.nt)], tanG=[rs() for _ in range(tg.nt)],
        v0=g.leray_project(rv()), theta0=rs(),
        adjF=[None] + [rv() for _ in range(tg.nt)],
        adjG=[None] + [rs() for _ in range(tg.nt)],
        wT=g.leray_project(rv()), psiT=rs(), coupling=prob.coupling)


def _compare(got, want, path):
    """Differences between two JSON values; numbers within LAB_RTOL/LAB_ATOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'document'}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"differ from the recorded {sorted(want)}"]
        return [m for k in want for m in _compare(got[k], want[k], f"{path}.{k}".lstrip("."))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} differs from the recorded {want!r}"]
        return [m for i, (a, b) in enumerate(zip(got, want)) for m in _compare(a, b, f"{path}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool) \
            and isinstance(got, (int, float)) and not isinstance(got, bool):
        if _close(got, want, LAB_RTOL, LAB_ATOL):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} differs from the recorded {want!r}"]
