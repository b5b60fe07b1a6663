"""Experiment configuration: one JSON document drives every command.

Loading fills defaults, then validates every module-level invariant in one
pass, reporting all violations with their field paths rather than stopping
at the first.  The assembled Problem (grid, physics, objective, control
geometry, synthesized data) is built from the validated config plus a seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridConfig, cell_span, fourier_pair
from .boussinesq import PhysicalParams, TimeGrid, SourceData
from .objective import ObjectiveWeights, Targets, ControlSpace, Problem, KNOWN_FAMILIES
from .optimizer import OptOptions


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


DEFAULTS = {
    "grid": {"nx": 16, "ny": 16, "lx": 1.0, "ly": 1.0},
    "time": {"T": 0.5, "nt": 20},
    "physics": {"nu": 0.05, "kappa": 0.02, "buoyancy_dir": [0.0, 1.0]},
    "weights": {"alpha1": 1.0, "alpha2": 1.0, "beta1": 0.0, "beta2": 0.0,
                "eps1": 0.0, "eps2": 0.0},
    "control": {"q_region": [0.1, 0.6, 0.1, 0.5],
                "h_region": [0.4, 0.9, 0.5, 0.9],
                "q_bounds": [-1.0, 1.0], "th_bounds": [-1.0, 1.0]},
    "targets": {"kind": "fourier", "amplitude": 0.5, "modes": 3, "decay": 2.0,
                "terminal": False},
    "initial": {"kind": "zero", "amplitude": 0.3, "modes": 3, "decay": 2.0},
    "sources": {"kind": "zero", "amplitude": 0.3, "modes": 3, "decay": 2.0},
    "coupling": True,
    "seed": 0,
    "s_norm": 4,
    "optimizer": {"max_iters": 200, "kkt_tol": 1e-6, "initial_step": 1.0,
                  "armijo": 1e-4, "backtrack": 0.5, "max_backtracks": 30,
                  "nonmonotone_window": 10, "stagnation_window": 20,
                  "stagnation_rtol": 1e-14},
    "sweep": {"family": "control-tilt",
              "magnitudes": [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1],
              "modes": 4, "decay": 2.0, "warm_start": True,
              "trust_radius": None},
    "tikhonov": {"eps_grid": [1e-1, 3.16e-2, 1e-2, 3.16e-3, 1e-3, 0.0]},
    "growth": {"n_samples": 6, "radius_grid": [0.05, 0.1, 0.2, 0.4],
               "tau": 0.5, "variant": "control"},
    "second_order": {"family": "control-tilt", "magnitude": None,
                     "n_samples": 6},
    "measure": {"eps_grid": list(np.geomspace(1e-4, 1e-1, 10))},
    "taylor": {"t_values": [1e-1, 1e-2, 1e-3, 1e-4], "seeds": 3,
               "amplitude": 1.0, "order": 1},
    "duality": {"seeds": 5},
    "mms": {"levels": [16, 32, 64], "T": 0.1, "dt_factor": 1.0},
    "output": {"dir": "out", "snapshot_stride": 0},
}


def _merge(defaults, user, path, unknown):
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        if key not in defaults:
            unknown.append(f"{path}{key}: unknown key")
            continue
        if isinstance(defaults[key], dict) and isinstance(val, dict):
            out[key] = _merge(defaults[key], val, f"{path}{key}.", unknown)
        else:
            out[key] = val
    return out


@dataclass
class ExperimentConfig:
    data: dict

    def __getitem__(self, key):
        return self.data[key]

    def hash(self):
        return hashlib.sha256(
            json.dumps(self.data, sort_keys=True).encode()).hexdigest()


def _kind(x):
    """JSON type name of a config value; a list is typed by its elements."""
    if isinstance(x, bool):
        return "a boolean"
    if isinstance(x, int):
        return "an integer"
    if isinstance(x, float):
        return "a number"
    if isinstance(x, str):
        return "a string"
    if isinstance(x, dict):
        return "an object"
    if isinstance(x, list):
        kinds = {_kind(e) for e in x}
        if kinds <= {"an integer"}:
            return "a list of integers"
        if kinds <= {"an integer", "a number"}:
            return "a list of numbers"
    return "of another type"


# a value of the first kind is accepted where the default has the second
_WIDER = {("an integer", "a number"),
          ("a list of integers", "a list of numbers")}
_NUMERIC = {"an integer", "a number", "a list of integers", "a list of numbers"}


def _type_violations(data, defaults, path=""):
    """One violation per value whose JSON type differs from its default's.

    A null default marks an optional number: null or a number is accepted.
    Every number must be a finite float, or an integer within float range.
    """
    v = []
    for key, default in defaults.items():
        val, field = data[key], f"{path}{key}"
        if default is None and val is None:
            continue
        want = "a number" if default is None else _kind(default)
        got = _kind(val)
        if got != want and (got, want) not in _WIDER:
            v.append(f"{field}: must be {want}")
        elif isinstance(default, dict):
            v += _type_violations(val, default, field + ".")
        elif got in _NUMERIC and not all(abs(x) <= sys.float_info.max  # False for nan
                                         for x in (val if isinstance(val, list) else [val])):
            v.append(f"{field}: numbers must be finite and within float range")
    return v


def validate(data) -> list:
    """All violations as 'field.path: constraint' strings.

    Type violations are reported alone: the range checks below need
    well-typed values.
    """
    v = _type_violations(data, DEFAULTS)
    if v:
        return v

    def need(cond, path, msg):
        if not cond:
            v.append(f"{path}: {msg}")

    g = data["grid"]
    for n, length in (("nx", "lx"), ("ny", "ly")):
        need(g[n] >= 4, f"grid.{n}", "integer >= 4 required")
        need(g[length] / max(g[n], 1) > 0, f"grid.{length}", f"must be > 0, as must {length}/{n}")
    grid_ok = not v
    t = data["time"]
    need(t["T"] > 0, "time.T", "must be > 0")
    need(t["nt"] >= 1, "time.nt", "integer >= 1 required")
    p = data["physics"]
    need(p["nu"] > 0, "physics.nu", "must be > 0")
    need(p["kappa"] > 0, "physics.kappa", "must be > 0")
    bd = p["buoyancy_dir"]
    need(len(bd) == 2 and abs(float(np.hypot(*bd)) - 1.0) <= 1e-12,
         "physics.buoyancy_dir", "must be a unit 2-vector")
    w = data["weights"]
    for key in ("alpha1", "alpha2", "beta1", "beta2"):
        need(w[key] >= 0, f"weights.{key}", "must be >= 0")
    need(w["alpha1"] + w["alpha2"] + w["beta1"] + w["beta2"] > 0,
         "weights", "alpha1+alpha2+beta1+beta2 must be > 0")
    need(w["eps1"] >= 0, "weights.eps1", "must be >= 0")
    need(w["eps2"] >= 0, "weights.eps2", "must be >= 0")
    c = data["control"]
    for name in ("q_region", "h_region"):
        r = c[name]
        ok = (len(r) == 4 and 0 <= r[0] < r[1] and 0 <= r[2] < r[3])
        need(ok, f"control.{name}", "need [x0, x1, y0, y1] with x0 < x1, y0 < y1")
        if ok and grid_ok:
            # the snapping of Grid.rect_mask, so the two agree on emptiness
            i0, i1 = cell_span(r[0], r[1], g["lx"] / g["nx"], g["nx"])
            j0, j1 = cell_span(r[2], r[3], g["ly"] / g["ny"], g["ny"])
            need(i0 < i1 and j0 < j1, f"control.{name}", "covers no cell of the domain")
    for name in ("q_bounds", "th_bounds"):
        b = c[name]
        need(len(b) == 2 and b[0] <= b[1], f"control.{name}", "need lo <= hi")
    for sec in ("targets", "initial", "sources"):
        kind = data[sec]["kind"]
        need(kind in ("zero", "fourier"), f"{sec}.kind", "must be 'zero' or 'fourier'")
    opt = data["optimizer"]
    need(opt["kkt_tol"] > 0, "optimizer.kkt_tol", "must be > 0")
    need(opt["initial_step"] > 0, "optimizer.initial_step", "must be > 0")
    for key in ("backtrack", "armijo"):
        need(0 < opt[key] < 1, f"optimizer.{key}", "must lie in (0, 1)")
    for key in ("max_iters", "max_backtracks", "stagnation_rtol"):
        need(opt[key] >= 0, f"optimizer.{key}", "must be >= 0")
    sw = data["sweep"]
    mags = np.asarray(sw["magnitudes"], dtype=float)
    need(mags.size >= 2 and np.all(mags > 0) and np.all(np.diff(mags) > 0),
         "sweep.magnitudes", "need >= 2 strictly increasing positive values")
    need(sw["trust_radius"] is None or sw["trust_radius"] > 0,
         "sweep.trust_radius", "must be null or > 0")
    mag = data["second_order"]["magnitude"]
    need(mag is None or mag > 0, "second_order.magnitude", "must be null or > 0")
    rg = data["growth"]["radius_grid"]
    need(len(rg) >= 1 and all(r > 0 for r in rg), "growth.radius_grid",
         "need >= 1 value, each > 0")
    for sec in ("sweep", "second_order"):
        need(data[sec]["family"] in KNOWN_FAMILIES, f"{sec}.family",
             "must be one of " + ", ".join(KNOWN_FAMILIES))
    eg = np.asarray(data["tikhonov"]["eps_grid"], dtype=float)
    need(eg.size >= 2 and np.all(np.diff(eg) < 0) and np.all(eg >= 0),
         "tikhonov.eps_grid", "need strictly decreasing nonnegative values")
    ta = data["taylor"]
    need(len(set(ta["t_values"])) >= 2 and all(t > 0 for t in ta["t_values"]),
         "taylor.t_values", "need >= 2 distinct positive values")
    need(ta["amplitude"] > 0, "taylor.amplitude", "must be > 0")
    need(ta["order"] in (1, 2), "taylor.order", "must be 1 or 2")
    me = np.asarray(data["measure"]["eps_grid"], dtype=float)
    need(me.size >= 2 and np.all(me > 0) and np.all(np.diff(me) > 0),
         "measure.eps_grid", "need strictly increasing positive values")
    need(data["s_norm"] >= 2, "s_norm", "must be >= 2")
    need(data["seed"] >= 0, "seed", "must be >= 0")
    need(data["output"]["snapshot_stride"] >= 0, "output.snapshot_stride", "must be >= 0")
    levels = data["mms"]["levels"]
    need(len(levels) >= 2 and min(levels) >= 4 and np.all(np.diff(levels) > 0),
         "mms.levels", "need >= 2 strictly increasing grid sizes, each >= 4")
    for key in ("T", "dt_factor"):
        need(data["mms"][key] > 0, f"mms.{key}", "must be > 0")
    for sec, key in (("duality", "seeds"), ("taylor", "seeds"),
                     ("growth", "n_samples"), ("second_order", "n_samples"),
                     ("targets", "modes"), ("initial", "modes"),
                     ("sources", "modes"), ("sweep", "modes"),
                     ("optimizer", "nonmonotone_window"),
                     ("optimizer", "stagnation_window")):
        need(data[sec][key] >= 1, f"{sec}.{key}", "must be >= 1")
    need(data["growth"]["variant"] in ("control", "state"),
         "growth.variant", "must be 'control' or 'state'")
    need(data["growth"]["tau"] in (0.5, 1.0),
         "growth.tau", "must be 0.5 or 1.0")
    return v


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    return from_dict(user)


def from_dict(user) -> ExperimentConfig:
    if not isinstance(user, dict):
        raise ConfigError(["(top level): must be an object"])
    unknown = []
    data = _merge(DEFAULTS, user, "", unknown)
    violations = unknown + validate(data)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(data)


def default_config() -> ExperimentConfig:
    return ExperimentConfig(copy.deepcopy(DEFAULTS))


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def _synth_pair(grid, spec, rng):
    """(Vec2, scalar) pair from a 'zero'/'fourier' section."""
    if spec["kind"] == "zero":
        return None, None
    return fourier_pair(grid, rng, spec["amplitude"], spec["modes"], spec["decay"])


def build_problem(cfg: ExperimentConfig, seed=None) -> Problem:
    data = cfg.data
    seed = data["seed"] if seed is None else seed
    rng = np.random.default_rng(seed)
    grid = Grid(GridConfig(**data["grid"]))
    tg = TimeGrid(**data["time"])
    pp = PhysicalParams(data["physics"]["nu"], data["physics"]["kappa"],
                        tuple(data["physics"]["buoyancy_dir"]), bool(data["coupling"]))
    weights = ObjectiveWeights(**data["weights"])
    c = data["control"]
    space = ControlSpace(grid, tg,
                         grid.rect_mask(*c["q_region"]),
                         grid.rect_mask(*c["h_region"]),
                         c["q_bounds"][0], c["q_bounds"][1],
                         c["th_bounds"][0], c["th_bounds"][1])
    tu, ts = _synth_pair(grid, data["targets"], rng)
    terminal = (tu, ts) if data["targets"].get("terminal") else (None, None)
    targets = Targets(tu, ts, *terminal)
    iu, is_ = _synth_pair(grid, data["initial"], rng)
    if iu is not None:
        iu = grid.leray_project(iu)
    su, ss = _synth_pair(grid, data["sources"], rng)
    return Problem(grid, pp, tg, weights, targets, space,
                   base_sources=SourceData(su, ss),
                   u0=iu, theta0=is_)


def opt_options(cfg: ExperimentConfig) -> OptOptions:
    return OptOptions(**cfg["optimizer"])
