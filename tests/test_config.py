"""Configuration loading, validation, and problem assembly tests."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convecopt.config import (ConfigError, DEFAULTS, default_config,
                              from_dict, load_config, build_problem,
                              opt_options)
from convecopt.grid import Grid, GridConfig

from conftest import JSON, NUMBERS, leaf_paths


def test_default_config_is_valid_and_hashable():
    cfg = default_config()
    h = cfg.hash()
    assert len(h) == 64
    assert cfg.hash() == h


def test_hash_changes_with_content():
    a = default_config()
    b = from_dict({"seed": 7})
    assert a.hash() != b.hash()


def test_validation_reports_all_violations_with_field_paths():
    with pytest.raises(ConfigError) as err:
        from_dict({"physics": {"nu": -1.0, "kappa": 0.0},
                   "grid": {"nx": 2},
                   "time": {"T": -0.5}})
    msgs = err.value.violations
    assert any(m.startswith("physics.nu:") for m in msgs)
    assert any(m.startswith("physics.kappa:") for m in msgs)
    assert any(m.startswith("grid.nx:") for m in msgs)
    assert any(m.startswith("time.T:") for m in msgs)
    assert len(msgs) >= 4


@pytest.mark.parametrize("doc,field", [
    ({"mms": {"levels": [2, 4]}}, "mms.levels"),
    ({"mms": {"levels": []}}, "mms.levels"),
    ({"mms": {"levels": [16]}}, "mms.levels"),
    ({"duality": {"seeds": 0}}, "duality.seeds"),
    ({"mms": {"levels": [16, 16]}}, "mms.levels"),
    ({"taylor": {"seeds": 0}}, "taylor.seeds"),
    ({"growth": {"n_samples": 0}}, "growth.n_samples"),
    ({"second_order": {"n_samples": -1}}, "second_order.n_samples"),
    ({"targets": {"modes": 0}}, "targets.modes"),
    ({"initial": {"modes": 0}}, "initial.modes"),
    ({"sources": {"modes": 0}}, "sources.modes"),
    ({"sweep": {"modes": 0}}, "sweep.modes"),
    ({"output": {"snapshot_stride": -1}}, "output.snapshot_stride"),
    ({"mms": {"T": -0.1}}, "mms.T"),
    ({"mms": {"T": 0}}, "mms.T"),
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
    ({"taylor": {"amplitude": -1.0}}, "taylor.amplitude"),
    ({"taylor": {"order": 3}}, "taylor.order"),
    ({"taylor": {"order": 0}}, "taylor.order"),
    ({"second_order": {"magnitude": -1.0}}, "second_order.magnitude"),
    ({"second_order": {"magnitude": 0}}, "second_order.magnitude"),
])
def test_count_and_level_ranges_are_checked(doc, field):
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert [m.split(":")[0] for m in err.value.violations] == [field]


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        from_dict({"grdi": {"nx": 8}})
    with pytest.raises(ConfigError, match="optimizer.max_itres"):
        from_dict({"optimizer": {"max_itres": 5}})


def test_nested_defaults_survive_partial_override():
    cfg = from_dict({"grid": {"nx": 12}})
    assert cfg["grid"]["nx"] == 12
    assert cfg["grid"]["ny"] == DEFAULTS["grid"]["ny"]
    assert cfg["physics"]["nu"] == DEFAULTS["physics"]["nu"]


def test_parse_error_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"grid": {"nx": 8,}}')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(p)


def test_load_roundtrip(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps({"seed": 3, "grid": {"nx": 8, "ny": 8}}))
    cfg = load_config(p)
    assert cfg["seed"] == 3


def test_weight_standing_condition():
    with pytest.raises(ConfigError, match="alpha1\\+alpha2"):
        from_dict({"weights": {"alpha1": 0.0, "alpha2": 0.0,
                               "beta1": 0.0, "beta2": 0.0}})


def test_eps_grid_constraints():
    with pytest.raises(ConfigError, match="tikhonov.eps_grid"):
        from_dict({"tikhonov": {"eps_grid": [1e-3, 1e-2]}})
    with pytest.raises(ConfigError, match="sweep.magnitudes"):
        from_dict({"sweep": {"magnitudes": [0.1, 0.01]}})


def test_build_problem_assembles_consistent_objects():
    cfg = from_dict({"grid": {"nx": 8, "ny": 8}, "time": {"T": 0.2, "nt": 4}})
    prob = build_problem(cfg)
    assert prob.grid.nx == 8
    assert prob.tg.nt == 4
    assert prob.space.mask_q.ncells > 0
    # synthesized targets are nonzero and the initial velocity is div-free
    assert prob.grid.norm2(prob.targets.u_d) > 0
    assert prob.grid.norm_lp(prob.grid.divergence(prob.u0), np.inf) <= 1e-10


def test_build_problem_is_seed_deterministic():
    cfg = from_dict({"grid": {"nx": 8, "ny": 8}})
    a = build_problem(cfg, seed=5)
    b = build_problem(cfg, seed=5)
    c = build_problem(cfg, seed=6)
    assert np.array_equal(a.targets.theta_d, b.targets.theta_d)
    assert not np.array_equal(a.targets.theta_d, c.targets.theta_d)


def test_the_layers_below_the_lab_do_not_load_it():
    import convecopt
    src = os.path.dirname(os.path.dirname(convecopt.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import convecopt.config, convecopt.optimizer, convecopt.sensitivity; "
            "print('convecopt.stability_lab' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_opt_options_built_from_config():
    cfg = from_dict({"optimizer": {"max_iters": 17, "kkt_tol": 1e-5}})
    opts = opt_options(cfg)
    assert opts.max_iters == 17
    assert opts.kkt_tol == 1e-5


def test_type_errors_are_violations_with_field_paths():
    with pytest.raises(ConfigError, match="grid.lx: must be a number"):
        from_dict({"grid": {"lx": "one"}})
    with pytest.raises(ConfigError, match="physics: must be an object"):
        from_dict({"physics": 0.05})
    with pytest.raises(ConfigError, match="seed: must be an integer"):
        from_dict({"seed": 1.5})
    with pytest.raises(ConfigError, match="mms.levels: must be a list of integers"):
        from_dict({"mms": {"levels": [8.5, 16]}})
    # integers are numbers, and null marks an optional number
    from_dict({"time": {"T": 1}, "sweep": {"trust_radius": None}})
    with pytest.raises(ConfigError, match="top level"):
        from_dict([])


@pytest.mark.parametrize("section", ["sweep", "second_order"])
def test_unknown_perturbation_family_is_rejected(section):
    with pytest.raises(ConfigError, match=f"{section}.family"):
        from_dict({section: {"family": "bogus"}})


@pytest.mark.parametrize("doc,field", [
    ({"measure": {"eps_grid": [1, 10 ** 400]}}, "measure.eps_grid"),
    ({"grid": {"lx": 10 ** 400}}, "grid.lx"),
    ({"grid": {"nx": 2 ** 1024}}, "grid.nx"),
    ({"weights": {"alpha1": float("inf")}}, "weights.alpha1"),
    ({"control": {"q_bounds": [-float("inf"), 1]}}, "control.q_bounds"),
    ({"time": {"T": float("nan")}}, "time.T"),
    ({"sweep": {"trust_radius": float("inf")}}, "sweep.trust_radius"),
])
def test_numbers_must_be_finite_and_within_float_range(doc, field):
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert err.value.violations == [
        f"{field}: numbers must be finite and within float range"]


@pytest.mark.parametrize("name", ["q_region", "h_region"])
def test_control_region_must_cover_a_cell(name):
    with pytest.raises(ConfigError, match=f"control.{name}: covers no cell"):
        from_dict({"control": {name: [2.0, 3.0, 2.0, 3.0]}})
    with pytest.raises(ConfigError, match="grid.lx: must be > 0, as must lx/nx"):
        from_dict({"grid": {"lx": 5e-324}})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x0=st.floats(0, 1.2), w=st.floats(1e-14, 0.3),
       y0=st.floats(0, 0.7), h=st.floats(1e-14, 0.3))
def test_region_check_agrees_with_rect_mask(x0, w, y0, h):
    # validate and Grid.rect_mask share one snapping, so they cannot disagree
    grid = Grid(GridConfig(8, 6, lx=1.0, ly=0.5))
    region = [x0, x0 + w, y0, y0 + h]
    try:
        grid.rect_mask(*region)
        covered = True
    except ValueError:
        covered = False
    try:
        from_dict({"grid": {"nx": 8, "ny": 6, "ly": 0.5},
                   "control": {"q_region": region, "h_region": [0, 1, 0, 0.5]}})
        valid = True
    except ConfigError:
        valid = False
    assert valid == covered


_fuzz = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _returns_or_raises_config_error(doc):
    try:
        from_dict(doc)
    except ConfigError:
        pass


@_fuzz
@given(JSON)
def test_from_dict_on_arbitrary_json(doc):
    _returns_or_raises_config_error(doc)


@_fuzz
@given(st.lists(st.tuples(st.sampled_from(list(leaf_paths(DEFAULTS))),
                          JSON | st.lists(NUMBERS, max_size=5)),
                min_size=1, max_size=3))
def test_from_dict_on_defaults_with_random_leaves(edits):
    doc = copy.deepcopy(DEFAULTS)
    for path, val in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = val
    _returns_or_raises_config_error(doc)
