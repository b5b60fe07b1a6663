"""Tangent/adjoint tests: linearity, Taylor rates, and exact duality."""

import numpy as np
import pytest

from convecopt.grid import Grid, GridConfig, Vec2, NumericalFailure
from convecopt.boussinesq import PhysicalParams, TimeGrid, SourceData, solve_state
from convecopt.sensitivity import (solve_linearized, solve_adjoint,
                                   duality_residual, second_rhs,
                                   tangent_explicit_t)

from conftest import (rand_scalar, rand_vec2, rand_div_free,
                      duality_residual_stored, second_rhs_stacked, traced_peak)


def base_setup(grid, seed=0, nt=8, T=0.2, coupling=True):
    rng = np.random.default_rng(seed)
    pp = PhysicalParams(0.05, 0.02, coupling=coupling)
    tg = TimeGrid(T, nt)
    src = SourceData(rand_vec2(grid, rng, 0.3), rand_scalar(grid, rng, 0.3))
    u0 = rand_div_free(grid, rng, 0.3)
    th0 = rand_scalar(grid, rng, 0.3)
    base = solve_state(grid, pp, tg, src, u0, th0)
    return pp, tg, src, u0, th0, base, rng


def perturb_inputs(grid, tg, rng, scale=1.0):
    dF = [rand_vec2(grid, rng, scale) for _ in range(tg.nt)]
    dG = [rand_scalar(grid, rng, scale) for _ in range(tg.nt)]
    dv0 = rand_div_free(grid, rng, scale)
    dth0 = rand_scalar(grid, rng, scale)
    return dF, dG, dv0, dth0


def test_tangent_is_linear(grid8):
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    dF1, dG1, v01, t01 = perturb_inputs(grid8, tg, rng)
    dF2, dG2, v02, t02 = perturb_inputs(grid8, tg, rng)
    a, b = 2.0, -0.7
    comb = solve_linearized(
        grid8, pp, tg, base,
        SourceData([Vec2(a * f1.u + b * f2.u, a * f1.v + b * f2.v)
                    for f1, f2 in zip(dF1, dF2)],
                   [a * g1 + b * g2 for g1, g2 in zip(dG1, dG2)]),
        Vec2(a * v01.u + b * v02.u, a * v01.v + b * v02.v),
        a * t01 + b * t02)
    l1 = solve_linearized(grid8, pp, tg, base, SourceData(dF1, dG1), v01, t01)
    l2 = solve_linearized(grid8, pp, tg, base, SourceData(dF2, dG2), v02, t02)
    for k in range(tg.nt + 1):
        ref_v = Vec2(a * l1.u[k].u + b * l2.u[k].u,
                     a * l1.u[k].v + b * l2.u[k].v)
        assert (comb.u[k] - ref_v).max_abs() <= 1e-12
        assert np.max(np.abs(comb.theta[k] - a * l1.theta[k]
                             - b * l2.theta[k])) <= 1e-12


def test_tangent_zero_input_gives_zero(grid8):
    pp, tg, _, _, _, base, _ = base_setup(grid8)
    lin = solve_linearized(grid8, pp, tg, base, SourceData())
    for k in range(tg.nt + 1):
        assert lin.u[k].max_abs() == 0.0
        assert np.all(lin.theta[k] == 0.0)


def test_temperature_tangent_couples_into_velocity(grid8):
    # a pure temperature perturbation must produce velocity motion through
    # the buoyancy term of the linearization
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    dG = [rand_scalar(grid8, rng) for _ in range(tg.nt)]
    lin = solve_linearized(grid8, pp, tg, base, SourceData(None, dG))
    assert lin.u[-1].max_abs() > 0


def test_tangent_taylor_rate(grid8):
    # |S(m + t d) - S(m) - t S'(m) d| = O(t^2) in the combined state norm
    pp, tg, src, u0, th0, base, rng = base_setup(grid8)
    dF, dG, dv0, dth0 = perturb_inputs(grid8, tg, rng, 0.5)
    lin = solve_linearized(grid8, pp, tg, base, SourceData(dF, dG), dv0, dth0)
    rems = []
    ts = [1e-1, 1e-2, 1e-3]
    for t in ts:
        fs = [Vec2(src.f.u + t * d.u, src.f.v + t * d.v) for d in dF]
        hs = [src.h + t * d for d in dG]
        pu0 = Vec2(u0.u + t * dv0.u, u0.v + t * dv0.v)
        pth0 = th0 + t * dth0
        pert = solve_state(grid8, pp, tg, SourceData(fs, hs), pu0, pth0)
        err = 0.0
        for k in range(tg.nt + 1):
            du = pert.u[k] - base.u[k] - t * lin.u[k]
            dth = pert.theta[k] - base.theta[k] - t * lin.theta[k]
            err += tg.dt * (grid8.norm2(du) ** 2 + grid8.norm2(dth) ** 2)
        rems.append(np.sqrt(err))
    slopes = np.diff(np.log(rems)) / np.diff(np.log(ts))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_second_derivative_taylor_rate(grid8):
    pp, tg, src, u0, th0, base, rng = base_setup(grid8)
    dF, dG, dv0, dth0 = perturb_inputs(grid8, tg, rng, 0.5)
    lin = solve_linearized(grid8, pp, tg, base, SourceData(dF, dG), dv0, dth0)
    # the second derivative solves the tangent system with the bilinear
    # advection sources of the first-order tangent
    sec = solve_linearized(grid8, pp, tg, base,
                           second_rhs(grid8, lin, lin))
    rems = []
    ts = [1e-1, 3e-2, 1e-2]
    for t in ts:
        fs = [Vec2(src.f.u + t * d.u, src.f.v + t * d.v) for d in dF]
        hs = [src.h + t * d for d in dG]
        pu0 = Vec2(u0.u + t * dv0.u, u0.v + t * dv0.v)
        pth0 = th0 + t * dth0
        pert = solve_state(grid8, pp, tg, SourceData(fs, hs), pu0, pth0)
        err = 0.0
        for k in range(tg.nt + 1):
            du = pert.u[k] - base.u[k] - t * lin.u[k] \
                - Vec2(0.5 * t * t * sec.u[k].u, 0.5 * t * t * sec.u[k].v)
            dth = pert.theta[k] - base.theta[k] - t * lin.theta[k] \
                - 0.5 * t * t * sec.theta[k]
            err += tg.dt * (grid8.norm2(du) ** 2 + grid8.norm2(dth) ** 2)
        rems.append(np.sqrt(err))
    slopes = np.diff(np.log(rems)) / np.diff(np.log(ts))
    assert np.all(np.abs(slopes - 3.0) < 0.2)


def test_second_solver_is_symmetric(grid8):
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    dF1, dG1, v01, t01 = perturb_inputs(grid8, tg, rng)
    dF2, dG2, v02, t02 = perturb_inputs(grid8, tg, rng)
    l1 = solve_linearized(grid8, pp, tg, base, SourceData(dF1, dG1), v01, t01)
    l2 = solve_linearized(grid8, pp, tg, base, SourceData(dF2, dG2), v02, t02)
    s12 = solve_linearized(grid8, pp, tg, base,
                           second_rhs(grid8, l1, l2))
    s21 = solve_linearized(grid8, pp, tg, base,
                           second_rhs(grid8, l2, l1))
    for k in range(tg.nt + 1):
        assert (s12.u[k] - s21.u[k]).max_abs() <= 1e-12
        assert np.max(np.abs(s12.theta[k] - s21.theta[k])) <= 1e-12


def test_second_rhs_of_one_tangent_is_the_two_call_form_bitwise(grid_rect):
    pp, tg, _, _, _, base, rng = base_setup(grid_rect)
    dF, dG, dv0, dth0 = perturb_inputs(grid_rect, tg, rng)
    lin = solve_linearized(grid_rect, pp, tg, base, SourceData(dF, dG), dv0, dth0)
    rhs = second_rhs(grid_rect, lin, lin)
    g = grid_rect
    for k in range(tg.nt):
        v, th = lin.u[k], lin.theta[k]
        refF = -(g.advect_vector(v, v) + g.advect_vector(v, v))
        refG = -(g.advect_scalar(v, th) + g.advect_scalar(v, th))
        f, h = rhs.at(k)
        assert f.u.tobytes() == refF.u.tobytes()
        assert f.v.tobytes() == refF.v.tobytes()
        assert h.tobytes() == refG.tobytes()


@pytest.mark.parametrize("same", [True, False])
def test_second_rhs_provider_gives_the_stacked_pairs_bitwise(grid_rect, same):
    # formed per step on demand, each pair is the stacked form's level k
    # bit for bit, for one tangent and for two
    pp, tg, _, _, _, base, rng = base_setup(grid_rect)

    def tangent():
        dF, dG, dv0, dth0 = perturb_inputs(grid_rect, tg, rng)
        return solve_linearized(grid_rect, pp, tg, base, SourceData(dF, dG), dv0, dth0)

    l1 = tangent()
    l2 = l1 if same else tangent()
    rhs = second_rhs(grid_rect, l1, l2)
    refF, refG = second_rhs_stacked(grid_rect, l1, l2, tg.nt)
    for k in range(tg.nt):
        f, h = rhs.at(k)
        assert f.u.tobytes() == refF[k].u.tobytes()
        assert f.v.tobytes() == refF[k].v.tobytes()
        assert h.tobytes() == refG[k].tobytes()


class OnDemandSources:
    """Only at(k): forms level k's fields when asked, from a seed per level,
    and fails on any level outside `levels`."""

    def __init__(self, grid, seed, levels):
        self.grid, self.seed, self.levels = grid, seed, levels

    def at(self, k):
        if k not in self.levels:
            raise IndexError(f"level {k} read")
        rng = np.random.default_rng(self.seed + k)
        return rand_vec2(self.grid, rng), rand_scalar(self.grid, rng)


def three_kinds_of_sources(grid, seed, levels):
    """The same sources as SourceData over lists, over stacked arrays, and as
    an OnDemandSources; levels the march must not read are None or zero."""
    lazy = OnDemandSources(grid, seed, levels)
    n = max(levels) + 1
    f = [lazy.at(k)[0] if k in levels else None for k in range(n)]
    h = [lazy.at(k)[1] if k in levels else None for k in range(n)]
    stacked = SourceData(grid.vec2(n), grid.scalar(n))
    for k in levels:
        stacked.f[k], stacked.h[k] = f[k], h[k]
    return SourceData(f, h), stacked, lazy


def bits(*fields):
    """The bytes of every array of the given Vec2 and array fields."""
    return [a.tobytes() for f in fields
            for a in ((f.u, f.v) if isinstance(f, Vec2) else (f,))]


def test_tangent_and_adjoint_read_lists_stacks_and_on_demand_sources_alike(grid_rect):
    # one contract: the tangent reads at(0..nt-1), the adjoint at(1..nt),
    # and neither cares how the levels are held
    pp, tg, _, _, _, base, rng = base_setup(grid_rect)
    v0, th0 = rand_div_free(grid_rect, rng), rand_scalar(grid_rect, rng)
    lins = [solve_linearized(grid_rect, pp, tg, base, src, v0, th0)
            for src in three_kinds_of_sources(grid_rect, 50, range(tg.nt))]
    wT, psiT = rand_div_free(grid_rect, rng), rand_scalar(grid_rect, rng)
    adjs = [solve_adjoint(grid_rect, pp, tg, base, src, wT, psiT)
            for src in three_kinds_of_sources(grid_rect, 60, range(1, tg.nt + 1))]
    assert lins[0].u.max_abs() > 0 and adjs[0].u.max_abs() > 0
    for lin in lins[1:]:
        assert bits(lin.u, lin.theta) == bits(lins[0].u, lins[0].theta)
    ref = adjs[0]
    for adj in adjs[1:]:
        assert bits(adj.u, adj.theta) == bits(ref.u, ref.theta)


def test_adjoint_carriers_are_divergence_free(grid8):
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    adjF = [None] + [rand_vec2(grid8, rng) for _ in range(tg.nt)]
    adjG = [None] + [rand_scalar(grid8, rng) for _ in range(tg.nt)]
    wT = rand_div_free(grid8, rng)
    adj = solve_adjoint(grid8, pp, tg, base, SourceData(adjF, adjG), wT,
                        rand_scalar(grid8, rng))
    for k in range(tg.nt + 1):
        assert grid8.norm_lp(grid8.divergence(adj.u[k]), np.inf) <= 1e-10


def test_adjoint_sweep_forms_no_costate_at_level_0(grid8, monkeypatch):
    # the explicit-stage transpose runs around base levels nt-1..1; the
    # costate at level 0 is read only by duality_residual, which forms it
    from convecopt import sensitivity
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    calls = []

    def counted(*args):
        calls.append(args)
        return tangent_explicit_t(*args)

    monkeypatch.setattr(sensitivity, "tangent_explicit_t", counted)
    solve_adjoint(grid8, pp, tg, base, SourceData(), rand_div_free(grid8, rng))
    assert len(calls) == tg.nt - 1


def test_adjoint_projects_divergent_terminal_data_with_warning(grid8):
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    wT = rand_vec2(grid8, rng)     # generically divergent
    with pytest.warns(UserWarning, match="divergence-free"):
        adj = solve_adjoint(grid8, pp, tg, base, SourceData(), wT=wT)
    assert grid8.norm_lp(grid8.divergence(adj.u[-1]), np.inf) <= 1e-10


def test_duality_identity_holds_to_roundoff(grid8):
    for seed in range(3):
        pp, tg, _, _, _, base, rng = base_setup(grid8, seed=seed)
        tanF, tanG, v0, th0 = perturb_inputs(grid8, tg, rng)
        adjF = [None] + [rand_vec2(grid8, rng) for _ in range(tg.nt)]
        adjG = [None] + [rand_scalar(grid8, rng) for _ in range(tg.nt)]
        res = duality_residual(grid8, pp, tg, base, tanF, tanG, v0, th0,
                               adjF, adjG, rand_div_free(grid8, rng),
                               rand_scalar(grid8, rng))
        assert res <= 1e-12


def test_duality_holds_with_coupling_disabled(grid8):
    pp, tg, _, _, _, base, rng = base_setup(grid8, coupling=False)
    tanF, tanG, v0, th0 = perturb_inputs(grid8, tg, rng)
    adjF = [None] + [rand_vec2(grid8, rng) for _ in range(tg.nt)]
    adjG = [None] + [rand_scalar(grid8, rng) for _ in range(tg.nt)]
    res = duality_residual(grid8, pp, tg, base, tanF, tanG, v0, th0,
                           adjF, adjG, rand_div_free(grid8, rng),
                           rand_scalar(grid8, rng))
    assert res <= 1e-12


def test_duality_residual_rejects_a_mismatched_coupling(grid8):
    # the marches read pp.coupling; a different explicit value is an error
    for coupling in (True, False):
        pp, tg, _, _, _, base, _ = base_setup(grid8, nt=2, coupling=coupling)
        assert duality_residual(grid8, pp, tg, base, coupling=coupling) == 0.0
        with pytest.raises(ValueError, match="coupling"):
            duality_residual(grid8, pp, tg, base, coupling=not coupling)


def test_duality_holds_on_large_anisotropic_grid():
    # 69,120 cells with hx != hy: every solve size must keep exact transposes
    grid = Grid(GridConfig(288, 240, lx=1.0, ly=0.6))
    pp, tg, _, _, _, base, rng = base_setup(grid, nt=3)
    tanF, tanG, v0, th0 = perturb_inputs(grid, tg, rng)
    adjF = [None] + [rand_vec2(grid, rng) for _ in range(tg.nt)]
    adjG = [None] + [rand_scalar(grid, rng) for _ in range(tg.nt)]
    res = duality_residual(grid, pp, tg, base, tanF, tanG, v0, th0,
                           adjF, adjG, rand_div_free(grid, rng),
                           rand_scalar(grid, rng))
    assert res <= 1e-11


class OnDemandField:
    """Field i of an OnDemandSources' at(k), indexed as a per-step sequence."""

    def __init__(self, sources, i):
        self.sources, self.i = sources, i

    def __getitem__(self, k):
        return self.sources.at(k)[self.i]


@pytest.mark.parametrize("case", ["coupled", "uncoupled", "anisotropic"])
def test_duality_residual_pairs_as_it_marches_bitwise(grid8, grid_rect, case):
    # the residual is the stored-trajectory oracle's float, whether the
    # sources are lists, stacks or formed on demand (which fail on any level
    # a pairing must not read)
    grid = grid_rect if case == "anisotropic" else grid8
    pp, tg, _, _, _, base, rng = base_setup(grid, coupling=case != "uncoupled")
    v0, th0 = rand_div_free(grid, rng), rand_scalar(grid, rng)
    wT, psiT = rand_div_free(grid, rng), rand_scalar(grid, rng)
    tans = three_kinds_of_sources(grid, 70, range(tg.nt))
    adjs = three_kinds_of_sources(grid, 80, range(1, tg.nt + 1))
    got = []
    for tan, adj in zip(tans, adjs):
        fields = [(OnDemandField(src, 0), OnDemandField(src, 1))
                  if isinstance(src, OnDemandSources) else (src.f, src.h)
                  for src in (tan, adj)]
        args = (grid, pp, tg, base, *fields[0], v0, th0, *fields[1], wT, psiT)
        got.append(duality_residual(*args))
        assert got[-1] == duality_residual_stored(*args)
    assert got[0] == got[1] == got[2]
    assert 0.0 < got[0] <= 1e-12


def test_duality_residual_stores_no_trajectory():
    # both marches pair each level as they produce it: 0.13 trajectories at
    # 32^2, nt = 100 (the levels in flight and four kept), where pairing
    # stored tangent and adjoint trajectories peaked at 2.09
    grid = Grid(GridConfig(32, 32))
    pp, tg, _, _, _, base, rng = base_setup(grid, nt=100, T=0.5)
    tanF, tanG, v0, th0 = perturb_inputs(grid, tg, rng)
    adjF = [None] + [rand_vec2(grid, rng) for _ in range(tg.nt)]
    adjG = [None] + [rand_scalar(grid, rng) for _ in range(tg.nt)]
    args = (grid, pp, tg, base, tanF, tanG, v0, th0, adjF, adjG,
            rand_div_free(grid, rng), rand_scalar(grid, rng))
    duality_residual(*args)     # warm-up
    peak = traced_peak(lambda: duality_residual(*args), grid, tg.nt)
    assert peak <= 0.25, peak


def test_adjoint_rejects_mismatched_base(grid8):
    pp, tg, _, _, _, base, _ = base_setup(grid8)
    bad_tg = TimeGrid(tg.T, tg.nt + 1)
    with pytest.raises(ValueError):
        solve_adjoint(grid8, pp, bad_tg, base, SourceData())


def explicit_t_four_transposes(grid, pp, uk, thk, w, psi, dt):
    """The adjoint explicit stage written with all four advection transposes."""
    lu = w - dt * (grid.advect_vector_t_field(uk, w)
                   + grid.advect_vector_t_vel(uk, w)
                   + grid.advect_scalar_t_vel(thk, psi))
    lt = (psi + dt * grid.buoyancy_t(w, pp.buoyancy_dir)
          - dt * grid.advect_scalar_t_field(uk, psi))
    return lu.zero_normal_boundary(), lt


@pytest.mark.parametrize("cfg", [GridConfig(8, 6, lx=1.0, ly=0.5),
                                 GridConfig(4, 9, lx=0.2, ly=3.0)],
                         ids=["8x6", "4x9-aniso"])
def test_adjoint_explicit_stage_matches_four_transpose_oracle(cfg):
    grid = Grid(cfg)
    rng = np.random.default_rng(31)
    pp = PhysicalParams(0.05, 0.02, (0.6, 0.8))
    dt = 0.5 * min(grid.hx, grid.hy)
    uk, w = rand_div_free(grid, rng), rand_div_free(grid, rng)
    thk, psi = rand_scalar(grid, rng), rand_scalar(grid, rng)
    lu, lt = tangent_explicit_t(grid, pp, uk, thk, w, psi, dt)
    ru, rt = explicit_t_four_transposes(grid, pp, uk, thk, w, psi, dt)
    tol = 1e-13 * max(ru.max_abs(), np.abs(rt).max())
    assert np.abs(lu.u - ru.u).max() <= tol
    assert np.abs(lu.v - ru.v).max() <= tol
    assert np.abs(lt - rt).max() <= tol


@pytest.mark.parametrize("face", ["west", "east", "south", "north"])
def test_adjoint_rejects_base_with_nonzero_normal_faces(grid8, face):
    # the skew-symmetric field transposes need zero normal faces on the base
    pp, tg, _, _, _, base, _ = base_setup(grid8)
    u, v = base.u.u, base.u.v
    {"west": u[3, 0], "east": u[3, -1],
     "south": v[3, :, 0], "north": v[3, :, -1]}[face][2] = 1e-3
    with pytest.raises(ValueError, match="boundary-normal"):
        solve_adjoint(grid8, pp, tg, base, SourceData())


@pytest.mark.parametrize("k", [1, 5])
def test_nan_in_a_tangent_source_names_its_step(grid8, k):
    # entry k - 1 drives the step that produces level k
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    dF, dG, dv0, dth0 = perturb_inputs(grid8, tg, rng)
    dG[k - 1][2, 3] = np.nan
    with pytest.raises(NumericalFailure, match=f"^step {k}: energy"):
        solve_linearized(grid8, pp, tg, base, SourceData(dF, dG), dv0, dth0)


@pytest.mark.parametrize("k", [0, 4])
def test_nan_in_an_adjoint_source_names_its_step(grid8, k):
    # the backward step that produces level k adds the level-(k + 1) sources
    pp, tg, _, _, _, base, rng = base_setup(grid8)
    adjF = [None] + [rand_vec2(grid8, rng) for _ in range(tg.nt)]
    adjF[k + 1].u[3, 2] = np.nan
    with pytest.raises(NumericalFailure, match=f"^step {k}: energy"):
        solve_adjoint(grid8, pp, tg, base, SourceData(adjF))
