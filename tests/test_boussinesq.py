"""Forward solver tests: fixed points, energy behavior, determinism."""

import tracemalloc

import numpy as np
import pytest

from convecopt.grid import Grid, GridConfig, Vec2, NumericalFailure
from convecopt import boussinesq
from convecopt.boussinesq import (PhysicalParams, TimeGrid, SourceData,
                                  solve_state, step, implicit_block,
                                  data_norm)

from hypothesis import given, strategies as st

from conftest import (GRIDS, PROPS, energy_report, rand_scalar, rand_vec2,
                      rand_div_free)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(-0.1, 0.1)
    with pytest.raises(ValueError):
        PhysicalParams(0.1, 0.1, (1.0, 1.0))
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)


def test_implicit_block_is_symmetric(grid_rect):
    # the forward, tangent and adjoint marches share the block because of this
    g = grid_rect
    pp = PhysicalParams(0.05, 0.02)
    rng = np.random.default_rng(3)
    x, y = rand_vec2(g, rng), rand_vec2(g, rng)
    s, r = rand_scalar(g, rng), rand_scalar(g, rng)
    bx, _, bs = implicit_block(g, pp, 0.01, x, s)
    by, _, br = implicit_block(g, pp, 0.01, y, r)
    assert np.isclose(g.inner(bx, y), g.inner(x, by), rtol=1e-13, atol=0.0)
    assert np.isclose(g.inner(bs, r), g.inner(s, br), rtol=1e-13, atol=0.0)
    assert g.norm_lp(g.divergence(bx), np.inf) <= 1e-12
    assert g.norm_lp(g.divergence(by), np.inf) <= 1e-12


@PROPS
@given(GRIDS, st.floats(1e-3, 1.0), st.integers(0, 2 ** 32 - 1))
def test_implicit_block_is_symmetric_on_random_grids(g, dt, seed):
    pp = PhysicalParams(0.05, 0.02)
    rng = np.random.default_rng(seed)
    x, y = rand_vec2(g, rng), rand_vec2(g, rng)
    s, r = rand_scalar(g, rng), rand_scalar(g, rng)
    bx, _, bs = implicit_block(g, pp, dt, x, s)
    by, _, br = implicit_block(g, pp, dt, y, r)
    tol = 1e-12 * g.norm2(x) * g.norm2(y)
    assert abs(g.inner(bx, y) - g.inner(x, by)) <= tol
    tol = 1e-12 * g.norm2(s) * g.norm2(r)
    assert abs(g.inner(bs, r) - g.inner(s, br)) <= tol


def test_zero_data_is_a_bitwise_fixed_point(grid8):
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.5, 10)
    traj = solve_state(grid8, pp, tg, SourceData(), grid8.vec2(),
                       grid8.scalar())
    for k in range(tg.nt + 1):
        assert traj.u[k].max_abs() == 0.0
        assert np.all(traj.theta[k] == 0.0)
    for k in range(tg.nt):
        _, p, _ = step(grid8, pp, tg.dt, traj.u[k], traj.theta[k],
                       *SourceData().at(k))
        assert np.all(p == 0.0)


def test_unforced_isothermal_flow_loses_energy(grid8):
    # with theta = 0 and no forcing the projection and diffusion both contract
    rng = np.random.default_rng(0)
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.2, 10)
    u0 = rand_div_free(grid8, rng)
    traj = solve_state(grid8, pp, tg, SourceData(), u0, grid8.scalar())
    energies = [grid8.norm2(u) ** 2 for u in traj.u]
    assert all(e2 < e1 + 1e-15 for e1, e2 in zip(energies, energies[1:]))
    assert energies[-1] < 0.5 * energies[0]


def test_temperature_decays_without_sources(grid8):
    rng = np.random.default_rng(1)
    pp = PhysicalParams(0.05, 0.1)
    tg = TimeGrid(0.2, 10)
    th0 = rand_scalar(grid8, rng)
    traj = solve_state(grid8, pp, tg, SourceData(), grid8.vec2(), th0)
    norms = [grid8.norm2(t) for t in traj.theta]
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))


def test_velocity_stays_divergence_free(grid8):
    rng = np.random.default_rng(2)
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.2, 8)
    src = SourceData(rand_vec2(grid8, rng), rand_scalar(grid8, rng))
    traj = solve_state(grid8, pp, tg, src, rand_div_free(grid8, rng),
                       rand_scalar(grid8, rng))
    for u in traj.u:
        assert grid8.norm_lp(grid8.divergence(u), np.inf) <= 1e-10


def test_buoyancy_step_decomposition(grid8):
    # from rest with pure temperature data, one step equals the projected
    # and diffused buoyancy impulse: u1 = P D P (dt * buoyancy(theta0))
    rng = np.random.default_rng(3)
    pp = PhysicalParams(0.05, 0.02)
    dt = 0.01
    th0 = rand_scalar(grid8, rng)
    u1, _, _ = step(grid8, pp, dt, grid8.vec2(), th0, None, None)
    imp = grid8.buoyancy(th0, pp.buoyancy_dir) * dt
    ref = grid8.leray_project(
        grid8.helmholtz_solve_vec(dt * pp.nu, grid8.leray_project(imp)))
    assert (u1 - ref).max_abs() <= 1e-13


def test_state_has_zero_normal_faces_on_every_level(grid_rect):
    # the adjoint's skew-symmetric transposes rely on this; initial data and
    # forcing with nonzero normal faces must not leak into the trajectory
    g = grid_rect
    rng = np.random.default_rng(17)
    u0 = Vec2(rng.standard_normal((g.nx + 1, g.ny)), rng.standard_normal((g.nx, g.ny + 1)))
    f = Vec2(rng.standard_normal((g.nx + 1, g.ny)), rng.standard_normal((g.nx, g.ny + 1)))
    traj = solve_state(g, PhysicalParams(0.05, 0.02), TimeGrid(0.1, 4),
                       SourceData(f, rand_scalar(g, rng)), u0,
                       rand_scalar(g, rng))
    u, v = traj.u.u, traj.u.v
    for faces in (u[:, 0], u[:, -1], v[:, :, 0], v[:, :, -1]):
        assert np.all(faces == 0.0)


def test_solver_is_deterministic(grid8):
    rng = np.random.default_rng(4)
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.2, 8)
    src = SourceData(rand_vec2(grid8, rng), rand_scalar(grid8, rng))
    u0 = rand_div_free(grid8, rng)
    th0 = rand_scalar(grid8, rng)
    a = solve_state(grid8, pp, tg, src, u0, th0)
    b = solve_state(grid8, pp, tg, src, u0, th0)
    for k in range(tg.nt + 1):
        assert np.array_equal(a.u[k].u, b.u[k].u)
        assert np.array_equal(a.u[k].v, b.u[k].v)
        assert np.array_equal(a.theta[k], b.theta[k])


def test_per_step_sources_are_honored(grid8):
    # a source active only in the first step affects all later levels but the
    # same trajectory results from the equivalent per-step list
    rng = np.random.default_rng(5)
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.2, 4)
    f0 = rand_vec2(grid8, rng)
    fs = [f0] + [grid8.vec2() for _ in range(3)]
    traj = solve_state(grid8, pp, tg, SourceData(fs, None), grid8.vec2(),
                       grid8.scalar())
    assert traj.u[1].max_abs() > 0
    assert traj.u[-1].max_abs() > 0


def test_nan_input_rejected(grid8):
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.1, 4)
    u0 = grid8.vec2()
    u0.u[2, 2] = np.inf
    with pytest.raises(ValueError):
        solve_state(grid8, pp, tg, SourceData(), u0, grid8.scalar())


@pytest.mark.parametrize("k", [1, 3])
def test_nan_in_a_source_names_its_step(grid8, k):
    # source entry k - 1 is held on the step that produces level k
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.1, 4)
    rng = np.random.default_rng(5)
    h = rand_scalar(grid8, rng) * np.ones((tg.nt, 1, 1))
    h[k - 1, 2, 3] = np.nan
    with pytest.raises(NumericalFailure, match=f"^step {k}: energy"):
        solve_state(grid8, pp, tg, SourceData(None, h), grid8.vec2(),
                    grid8.scalar())


class _Recorder:
    """Level sink recording what march hands it, as (k, theta[0, 0], p)."""

    def __init__(self):
        self.seen = []

    def put(self, k, u, theta, p):
        self.seen.append((k, theta[0, 0], p))


@pytest.mark.parametrize("levels", [range(6), range(5, -1, -1)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("i", [1, 3, 5])
def test_march_hands_the_sink_each_level_before_the_failed_step(grid8, levels, i):
    # advance adds k to theta and returns p = -k; the step producing
    # levels[i] returns NaN, so the sink sees levels[:i] and no more
    bad = levels[i]

    def advance(k, u, theta):
        return u, -k, theta + (np.nan if k == bad else k)

    rec = _Recorder()
    with pytest.raises(NumericalFailure, match=f"^step {bad}: energy"):
        boussinesq.march(grid8, levels, advance, grid8.vec2(), grid8.scalar(), rec)
    theta = np.cumsum([0] + list(levels[1:i]))
    assert rec.seen == [(k, t, None if j == 0 else -k)
                        for j, (k, t) in enumerate(zip(levels[:i], theta))]


def test_march_fills_a_default_trajectory_indexed_by_level(grid8):
    levels = range(4, -1, -1)
    traj = boussinesq.march(grid8, levels, lambda k, u, th: (u, None, th + k),
                            grid8.vec2(), grid8.scalar())
    assert len(traj.u) == len(traj.theta) == len(levels)
    assert list(traj.theta[:, 0, 0]) == [6, 6, 5, 3, 0]


def test_first_step_beyond_the_energy_bound_fails(grid8, monkeypatch):
    # fast flow at dt = 0.5 on h = 1/8: E/D^2 grows from 0.5 to 1e90
    rng = np.random.default_rng(6)
    pp, tg, src = PhysicalParams(0.05, 0.02), TimeGrid(5.0, 10), SourceData()
    u0, th0 = rand_div_free(grid8, rng, 5.0), rand_scalar(grid8, rng, 5.0)
    with monkeypatch.context() as m:
        m.setattr(boussinesq, "ENERGY_BOUND", np.inf)
        free = solve_state(grid8, pp, tg, src, u0, th0)
    d = data_norm(grid8, tg, src, u0, th0)
    ratio = [(grid8.norm2(free.u[k]) ** 2 + grid8.norm2(free.theta[k]) ** 2) / d ** 2
             for k in range(tg.nt + 1)]
    first = next(k for k, r in enumerate(ratio) if r > boussinesq.ENERGY_BOUND)
    assert 1 < first < tg.nt and ratio[-1] > 1e80
    with pytest.raises(NumericalFailure, match=f"^step {first}: energy ") as err:
        solve_state(grid8, pp, tg, src, u0, th0)
    assert err.value.args[0].endswith(f"bound {boussinesq.ENERGY_BOUND * d ** 2:.3g}")


def test_data_norm_is_the_energy_report_data_norm(grid8):
    rng = np.random.default_rng(8)
    tg = TimeGrid(0.2, 4)
    u0, th0 = rand_div_free(grid8, rng), rand_scalar(grid8, rng)
    for src in (SourceData(rand_vec2(grid8, rng), None),
                SourceData([rand_vec2(grid8, rng) for _ in range(tg.nt)],
                           [rand_scalar(grid8, rng) for _ in range(tg.nt)])):
        traj = solve_state(grid8, PhysicalParams(0.05, 0.02), tg, src, u0, th0)
        d = data_norm(grid8, tg, src, u0, th0)
        assert d == energy_report(grid8, tg, traj, src, u0, th0).data_norm
        f2 = sum(grid8.norm2(src.at(k)[0]) ** 2 for k in range(tg.nt))
        h2 = sum(0.0 if src.h is None else grid8.norm2(src.at(k)[1]) ** 2
                 for k in range(tg.nt))
        ref = (np.sqrt(tg.dt * f2) + np.sqrt(tg.dt * h2)
               + grid8.norm2(u0) + grid8.norm2(th0))
        assert np.isclose(d, ref, rtol=1e-13, atol=0.0)


def test_data_norm_holds_one_level_of_on_demand_sources():
    # sources formed by at(k) are fresh arrays each step: data_norm must
    # drop each before asking for the next, never stacking the nt levels
    g = Grid(GridConfig(32, 32))
    tg = TimeGrid(1.0, 60)
    rng = np.random.default_rng(9)
    f, h = rand_vec2(g, rng), rand_scalar(g, rng)

    class OnDemand:
        def at(self, k):
            return f * (1.0 + k), h * (1.0 + k)

    level_bytes = f.u.nbytes + f.v.nbytes + h.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = data_norm(g, tg, OnDemand(), g.vec2(), g.scalar())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * level_bytes, peak / level_bytes
    s2 = sum((1.0 + k) ** 2 for k in range(tg.nt))
    ref = np.sqrt(tg.dt * s2) * (g.norm2(f) + g.norm2(h))
    assert np.isclose(d, ref, rtol=1e-13, atol=0.0)


def test_energy_report_contents(grid8):
    rng = np.random.default_rng(7)
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.2, 8)
    src = SourceData(rand_vec2(grid8, rng), rand_scalar(grid8, rng))
    u0 = rand_div_free(grid8, rng)
    th0 = rand_scalar(grid8, rng)
    traj = solve_state(grid8, pp, tg, src, u0, th0)
    rep = energy_report(grid8, tg, traj, src, u0, th0)
    assert rep.series.shape == (tg.nt + 1, 6)
    # max energy consistent with the trajectory it was computed from
    ref = max(grid8.norm2(traj.u[k]) ** 2 + grid8.norm2(traj.theta[k]) ** 2
              for k in range(tg.nt + 1))
    assert np.isclose(rep.max_energy, ref, rtol=1e-14)
    assert rep.dissipation > 0
    assert rep.data_norm > 0
    assert np.isclose(rep.ratio, (rep.max_energy + rep.dissipation)
                      / rep.data_norm ** 2, rtol=1e-14)


def test_energy_ratio_regression():
    # golden value for a fixed seeded configuration; guards against silent
    # changes in the discretization (value frozen from the current scheme)
    grid = Grid(GridConfig(16, 16))
    rng = np.random.default_rng(42)
    pp = PhysicalParams(0.05, 0.02)
    tg = TimeGrid(0.5, 20)
    from convecopt.grid import fourier_scalar, fourier_vec2
    src = SourceData(fourier_vec2(grid, rng, 3, 2.0),
                     fourier_scalar(grid, rng, 3, 2.0))
    u0 = grid.leray_project(fourier_vec2(grid, rng, 3, 2.0))
    th0 = fourier_scalar(grid, rng, 3, 2.0)
    traj = solve_state(grid, pp, tg, src, u0, th0)
    rep = energy_report(grid, tg, traj, src, u0, th0)
    assert np.isclose(rep.ratio, RATIO_GOLDEN, rtol=1e-12)


# frozen from a run of the block above (see test body)
RATIO_GOLDEN = 2.0857749606781093
