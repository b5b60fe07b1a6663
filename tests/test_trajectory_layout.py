"""Trajectories stack their levels on a leading axis.

The reductions over a trajectory (J, J'', state distances, energy rows,
tracking margin) are single calls over the stack; the oracles here are the
per-level loops, written out inline.
"""

import math

import numpy as np
import pytest

from convecopt.boussinesq import (PhysicalParams, TimeGrid, SourceData,
                                  solve_state)
from convecopt.objective import (ObjectiveWeights, Targets, ControlSpace,
                                 ControlSources, Problem, Perturbation)
from convecopt.stability_lab import state_distance_l2, tracking_margin

from conftest import (energy_report, rand_scalar, rand_vec2, rand_div_free,
                      rand_control, restrict_adjoint)


def _problem(grid, rng):
    tg = TimeGrid(0.2, 6)
    space = ControlSpace(grid, tg, grid.rect_mask(0.1, 0.6, 0.1, 0.3),
                         grid.rect_mask(0.4, 0.9, 0.25, 0.45))
    targets = Targets(rand_vec2(grid, rng, 0.3), rand_scalar(grid, rng, 0.3),
                      rand_div_free(grid, rng, 0.3), rand_scalar(grid, rng, 0.3))
    return Problem(grid, PhysicalParams(0.05, 0.02), tg,
                   ObjectiveWeights(1.0, 0.7, 0.3, 0.2, 0.01, 0.02), targets,
                   space,
                   base_sources=SourceData(rand_vec2(grid, rng, 0.3),
                                           rand_scalar(grid, rng, 0.3)),
                   u0=rand_div_free(grid, rng, 0.3),
                   theta0=rand_scalar(grid, rng, 0.3))


def _h1_sq(g, a):
    return g.vol * (np.sum((np.diff(a, axis=0) / g.hx) ** 2)
                    + np.sum((np.diff(a, axis=1) / g.hy) ** 2))


def test_stacked_reductions_match_per_level_loops(grid_rect):
    g = grid_rect
    rng = np.random.default_rng(11)
    prob = _problem(g, rng)
    tg, w, sp, tgt = prob.tg, prob.weights, prob.space, prob.targets
    nt, dt, wq = tg.nt, tg.dt, tg.dt * g.vol
    ctrl = rand_control(sp, rng)
    pert = Perturbation(eta_u=rand_vec2(g, rng, 0.2),
                        eta_th=rand_scalar(g, rng, 0.2),
                        sigma=rng.standard_normal((nt, 2, sp.mask_q.ncells)),
                        lam=rng.standard_normal(sp.mask_h.ncells),
                        u_d_hat=rand_vec2(g, rng, 0.1),
                        th_d_hat=rand_scalar(g, rng, 0.1))
    pprob = prob.perturbed(pert)
    traj = pprob.state(ctrl)

    ref = 0.0
    for k in range(1, nt + 1):
        du = traj.u[k] - tgt.u_d - pert.u_d_hat
        dth = traj.theta[k] - tgt.theta_d - pert.th_d_hat
        ref += 0.5 * dt * (w.alpha1 * g.norm2(du) ** 2 + w.alpha2 * g.norm2(dth) ** 2)
        ref += dt * (g.inner(pert.eta_u, traj.u[k]) + g.inner(pert.eta_th, traj.theta[k]))
    ref += 0.5 * w.beta1 * g.norm2(traj.u[nt] - tgt.u_T) ** 2
    ref += 0.5 * w.beta2 * g.norm2(traj.theta[nt] - tgt.theta_T) ** 2
    ref += 0.5 * wq * (w.eps1 * np.sum(ctrl.q ** 2) + w.eps2 * np.sum(ctrl.th ** 2))
    for k in range(nt):
        ref += wq * (np.sum(pert.sigma[k] * ctrl.q[k]) + np.sum(pert.lam * ctrl.th[k]))
    assert math.isclose(pprob.eval_J(ctrl), ref, rel_tol=1e-13)

    # the gradient is restricted in one call; per step it is the same numbers
    grad = pprob.grad_J(ctrl)
    adj = pprob.adjoint(ctrl)
    for k in range(nt):
        q, th = restrict_adjoint(sp, adj.u[k], adj.theta[k])
        assert np.array_equal(grad.q[k], q + w.eps1 * ctrl.q[k] + pert.sigma[k])
        assert np.array_equal(grad.th[k], th + w.eps2 * ctrl.th[k] + pert.lam)

    d1, d2 = rand_control(sp, rng), rand_control(sp, rng)
    lin1, lin2 = pprob.tangent(ctrl, d1), pprob.tangent(ctrl, d2)
    ref = w.beta1 * g.inner(lin1.u[nt], lin2.u[nt]) \
        + w.beta2 * g.inner(lin1.theta[nt], lin2.theta[nt])
    for k in range(1, nt + 1):
        ref += dt * (w.alpha1 * g.inner(lin1.u[k], lin2.u[k])
                     + w.alpha2 * g.inner(lin1.theta[k], lin2.theta[k]))
    for k in range(nt):
        F = g.advect_vector(lin1.u[k], lin2.u[k]) + g.advect_vector(lin2.u[k], lin1.u[k])
        G = g.advect_scalar(lin1.u[k], lin2.theta[k]) \
            + g.advect_scalar(lin2.u[k], lin1.theta[k])
        ref -= dt * (g.inner(adj.u[k], F) + g.inner(adj.theta[k], G))
    ref += wq * (w.eps1 * np.sum(d1.q * d2.q) + w.eps2 * np.sum(d1.th * d2.th))
    got = pprob.second_bilinear(ctrl, d1, d2, lin1, lin2)
    assert math.isclose(got, ref, rel_tol=1e-13)

    base = prob.state(ctrl)
    su = sum(dt * g.norm2(traj.u[k] - base.u[k]) ** 2 for k in range(1, nt + 1))
    st = sum(dt * g.norm2(traj.theta[k] - base.theta[k]) ** 2 for k in range(1, nt + 1))
    assert math.isclose(state_distance_l2(prob, traj, base),
                        np.sqrt(su) + np.sqrt(st), rel_tol=1e-13)

    src = pprob._sources_for(ctrl)
    rep = energy_report(g, tg, traj, src, prob.u0, prob.theta0)
    for k in range(nt + 1):
        row = (k, tg.times()[k], g.norm2(traj.u[k]) ** 2, g.norm2(traj.theta[k]) ** 2,
               _h1_sq(g, traj.u[k].u) + _h1_sq(g, traj.u[k].v), _h1_sq(g, traj.theta[k]))
        np.testing.assert_allclose(rep.series[k], row, rtol=1e-13, atol=0)
    diss = sum(dt * (rep.series[k, 4] + rep.series[k, 5]) for k in range(1, nt + 1))
    fsq = sum(dt * g.norm2(src.at(k)[0]) ** 2 for k in range(nt))
    hsq = sum(dt * g.norm2(src.at(k)[1]) ** 2 for k in range(nt))
    data = np.sqrt(fsq) + np.sqrt(hsq) + g.norm2(prob.u0) + g.norm2(prob.theta0)
    assert math.isclose(rep.dissipation, diss, rel_tol=1e-13)
    assert math.isclose(rep.data_norm, data, rel_tol=1e-13)

    s = 4
    mis_u = sum(dt * g.norm_lp(base.u[k] - tgt.u_d, s) ** s for k in range(1, nt + 1))
    mis_t = sum(dt * g.norm_lp(base.theta[k] - tgt.theta_d, s) ** s for k in range(1, nt + 1))
    adj0 = prob.adjoint(ctrl)
    sup = max(g.grad_inf(adj0.u[k]) + g.grad_inf(adj0.theta[k])
              for k in range(nt + 1))
    mis, got_sup, _, margin = tracking_margin(prob, ctrl, s)
    assert math.isclose(mis, mis_u ** (1 / s) + mis_t ** (1 / s), rel_tol=1e-13)
    assert got_sup == sup
    assert margin == min(w.alpha1, w.alpha2) - 2.0 * sup


def test_source_fields_and_restrict_adjoint_are_transposes(grid_rect):
    g = grid_rect
    rng = np.random.default_rng(12)
    prob = _problem(g, rng)
    nt = prob.tg.nt
    ctrl = rand_control(prob.space, rng)
    W = g.vec2(nt)
    W.u[:] = rng.standard_normal(W.u.shape)
    W.v[:] = rng.standard_normal(W.v.shape)
    W.zero_normal_boundary()
    Psi = rng.standard_normal((nt, g.nx, g.ny))
    src = ControlSources(ctrl)
    f, h = g.vec2(nt), g.scalar(nt)
    for k in range(nt):
        f[k], h[k] = src.at(k)
    assert f.u.shape == (nt, g.nx + 1, g.ny) and h.shape == (nt, g.nx, g.ny)
    q, th = restrict_adjoint(prob.space, W, Psi)
    lhs = g.inner(f, W) + g.inner(h, Psi)
    rhs = g.vol * (np.sum(ctrl.q * q) + np.sum(ctrl.th * th))
    assert math.isclose(lhs, rhs, rel_tol=1e-13)


def test_single_level_vec2_has_no_level_axis(grid8):
    w = grid8.vec2()
    with pytest.raises(TypeError):
        w[0]
    with pytest.raises(TypeError):
        len(w)
    assert len(grid8.vec2(3)) == 3


def test_trajectory_levels_are_views(grid8):
    rng = np.random.default_rng(13)
    tg = TimeGrid(0.1, 3)
    traj = solve_state(grid8, PhysicalParams(0.05, 0.02), tg,
                       SourceData(rand_vec2(grid8, rng), rand_scalar(grid8, rng)),
                       grid8.vec2(), grid8.scalar())
    assert traj.u.u.shape == (tg.nt + 1, grid8.nx + 1, grid8.ny)
    level = traj.u[2]
    level.u[3, 3] = 7.0
    traj.theta[1][4, 4] = -5.0
    assert traj.u.u[2, 3, 3] == 7.0 and traj.theta[1, 4, 4] == -5.0
    traj.u[1] = level
    assert np.array_equal(traj.u.v[1], traj.u.v[2])
