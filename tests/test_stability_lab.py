"""Stability-laboratory tests: perturbation families, sweeps, continuation."""

import numpy as np
import pytest

from convecopt.grid import fourier_scalar, fourier_vec2
from convecopt.objective import Perturbation, Problem
from convecopt.optimizer import OptOptions
from convecopt.stability_lab import (make_perturbation, KNOWN_FAMILIES,
                                     control_distance_l1, state_distance_l2,
                                     state_distance_linf, adjoint_gradient_gap,
                                     solve_perturbed, SweepPlan, stability_sweep,
                                     tikhonov_path, growth_probe,
                                     tracking_margin,
                                     second_order_stability_check,
                                     default_trust_radius)

from conftest import (make_problem, rand_control, traced_peak,
                      state_distance_l2_stacked, tracking_misfit_stacked,
                      second_pairing_stacked)


def solved_problem(**kw):
    prob = make_problem(coupling=False, eps1=1e-2, eps2=1e-2, **kw)
    opts = OptOptions(max_iters=300, kkt_tol=1e-8)
    res = solve_perturbed(prob, prob.space.zero(), opts)
    return prob, res.control, opts


def test_fourier_fields_are_seeded_and_normalized(grid8):
    a = fourier_scalar(grid8, np.random.default_rng(5))
    b = fourier_scalar(grid8, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert np.isclose(grid8.norm2(a), 1.0, rtol=1e-12)
    w = fourier_vec2(grid8, np.random.default_rng(5), div_free=True)
    assert grid8.norm_lp(grid8.divergence(w), np.inf) <= 1e-10
    assert np.isclose(grid8.norm2(w), 1.0, rtol=1e-12)


def test_all_perturbation_families_construct():
    prob = make_problem()
    ctrl = rand_control(prob.space, np.random.default_rng(0))
    for fam in KNOWN_FAMILIES:
        pert = make_perturbation(prob, fam, 0.1, 0)
        assert pert.norm_P(prob.grid, ctrl) > 0
    with pytest.raises(ValueError, match="unknown perturbation family"):
        make_perturbation(prob, "volcano", 0.1, 0)


def test_distances_vanish_at_equal_arguments():
    prob = make_problem()
    rng = np.random.default_rng(0)
    ctrl = rand_control(prob.space, rng)
    assert control_distance_l1(ctrl, ctrl) == 0.0
    traj = prob.state(ctrl)
    assert state_distance_l2(prob, traj, traj) == 0.0
    assert state_distance_linf(traj, traj) == 0.0
    adj = prob.adjoint(ctrl)
    assert adjoint_gradient_gap(prob, adj, adj) == 0.0


def test_sup_distances_reduce_level_by_level():
    # bit for bit the whole-stack reductions, with no trajectory-sized
    # temporary: at 32^2, nt 100 each peaks far below one trajectory
    from convecopt.boussinesq import StateTrajectory
    from convecopt.grid import Vec2
    prob = make_problem(nx=32, ny=32, nt=100)
    g, nt = prob.grid, prob.tg.nt
    rng = np.random.default_rng(31)
    ta, tb = (StateTrajectory(Vec2(rng.standard_normal((nt + 1, g.nx + 1, g.ny)),
                                   rng.standard_normal((nt + 1, g.nx, g.ny + 1))),
                              rng.standard_normal((nt + 1, g.nx, g.ny)))
              for _ in range(2))
    got = []
    peak_linf = traced_peak(lambda: got.append(state_distance_linf(ta, tb)), g, nt)
    peak_gap = traced_peak(lambda: got.append(adjoint_gradient_gap(prob, ta, tb)), g, nt)
    assert got == [(ta.u - tb.u).max_abs(),
                   max(g.grad_inf(ta.u - tb.u), g.grad_inf(ta.theta - tb.theta))]
    assert peak_linf <= 0.1 and peak_gap <= 0.1, (peak_linf, peak_gap)


@pytest.mark.parametrize("s_norm", [2, 4])
@pytest.mark.parametrize("ny", [8, 6], ids=["square", "anisotropic"])
def test_streamed_reductions_match_the_whole_stack_forms(ny, s_norm):
    # reduced one level at a time, each sums in another order than its
    # whole-stack form, so they agree to roundoff
    import math
    prob = make_problem(ny=ny)
    prob = prob.perturbed(make_perturbation(prob, "target-shift", 0.1, 3))
    g, dt = prob.grid, prob.tg.dt
    rng = np.random.default_rng(40)
    a, b, d1, d2 = (rand_control(prob.space, rng) for _ in range(4))
    tb = prob.state(b)
    ta = prob.state(a)
    assert math.isclose(state_distance_l2(prob, ta, tb),
                        state_distance_l2_stacked(prob, ta, tb), rel_tol=1e-13)
    assert math.isclose(tracking_margin(prob, a, s_norm)[0],
                        tracking_misfit_stacked(prob, ta, s_norm), rel_tol=1e-13)
    adj = prob.adjoint(a)
    lin1, lin2 = prob.tangent(a, d1), prob.tangent(a, d2)
    for e, l2 in ((d1, lin1), (d2, lin2)):
        ref = dt * (g.inner(lin1.u[1:], l2.u[1:]) + g.inner(lin1.theta[1:], l2.theta[1:]))
        ref += second_pairing_stacked(prob, adj, lin1, l2)
        assert math.isclose(prob.second_bilinear(a, d1, e, lin1, l2), ref, rel_tol=1e-13)


def test_every_lab_reduction_streams():
    # at 32^2, nt 100, with the state and the adjoint cached, no reduction
    # holds a trajectory-sized temporary: the whole-stack state distance,
    # tracking misfit and J'' pairing peaked at 2.00, 3.00 and 1.02
    # trajectories, and a sweep point's stored adjoint at 1 more
    from convecopt.stability_lab import _gradient_gap
    prob = make_problem(nx=32, ny=32, T=0.5, nt=100)
    g, nt = prob.grid, prob.tg.nt
    rng = np.random.default_rng(41)
    a, b, delta = (rand_control(prob.space, rng) for _ in range(3))
    tb = prob.state(b)
    ta = prob.state(a)
    adj = prob.adjoint(a)
    lin = prob.tangent(a, delta)
    peaks = {
        "state_distance_l2": traced_peak(lambda: state_distance_l2(prob, ta, tb), g, nt),
        "tracking_margin": traced_peak(lambda: tracking_margin(prob, a), g, nt),
        "second_variation": traced_peak(
            lambda: prob.second_variation(a, delta, lin=lin), g, nt),
        # b's adjoint is nowhere at hand: swept into the gap, never stored
        "gap_sink": traced_peak(lambda: prob.adjoint(b, _gradient_gap(prob, adj)), g, nt),
    }
    assert all(p <= 0.5 for p in peaks.values()), peaks


def test_zero_perturbation_is_a_fixed_point():
    prob, ctrl, opts = solved_problem()
    res = solve_perturbed(prob, ctrl, opts)
    assert res.iterations == 0
    assert np.array_equal(res.control.q, ctrl.q)
    assert np.array_equal(res.control.th, ctrl.th)


def test_sweep_report_structure_and_zero_record():
    prob, ctrl, opts = solved_problem()
    plan = SweepPlan("control-tilt", np.array([1e-2, 1e-1]), seed=1)
    rep = stability_sweep(prob, ctrl, plan, opts)
    assert len(rep.records) == 3
    z = rep.records[0]
    assert z.magnitude == 0.0 and z.control_dist_l1 == 0.0
    assert z.termination == "reference"
    mags = [r.magnitude for r in rep.records]
    assert mags == sorted(mags)
    # larger perturbations move the solution further
    assert rep.records[2].control_dist_l1 >= rep.records[1].control_dist_l1


def test_sweep_thread_count_does_not_change_output(sweeps):
    # SweepPlan.threads is accepted and ignored: the points run in one loop
    # on the problem's caches, so neither the records nor the number of
    # forward and adjoint sweeps depend on it.  A control tilt leaves the
    # state key unchanged, so its points start from the cached reference.
    mags = np.array([1e-2, 3e-2, 1e-1])
    for family in ("source", "control-tilt"):
        reps, counts = [], []
        for threads in (1, 4):
            prob, ctrl, opts = solved_problem()
            before = dict(sweeps)
            reps.append(stability_sweep(
                prob, ctrl, SweepPlan(family, mags, seed=2, threads=threads), opts))
            counts.append({k: sweeps[k] - before[k] for k in sweeps})
        rep1, rep4 = reps
        for a, b in zip(rep1.records, rep4.records):
            assert a == b
        assert rep1.control_fit == rep4.control_fit
        assert counts[0] == counts[1], family


def test_default_sweep_points_start_from_the_held_reference(sweeps, tmp_path):
    # a control tilt leaves the state and adjoint keys of the reference
    # unchanged, and the sweep holds both, so every point after the first
    # starts without a sweep: 88 forward and 92 adjoint sweeps.  The solves
    # keep only gradients, so the reference and each of the six points
    # sweep their adjoint once more for the distances, each point's
    # straight into its gradient gap (85 when every
    # gradient kept its full adjoint; a cache of two states and one adjoint
    # with no view of held ones made 93 and 90)
    from convecopt.cli import run_command
    from convecopt.config import from_dict
    assert run_command("stability-sweep", from_dict({}), str(tmp_path / "s")) == 0
    assert sweeps == {"state": 88, "adjoint": 92}


def test_serial_sweep_reference_reuses_the_base_adjoint(monkeypatch):
    # the reference record's gradient is taken before the points evict the
    # reference control from the caches, so it costs no sweep;
    # taken after them, it cost a serial sweep one forward and one adjoint
    from convecopt import objective, sensitivity
    prob, ctrl, opts = solved_problem()
    calls = {"forward": 0, "adjoint": 0}

    def counted(kind, fn):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(objective, "solve_state", counted("forward", objective.solve_state))
    monkeypatch.setattr(sensitivity, "solve_adjoint",
                        counted("adjoint", sensitivity.solve_adjoint))
    grad_J, reference_cost = Problem.grad_J, []

    def spy(self, c):
        # only the reference's gradient: the points run on perturbed copies,
        # which share prob's caches but are other instances
        if self is not prob:
            return grad_J(self, c)
        before = dict(calls)
        g = grad_J(self, c)
        reference_cost.append({k: calls[k] - before[k] for k in calls})
        return g

    monkeypatch.setattr(Problem, "grad_J", spy)
    plan = SweepPlan("source", np.array([1e-2, 3e-2, 1e-1]), seed=2)
    stability_sweep(prob, ctrl, plan, opts)
    assert reference_cost == [{"forward": 0, "adjoint": 0}]
    assert calls["forward"] > 3 and calls["adjoint"] > 3


def test_sweep_plan_validates_magnitudes():
    with pytest.raises(ValueError):
        SweepPlan("source", np.array([0.1, 0.05]))
    with pytest.raises(ValueError):
        SweepPlan("source", np.array([-0.1, 0.2]))


def test_cold_start_records_are_flagged():
    prob, ctrl, opts = solved_problem()
    plan = SweepPlan("source", np.array([1e-2, 1e-1]), seed=3,
                     warm_start=False)
    rep = stability_sweep(prob, ctrl, plan, opts)
    for rec in rep.records[1:]:
        assert "non-local" in rec.flags


@pytest.mark.parametrize("warm_start, flags", [
    (True, "unconverged"), (False, "cold-start;non-local;unconverged")])
def test_an_unconverged_point_is_flagged_without_a_stray_separator(warm_start, flags):
    prob, ctrl, _ = solved_problem()
    plan = SweepPlan("source", np.array([1e-2, 1e-1]), seed=3, warm_start=warm_start)
    rep = stability_sweep(prob, ctrl, plan, OptOptions(max_iters=1))
    for rec in rep.records[1:]:
        assert rec.termination == "max_iters"
        assert rec.flags == flags


def test_default_trust_radius_positive():
    prob = make_problem()
    assert default_trust_radius(prob) > 0


def test_tikhonov_path_consistency_with_direct_solve():
    # the path point at eps must agree with an independent perturbed solve
    prob = make_problem(coupling=False, eps1=1e-2, eps2=1e-2)
    opts = OptOptions(max_iters=600, kkt_tol=1e-12)
    base = solve_perturbed(prob, prob.space.zero(), opts)
    ctrl = base.control
    eps_grid = [1e-2, 1e-3, 0.0]
    rep = tikhonov_path(prob, ctrl, eps_grid, opts)
    assert [p.eps for p in rep.points] == eps_grid
    direct = solve_perturbed(prob.perturbed(Perturbation(eps1=1e-2, eps2=1e-2)),
                             ctrl, opts)
    assert abs(rep.points[0].control_dist_l1
               - control_distance_l1(direct.control, ctrl)) <= 1e-12
    # trailing zero reproduces the base solution
    assert rep.points[-1].control_dist_l1 <= 1e-8


def test_tikhonov_path_validates_grid():
    prob, ctrl, opts = solved_problem()
    with pytest.raises(ValueError):
        tikhonov_path(prob, ctrl, [1e-3, 1e-2], opts)
    with pytest.raises(ValueError):
        tikhonov_path(prob, ctrl, [1e-2, -1e-3], opts)


def test_tracking_margin_components():
    prob, ctrl, _ = solved_problem()
    mis, sup, delta_hat, margin = tracking_margin(prob, ctrl)
    assert mis > 0 and sup > 0
    assert np.isclose(delta_hat, 2.0 * sup / mis, rtol=1e-12)
    assert np.isclose(margin,
                      min(prob.weights.alpha1, prob.weights.alpha2) - 2 * sup,
                      rtol=1e-12)


def test_growth_probe_structure():
    prob, ctrl, opts = solved_problem()
    rep = growth_probe(prob, ctrl, 4, [0.1, 0.3], seed=0)
    assert rep.variant == "control"
    assert set(rep.min_ratio_per_radius) == {0.1, 0.3}
    kinds = {s.kind for s in rep.samples}
    assert kinds == {"vertex", "smooth"}
    with pytest.raises(ValueError):
        growth_probe(prob, ctrl, 4, [0.1], seed=0, variant="bogus")


def test_growth_probe_state_variant():
    prob, ctrl, opts = solved_problem()
    rep = growth_probe(prob, ctrl, 2, [0.2], seed=1, variant="state", tau=1.0)
    assert rep.variant == "state" and rep.tau == 1.0
    assert all(s.rhs >= 0 for s in rep.samples)


def test_second_order_check_skips_on_negative_margin():
    prob, ctrl, opts = solved_problem()
    tracking = tracking_margin(prob, ctrl)
    margin = tracking[-1]
    pert = make_perturbation(prob, "control-tilt", 1e-3, 5)
    rep = second_order_stability_check(prob, ctrl, pert, 3, 0, opts, tracking)
    if margin <= 0:
        assert rep.skipped
        assert rep.margin == margin
        assert "margin" in rep.reason
    else:
        assert not rep.skipped
        assert rep.min_ratio > 0


def test_second_order_check_runs_when_margin_positive():
    # with a tiny target the adjoint is small, so the margin is positive
    prob = make_problem(coupling=False, eps1=1e-2, eps2=1e-2,
                        target_scale=0.01)
    opts = OptOptions(max_iters=300, kkt_tol=1e-8)
    res = solve_perturbed(prob, prob.space.zero(), opts)
    tracking = tracking_margin(prob, res.control)
    assert tracking[-1] > 0
    pert = make_perturbation(prob, "control-tilt", 1e-4, 6)
    rep = second_order_stability_check(prob, res.control, pert, 3, 0, opts, tracking)
    assert not rep.skipped
    assert rep.zeta_norm > 0
    assert rep.smallness > rep.zeta_norm
    assert rep.min_ratio > 0     # convex surrogate: curvature is positive


def test_each_lab_point_builds_its_perturbed_problem_once(monkeypatch):
    # a sweep and the second-order check used to build each point's problem
    # twice: once to solve it and once to measure its state and adjoint
    prob = make_problem(coupling=False, eps1=1e-2, eps2=1e-2, target_scale=0.01)
    opts = OptOptions(max_iters=300, kkt_tol=1e-8)
    ctrl = solve_perturbed(prob, prob.space.zero(), opts).control
    tracking = tracking_margin(prob, ctrl)
    perturbed, calls = Problem.perturbed, []

    def counted(self, zeta):
        calls.append(zeta)
        return perturbed(self, zeta)

    monkeypatch.setattr(Problem, "perturbed", counted)
    stability_sweep(prob, ctrl, SweepPlan("source", np.array([1e-2, 3e-2, 1e-1]),
                                          seed=2), opts)
    assert len(calls) == 3
    tikhonov_path(prob, ctrl, [1e-2, 0.0], opts)
    assert len(calls) == 5
    pert = make_perturbation(prob, "control-tilt", 1e-4, 6)
    assert not second_order_stability_check(prob, ctrl, pert, 2, 0, opts,
                                            tracking).skipped
    assert len(calls) == 6 and calls[-1] is pert


def test_second_order_check_computes_the_tracking_margin_once(monkeypatch, tmp_path):
    # the command passes its margin to second_order_stability_check, which
    # used to compute it a second time
    from convecopt import stability_lab
    from convecopt.cli import run_command
    from convecopt.config import from_dict
    calls = []
    margin = stability_lab.tracking_margin

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return margin(*args, **kwargs)

    monkeypatch.setattr(stability_lab, "tracking_margin", counted)
    cfg = from_dict({"grid": {"nx": 8, "ny": 8}, "time": {"nt": 6}})
    assert run_command("second-order-check", cfg, str(tmp_path / "so")) == 0
    assert len(calls) == 1


def test_second_order_check_takes_the_reference_adjoint_from_the_cache(sweeps):
    # tracking_margin leaves ctrl_star's adjoint cached; taken before the
    # perturbed solve evicts it, the reference adjoint costs no sweep.
    # Taken after, it cost one forward and one adjoint sweep more.  The
    # perturbed solve keeps only gradients, so the perturbed optimum's full
    # adjoint is one sweep of its own (19 when every gradient kept it)
    prob = make_problem(target_scale=0.01)
    opts = OptOptions(max_iters=300, kkt_tol=1e-8)
    res = solve_perturbed(prob, prob.space.zero(), opts)
    tracking = tracking_margin(prob, res.control)
    pert = make_perturbation(prob, "control-tilt", 0.5 * tracking[-1], 6)
    sweeps.update(state=0, adjoint=0)
    rep = second_order_stability_check(prob, res.control, pert, 3, 0, opts, tracking)
    assert not rep.skipped
    assert sweeps == {"state": 22, "adjoint": 20}
