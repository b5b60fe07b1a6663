"""Optimizer and optimality-diagnostics tests."""

import dataclasses

import numpy as np
import pytest

from convecopt.grid import _dot
from convecopt.objective import Control, ControlSpace, Perturbation, _digest
from convecopt.optimizer import (OptOptions, SIGN_TOL, ViolationReport, project_box,
                                 kkt_residual_from_grad, bang_bang_fraction,
                                 projected_gradient,
                                 pointwise_sign_check, loglog_fit, fit_loglog,
                                 smallness_mass, measure_condition_estimate,
                                 adjoint_restriction_samples)

from conftest import make_problem, rand_control, restrict_adjoint, traced_peak


def test_project_box_elementwise_oracle():
    prob = make_problem()
    rng = np.random.default_rng(0)
    ctrl = rand_control(prob.space, rng, 3.0)
    p = project_box(ctrl)
    sp = prob.space
    assert np.array_equal(p.q, np.minimum(np.maximum(ctrl.q, sp.q_lo), sp.q_hi))
    assert np.array_equal(p.th, np.minimum(np.maximum(ctrl.th, sp.th_lo), sp.th_hi))


def test_project_box_idempotent_and_nonexpansive():
    prob = make_problem()
    rng = np.random.default_rng(1)
    a = rand_control(prob.space, rng, 3.0)
    b = rand_control(prob.space, rng, 3.0)
    pa, pb = project_box(a), project_box(b)
    assert np.array_equal(project_box(pa).q, pa.q)
    dp, d = pa.axpy(-1.0, pb), a.axpy(-1.0, b)
    assert dp.dot_l2(dp) <= d.dot_l2(d) + 1e-14


def test_kkt_residual_elementwise_oracle():
    prob = make_problem()
    rng = np.random.default_rng(2)
    ctrl = project_box(rand_control(prob.space, rng, 2.0))
    grad = rand_control(prob.space, rng)
    sp = prob.space
    w = sp.tg.dt * sp.grid.vol
    rq = ctrl.q - np.clip(ctrl.q - grad.q, sp.q_lo, sp.q_hi)
    rt = ctrl.th - np.clip(ctrl.th - grad.th, sp.th_lo, sp.th_hi)
    num = w * (np.abs(rq).sum() + np.abs(rt).sum())
    den = 1.0 + w * (np.abs(grad.q).sum() + np.abs(grad.th).sum())
    assert np.isclose(kkt_residual_from_grad(ctrl, grad), num / den, rtol=1e-14)


def test_kkt_residual_zero_at_interior_stationary_point():
    prob = make_problem()
    ctrl = prob.space.zero()
    grad = prob.space.zero()
    assert kkt_residual_from_grad(ctrl, grad) == 0.0


def test_projected_gradient_converges_on_convex_problem():
    prob = make_problem(coupling=False, eps1=1e-2, eps2=1e-2)
    opts = OptOptions(max_iters=300, kkt_tol=1e-7)
    res = projected_gradient(prob, prob.space.zero(), opts)
    assert res.termination == "kkt_tol"
    assert res.kkt_history[-1] <= 1e-7
    assert res.control.is_admissible()
    # objective never rises above the nonmonotone reference by construction;
    # final value is the lowest seen
    assert res.J_history[-1] == min(res.J_history)


def test_projected_gradient_zero_iterations_when_optimal():
    prob = make_problem(coupling=False, eps1=1e-2, eps2=1e-2)
    opts = OptOptions(max_iters=300, kkt_tol=1e-7)
    res = projected_gradient(prob, prob.space.zero(), opts)
    res2 = projected_gradient(prob, res.control, opts)
    assert res2.iterations == 0
    assert res2.termination == "kkt_tol"
    assert np.array_equal(res2.control.q, res.control.q)


def test_projected_gradient_deterministic():
    prob = make_problem()
    opts = OptOptions(max_iters=30, kkt_tol=1e-12)
    a = projected_gradient(prob, prob.space.zero(), opts)
    b = projected_gradient(prob, prob.space.zero(), opts)
    assert a.J_history == b.J_history
    assert np.array_equal(a.control.q, b.control.q)


def test_brute_force_optimality_on_micro_instance():
    # on a tiny instance, no sampled admissible direction may improve J to
    # first order beyond the KKT tolerance at the computed solution
    prob = make_problem(nx=4, ny=4, nt=3, coupling=False, eps1=1e-2, eps2=1e-2)
    opts = OptOptions(max_iters=400, kkt_tol=1e-9)
    res = projected_gradient(prob, prob.space.zero(), opts)
    assert res.kkt_history[-1] <= 1e-9
    J = prob.eval_J(res.control)
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = rand_control(prob.space, rng)
        cand = project_box(res.control.axpy(1e-4, d))
        assert prob.eval_J(cand) >= J - 1e-10


def test_bang_bang_fraction_trivial_cases():
    prob = make_problem()
    sp = prob.space
    ctrl = sp.zero()             # all interior (bounds are -1, 1)
    assert bang_bang_fraction(ctrl) == (0.0, 0.0)
    ctrl.q[:] = sp.q_hi
    ctrl.th[:] = sp.th_lo
    assert bang_bang_fraction(ctrl) == (1.0, 1.0)


def test_sign_check_flags_planted_violation():
    prob = make_problem(coupling=False, eps1=1e-2, eps2=1e-2)
    opts = OptOptions(max_iters=300, kkt_tol=1e-9)
    res = projected_gradient(prob, prob.space.zero(), opts)
    clean = pointwise_sign_check(prob, res.control)
    assert clean.mass_q <= 1e-12 and clean.mass_th <= 1e-12
    # move one interior entry: its gradient is no longer ~0 there
    bad = Control(prob.space, res.control.q.copy(), res.control.th.copy())
    bad.q[0, 0, 0] = 0.5 * (prob.space.q_lo + prob.space.q_hi)
    rep = pointwise_sign_check(prob, bad)
    assert rep.mass_q > 0


def test_loglog_fit_recovers_power_law():
    x = np.geomspace(1e-3, 1.0, 12)
    y = 3.5 * x ** 1.7
    slope, intercept, r2 = loglog_fit(x, y)
    assert abs(slope - 1.7) < 1e-12
    assert abs(np.exp(intercept) - 3.5) < 1e-12
    assert r2 == 1.0


def test_smallness_mass_counting_oracle():
    vals = np.array([0.0, 0.5, -0.2, 0.9, -1.5])
    assert smallness_mass(vals, 0.5, 2.0) == 2.0 * 3   # |v| <= 0.5: three entries


def test_measure_estimate_linear_field_has_unit_exponent():
    # |{ |x| <= eps }| = 2 eps for a uniform linear ramp: mu = 1 exactly
    x = np.linspace(-1.0, 1.0, 20001)
    eps = np.geomspace(1e-3, 1e-1, 10)
    fit = measure_condition_estimate(x, eps, 2.0 / len(x))
    assert fit.reliable
    assert abs(fit.mu_hat - 1.0) <= 0.02
    assert fit.r2 >= 0.999


def test_measure_estimate_zero_mass_marker():
    vals = np.full(100, 5.0)    # bounded away from zero
    eps = np.geomspace(1e-3, 1e-1, 6)
    fit = measure_condition_estimate(vals, eps, 1.0)
    assert np.isinf(fit.mu_hat)
    assert np.all(fit.mass == 0.0)


def test_measure_estimate_mass_is_monotone():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(500)
    eps = np.geomspace(1e-2, 1.0, 8)
    fit = measure_condition_estimate(vals, eps, 1.0)
    assert np.all(np.diff(fit.mass) >= 0)


def test_measure_estimate_validates_grid():
    with pytest.raises(ValueError):
        measure_condition_estimate(np.ones(5), np.array([0.1]), 1.0)
    with pytest.raises(ValueError):
        measure_condition_estimate(np.ones(5), np.array([0.1, 0.05]), 1.0)


@pytest.mark.parametrize("kappa,eps", [(0.5, np.geomspace(1e-4, 1e-1, 10)),
                                       (2.0, np.geomspace(1e-1, 9e-1, 10))])
def test_measure_estimate_recovers_the_exponent_of_a_power_field(kappa, eps):
    # |{ |x|^(1/kappa) <= eps }| = 2 eps^kappa on [-1, 1]: mu = kappa, on
    # masses from 1 % to 81 % of the region
    x = np.linspace(-1.0, 1.0, 20001)
    fit = measure_condition_estimate(np.abs(x) ** (1.0 / kappa), eps, 2.0 / len(x))
    assert fit.reliable and fit.n_used == len(eps)
    assert abs(fit.mu_hat - kappa) <= 0.02 * kappa


@pytest.mark.parametrize("eps,n_used", [([3.0, 4.0, 5.0], 0),
                                        ([0.5, 1.5, 2.5, 3.5, 4.5], 2)],
                         ids=["all-saturated", "two-points"])
def test_measure_estimate_on_fewer_than_three_points_is_unreliable(eps, n_used):
    # the masses of {1, 2, 3} saturate from eps = 3 on, so these grids leave
    # no unsaturated positive mass, or exactly two (whose R^2 is 1 regardless)
    fit = measure_condition_estimate(np.array([1.0, 2.0, 3.0]), np.array(eps), 1.0)
    assert fit.n_used == n_used
    assert not fit.reliable and not fit.vacuous


def test_two_points_are_reliable_where_two_are_enough():
    # the two unsaturated masses of the two-point measure curve above, fit
    # once with the measure fit's three points and once with two
    measure = measure_condition_estimate(np.array([1.0, 2.0, 3.0]),
                                         np.array([0.5, 1.5, 2.5, 3.5, 4.5]), 1.0)
    pair = fit_loglog(measure.eps, measure.mass, measure.mass < 3.0)
    assert (measure.n_used, measure.min_points, pair.n_used, pair.min_points) == (2, 3, 2, 2)
    assert (pair.slope, pair.r2) == (measure.slope, measure.r2) and pair.r2 == 1.0
    assert pair.reliable and not measure.reliable
    assert pair.describe() == f"{pair.slope:.4f} (R^2 1.0000)" and pair.reported(0.5) == 0.5
    assert measure.describe() == measure.reported(0.5) == "no reliable fit"


@pytest.mark.parametrize("x,y", [([1.0, 2.0, 4.0], [3.0, np.nan, 0.0]),
                                 ([0.0, -1.0, 4.0], [3.0, 2.0, 1.0])])
def test_fit_loglog_below_two_positive_points_has_no_slope(x, y):
    fit = fit_loglog(x, y, min_points=1)
    assert fit.n_used == 1 and np.isnan(fit.slope) and fit.r2 == 0.0
    assert not fit.reliable


@pytest.mark.parametrize("x,y,keep", [([0.1, 0.1], [1e-3, 1e-3], True),
                                      ([0.1, 0.1, 0.01], [1e-3, 2e-3, 5e-5],
                                       [True, True, False])])
def test_fit_loglog_on_one_abscissa_has_no_slope(x, y, keep):
    # two remainders at one t (the third masked off) say nothing of a slope
    fit = fit_loglog(x, y, np.array(keep))
    assert fit.n_used == 2 and np.isnan(fit.slope) and np.isnan(fit.intercept)
    assert fit.r2 == 0.0 and not fit.reliable


def test_loglog_fit_matches_the_lstsq_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        decades = rng.uniform(1, 4)
        x = rng.uniform(0.01, 1) * 10.0 ** np.r_[0.0, decades, rng.uniform(0, decades, n - 2)]
        y = rng.uniform(0.1, 10) * x ** rng.uniform(0.5, 3) * np.exp(0.1 * rng.standard_normal(n))
        lx, ly = np.log(x), np.log(y)
        A = np.vstack([lx, np.ones_like(lx)]).T
        coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
        r2 = 1.0 - np.sum((ly - A @ coef) ** 2) / np.sum((ly - ly.mean()) ** 2)
        slope, intercept, got_r2 = loglog_fit(x, y)
        # the intercept is the difference of two terms of this size
        scale = abs(ly.mean()) + abs(coef[0] * lx.mean())
        assert abs(slope - coef[0]) <= 1e-12 * abs(coef[0])
        assert abs(intercept - coef[1]) <= 1e-12 * scale
        assert abs(got_r2 - r2) <= 1e-12
        _, _, exact_r2 = loglog_fit(x, 2.0 * x ** 1.5)
        assert abs(exact_r2 - 1.0) <= 1e-14


def test_adjoint_samples_shapes():
    prob = make_problem()
    ctrl = prob.space.zero()
    w1, w2, ps = adjoint_restriction_samples(prob, ctrl)
    assert w1.shape == (prob.tg.nt, prob.space.mask_q.ncells)
    assert w2.shape == w1.shape
    assert ps.shape == (prob.tg.nt, prob.space.mask_h.ncells)
    # the tracking problem has nonzero misfit, so the adjoint is nontrivial
    assert np.abs(w1).max() + np.abs(w2).max() + np.abs(ps).max() > 0


def test_options_validation():
    with pytest.raises(ValueError):
        OptOptions(kkt_tol=0.0)
    with pytest.raises(ValueError):
        OptOptions(backtrack=1.5)


def warmed_problem():
    """A fresh 32^2, nt = 100 problem on a grid warmed up by one SPG run."""
    warm = make_problem(nx=32, ny=32, T=0.5, nt=100)
    projected_gradient(warm, warm.space.zero(), OptOptions(max_iters=1))
    return dataclasses.replace(warm)        # empty caches, the warmed-up grid


def test_projected_gradient_peak_holds_no_full_adjoint():
    # six iterations with their caches (one state, one gradient), per-step
    # sources and no misfit or right-hand side stacks peak at 2.75
    # trajectories at 32^2, nt = 100; with one cached full adjoint they
    # peaked at 3.75, with two cached states, source and misfit stacks at
    # 5.30, with two cached adjoints and stacked right-hand sides at 7.35
    prob = warmed_problem()
    opts = OptOptions(max_iters=6, kkt_tol=1e-12)
    res = []

    def solve():
        res.append(projected_gradient(prob, prob.space.zero(), opts))

    peak = traced_peak(solve, prob.grid, prob.tg.nt)
    assert res[0].iterations == 6
    assert peak <= 2.9, peak


def test_gradient_at_the_zero_control_holds_one_trajectory():
    # the state sweep and then the gradient sweep, which keeps only the
    # control-region windows of each adjoint level: 1.73 trajectories at
    # 32^2, nt = 100, where storing the full adjoint peaked at 2.50
    prob = warmed_problem()
    peak = traced_peak(lambda: prob.grad_J(prob.space.zero()), prob.grid, prob.tg.nt)
    assert peak <= 1.9, peak


def test_projected_gradient_sweeps_one_adjoint_per_iteration(sweeps):
    # one gradient at the start point and one at each accepted trial; the
    # trials themselves sweep the state only
    prob = make_problem()
    res = projected_gradient(prob, prob.space.zero(), OptOptions(max_iters=6, kkt_tol=1e-12))
    assert res.iterations == 6
    assert sweeps["adjoint"] == 1 + res.iterations


# q in [-0.5, 2.0], theta in [-3.0, 0.25]: each box holds values the other's
# excludes, so a rule that reads the other component's box shows
BOXES = (-0.5, 2.0, -3.0, 0.25)


def asymmetric_problem():
    """The BOXES problem with eps1 != eps2 and the tilts sigma and lam set,
    and the same problem without Tikhonov weights or tilts."""
    base = make_problem()
    sp = base.space
    base = dataclasses.replace(base, space=ControlSpace(sp.grid, sp.tg, sp.mask_q,
                                                        sp.mask_h, *BOXES))
    rng = np.random.default_rng(7)
    pert = Perturbation(sigma=0.1 * rng.standard_normal((2, sp.mask_q.ncells)),
                        lam=0.1 * rng.standard_normal(sp.mask_h.ncells),
                        eps1=0.01, eps2=0.003)
    weights = dataclasses.replace(base.weights, eps1=0.02, eps2=0.05)
    return dataclasses.replace(base, weights=weights).perturbed(pert), base


def test_the_control_space_keeps_each_components_box():
    prob, _ = asymmetric_problem()
    sp = prob.space
    q_lo, q_hi, th_lo, th_hi = BOXES
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.q_lo = 3.0
    for bad in ((1.0, 0.0, -1.0, 1.0), (-1.0, 1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            ControlSpace(sp.grid, sp.tg, sp.mask_q, sp.mask_h, *bad)
    assert sp.bounds == ((q_lo, q_hi), (th_lo, th_hi))
    assert sp.m_u == max(abs(q_lo), abs(q_hi), abs(th_lo), abs(th_hi))
    u = sp.uniform(np.random.default_rng(9))
    rng = np.random.default_rng(9)
    assert np.array_equal(u.q, rng.uniform(q_lo, q_hi, u.q.shape))
    assert np.array_equal(u.th, rng.uniform(th_lo, th_hi, u.th.shape))
    raw = rand_control(sp, np.random.default_rng(8), 3.0)
    ctrl = project_box(raw)
    assert np.array_equal(ctrl.q, np.clip(raw.q, q_lo, q_hi))
    assert np.array_equal(ctrl.th, np.clip(raw.th, th_lo, th_hi))
    assert ctrl.parts[0] is ctrl.q and ctrl.parts[1] is ctrl.th
    assert ctrl.hash() == _digest(ctrl.q, ctrl.th)
    assert ctrl.is_admissible()
    # a value inside the other component's box only
    c = Control(sp, ctrl.q.copy(), ctrl.th.copy())
    c.q[0, 0, 0] = -1.0
    assert not c.is_admissible()
    c = Control(sp, ctrl.q.copy(), ctrl.th.copy())
    c.th[0, 0] = 1.0
    assert not c.is_admissible()
    bq = 1e-6 * (q_hi - q_lo)
    bt = 1e-6 * (th_hi - th_lo)
    fq = float(np.count_nonzero((ctrl.q <= q_lo + bq) | (ctrl.q >= q_hi - bq))) / ctrl.q.size
    ft = float(np.count_nonzero((ctrl.th <= th_lo + bt) | (ctrl.th >= th_hi - bt))) / ctrl.th.size
    assert 0.0 < fq < 1.0 and 0.0 < ft < 1.0
    assert bang_bang_fraction(ctrl) == (fq, ft)


def test_the_digest_is_sha256_over_each_arrays_c_order_bytes():
    # read from the buffer, with no copy unless the array is not C-contiguous
    import hashlib
    import tracemalloc
    from convecopt.grid import Vec2
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 3))
    w = Vec2(rng.standard_normal((4, 3)), rng.standard_normal((3, 4)).T)

    def sha(*parts):
        return hashlib.sha256(b"".join(p if isinstance(p, bytes) else p.tobytes()
                                       for p in parts)).hexdigest()

    assert not a.T.flags.c_contiguous and not w.v.flags.c_contiguous
    assert _digest(a) == sha(a, b"|")
    assert _digest(a.T) == sha(a.T, b"|")
    assert _digest(w, None, a.T) == sha(w.u, w.v, b"|", b"|", a.T, b"|")
    big = rng.standard_normal(1 << 16)
    tracemalloc.start()
    try:
        _digest(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.nbytes // 8, peak


def test_each_component_takes_its_own_weight_tilt_and_box():
    prob, base = asymmetric_problem()
    sp, (sigma, lam) = prob.space, prob.tilt
    q_lo, q_hi, th_lo, th_hi = BOXES
    eps1, eps2 = 0.02 + 0.01, 0.05 + 0.003
    wq = sp.tg.dt * sp.grid.vol
    rng = np.random.default_rng(10)
    ctrl = project_box(rand_control(sp, rng, 3.0))
    ref = base.eval_J(ctrl)
    ref += 0.5 * eps1 * wq * _dot(ctrl.q, ctrl.q)
    ref += 0.5 * eps2 * wq * _dot(ctrl.th, ctrl.th)
    ref += wq * _dot(np.broadcast_to(sigma, ctrl.q.shape), ctrl.q)
    ref += wq * _dot(np.broadcast_to(lam, ctrl.th.shape), ctrl.th)
    assert prob.eval_J(ctrl) == ref
    adj = prob.adjoint(ctrl)
    gq, gt = restrict_adjoint(sp, adj.u[:-1], adj.theta[:-1])
    gq += eps1 * ctrl.q
    gt += eps2 * ctrl.th
    gq += sigma
    gt += lam
    g = prob.grad_J(ctrl)
    assert np.array_equal(g.q, gq) and np.array_equal(g.th, gt)
    d1, d2 = rand_control(sp, rng), rand_control(sp, rng)
    ref = base.second_bilinear(ctrl, d1, d2)
    ref += eps1 * wq * _dot(d1.q, d2.q)
    ref += eps2 * wq * _dot(d1.th, d2.th)
    assert prob.second_bilinear(ctrl, d1, d2) == ref
    tik = Perturbation(eps1=0.3, eps2=0.2)
    assert tik.norm_P(sp.grid, ctrl) == (0.3 * float(np.abs(ctrl.q).max(initial=0.0))
                                         + 0.2 * float(np.abs(ctrl.th).max(initial=0.0)))
    tol = SIGN_TOL
    bq = 1e-9 * max(q_hi - q_lo, 1.0)
    bt = 1e-9 * max(th_hi - th_lo, 1.0)
    lower, upper = ctrl.q <= q_lo + bq, ctrl.q >= q_hi - bq
    bad_q = ((lower & (g.q < -tol)) | (upper & (g.q > tol))
             | (~(lower | upper) & (np.abs(g.q) > tol)))
    lower, upper = ctrl.th <= th_lo + bt, ctrl.th >= th_hi - bt
    bad_t = ((lower & (g.th < -tol)) | (upper & (g.th > tol))
             | (~(lower | upper) & (np.abs(g.th) > tol)))
    assert np.any(bad_q) and np.any(bad_t)
    assert pointwise_sign_check(prob, ctrl) == ViolationReport(
        wq * float(np.count_nonzero(bad_q)), wq * float(np.count_nonzero(bad_t)),
        wq * bad_q.size, wq * bad_t.size)


def test_the_lab_draws_each_component_in_its_own_box():
    from convecopt.stability_lab import _random_directions, make_perturbation
    prob, _ = asymmetric_problem()
    sp = prob.space
    q_lo, q_hi, th_lo, th_hi = BOXES
    rng = np.random.default_rng(5)
    sigma = rng.standard_normal((2, sp.mask_q.ncells))
    sigma *= 0.4 / max(np.abs(sigma).max(), 1e-300)
    lam = rng.standard_normal(sp.mask_h.ncells)
    lam *= 0.4 / max(np.abs(lam).max(), 1e-300)
    tilt = make_perturbation(prob, "control-tilt", 0.4, 5)
    assert np.array_equal(tilt.sigma, sigma) and np.array_equal(tilt.lam, lam)
    star = project_box(rand_control(sp, np.random.default_rng(11), 3.0))
    dirs = _random_directions(prob, star, 4, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    for i, (d, kind) in enumerate(dirs):
        if i % 2 == 0:
            vq = np.where(rng.random(star.q.shape) < 0.5, q_lo, q_hi)
            vt = np.where(rng.random(star.th.shape) < 0.5, th_lo, th_hi)
        else:
            vq = np.clip(star.q + rng.standard_normal(star.q.shape), q_lo, q_hi)
            vt = np.clip(star.th + rng.standard_normal(star.th.shape), th_lo, th_hi)
        assert kind == ("smooth" if i % 2 else "vertex")
        assert np.array_equal(d.q, vq - star.q) and np.array_equal(d.th, vt - star.th)
    assert len(dirs) == 4
