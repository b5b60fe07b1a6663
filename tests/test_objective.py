"""Objective, gradient, and second-variation tests."""

import dataclasses
import weakref

import numpy as np
import pytest

from convecopt.boussinesq import SourceData, _h1_semi_sq
from convecopt.grid import Vec2, _dot, fourier_scalar, fourier_vec2
from convecopt.objective import (ObjectiveWeights, Control, ControlSources, Perturbation,
                                 PERTURBATION_FIELDS, Problem, Targets, _digest)

from conftest import control_fields, make_problem, rand_control, restrict_adjoint, traced_peak


def state_key(prob, ctrl):
    """The state kind's key, from the explicit list of what the state
    depends on: the control, the sources and the initial data."""
    return (ctrl.hash(), _digest(prob.base_sources.f, prob.base_sources.h,
                                 prob.u0, prob.theta0))


def adjoint_key(prob, ctrl):
    """The adjoint and gradient kinds' key: the state's, then what the
    adjoint adds, the targets and the objective's tilts eta."""
    t = prob.targets
    return state_key(prob, ctrl) + (_digest(t.u_d, t.theta_d, t.u_T, t.theta_T,
                                            t.eta_u, t.eta_th),)


def test_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ObjectiveWeights(1.0, 1.0, eps1=-0.1)


def test_objective_is_nonnegative_without_tilts():
    prob = make_problem(eps1=0.01, eps2=0.01)
    rng = np.random.default_rng(0)
    for _ in range(3):
        ctrl = rand_control(prob.space, rng)
        assert prob.eval_J(ctrl) >= 0.0


def test_objective_quadrature_oracle():
    # with coupling disabled and zero control, J is the explicit quadrature
    # of the target misfit, computable directly from the zero trajectory
    prob = make_problem(coupling=False)
    ctrl = prob.space.zero()
    traj = prob.state(ctrl)
    g = prob.grid
    dt = prob.tg.dt
    ref = 0.0
    for k in range(1, prob.tg.nt + 1):
        du = traj.u[k] - prob.targets.u_d
        dth = traj.theta[k] - prob.targets.theta_d
        ref += 0.5 * dt * (g.norm2(du) ** 2 + g.norm2(dth) ** 2)
    assert np.isclose(prob.eval_J(ctrl), ref, rtol=1e-13)


def test_tikhonov_term_enters_objective():
    prob0 = make_problem()
    prob1 = make_problem(eps1=0.5, eps2=0.5)
    rng = np.random.default_rng(1)
    ctrl = rand_control(prob0.space, rng)
    ctrl1 = Control(prob1.space, ctrl.q.copy(), ctrl.th.copy())
    extra = prob1.eval_J(ctrl1) - prob0.eval_J(ctrl)
    wq = prob0.tg.dt * prob0.grid.vol
    ref = 0.5 * 0.5 * wq * (np.sum(ctrl.q ** 2) + np.sum(ctrl.th ** 2))
    assert np.isclose(extra, ref, rtol=1e-12)


def test_gradient_matches_central_differences():
    prob = make_problem()
    rng = np.random.default_rng(2)
    ctrl = rand_control(prob.space, rng, 0.3)
    g = prob.grad_J(ctrl)
    d = rand_control(prob.space, rng, 1.0)
    t = 1e-5
    fd = (prob.eval_J(ctrl.axpy(t, d)) - prob.eval_J(ctrl.axpy(-t, d))) / (2 * t)
    assert np.isclose(g.dot_l2(d), fd, rtol=1e-6)


def test_gradient_matches_central_differences_with_perturbation():
    prob = make_problem()
    rng = np.random.default_rng(3)
    from convecopt.stability_lab import make_perturbation
    pert = make_perturbation(prob, "source", 0.3, 11)
    pert.eps1 = 0.05
    pert.sigma = 0.1 * rng.standard_normal((2, prob.space.mask_q.ncells))
    pprob = prob.perturbed(pert)
    ctrl = rand_control(prob.space, rng, 0.3)
    g = pprob.grad_J(ctrl)
    d = rand_control(prob.space, rng, 1.0)
    t = 1e-5
    fd = (pprob.eval_J(ctrl.axpy(t, d))
          - pprob.eval_J(ctrl.axpy(-t, d))) / (2 * t)
    assert np.isclose(g.dot_l2(d), fd, rtol=1e-6)


def test_tikhonov_only_gradient_is_eps_times_control():
    # zero targets and alpha weights off except a tiny terminal term would be
    # invalid, so use alpha on zero targets with coupling off and zero state:
    # the gradient then reduces to the Tikhonov part exactly
    prob = make_problem(eps1=0.3, eps2=0.7, target_scale=0.0, coupling=False)
    rng = np.random.default_rng(4)
    ctrl = rand_control(prob.space, rng)
    g = prob.grad_J(ctrl)
    # state tracking of the control-driven flow also contributes; subtract
    # the gradient at the same control with eps = 0 to isolate the Tikhonov part
    prob0 = make_problem(target_scale=0.0, coupling=False)
    ctrl0 = Control(prob0.space, ctrl.q.copy(), ctrl.th.copy())
    g0 = prob0.grad_J(ctrl0)
    assert np.allclose(g.q - g0.q, 0.3 * ctrl.q, atol=1e-13)
    assert np.allclose(g.th - g0.th, 0.7 * ctrl.th, atol=1e-13)


def test_objective_taylor_first_and_second_order():
    prob = make_problem()
    rng = np.random.default_rng(5)
    ctrl = rand_control(prob.space, rng, 0.3)
    d = rand_control(prob.space, rng, 1.0)
    J0 = prob.eval_J(ctrl)
    dd = prob.grad_J(ctrl).dot_l2(d)
    j2 = prob.second_variation(ctrl, d)
    ts = [1e-1, 1e-2, 1e-3]
    r1 = [abs(prob.eval_J(ctrl.axpy(t, d)) - J0 - t * dd) for t in ts]
    # the cubic remainder reaches the roundoff floor below t ~ 1e-2 at this
    # problem size, so fit it on the resolvable part of the range
    ts2 = [1e-1, 3e-2, 1e-2]
    r2 = [abs(prob.eval_J(ctrl.axpy(t, d)) - J0 - t * dd - 0.5 * t * t * j2)
          for t in ts2]
    s1 = np.diff(np.log(r1)) / np.diff(np.log(ts))
    s2 = np.diff(np.log(r2)) / np.diff(np.log(ts2))
    assert np.all(np.abs(s1 - 2.0) < 0.1)
    assert np.all(np.abs(s2 - 3.0) < 0.2)


def test_second_variation_polarization():
    prob = make_problem()
    rng = np.random.default_rng(6)
    ctrl = rand_control(prob.space, rng, 0.3)
    d1 = rand_control(prob.space, rng)
    d2 = rand_control(prob.space, rng)
    # J''[d1 + d2] = J''[d1] + J''[d2] + 2 J''[d1, d2]
    both = prob.second_variation(ctrl, d1.axpy(1.0, d2))
    a = prob.second_variation(ctrl, d1)
    b = prob.second_variation(ctrl, d2)
    cross = prob.second_bilinear(ctrl, d1, d2)
    scale = abs(both) + abs(a) + abs(b) + abs(cross)
    assert abs(both - a - b - 2.0 * cross) <= 1e-11 * scale


def test_second_variation_is_convex_with_coupling_off():
    # without the advective coupling the reduced objective is quadratic and
    # convex, so the second variation is nonnegative along any direction
    prob = make_problem(coupling=False, eps1=0.01, eps2=0.01)
    rng = np.random.default_rng(7)
    ctrl = rand_control(prob.space, rng, 0.3)
    for _ in range(4):
        d = rand_control(prob.space, rng)
        assert prob.second_variation(ctrl, d) >= 0.0


def test_state_cache_returns_identical_object():
    prob = make_problem()
    rng = np.random.default_rng(8)
    ctrl = rand_control(prob.space, rng)
    assert prob.state(ctrl) is prob.state(ctrl)
    assert prob.adjoint(ctrl) is prob.adjoint(ctrl)


def test_cache_hit_refreshes_so_eviction_takes_least_recently_used(sweeps):
    prob = make_problem()
    rng = np.random.default_rng(10)
    a, b, c = (rand_control(prob.space, rng) for _ in range(3))
    ta = prob.state(a)
    prob.state(b)
    assert prob.state(a) is ta      # a hit: a is now the strong entry
    assert list(prob._caches["state"]) == [state_key(prob, a)]
    prob.state(c)                   # evicts a, which the caller holds
    assert sweeps["state"] == 3
    assert prob.state(a) is ta
    assert sweeps["state"] == 3
    prob.state(b)
    assert sweeps["state"] == 4


@pytest.mark.parametrize("family", ["control-tilt", "tikhonov"])
def test_control_space_perturbations_reuse_state_and_adjoint(sweeps, family):
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    ctrl = rand_control(prob.space, np.random.default_rng(11))
    traj, adj = prob.state(ctrl), prob.adjoint(ctrl)
    pprob = prob.perturbed(make_perturbation(prob, family, 0.3, 12))
    assert pprob.state(ctrl) is traj
    assert pprob.adjoint(ctrl) is adj
    pprob.grad_J(ctrl)
    pprob.eval_J(ctrl)
    assert sweeps == {"state": 1, "adjoint": 1}


@pytest.mark.parametrize("family", ["target-shift", "objective-tilt"])
def test_objective_perturbations_reuse_state_not_adjoint(sweeps, family):
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    ctrl = rand_control(prob.space, np.random.default_rng(13))
    traj, adj = prob.state(ctrl), prob.adjoint(ctrl)
    pprob = prob.perturbed(make_perturbation(prob, family, 0.3, 14))
    assert pprob.state(ctrl) is traj
    assert pprob.adjoint(ctrl) is not adj
    assert sweeps == {"state": 1, "adjoint": 2}


@pytest.mark.parametrize("family", ["source", "initial"])
def test_state_perturbations_resolve_state_and_adjoint(sweeps, family):
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    ctrl = rand_control(prob.space, np.random.default_rng(15))
    traj, adj = prob.state(ctrl), prob.adjoint(ctrl)
    pprob = prob.perturbed(make_perturbation(prob, family, 0.3, 16))
    assert pprob.state(ctrl) is not traj
    assert pprob.adjoint(ctrl) is not adj
    assert sweeps == {"state": 2, "adjoint": 2}


def test_warm_started_tikhonov_path_repeats_no_state_solve(monkeypatch):
    import hashlib
    from convecopt import objective
    from convecopt.optimizer import OptOptions
    from convecopt.stability_lab import solve_perturbed, tikhonov_path
    prob = make_problem()
    opts = OptOptions(max_iters=40)
    base = solve_perturbed(prob, prob.space.zero(), opts)
    seen = []
    solve = objective.solve_state

    def recording(grid, phys, tg, sources, u0, th0, **kwargs):
        hsh = hashlib.sha256()
        for k in range(prob.tg.nt):
            f, h = sources.at(k)
            for a in (f.u, f.v, h):
                hsh.update(a.tobytes())
        for a in (u0.u, u0.v, th0):
            hsh.update(a.tobytes())
        seen.append(hsh.hexdigest())
        return solve(grid, phys, tg, sources, u0, th0, **kwargs)

    monkeypatch.setattr(objective, "solve_state", recording)
    tikhonov_path(prob, base.control, [1e-2, 1e-3, 0.0], opts)
    assert seen
    assert len(set(seen)) == len(seen)


# where each field of zeta goes, by the part of a cache key it changes:
# the state's data (sources and initial data), the adjoint's (targets and
# eta), or neither (the control tilts, like the Tikhonov weights)
STATE_FIELDS = ("f_hat", "h_hat", "u0_hat", "th0_hat")
ADJOINT_FIELDS = ("eta_u", "eta_th", "u_d_hat", "th_d_hat")
KEYED_FIELDS = STATE_FIELDS + ADJOINT_FIELDS


def _set_field(prob, name, rng):
    """A Perturbation with the PERTURBATION_FIELDS field name set to a
    smooth field, plus Tikhonov weights and both control tilts."""
    from convecopt.objective import FOURIER_FIELDS
    g, sp = prob.grid, prob.space
    vector = name in (pair[0] for pair in FOURIER_FIELDS.values())
    a = fourier_vec2(g, rng, 3, 2.0) * 0.3 if vector else 0.3 * fourier_scalar(g, rng, 3, 2.0)
    return Perturbation(**{name: a}, sigma=0.1 * rng.standard_normal((2, sp.mask_q.ncells)),
                        lam=0.1 * rng.standard_normal(sp.mask_h.ncells),
                        eps1=0.003, eps2=0.001)


@pytest.mark.parametrize("coupling", [True, False])
@pytest.mark.parametrize("name", KEYED_FIELDS)
def test_gradient_sweep_is_the_restricted_full_adjoint_bitwise(coupling, name):
    # the gradient sweep keeps only the control-region windows of each
    # level, and its restriction is that of the stored full adjoint, bit
    # for bit; grad_J adds the same terms to either
    prob = make_problem(coupling=coupling, eps1=0.01, eps2=0.02, beta1=0.5, beta2=0.3)
    rng = np.random.default_rng(40)
    prob = prob.perturbed(_set_field(prob, name, rng))
    ctrl = rand_control(prob.space, rng)
    grad = prob.grad_J(ctrl)
    assert len(prob._held["adjoint"]) == 0
    cached = prob.restricted_adjoint(ctrl)
    adj = prob.adjoint(ctrl)
    q, th = restrict_adjoint(prob.space, adj.u[:-1], adj.theta[:-1])
    assert (cached.q.tobytes(), cached.th.tobytes()) == (q.tobytes(), th.tobytes())
    again = prob.grad_J(ctrl)           # with the full adjoint held
    assert (grad.q.tobytes(), grad.th.tobytes()) == (again.q.tobytes(), again.th.tobytes())


@pytest.mark.parametrize("name", ADJOINT_FIELDS)
def test_an_adjoint_field_misses_the_cached_gradient_and_a_tilt_hits_it(sweeps, name):
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    rng = np.random.default_rng(41)
    ctrl = rand_control(prob.space, rng)
    base = prob.restricted_adjoint(ctrl)
    tilted = prob.perturbed(make_perturbation(prob, "control-tilt", 0.3, 42))
    assert tilted.restricted_adjoint(ctrl) is base
    assert sweeps == {"state": 1, "adjoint": 1}
    shifted = prob.perturbed(_set_field(prob, name, rng))
    got = shifted.restricted_adjoint(ctrl)
    assert got is not base and not np.array_equal(got.th, base.th)
    assert sweeps == {"state": 1, "adjoint": 2}


def test_projected_gradient_leaves_no_full_adjoint():
    from convecopt.optimizer import OptOptions, projected_gradient
    prob = make_problem()
    res = projected_gradient(prob, prob.space.zero(), OptOptions(max_iters=5))
    assert res.iterations == 5
    assert len(prob._caches["adjoint"]) == len(prob._held["adjoint"]) == 0
    assert list(prob._caches["gradient"]) \
        == [adjoint_key(prob, res.control)]


def test_adjoint_cache_holds_one_entry(sweeps):
    prob = make_problem()
    rng = np.random.default_rng(17)
    a, b = rand_control(prob.space, rng), rand_control(prob.space, rng)
    prob.adjoint(a)
    prob.adjoint(b)
    prob.adjoint(a)     # b's state and adjoint evicted a's, held by no one
    assert sweeps == {"state": 3, "adjoint": 3}


# each cache kind and the Problem method that looks it up
LOOKUPS = {"state": Problem.state, "adjoint": Problem.adjoint,
           "gradient": Problem.restricted_adjoint}


@pytest.mark.parametrize("kind", LOOKUPS)
def test_a_miss_evicts_before_it_solves(monkeypatch, kind):
    # no evicted value is live while the new one is formed
    from convecopt import objective, sensitivity
    prob = make_problem()
    seen = []

    def watching(kind, fn):
        def wrapped(*args, **kwargs):
            seen.append((kind, len(prob._caches[kind])))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(objective, "solve_state",
                        watching("state", objective.solve_state))
    monkeypatch.setattr(sensitivity, "solve_adjoint",
                        watching(kind, sensitivity.solve_adjoint))
    rng = np.random.default_rng(18)
    for _ in range(3):
        LOOKUPS[kind](prob, rand_control(prob.space, rng))
    solves = [("state", 0)] if kind == "state" else [("state", 0), (kind, 0)]
    assert seen == solves * 3
    assert len(prob._caches["state"]) == len(prob._caches[kind]) == 1


@pytest.mark.parametrize("kind", LOOKUPS)
def test_a_failing_solve_leaves_no_entry(kind):
    from convecopt.grid import NumericalFailure
    prob = make_problem()
    look = LOOKUPS[kind]
    rng = np.random.default_rng(19)
    good = rand_control(prob.space, rng)
    value = weakref.ref(look(prob, good))   # held by no one but the cache
    bad = rand_control(prob.space, rng)
    bad.th[3, 0] = np.nan
    with pytest.raises(NumericalFailure):
        look(prob, bad)             # the state sweep fails
    assert list(prob._caches["state"]) == []        # evicted for the failed solve
    assert list(prob._caches[kind]) == []
    assert value() is None
    value = weakref.ref(look(prob, good))
    # the kind's own sweep fails: the state's, else the adjoint's
    name = "h_hat" if kind == "state" else "eta_th"
    nan = Perturbation(**{name: np.full((prob.grid.nx, prob.grid.ny), np.nan)})
    with pytest.raises(NumericalFailure):
        look(prob.perturbed(nan), good)
    assert list(prob._caches["state"]) \
        == ([] if kind == "state" else [state_key(prob, good)])
    assert list(prob._caches[kind]) == []
    assert value() is None


@pytest.mark.parametrize("kind", LOOKUPS)
def test_a_held_trajectory_is_found_without_a_sweep(sweeps, kind):
    # one strong entry per kind, and a weak view of every entry, which the
    # perturbed copies share
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    look = LOOKUPS[kind]
    rng = np.random.default_rng(23)
    a, b, c = (rand_control(prob.space, rng) for _ in range(3))
    va = look(prob, a)
    look(prob, b)
    vc = look(prob, c)          # a's entry is no longer the strong one
    solved = {"state": 3, "adjoint": 0 if kind == "state" else 3}
    assert sweeps == solved
    assert look(prob, a) is va
    assert look(prob, c) is vc and vc is not va
    pprob = prob.perturbed(make_perturbation(prob, "control-tilt", 0.3, 24))
    assert look(pprob, a) is va
    assert sweeps == solved


@pytest.mark.parametrize("kind", LOOKUPS)
def test_an_unheld_trajectory_is_freed_by_the_next_entry(kind):
    prob = make_problem()
    look = LOOKUPS[kind]
    rng = np.random.default_rng(25)
    a, b = rand_control(prob.space, rng), rand_control(prob.space, rng)
    value = weakref.ref(look(prob, a))
    assert value() is not None          # the strong entry
    if kind != "state":
        prob.state(b)                   # another kind's entry frees nothing of it
        assert value() is not None
    look(prob, b)
    assert value() is None
    assert len(prob._caches["state"]) == len(prob._caches[kind]) == 1


def test_a_held_full_adjoint_is_replayed_into_the_gradient_kind_without_a_sweep(sweeps):
    prob = make_problem()
    rng = np.random.default_rng(31)
    a, b = rand_control(prob.space, rng), rand_control(prob.space, rng)
    grad_a = weakref.ref(prob.restricted_adjoint(a))    # the gradient kind's entry
    adj_b = prob.adjoint(b)
    assert sweeps == {"state": 2, "adjoint": 2}
    got = prob.restricted_adjoint(b)        # a gradient miss: replays adj_b
    assert sweeps == {"state": 2, "adjoint": 2}
    assert grad_a() is None                 # evicted by b's entry
    assert list(prob._caches["gradient"]) \
        == [adjoint_key(prob, b)]
    assert prob.restricted_adjoint(b) is got
    q, th = restrict_adjoint(prob.space, adj_b.u[:-1], adj_b.theta[:-1])
    assert (got.q.tobytes(), got.th.tobytes()) == (q.tobytes(), th.tobytes())


def test_a_gradient_miss_hashes_its_control_once(monkeypatch, sweeps):
    # a control's digest is formed on its first lookup and read by every
    # later one, of any kind and on any perturbed copy: one _digest call
    # per Control object, however many lookups it makes
    from convecopt import objective
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    rng = np.random.default_rng(33)
    a, b, c = (rand_control(prob.space, rng) for _ in range(3))
    shifted = prob.perturbed(make_perturbation(prob, "target-shift", 0.3, 34))
    names = {id(x.q): n for n, x in zip("abc", (a, b, c))}
    calls = []
    digest = objective._digest

    def counted(*fields):
        if id(fields[0]) in names:
            calls.append(names[id(fields[0])])
        return digest(*fields)

    monkeypatch.setattr(objective, "_digest", counted)
    prob.grad_J(a)                  # state and gradient miss
    assert calls == ["a"] and sweeps == {"state": 1, "adjoint": 1}
    prob.grad_J(a)
    prob.eval_J(a)
    prob.adjoint(a)
    shifted.grad_J(a)
    assert calls == ["a"] and sweeps == {"state": 1, "adjoint": 3}
    prob.state(b)
    prob.grad_J(b)                  # the gradient misses, the state hits
    prob.adjoint(b, _Recorder())
    assert calls == ["a", "b"] and sweeps == {"state": 2, "adjoint": 5}
    prob.adjoint(c)
    prob.second_variation(c, b)
    assert calls == ["a", "b", "c"] and sweeps == {"state": 3, "adjoint": 6}


def test_a_control_is_read_only_once_it_keys_a_lookup():
    # a write after a lookup would leave the cache under a stale key
    prob = make_problem()
    ctrl = rand_control(prob.space, np.random.default_rng(35))
    ctrl.q[0, 0, 0] = 0.25          # writable until its first lookup
    traj = prob.state(ctrl)
    for a in ctrl.parts:
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a += 1.0
    assert prob.state(ctrl) is traj


def test_a_problem_and_its_targets_are_frozen():
    # the data digests key the caches, so a datum assigned after a lookup
    # made the next lookup return the solve for the old data
    prob = make_problem(eps1=0.01)
    ctrl = rand_control(prob.space, np.random.default_rng(36))
    grad = prob.restricted_adjoint(ctrl)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.targets.u_d = 2 * prob.targets.u_d
    for name, value in (("targets", Targets()), ("u0", prob.grid.vec2()),
                        ("weights", ObjectiveWeights()), ("tilt", (None, None))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prob, name, value)
    assert prob.restricted_adjoint(ctrl) is grad


class _Recorder:
    """Level sink keeping the bytes of every level it is handed, in order."""

    def __init__(self):
        self.levels = []

    def put(self, k, u, theta, p):
        self.levels.append((k, u.u.tobytes(), u.v.tobytes(), theta.tobytes()))


def test_an_adjoint_level_sink_is_handed_the_adjoint_and_nothing_is_stored(sweeps):
    # without a full adjoint at hand the sweep's levels go to the sink and
    # no kind is touched; with one held, its levels, in the sweep's order
    prob = make_problem()
    ctrl = rand_control(prob.space, np.random.default_rng(34))
    swept = prob.adjoint(ctrl, _Recorder())
    assert sweeps == {"state": 1, "adjoint": 1}
    assert all(len(prob._held[kind]) == 0 for kind in ("adjoint", "gradient"))
    adj = prob.adjoint(ctrl)
    held = prob.adjoint(ctrl, _Recorder())
    assert sweeps == {"state": 1, "adjoint": 2}
    want = [(k, adj.u[k].u.tobytes(), adj.u[k].v.tobytes(), adj.theta[k].tobytes())
            for k in range(prob.tg.nt, -1, -1)]
    assert swept.levels == held.levels == want


@pytest.mark.parametrize("family", [None, "source"])
@pytest.mark.parametrize("base", ["zero", "fourier"])
def test_per_step_sources_are_the_stacked_sources_bitwise(family, base):
    # each step of the state sweep's sources is the step of the control's
    # (nt, ...) injection stacks with the held fields added in place
    from dataclasses import replace
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    g, sp, nt = prob.grid, prob.space, prob.tg.nt
    if base == "fourier":
        rng = np.random.default_rng(26)
        prob = replace(prob, base_sources=SourceData(
            fourier_vec2(g, rng, 3, 2.0) * 0.3, 0.3 * fourier_scalar(g, rng, 3, 2.0)))
    if family is not None:
        prob = prob.perturbed(make_perturbation(prob, family, 0.3, 27))
    ctrl = rand_control(sp, np.random.default_rng(28))
    F, _ = control_fields(sp, ctrl.q, ctrl.th)
    H = g.scalar(nt)
    H[:, sp.mask_h.ii, sp.mask_h.jj] = ctrl.th
    df, dh = prob.base_sources.f, prob.base_sources.h
    if df is not None:
        F.u += df.u
        F.v += df.v
    if dh is not None:
        H += dh
    for src, (Fs, Hs) in ((prob._sources_for(ctrl), (F, H)),
                          (ControlSources(ctrl), (control_fields(sp, ctrl.q, ctrl.th)[0],
                                                  None))):
        for k in range(nt):
            f, h = src.at(k)
            assert (f.u.tobytes(), f.v.tobytes()) == (Fs.u[k].tobytes(), Fs.v[k].tobytes())
            if Hs is not None:
                assert h.tobytes() == Hs[k].tobytes()


@pytest.mark.parametrize("family", [None, "target-shift", "objective-tilt"])
def test_objective_is_the_stacked_sum_bitwise_without_a_misfit_stack(family):
    # the running terms summed one level at a time, each sum in the order
    # of the levels: the same bits, at a peak of 0.011 trajectories at
    # 32^2, nt = 100 on a cached state (one level's misfits; the whole-stack
    # misfits of one component at a time peaked at 0.36)
    from convecopt.stability_lab import make_perturbation
    prob = make_problem(nx=32, ny=32, T=0.5, nt=100)
    if family is not None:
        prob = prob.perturbed(make_perturbation(prob, family, 0.3, 29))
    g, dt, w, tgt = prob.grid, prob.tg.dt, prob.weights, prob.targets
    ctrl = rand_control(prob.space, np.random.default_rng(30))
    traj = prob.state(ctrl)
    su = st = eu = et = 0.0
    for k in range(1, prob.tg.nt + 1):
        du = traj.u[k] if tgt.u_d is None else traj.u[k] - tgt.u_d
        dth = traj.theta[k] if tgt.theta_d is None else traj.theta[k] - tgt.theta_d
        su += g.vol * (_dot(du.u, du.u) + _dot(du.v, du.v))
        st += g.vol * _dot(dth, dth)
        if tgt.eta_u is not None:
            eu += g.vol * (_dot(tgt.eta_u.u, traj.u.u[k]) + _dot(tgt.eta_u.v, traj.u.v[k]))
        if tgt.eta_th is not None:
            et += g.vol * _dot(tgt.eta_th, traj.theta[k])
    ref = 0.5 * w.alpha1 * (dt * su) + 0.5 * w.alpha2 * (dt * st) + dt * eu + dt * et
    got = []
    peak = traced_peak(lambda: got.append(prob.eval_J(ctrl)), g, prob.tg.nt)
    assert got[0] == ref
    assert peak <= 0.05, peak


@pytest.mark.parametrize("family", [None, "target-shift", "objective-tilt"])
@pytest.mark.parametrize("targets", [True, False])
def test_adjoint_sources_are_the_stacked_right_hand_sides_bitwise(family, targets):
    # each level of the per-step sources is alpha * misfit (+ tilt) formed
    # on the whole stack with the same operations, bit for bit
    from dataclasses import replace
    from convecopt.objective import _AdjointSources
    from convecopt.stability_lab import make_perturbation
    prob = make_problem()
    prob = replace(prob, weights=ObjectiveWeights(0.7, 1.3),
                   targets=prob.targets if targets else Targets())
    if family is not None:
        prob = prob.perturbed(make_perturbation(prob, family, 0.3, 20))
    tgt, w = prob.targets, prob.weights
    traj = prob.state(rand_control(prob.space, np.random.default_rng(21)))
    du = traj.u if tgt.u_d is None else traj.u - tgt.u_d
    dth = traj.theta if tgt.theta_d is None else traj.theta - tgt.theta_d
    F, G = w.alpha1 * du, w.alpha2 * dth
    if tgt.eta_u is not None:
        F = F + tgt.eta_u
    if tgt.eta_th is not None:
        G = G + tgt.eta_th
    src = _AdjointSources(prob, traj)
    for k in range(prob.tg.nt + 1):
        f, h = src.at(k)
        assert (f.u.tobytes(), f.v.tobytes(), h.tobytes()) \
            == (F.u[k].tobytes(), F.v[k].tobytes(), G[k].tobytes())


def test_adjoint_holds_no_right_hand_side_stack():
    # the sweep forms each level's right-hand side as it reads it: 1.09
    # trajectories at 32^2, nt = 100 (the returned adjoint and a few
    # levels), where alpha * misfit stacks over every level peaked at 2.09
    prob = make_problem(nx=32, ny=32, T=0.5, nt=100)
    ctrl = rand_control(prob.space, np.random.default_rng(22))
    prob.adjoint(ctrl)              # warm-up; the state stays cached
    prob._caches["adjoint"].clear()
    peak = traced_peak(lambda: prob.adjoint(ctrl), prob.grid, prob.tg.nt)
    assert peak <= 1.2, peak


def test_control_norms_and_admissibility():
    prob = make_problem()
    sp = prob.space
    ctrl = sp.zero()
    assert ctrl.norm_l1() == 0.0 and ctrl.dot_l2(ctrl) == 0.0
    assert ctrl.is_admissible()
    ctrl.q[0, 0, 0] = 2.0
    assert not ctrl.is_admissible()
    w = sp.tg.dt * sp.grid.vol
    assert np.isclose(ctrl.norm_l1(), 2.0 * w)
    assert np.isclose(ctrl.dot_l2(ctrl), 4.0 * w)


def test_control_source_fields_live_on_region():
    prob = make_problem()
    sp = prob.space
    ctrl = sp.zero()
    ctrl.th[0, :] = 1.0
    _, h = ControlSources(ctrl).at(0)
    assert np.all(h[sp.mask_h.mask] == 1.0)
    assert np.all(h[~sp.mask_h.mask] == 0.0)


def test_perturbation_norm_components():
    prob = make_problem()
    g = prob.grid
    ctrl = rand_control(prob.space, np.random.default_rng(0))
    # pure Tikhonov perturbation: the equivalent control tilt eps * rho
    ref = 0.3 * np.abs(ctrl.q).max() + 0.2 * np.abs(ctrl.th).max()
    assert Perturbation(eps1=0.3, eps2=0.2).norm_P(g, ctrl) == pytest.approx(ref)
    # control-tilt perturbation measured in the sup norm
    sigma = np.zeros((2, prob.space.mask_q.ncells))
    sigma[0, 0] = -0.7
    assert Perturbation(sigma=sigma).norm_P(g, ctrl) == pytest.approx(0.7)


def _every_field_set(prob):
    g, sp = prob.grid, prob.space
    rng = np.random.default_rng(4)

    def vec():
        return fourier_vec2(g, rng, 3, 2.0) * 0.3

    def scalar():
        return 0.3 * fourier_scalar(g, rng, 3, 2.0)

    return Perturbation(f_hat=vec(), h_hat=scalar(), u0_hat=vec(), th0_hat=scalar(),
                        eta_u=vec(), eta_th=scalar(),
                        sigma=rng.standard_normal((2, sp.mask_q.ncells)),
                        lam=rng.standard_normal(sp.mask_h.ncells),
                        u_d_hat=vec(), th_d_hat=scalar(), eps1=0.3, eps2=0.2)


def test_the_field_table_lists_every_field_but_the_tikhonov_weights_once():
    names = [f.name for f in dataclasses.fields(Perturbation)]
    assert sorted(name for name, _ in PERTURBATION_FIELDS) \
        == sorted(n for n in names if n not in ("eps1", "eps2"))


@pytest.mark.parametrize("s", [2, 4])
def test_the_field_table_keys_and_sizes_as_the_explicit_field_lists(s):
    prob = make_problem()
    g = prob.grid
    p = _every_field_set(prob)
    ctrl = rand_control(prob.space, np.random.default_rng(0))
    # the perturbed problem's key: its own data, as the explicit lists
    pprob = prob.perturbed(p)
    assert pprob._key("state", ctrl) == state_key(pprob, ctrl)
    assert pprob._key("adjoint", ctrl) == pprob._key("gradient", ctrl) \
        == adjoint_key(pprob, ctrl)
    # norm_P's field-by-field sum, in its order
    ref = 0.0
    ref += g.norm_lp(p.f_hat, s)
    ref += g.norm_lp(p.h_hat, s)
    ref += np.sqrt(g.inner(p.u0_hat, p.u0_hat) + _h1_semi_sq(g, p.u0_hat))
    ref += np.sqrt(g.inner(p.th0_hat, p.th0_hat) + _h1_semi_sq(g, p.th0_hat))
    ref += g.norm_lp(p.eta_u, s)
    ref += g.norm_lp(p.eta_th, s)
    ref += float(np.abs(p.sigma).max())
    ref += float(np.abs(p.lam).max())
    ref += g.norm_lp(p.u_d_hat, s)
    ref += g.norm_lp(p.th_d_hat, s)
    ref += p.eps1 * float(np.abs(ctrl.q).max())
    ref += p.eps2 * float(np.abs(ctrl.th).max())
    assert p.norm_P(g, ctrl, s=s) == float(ref)


@pytest.mark.parametrize("name", [n for n, _ in PERTURBATION_FIELDS] + ["eps"])
def test_a_field_changes_only_the_key_part_of_its_datum(name):
    # doubling one field of zeta: the state part of the key moves only for
    # sources and initial data, the adjoint part only for targets and eta
    prob = make_problem()
    ctrl = rand_control(prob.space, np.random.default_rng(36))
    p = _every_field_set(prob)
    if name == "eps":
        q = dataclasses.replace(p, eps1=2.0 * p.eps1, eps2=2.0 * p.eps2)
    else:
        q = dataclasses.replace(p, **{name: 2.0 * getattr(p, name)})
    _, state_p, adjoint_p = prob.perturbed(p)._key("adjoint", ctrl)
    _, state_q, adjoint_q = prob.perturbed(q)._key("adjoint", ctrl)
    assert (state_q != state_p) == (name in STATE_FIELDS)
    assert (adjoint_q != adjoint_p) == (name in ADJOINT_FIELDS)


def _composed_data(prob):
    """Each datum of prob, under the name of the field of zeta that
    Problem.perturbed adds to it, and the Tikhonov weights under "eps"."""
    t = prob.targets
    return {"f_hat": prob.base_sources.f, "h_hat": prob.base_sources.h,
            "u0_hat": prob.u0, "th0_hat": prob.theta0,
            "eta_u": t.eta_u, "eta_th": t.eta_th,
            "sigma": prob.tilt[0], "lam": prob.tilt[1],
            "u_d_hat": t.u_d, "th_d_hat": t.theta_d,
            "eps": (prob.weights.eps1, prob.weights.eps2)}


def _bytes(data):
    """Every datum's bytes (a Vec2's per component), so data compare bitwise."""
    def one(a):
        if isinstance(a, Vec2):
            return a.u.tobytes(), a.v.tobytes()
        return a if a is None or isinstance(a, tuple) else a.tobytes()
    return {name: one(a) for name, a in data.items()}


def _with_every_datum(prob):
    """prob with nonzero sources, initial data, targets, eta, Tikhonov
    weights and a base control tilt (sigma0, lam0)."""
    g, sp = prob.grid, prob.space
    rng = np.random.default_rng(37)

    def vec():
        return fourier_vec2(g, rng, 3, 2.0) * 0.3

    def scalar():
        return 0.3 * fourier_scalar(g, rng, 3, 2.0)

    return dataclasses.replace(
        prob, base_sources=SourceData(vec(), scalar()),
        u0=g.leray_project(vec()), theta0=scalar(),
        targets=Targets(u_d=vec(), theta_d=scalar(), eta_u=vec(), eta_th=scalar()),
        weights=dataclasses.replace(prob.weights, eps1=0.02, eps2=0.01),
        tilt=(0.1 * rng.standard_normal((2, sp.mask_q.ncells)),
              0.1 * rng.standard_normal(sp.mask_h.ncells)))


def _expected(prob, data, zeta):
    """Each datum of prob.perturbed(zeta), from data: the datum plus zeta's
    field, the initial velocity's sum made divergence-free again."""
    out = {}
    for name, a in data.items():
        if name == "eps":
            out[name] = (a[0] + zeta.eps1, a[1] + zeta.eps2)
        elif getattr(zeta, name) is None:
            out[name] = a
        elif name == "u0_hat":
            out[name] = prob.grid.leray_project((a + zeta.u0_hat).zero_normal_boundary())
        else:
            out[name] = a + getattr(zeta, name)
    return out


def test_perturbed_adds_zeta_to_each_datum_and_leaves_the_problem_alone():
    from convecopt.objective import KNOWN_FAMILIES
    from convecopt.stability_lab import make_perturbation
    prob = _with_every_datum(make_problem(beta1=0.5))
    before = _bytes(_composed_data(prob))
    terminal = prob.targets.u_T
    for i, family in enumerate(KNOWN_FAMILIES):
        zeta = make_perturbation(prob, family, 0.3, 50 + i)
        pprob = prob.perturbed(zeta)
        got = _bytes(_composed_data(pprob))
        assert got == _bytes(_expected(prob, _composed_data(prob), zeta)), family
        if family != "control-tilt":        # sigma0 survives, by itself
            assert pprob.tilt[0] is prob.tilt[0] and pprob.tilt[1] is prob.tilt[1]
        # and a second zeta goes on top of the first
        again = make_perturbation(prob, family, 0.2, 60 + i)
        assert _bytes(_composed_data(pprob.perturbed(again))) \
            == _bytes(_expected(prob, _composed_data(pprob), again)), family
        assert pprob.targets.u_T is terminal
        assert pprob._caches is prob._caches and pprob._held is prob._held
    assert _bytes(_composed_data(prob)) == before


def test_the_base_tilt_survives_every_tikhonov_path_point(monkeypatch):
    from convecopt import stability_lab
    from convecopt.optimizer import OptOptions
    prob = _with_every_datum(make_problem())
    before = _bytes(_composed_data(prob))
    seen = []
    solve = stability_lab.projected_gradient

    def recording(p, ctrl0, opts):
        seen.append(p)
        return solve(p, ctrl0, opts)

    monkeypatch.setattr(stability_lab, "projected_gradient", recording)
    eps_grid = [1e-2, 1e-3, 0.0]
    stability_lab.tikhonov_path(prob, prob.space.zero(), eps_grid,
                                OptOptions(max_iters=2), measure_eps_grid=[1e-2, 1e-1])
    assert len(seen) == len(eps_grid)
    for p, eps in zip(seen, eps_grid):
        want = _composed_data(prob)
        want["eps"] = (0.02 + eps, 0.01 + eps)
        assert _bytes(_composed_data(p)) == _bytes(want)
    assert _bytes(_composed_data(prob)) == before


def test_perturbed_state_differs_from_base():
    prob = make_problem()
    from convecopt.stability_lab import make_perturbation
    ctrl = prob.space.zero()
    pert = make_perturbation(prob, "source", 0.5, 3)
    a = prob.state(ctrl)
    b = prob.perturbed(pert).state(ctrl)
    assert (a.u[-1] - b.u[-1]).max_abs() > 0
