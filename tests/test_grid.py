"""Grid operator tests: dense oracles, transposes, and invariants."""

import os
import subprocess
import sys

import numpy as np
import pytest

from convecopt.grid import (Grid, GridConfig, Vec2, _dot, _dx, _dy, _ax, _ay,
                            _dx_t, _dy_t, _ax_t, _ay_t, _flux, _flux_t)

from hypothesis import given, strategies as st

from conftest import (GRIDS, PROPS, control_fields, rand_scalar, rand_vec2, region_space,
                      restrict_adjoint)


# ---------------------------------------------------------------------------
# dense reference implementations (independent loop-based oracles)
# ---------------------------------------------------------------------------

def divergence_dense(grid, w):
    out = np.zeros((grid.nx, grid.ny))
    for i in range(grid.nx):
        for j in range(grid.ny):
            out[i, j] = (w.u[i + 1, j] - w.u[i, j]) / grid.hx \
                + (w.v[i, j + 1] - w.v[i, j]) / grid.hy
    return out


def laplacian_dirichlet_dense(grid, s):
    out = np.zeros_like(s)
    nx, ny = grid.nx, grid.ny
    for i in range(nx):
        for j in range(ny):
            w = s[i - 1, j] if i > 0 else -s[i, j]
            e = s[i + 1, j] if i < nx - 1 else -s[i, j]
            so = s[i, j - 1] if j > 0 else -s[i, j]
            no = s[i, j + 1] if j < ny - 1 else -s[i, j]
            out[i, j] = (w - 2 * s[i, j] + e) / grid.hx ** 2 \
                + (so - 2 * s[i, j] + no) / grid.hy ** 2
    return out


def advect_scalar_dense(grid, U, s):
    """Loop version of the skew form 0.5[div(u s~) + u.grad s]-equivalent."""
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    Fx = np.zeros((nx + 1, ny))
    for i in range(1, nx):
        for j in range(ny):
            Fx[i, j] = U.u[i, j] * 0.5 * (s[i - 1, j] + s[i, j])
    Fy = np.zeros((nx, ny + 1))
    for i in range(nx):
        for j in range(1, ny):
            Fy[i, j] = U.v[i, j] * 0.5 * (s[i, j - 1] + s[i, j])
    out = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            divu = (U.u[i + 1, j] - U.u[i, j]) / hx \
                + (U.v[i, j + 1] - U.v[i, j]) / hy
            out[i, j] = (Fx[i + 1, j] - Fx[i, j]) / hx \
                + (Fy[i, j + 1] - Fy[i, j]) / hy - 0.5 * s[i, j] * divu
    return out


def operator_matrix(apply_fn, shape_in, shape_out):
    """Dense matrix of a linear operator by probing unit vectors."""
    n_in = int(np.prod(shape_in))
    n_out = int(np.prod(shape_out))
    M = np.zeros((n_out, n_in))
    for c in range(n_in):
        e = np.zeros(n_in)
        e[c] = 1.0
        M[:, c] = apply_fn(e.reshape(shape_in)).ravel()
    return M


# Vectorized oracles with no use outside the tests: the implicit solves
# invert I - coef * laplacian_dirichlet(_v), and the region injection pair
# must reproduce the full-grid pair inject_cell_vector/restrict_face_vector.

def laplacian_dirichlet(grid, s):
    """5-point Laplacian, homogeneous Dirichlet via ghost = -interior."""
    grid.check_scalar(s)
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2
    out = -2.0 * s * (1.0 / hx2 + 1.0 / hy2)
    out[1:, :] += s[:-1, :] / hx2
    out[:-1, :] += s[1:, :] / hx2
    out[:, 1:] += s[:, :-1] / hy2
    out[:, :-1] += s[:, 1:] / hy2
    # ghost = -interior mirror at the four walls
    out[0, :] -= s[0, :] / hx2
    out[-1, :] -= s[-1, :] / hx2
    out[:, 0] -= s[:, 0] / hy2
    out[:, -1] -= s[:, -1] / hy2
    return out


def laplacian_dirichlet_v(grid, w):
    """Componentwise Laplacian of a no-slip velocity field.

    In the direction normal to a wall the component has honest degrees of
    freedom on the wall (held at zero); tangentially the wall sits half a
    cell away and is enforced by the mirror ghost.
    """
    grid.check_vec2(w)
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2
    u, v = w.u, w.v
    ou = np.zeros_like(u)
    ui = u[1:-1, :]
    lap = -2.0 * ui * (1.0 / hx2 + 1.0 / hy2)
    lap += u[:-2, :] / hx2 + u[2:, :] / hx2
    tmp = np.zeros_like(ui)
    tmp[:, 1:] += ui[:, :-1] / hy2
    tmp[:, :-1] += ui[:, 1:] / hy2
    tmp[:, 0] -= ui[:, 0] / hy2
    tmp[:, -1] -= ui[:, -1] / hy2
    ou[1:-1, :] = lap + tmp
    ov = np.zeros_like(v)
    vi = v[:, 1:-1]
    lap = -2.0 * vi * (1.0 / hx2 + 1.0 / hy2)
    lap += v[:, :-2] / hy2 + v[:, 2:] / hy2
    tmp = np.zeros_like(vi)
    tmp[1:, :] += vi[:-1, :] / hx2
    tmp[:-1, :] += vi[1:, :] / hx2
    tmp[0, :] -= vi[0, :] / hx2
    tmp[-1, :] -= vi[-1, :] / hx2
    ov[:, 1:-1] = lap + tmp
    return Vec2(ou, ov)


def inject_cell_vector(grid, qx, qy):
    """Cell-centered vector density interpolated onto interior faces."""
    out = grid.vec2(*qx.shape[:-2])
    out.u[..., 1:-1, :] = _ax(qx)
    out.v[..., 1:-1] = _ay(qy)
    return out


def restrict_face_vector(C):
    """Transpose of inject_cell_vector; face field to cell-centered vector."""
    return _ax_t(C.u[..., 1:-1, :]), _ay_t(C.v[..., 1:-1])


# ---------------------------------------------------------------------------
# stencil primitives
# ---------------------------------------------------------------------------

def test_stencil_transposes_are_exact_adjoints():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 5))
    for fwd, adj, h in ((_dx, _dx_t, 0.3), (_ay, _ay_t, None),
                        (_ax, _ax_t, None), (_dy, _dy_t, 0.7)):
        if h is None:
            out = fwd(a)
            c = rng.standard_normal(out.shape)
            lhs = np.sum(out * c)
            rhs = np.sum(a * adj(c))
        else:
            out = fwd(a, h)
            c = rng.standard_normal(out.shape)
            lhs = np.sum(out * c)
            rhs = np.sum(a * adj(c, h))
        assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))


@PROPS
@given(GRIDS, st.integers(0, 2 ** 32 - 1))
def test_stencil_transposes_pair_exactly_on_random_grids(g, seed):
    # on the cell, u-face and v-face arrays of every grid size and aspect
    rng = np.random.default_rng(seed)
    for shape in ((g.nx, g.ny), (g.nx + 1, g.ny), (g.nx, g.ny + 1)):
        a = rng.standard_normal(shape)
        for fwd, adj in ((lambda x: _dx(x, g.hx), lambda c: _dx_t(c, g.hx)),
                         (lambda x: _dy(x, g.hy), lambda c: _dy_t(c, g.hy)),
                         (_ax, _ax_t), (_ay, _ay_t)):
            out = fwd(a)
            c = rng.standard_normal(out.shape)
            lhs, rhs = np.sum(out * c), np.sum(a * adj(c))
            assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(out) * np.linalg.norm(c)


def _dx_t_accumulating(c, h):
    out = np.zeros(c.shape[:-2] + (c.shape[-2] + 1, c.shape[-1]))
    out[..., 1:, :] += c / h
    out[..., :-1, :] -= c / h
    return out


def _dy_t_accumulating(c, h):
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,))
    out[..., 1:] += c / h
    out[..., :-1] -= c / h
    return out


def _ax_t_accumulating(c):
    out = np.zeros(c.shape[:-2] + (c.shape[-2] + 1, c.shape[-1]))
    out[..., 1:, :] += 0.5 * c
    out[..., :-1, :] += 0.5 * c
    return out


def _ay_t_accumulating(c):
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,))
    out[..., 1:] += 0.5 * c
    out[..., :-1] += 0.5 * c
    return out


def test_transposed_primitives_match_accumulating_oracle():
    # bitwise, signed zeros included, on zero rows and a -0.0 at the far
    # corner.  Inside the field the single pass omits the accumulation's
    # leading 0.0 +, which can change only the sign of a zero result
    # (-0.0 + -0.0 is -0.0; 0.0 + -0.0 + -0.0 is +0.0).
    rng = np.random.default_rng(5)
    for shape in ((7, 5), (3, 4, 6), (1, 3), (4, 1)):
        c = rng.standard_normal(shape)
        c[..., 0, :] = 0.0
        c[..., -1, -1] = -0.0
        for data in (c, np.zeros(shape), -np.zeros(shape)):
            pairs = ((_dx_t(data, 0.3), _dx_t_accumulating(data, 0.3)),
                     (_dy_t(data, 0.7), _dy_t_accumulating(data, 0.7)),
                     (_ax_t(data), _ax_t_accumulating(data)),
                     (_ay_t(data), _ay_t_accumulating(data)))
            for new, old in pairs:
                assert new.shape == old.shape
                if data is c or not np.signbit(data).any():
                    assert new.tobytes() == old.tobytes()
                else:
                    assert np.array_equal(new, old)


# ---------------------------------------------------------------------------
# construction and quadrature
# ---------------------------------------------------------------------------

def test_grid_config_rejects_tiny_grids():
    with pytest.raises(ValueError):
        GridConfig(3, 8)
    with pytest.raises(ValueError):
        GridConfig(8, 8, lx=-1.0)


def test_norms_match_extended_precision_reference(grid_rect):
    rng = np.random.default_rng(1)
    s = rand_scalar(grid_rect, rng)
    # reference accumulation in extended precision
    ref2 = float(np.sqrt(np.sum(np.abs(s.astype(np.longdouble)) ** 2)
                         * grid_rect.vol))
    assert abs(grid_rect.norm2(s) - ref2) <= 1e-13 * ref2
    ref1 = float(np.sum(np.abs(s.astype(np.longdouble))) * grid_rect.vol)
    assert abs(grid_rect.norm_lp(s, 1) - ref1) <= 1e-13 * ref1
    assert grid_rect.norm_lp(s, np.inf) == np.abs(s).max()
    with pytest.raises(ValueError):
        grid_rect.norm_lp(s, 0.5)


def test_inner_product_is_volume_weighted(grid_rect):
    rng = np.random.default_rng(2)
    a = rand_scalar(grid_rect, rng)
    b = rand_scalar(grid_rect, rng)
    assert np.isclose(grid_rect.inner(a, b),
                      grid_rect.vol * np.sum(a * b), rtol=1e-14)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one core")
def test_products_do_not_depend_on_the_blas_thread_count():
    # BLAS ddot (np.dot) splits a sum of 2^17 products across its threads,
    # which changed its bits between one and two threads
    import convecopt
    src = os.path.dirname(os.path.dirname(convecopt.__file__))
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from convecopt.boussinesq import TimeGrid
from convecopt.grid import Grid, GridConfig, _dot
from convecopt.objective import ControlSpace
g = Grid(GridConfig(32, 32))
whole = g.rect_mask(0.0, 1.0, 0.0, 1.0)
sp = ControlSpace(g, TimeGrid(1.0, 64), whole, whole)
rng = np.random.default_rng(0)
x, y = rng.standard_normal((2, 1 << 17))
a, b = sp.uniform(rng), sp.uniform(rng)
print(_dot(x, y).hex(), a.dot_l2(b).hex())
"""

    def run(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        return subprocess.run([sys.executable, "-c", code, src], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout

    one = run(1)
    assert len(one.split()) == 2
    assert run(2) == one


def test_dot_raises_on_mismatched_shapes():
    a = np.ones((3, 4))
    assert _dot(a, 2.0 * a) == 24.0
    for b in (np.ones(4), np.ones((4, 3)), np.ones((2, 3, 4))):
        with pytest.raises(ValueError):
            _dot(a, b)


def test_rect_mask_snaps_outward(grid8):
    m = grid8.rect_mask(0.13, 0.37, 0.5, 0.75)
    # cells [1,3) x [4,6) intersect the rectangle on the 8x8 unit grid
    assert set(zip(m.ii.tolist(), m.jj.tolist())) == \
        {(i, j) for i in (1, 2) for j in (4, 5)}
    with pytest.raises(ValueError):
        grid8.rect_mask(2.0, 3.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# divergence / gradient / Laplacian oracles
# ---------------------------------------------------------------------------

def test_divergence_matches_dense_oracle(grid_rect):
    rng = np.random.default_rng(3)
    w = rand_vec2(grid_rect, rng)
    assert np.allclose(grid_rect.divergence(w), divergence_dense(grid_rect, w),
                       atol=1e-14)


def test_gradient_is_negative_transpose_of_divergence(grid_rect):
    # <grad p, w> = -<p, div w> for interior-supported faces
    rng = np.random.default_rng(4)
    p = rand_scalar(grid_rect, rng)
    w = rand_vec2(grid_rect, rng)
    lhs = grid_rect.inner(grid_rect.gradient(p), w)
    rhs = -grid_rect.inner(p, grid_rect.divergence(w))
    assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))


def test_laplacian_matches_dense_oracle(grid_rect):
    rng = np.random.default_rng(5)
    s = rand_scalar(grid_rect, rng)
    assert np.allclose(laplacian_dirichlet(grid_rect, s),
                       laplacian_dirichlet_dense(grid_rect, s), atol=1e-12)


def test_laplacian_eigenfunction_refinement_order():
    # discrete Laplacian of sin(pi x) sin(pi y) converges at second order
    errs = []
    for n in (16, 32, 64):
        g = Grid(GridConfig(n, n))
        X, Y = np.meshgrid(g.xc, g.yc, indexing="ij")
        s = np.sin(np.pi * X) * np.sin(np.pi * Y)
        exact = -2 * np.pi ** 2 * s
        errs.append(g.norm2(laplacian_dirichlet(g, s) - exact))
    orders = [np.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
    assert min(orders) > 1.9


def test_helmholtz_solver_inverts_operator(grid_rect):
    rng = np.random.default_rng(6)
    coef = 0.01
    s = rand_scalar(grid_rect, rng)
    sol = grid_rect.helmholtz_solve_scalar(coef, s)
    back = sol - coef * laplacian_dirichlet(grid_rect, sol)
    assert np.allclose(back, s, atol=1e-11)
    w = rand_vec2(grid_rect, rng)
    solv = grid_rect.helmholtz_solve_vec(coef, w)
    lap = laplacian_dirichlet_v(grid_rect, solv)
    backv = Vec2(solv.u - coef * lap.u, solv.v - coef * lap.v)
    assert np.allclose(backv.u[1:-1, :], w.u[1:-1, :], atol=1e-11)
    assert np.allclose(backv.v[:, 1:-1], w.v[:, 1:-1], atol=1e-11)


def test_helmholtz_solves_are_self_adjoint(grid_rect):
    rng = np.random.default_rng(7)
    a = rand_scalar(grid_rect, rng)
    b = rand_scalar(grid_rect, rng)
    sa = grid_rect.helmholtz_solve_scalar(0.02, a)
    sb = grid_rect.helmholtz_solve_scalar(0.02, b)
    assert np.isclose(grid_rect.inner(sa, b), grid_rect.inner(a, sb),
                      rtol=1e-12)
    wa = rand_vec2(grid_rect, rng)
    wb = rand_vec2(grid_rect, rng)
    va = grid_rect.helmholtz_solve_vec(0.02, wa)
    vb = grid_rect.helmholtz_solve_vec(0.02, wb)
    assert np.isclose(grid_rect.inner(va, wb), grid_rect.inner(wa, vb),
                      rtol=1e-12)


# the minimal grid, and one where the u-wall basis has 3 modes and hx/hy = 0.15
ORACLE_GRIDS = [GridConfig(4, 4), GridConfig(4, 9, lx=0.2, ly=3.0)]


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


FACE_INTERIOR = {"u": (slice(1, -1), slice(None)), "v": (slice(None), slice(1, -1))}


def face_operator(grid, comp):
    """Dense Laplacian on the interior DOFs of one velocity component."""
    inner = FACE_INTERIOR[comp]
    shape = getattr(grid.vec2(), comp)[inner].shape

    def apply(x):
        w = grid.vec2()
        getattr(w, comp)[inner] = x
        return getattr(laplacian_dirichlet_v(grid, w), comp)[inner]

    return operator_matrix(apply, shape, shape)


@pytest.mark.parametrize("cfg", ORACLE_GRIDS, ids=["4x4", "4x9-aniso"])
def test_helmholtz_solves_match_dense_oracle(cfg):
    g = Grid(cfg)
    rng = np.random.default_rng(30)
    coef = 0.03
    shape = (g.nx, g.ny)
    A = np.eye(g.nx * g.ny) - coef * operator_matrix(lambda s: laplacian_dirichlet(g, s),
                                                     shape, shape)
    s = rand_scalar(g, rng)
    ref = np.linalg.solve(A, s.ravel()).reshape(shape)
    assert rel_err(g.helmholtz_solve_scalar(coef, s), ref) <= 1e-12
    w = rand_vec2(g, rng)
    got = g.helmholtz_solve_vec(coef, w)
    for comp in ("u", "v"):
        inner = FACE_INTERIOR[comp]
        rhs = getattr(w, comp)[inner]
        A = np.eye(rhs.size) - coef * face_operator(g, comp)
        ref = np.linalg.solve(A, rhs.ravel()).reshape(rhs.shape)
        assert rel_err(getattr(got, comp)[inner], ref) <= 1e-12
    # boundary-normal faces stay exactly zero
    assert not np.any(got.u[[0, -1], :]) and not np.any(got.v[:, [0, -1]])


@pytest.mark.parametrize("cfg", ORACLE_GRIDS, ids=["4x4", "4x9-aniso"])
def test_poisson_neumann_matches_dense_lstsq(cfg):
    g = Grid(cfg)
    rng = np.random.default_rng(31)
    shape = (g.nx, g.ny)
    M = operator_matrix(lambda p: g.divergence(g.gradient(p)), shape, shape)
    rhs = rand_scalar(g, rng)       # nonzero mean: least-squares solution
    ref, *_ = np.linalg.lstsq(M, rhs.ravel(), rcond=None)
    assert rel_err(g.poisson_neumann(rhs), ref.reshape(shape)) <= 1e-12


# ---------------------------------------------------------------------------
# Leray projection
# ---------------------------------------------------------------------------

def test_leray_removes_divergence(grid_rect):
    rng = np.random.default_rng(8)
    w = rand_vec2(grid_rect, rng)
    pw = grid_rect.leray_project(w)
    assert grid_rect.norm_lp(grid_rect.divergence(pw), np.inf) <= 1e-10


def test_leray_is_idempotent(grid_rect):
    rng = np.random.default_rng(9)
    w = rand_vec2(grid_rect, rng)
    p1 = grid_rect.leray_project(w)
    p2 = grid_rect.leray_project(p1)
    assert (p2 - p1).max_abs() <= 1e-11


def test_leray_annihilates_gradients(grid_rect):
    rng = np.random.default_rng(10)
    p = rand_scalar(grid_rect, rng)
    g = grid_rect.gradient(p)
    assert grid_rect.leray_project(g).max_abs() <= 1e-10


def test_leray_is_self_adjoint_and_orthogonal(grid_rect):
    rng = np.random.default_rng(11)
    a = rand_vec2(grid_rect, rng)
    b = rand_vec2(grid_rect, rng)
    pa = grid_rect.leray_project(a)
    pb = grid_rect.leray_project(b)
    assert np.isclose(grid_rect.inner(pa, b), grid_rect.inner(a, pb),
                      rtol=1e-11, atol=1e-13)
    # projection shrinks the norm
    assert grid_rect.norm2(pa) <= grid_rect.norm2(a) + 1e-14


def test_leray_matches_dense_pseudoinverse_solution():
    # small grid: compare against a dense least-squares Poisson solve
    g = Grid(GridConfig(8, 8))
    rng = np.random.default_rng(12)
    w = rand_vec2(g, rng)
    d = g.divergence(w)

    def lap_neumann(p):
        gr = g.gradient(p.reshape(g.nx, g.ny))
        return g.divergence(gr).ravel()

    n = g.nx * g.ny
    M = np.zeros((n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        M[:, c] = lap_neumann(e)
    phi, *_ = np.linalg.lstsq(M, d.ravel(), rcond=None)
    phi = phi.reshape(g.nx, g.ny)
    ref = w - g.gradient(phi)
    got = g.leray_project(w)
    assert (got - ref).max_abs() <= 1e-9


def test_poisson_neumann_solution_is_zero_mean(grid_rect):
    rng = np.random.default_rng(13)
    rhs = rand_scalar(grid_rect, rng)
    phi = grid_rect.poisson_neumann(rhs)
    assert abs(phi.mean()) <= 1e-12


# ---------------------------------------------------------------------------
# advection
# ---------------------------------------------------------------------------

def test_advect_scalar_matches_dense_oracle(grid_rect):
    rng = np.random.default_rng(14)
    U = rand_vec2(grid_rect, rng)
    s = rand_scalar(grid_rect, rng)
    assert np.allclose(grid_rect.advect_scalar(U, s),
                       advect_scalar_dense(grid_rect, U, s), atol=1e-13)


def test_scalar_advection_is_energy_neutral(grid_rect):
    # <adv(U, s), s> = 0 for any U, by the skew form (not only div-free U)
    rng = np.random.default_rng(15)
    for _ in range(5):
        U = rand_vec2(grid_rect, rng)
        s = rand_scalar(grid_rect, rng)
        val = grid_rect.inner(grid_rect.advect_scalar(U, s), s)
        assert abs(val) <= 1e-12 * grid_rect.norm2(s) ** 2


def test_vector_advection_is_energy_neutral(grid_rect):
    rng = np.random.default_rng(16)
    for _ in range(5):
        U = rand_vec2(grid_rect, rng)
        W = rand_vec2(grid_rect, rng)
        val = grid_rect.inner(grid_rect.advect_vector(U, W), W)
        assert abs(val) <= 1e-12 * grid_rect.norm2(W) ** 2


def test_advection_is_linear_in_the_advected_field(grid_rect):
    rng = np.random.default_rng(17)
    U = rand_vec2(grid_rect, rng)
    s1 = rand_scalar(grid_rect, rng)
    s2 = rand_scalar(grid_rect, rng)
    lhs = grid_rect.advect_scalar(U, 2.0 * s1 - 3.0 * s2)
    rhs = 2.0 * grid_rect.advect_scalar(U, s1) - 3.0 * grid_rect.advect_scalar(U, s2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_advect_scalar_transposes(grid_rect):
    rng = np.random.default_rng(18)
    U = rand_vec2(grid_rect, rng)
    s = rand_scalar(grid_rect, rng)
    c = rand_scalar(grid_rect, rng)
    fwd = grid_rect.inner(grid_rect.advect_scalar(U, s), c)
    assert np.isclose(fwd, grid_rect.inner(s, grid_rect.advect_scalar_t_field(U, c)),
                      rtol=1e-12, atol=1e-14)
    assert np.isclose(fwd, grid_rect.inner(U, grid_rect.advect_scalar_t_vel(s, c)),
                      rtol=1e-12, atol=1e-14)


def test_advect_vector_transposes(grid_rect):
    rng = np.random.default_rng(19)
    U = rand_vec2(grid_rect, rng)
    W = rand_vec2(grid_rect, rng)
    C = rand_vec2(grid_rect, rng)
    fwd = grid_rect.inner(grid_rect.advect_vector(U, W), C)
    assert np.isclose(fwd, grid_rect.inner(W, grid_rect.advect_vector_t_field(U, C)),
                      rtol=1e-12, atol=1e-14)
    assert np.isclose(fwd, grid_rect.inner(U, grid_rect.advect_vector_t_vel(W, C)),
                      rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", ["grid8", "grid_rect"])
def test_advection_matrices_are_exactly_antisymmetric(request, name):
    # with zero boundary-normal transport (and advected W) every entry of the
    # matrix in the advected field is met by its negative across the
    # diagonal, bit for bit, and the diagonal is zero
    g = request.getfixturevalue(name)
    rng = np.random.default_rng(20)
    U = rand_vec2(g, rng)
    M = operator_matrix(lambda s: g.advect_scalar(U, s), (g.nx, g.ny), (g.nx, g.ny))
    assert np.any(M) and np.array_equal(M + M.T, np.zeros_like(M))
    # W's degrees of freedom: the interior faces of both components
    nu, nv = (g.nx - 1) * g.ny, g.nx * (g.ny - 1)

    def apply(x):
        W = g.vec2()
        W.u[1:-1, :] = x[:nu].reshape(g.nx - 1, g.ny)
        W.v[:, 1:-1] = x[nu:].reshape(g.nx, g.ny - 1)
        out = g.advect_vector(U, W)
        return np.concatenate([out.u[1:-1, :].ravel(), out.v[:, 1:-1].ravel()])

    M = operator_matrix(apply, (nu + nv,), (nu + nv,))
    assert np.any(M) and np.array_equal(M + M.T, np.zeros_like(M))


@pytest.mark.parametrize("name", ["grid8", "grid_rect"])
def test_advection_reads_no_self_term(request, name):
    # the centered flux form reads only the four neighbours of an entry, so
    # changing the advected field on one colour of a checkerboard leaves the
    # result on that colour bit for bit: no self term is formed, so none is
    # left over from roundoff
    g = request.getfixturevalue(name)
    rng = np.random.default_rng(21)
    U, W, dW = rand_vec2(g, rng), rand_vec2(g, rng), rand_vec2(g, rng)
    s, ds = rand_scalar(g, rng), rand_scalar(g, rng)

    def even(a):
        i, j = np.indices(a.shape)
        return (i + j) % 2 == 0

    got, ref = g.advect_scalar(U, s + ds * even(s)), g.advect_scalar(U, s)
    assert np.array_equal(got[even(s)], ref[even(s)])
    dW = Vec2(dW.u * even(dW.u), dW.v * even(dW.v))
    got, ref = g.advect_vector(U, W + dW), g.advect_vector(U, W)
    for a, b in ((got.u, ref.u), (got.v, ref.v)):
        assert np.array_equal(a[even(a)], b[even(b)])


# Property tests over the grid sizes and cell aspect ratios the CLI accepts.
# Derandomised, so every run draws the same examples.
def _close_pairing(g, lhs_field, c, rhs):
    """<lhs_field, c> == rhs to roundoff on the Cauchy-Schwarz scale."""
    lhs = g.inner(lhs_field, c)
    scale = g.norm2(lhs_field) * g.norm2(c)
    return abs(lhs - rhs) <= 1e-12 * scale


@PROPS
@given(GRIDS, st.integers(0, 2 ** 32 - 1))
def test_field_transposes_are_negated_forward_advection(g, seed):
    # skew symmetry: with zero boundary-normal faces on U (and on the
    # advected W, which the vector form reads) the transpose in the advected
    # field is the forward operator negated
    rng = np.random.default_rng(seed)
    U, W = rand_vec2(g, rng), rand_vec2(g, rng)
    c = rand_scalar(g, rng)
    ref = g.advect_scalar_t_field(U, c)
    assert np.abs(ref + g.advect_scalar(U, c)).max() <= 1e-13 * np.abs(ref).max()
    ref = g.advect_vector_t_field(U, W)
    neg = g.advect_vector(U, W)
    tol = 1e-13 * ref.max_abs()
    assert np.abs(ref.u + neg.u).max() <= tol and np.abs(ref.v + neg.v).max() <= tol


@PROPS
@given(GRIDS, st.integers(0, 2 ** 32 - 1))
def test_velocity_transposes_pair_exactly(g, seed):
    rng = np.random.default_rng(seed)
    U, W, C = rand_vec2(g, rng), rand_vec2(g, rng), rand_vec2(g, rng)
    s, c = rand_scalar(g, rng), rand_scalar(g, rng)
    assert _close_pairing(g, g.advect_scalar(U, s), c,
                          g.inner(U, g.advect_scalar_t_vel(s, c)))
    assert _close_pairing(g, g.advect_vector(U, W), C,
                          g.inner(U, g.advect_vector_t_vel(W, C)))


@pytest.mark.parametrize("shape", [(5, 7), (8, 8), (37, 5), (6, 41)],
                         ids=["odd", "even", "wide", "tall"])
def test_flux_t_is_the_transpose_of_flux_in_its_transports(shape):
    # <c, _flux(tx, ty, s)> = <tx, gx> + <ty, gy> for (gx, gy) = _flux_t(c, s)
    rng = np.random.default_rng(sum(shape))
    n0, n1 = shape
    tx, ty = rng.standard_normal((n0 - 1, n1)), rng.standard_normal((n0, n1 - 1))
    s, c = rng.standard_normal(shape), rng.standard_normal(shape)
    gx, gy = _flux_t(c, s)
    assert gx.shape == tx.shape and gy.shape == ty.shape
    lhs = _dot(c, _flux(tx, ty, s))
    rhs = _dot(tx, gx) + _dot(ty, gy)
    scale = np.linalg.norm(c) * np.abs(s).max() * (np.linalg.norm(tx) + np.linalg.norm(ty))
    assert abs(lhs - rhs) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# buoyancy and control injection
# ---------------------------------------------------------------------------

def test_buoyancy_transpose(grid_rect):
    rng = np.random.default_rng(21)
    th = rand_scalar(grid_rect, rng)
    C = rand_vec2(grid_rect, rng)
    d = (0.6, 0.8)
    lhs = grid_rect.inner(grid_rect.buoyancy(th, d), C)
    rhs = grid_rect.inner(th, grid_rect.buoyancy_t(C, d))
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-14)


# the control map (objective.ControlMap) on grids: the paper's B_h and B_h^T


def test_inject_restrict_transpose(grid_rect):
    rng = np.random.default_rng(22)
    sp = region_space(grid_rect, grid_rect.rect_mask(0.1, 0.6, 0.1, 0.3))
    q = rng.standard_normal((2, sp.mask_q.ncells))
    th = rng.standard_normal(sp.mask_h.ncells)
    C, psi = rand_vec2(grid_rect, rng), rand_scalar(grid_rect, rng)
    f, h = control_fields(sp, q, th)
    lhs = grid_rect.inner(f, C) + grid_rect.inner(h, psi)
    rq, rth = restrict_adjoint(sp, C, psi)
    rhs = grid_rect.vol * (np.dot(q.ravel(), rq.ravel()) + np.dot(th, rth))
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("rect", [(0.1, 0.6, 0.1, 0.3), (0.0, 1.0, 0.0, 0.5),
                                  (0.0, 0.3, 0.0, 0.1), (0.6, 1.0, 0.3, 0.5),
                                  (0.4, 0.5, 0.0, 0.5)],
                         ids=["interior", "whole", "sw-corner", "ne-corner", "strip"])
def test_region_injection_matches_full_grid_oracle(grid_rect, rect):
    # the control map computes on windows around the region and must
    # reproduce the full-grid pair bitwise, on one level and on a stack
    g = grid_rect
    rng = np.random.default_rng(24)
    region = g.rect_mask(*rect)
    sp = region_space(g, region)
    for lead in ((), (3,)):
        q = rng.standard_normal(lead + (2, region.ncells))
        th = rng.standard_normal(lead + (region.ncells,))
        full_x, full_y, full_h = (np.zeros(lead + (g.nx, g.ny)) for _ in range(3))
        full_x[..., region.ii, region.jj] = q[..., 0, :]
        full_y[..., region.ii, region.jj] = q[..., 1, :]
        full_h[..., region.ii, region.jj] = th
        (f, h), ref = control_fields(sp, q, th), inject_cell_vector(g, full_x, full_y)
        assert f.u.tobytes() == ref.u.tobytes() and f.v.tobytes() == ref.v.tobytes()
        assert h.tobytes() == full_h.tobytes()
        # nonzero wall faces: restriction must ignore them, as the oracle does
        C = Vec2(rng.standard_normal(lead + (g.nx + 1, g.ny)),
                 rng.standard_normal(lead + (g.nx, g.ny + 1)))
        psi = rng.standard_normal(lead + (g.nx, g.ny))
        rq, rth = restrict_adjoint(sp, C, psi)
        ox, oy = restrict_face_vector(C)
        assert rq[..., 0, :].tobytes() == ox[..., region.ii, region.jj].tobytes()
        assert rq[..., 1, :].tobytes() == oy[..., region.ii, region.jj].tobytes()
        assert rth.tobytes() == psi[..., region.ii, region.jj].tobytes()


def test_injection_keeps_boundary_faces_zero(grid_rect):
    rng = np.random.default_rng(23)
    sp = region_space(grid_rect, grid_rect.rect_mask(0.0, 1.0, 0.0, 0.5))  # every cell
    f, _ = control_fields(sp, rng.standard_normal((2, sp.mask_q.ncells)),
                          rng.standard_normal(sp.mask_h.ncells))
    assert np.all(f.u[0, :] == 0) and np.all(f.u[-1, :] == 0)
    assert np.all(f.v[:, 0] == 0) and np.all(f.v[:, -1] == 0)


# ---------------------------------------------------------------------------
# export helpers
# ---------------------------------------------------------------------------

def test_vtk_export_structure(grid8, tmp_path):
    from convecopt.grid import fields_to_vtk
    rng = np.random.default_rng(25)
    path = tmp_path / "out.vtk"
    fields_to_vtk(grid8, path, scalars={"theta": rand_scalar(grid8, rng)},
                  vectors={"u": rand_vec2(grid8, rng)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "SCALARS theta double 1" in text
    assert "VECTORS u double" in text
    assert f"POINT_DATA {grid8.nx * grid8.ny}" in text


def _vtk_per_cell(grid, path, scalars, vectors, title):
    """fields_to_vtk's file, written one cell per write in j-major order."""
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 f"DATASET STRUCTURED_POINTS\nDIMENSIONS {grid.nx} {grid.ny} 1\n"
                 f"ORIGIN {grid.hx / 2:.17g} {grid.hy / 2:.17g} 0\n"
                 f"SPACING {grid.hx:.17g} {grid.hy:.17g} 1\n"
                 f"POINT_DATA {grid.nx * grid.ny}\n")
        for name, s in scalars.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for j in range(grid.ny):
                for i in range(grid.nx):
                    fh.write(f"{s[i, j]:.17g}\n")
        for name, w in vectors.items():
            uc, vc = _ax(w.u), _ay(w.v)
            fh.write(f"VECTORS {name} double\n")
            for j in range(grid.ny):
                for i in range(grid.nx):
                    fh.write(f"{uc[i, j]:.17g} {vc[i, j]:.17g} 0\n")


def test_vtk_export_writes_the_per_cell_file(grid_rect, tmp_path):
    # nx != ny, so a file written i-major would differ
    from convecopt.grid import fields_to_vtk
    rng = np.random.default_rng(26)
    fields = dict(scalars={"theta": rand_scalar(grid_rect, rng),
                           "p": rand_scalar(grid_rect, rng)},
                  vectors={"u": rand_vec2(grid_rect, rng)}, title="state level 3")
    fields_to_vtk(grid_rect, tmp_path / "got.vtk", **fields)
    _vtk_per_cell(grid_rect, tmp_path / "want.vtk", **fields)
    assert (tmp_path / "got.vtk").read_text() == (tmp_path / "want.vtk").read_text()
