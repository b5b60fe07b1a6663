"""Staggered-grid discretization of a rectangular domain.

Velocity components live on cell faces (MAC layout: x-component on vertical
faces, y-component on horizontal faces), scalars at cell centers.  The module
provides the differential operators used by the flow solver, the discrete
Leray projection, and the transposes of every linear operator that appears in
the one-step time map.  The transposes are what make an exact discrete adjoint
possible, so they are implemented stencil-by-stencil rather than through any
differentiation tool.

Sign/layout conventions: arrays are indexed [i, j] with i along x.  A scalar
field has shape (nx, ny); the x-velocity has shape (nx+1, ny) and the
y-velocity (nx, ny+1).  Boundary-normal faces (i = 0, nx for u; j = 0, ny
for v) are not degrees of freedom and are kept at exactly zero.  A trajectory
stacks its levels on a leading axis, (nlevels, nx, ny) and so on; the stencil
primitives index with `...`, so leading axes pass through them.

Advection is the skew form 0.5[(u.grad)s + div(u s)].  For transport with
zero boundary-normal faces its self terms cancel, leaving the centered flux
form (u_{i+1} s_{i+1} - u_i s_{i-1}) / 2h per axis (Morinishi et al. 1998;
Verstappen & Veldman 2003), which is how the `advect_*` stencils are written;
they assume such transport, as every caller's is (sensitivity._check_compat).
The matrix in the advected field is then exactly antisymmetric in floating
point: each entry is one rounded transport value, negated across the diagonal.

The grid keeps fields and stencils only; where the control acts (its
windows, injection, transpose and quadrature weight) lives with the control,
in objective.ControlMap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericalFailure(RuntimeError):
    """A time step failed to produce usable numbers (see boussinesq.check_step)."""


# ---------------------------------------------------------------------------
# small stencil primitives and their transposes
# ---------------------------------------------------------------------------

def _dx(a, h):
    return (a[..., 1:, :] - a[..., :-1, :]) / h


def _dy(a, h):
    return (a[..., 1:] - a[..., :-1]) / h


def _dx_t(c, h):
    # adjoint of _dx in the plain (unweighted) dot product: the difference
    # of c / h padded with a zero row at each end.  The far pad is -0.0, as
    # x - (-0.0) = 0.0 + x: signed zeros then match accumulating onto zeros.
    p = np.zeros(c.shape[:-2] + (c.shape[-2] + 2, c.shape[-1]))
    p[..., -1, :] = -0.0
    np.divide(c, h, out=p[..., 1:-1, :])
    return p[..., :-1, :] - p[..., 1:, :]


def _dy_t(c, h):
    p = np.zeros(c.shape[:-1] + (c.shape[-1] + 2,))
    p[..., -1] = -0.0
    np.divide(c, h, out=p[..., 1:-1])
    return p[..., :-1] - p[..., 1:]


def _ax(a):
    return 0.5 * (a[..., 1:, :] + a[..., :-1, :])


def _ay(a):
    return 0.5 * (a[..., 1:] + a[..., :-1])


def _ax_t(c):
    # zero-extended average: the sum of 0.5 * c padded with zero rows
    p = np.zeros(c.shape[:-2] + (c.shape[-2] + 2, c.shape[-1]))
    np.multiply(c, 0.5, out=p[..., 1:-1, :])
    return p[..., :-1, :] + p[..., 1:, :]


def _ay_t(c):
    p = np.zeros(c.shape[:-1] + (c.shape[-1] + 2,))
    np.multiply(c, 0.5, out=p[..., 1:-1])
    return p[..., :-1] + p[..., 1:]


def _cross(c, s):
    # transpose of the centered flux form in its transport (along axis 0)
    return c[:-1] * s[1:] - c[1:] * s[:-1]


def _face_advect(a, b, w, qa, qb):
    """advect_vector's component w, on faces along axis 0, transported by
    (a, b) averaged to cell centers and interior corners, times qa and qb."""
    ta = a[1:] + a[:-1]
    ta *= qa
    tb = b[1:, 1:-1] + b[:-1, 1:-1]
    tb *= qb
    out = np.zeros_like(w)
    x = out[1:-1]
    np.multiply(ta[1:], w[2:], out=x)
    x -= ta[:-1] * w[:-2]
    x[:, :-1] += tb * w[1:-1, 1:]
    x[:, 1:] -= tb * w[1:-1, :-1]
    return out


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

@dataclass
class Vec2:
    """MAC velocity-like field: u on vertical faces, v on horizontal faces.

    A stack of levels carries a leading axis on both arrays; indexing it
    (`w[k]`, `w[1:]`) returns views of the selected levels.
    """

    u: np.ndarray
    v: np.ndarray

    @property
    def ndim(self):
        return self.u.ndim

    def __len__(self):
        if self.u.ndim < 3:
            raise TypeError("a single-level Vec2 has no level axis")
        return len(self.u)

    def __getitem__(self, k):
        len(self)       # on a single level, u[k] would be a row
        return Vec2(self.u[k], self.v[k])

    def __setitem__(self, k, w):
        self.u[k] = w.u
        self.v[k] = w.v

    def copy(self):
        return Vec2(self.u.copy(), self.v.copy())

    def __add__(self, o):
        return Vec2(self.u + o.u, self.v + o.v)

    def __sub__(self, o):
        return Vec2(self.u - o.u, self.v - o.v)

    def __isub__(self, o):
        self.u -= o.u
        self.v -= o.v
        return self

    def __mul__(self, a):
        return Vec2(self.u * a, self.v * a)

    __rmul__ = __mul__

    def __neg__(self):
        return Vec2(-self.u, -self.v)

    def zero_normal_boundary(self):
        self.u[..., 0, :] = 0.0
        self.u[..., -1, :] = 0.0
        self.v[..., 0] = 0.0
        self.v[..., -1] = 0.0
        return self

    def max_abs(self):
        m = 0.0
        if self.u.size:
            m = max(m, float(np.max(np.abs(self.u))))
        if self.v.size:
            m = max(m, float(np.max(np.abs(self.v))))
        return m


@dataclass
class RegionMask:
    """Cell-index mask for a control subdomain.

    Built from an axis-aligned rectangle snapped outward to whole cells;
    stored both as a boolean (nx, ny) array and as flat index lists.  box
    holds the cell ranges ((i0, i1), (j0, j1)) of its bounding box.
    """

    mask: np.ndarray  # bool, (nx, ny)
    ii: np.ndarray = field(init=False)
    jj: np.ndarray = field(init=False)
    box: tuple = field(init=False)

    def __post_init__(self):
        if not self.mask.any():
            raise ValueError("region mask is empty")
        self.ii, self.jj = np.nonzero(self.mask)
        self.box = ((int(self.ii.min()), int(self.ii.max()) + 1),
                    (int(self.jj.min()), int(self.jj.max()) + 1))

    @property
    def ncells(self):
        return self.ii.size


@dataclass(frozen=True)
class GridConfig:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("nx and ny must be at least 4")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain extents must be positive")


def cell_span(lo, hi, h, n):
    """Cells [i0, i1) of n cells of width h meeting [lo, hi]; empty if i0 >= i1."""
    i0 = min(n, max(0, np.floor(lo / h + 1e-12)))
    i1 = max(0, min(n, np.ceil(hi / h - 1e-12)))
    return int(i0), int(i1)


def _modes_1d(kind, n, h):
    """Orthonormal eigenvectors (rows of Q) and eigenvalues of the 1-D -d2/dx2.

    kind 'wall': n nodes between two zero wall nodes (DST-I); 'mirror': n
    cells with ghost = -interior at both ends (DST-II); 'neumann': n cells
    with zero end fluxes (DCT-II).  Eigenvalues are (2/h sin(theta/2))^2.
    """
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    if kind == "wall":
        theta = np.pi * (k + 1) / (n + 1)
        q = np.sqrt(2.0 / (n + 1)) * np.sin(theta * (j + 1))
    elif kind == "mirror":
        theta = np.pi * (k + 1) / n
        q = np.sqrt(2.0 / n) * np.sin(theta * (j + 0.5))
        q[-1] /= np.sqrt(2.0)
    else:
        theta = np.pi * k / n
        q = np.sqrt(2.0 / n) * np.cos(theta * (j + 0.5))
        q[0] /= np.sqrt(2.0)
    lam = (2.0 / h * np.sin(theta[:, 0] / 2.0)) ** 2
    return q, lam


def _dot(a, b):
    """sum(a * b) over all entries of two arrays of one shape (a mismatch
    raises): the one product reduction of fields and controls.  einsum sums
    in an order set by the size alone; BLAS ddot (np.dot, 1-D @) splits long
    sums across its threads, and np.sum(a * b) measured 1.5-2.5x slower."""
    if a.shape != b.shape:
        raise ValueError(f"_dot of shapes {a.shape} and {b.shape}")
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


class Grid:
    """Uniform MAC grid whose implicit solves are fast diagonalisations.

    Every implicit operator is separable, so it is solved as Q^T D^-1 Q with
    dense per-axis mode matrices Q built here, once (Lynch, Rice & Thomas
    1964).  The only lazy state is the per-coefficient Helmholtz spectrum.
    """

    def __init__(self, cfg: GridConfig):
        self.cfg = cfg
        self.nx, self.ny = cfg.nx, cfg.ny
        self.lx, self.ly = float(cfg.lx), float(cfg.ly)
        self.hx = self.lx / self.nx
        self.hy = self.ly / self.ny
        self.vol = self.hx * self.hy
        # cell-center / face coordinates
        self.xc = (np.arange(self.nx) + 0.5) * self.hx
        self.yc = (np.arange(self.ny) + 0.5) * self.hy
        self.xf = np.arange(self.nx + 1) * self.hx
        self.yf = np.arange(self.ny + 1) * self.hy
        # (Qx, Qy, eigenvalues of -Laplacian) per operator: cell scalar,
        # u faces (wall in x), v faces (wall in y), Neumann pressure
        kinds = ("wall", "mirror", "neumann")
        x = {k: _modes_1d(k, self.nx - (k == "wall"), self.hx) for k in kinds}
        y = {k: _modes_1d(k, self.ny - (k == "wall"), self.hy) for k in kinds}
        self._modes = {}
        for op, kx, ky in (("c", "mirror", "mirror"), ("u", "wall", "mirror"),
                           ("v", "mirror", "wall"), ("p", "neumann", "neumann")):
            (qx, lx), (qy, ly) = x[kx], y[ky]
            self._modes[op] = (qx, qy, lx[:, None] + ly[None, :])
        lam = self._modes["p"][2].copy()
        lam[0, 0] = np.inf      # drop the constant mode: zero-mean solution
        self._poisson_inv = -1.0 / lam
        self._inv = {}

    # -- allocation helpers -------------------------------------------------

    def scalar(self, *levels):
        """Zero cell scalar; leading sizes (e.g. nt + 1) allocate a stack."""
        return np.zeros(levels + (self.nx, self.ny))

    def vec2(self, *levels):
        return Vec2(np.zeros(levels + (self.nx + 1, self.ny)),
                    np.zeros(levels + (self.nx, self.ny + 1)))

    def check_scalar(self, s):
        if s.shape != (self.nx, self.ny):
            raise ValueError(f"scalar field shape {s.shape} does not match grid")

    def check_vec2(self, w):
        if w.u.shape != (self.nx + 1, self.ny) or w.v.shape != (self.nx, self.ny + 1):
            raise ValueError("vector field shape does not match grid")

    # -- masks --------------------------------------------------------------

    def rect_mask(self, x0, x1, y0, y1) -> RegionMask:
        """Rectangle snapped outward to whole cells (cells that intersect it)."""
        m = np.zeros((self.nx, self.ny), dtype=bool)
        i0, i1 = cell_span(x0, x1, self.hx, self.nx)
        j0, j1 = cell_span(y0, y1, self.hy, self.ny)
        m[i0:i1, j0:j1] = True
        return RegionMask(m)

    # -- quadrature ---------------------------------------------------------

    def inner(self, a, b):
        """Cell-volume-weighted inner product of two fields of one shape,
        scalars or Vec2; stacks are summed over their levels (see _dot)."""
        if isinstance(a, Vec2):
            return self.vol * (_dot(a.u, b.u) + _dot(a.v, b.v))
        return self.vol * _dot(a, b)

    def norm_lp(self, a, p=2):
        if p != np.inf and p < 1:
            raise ValueError("p must be >= 1 or inf")
        if isinstance(a, Vec2):
            flat = np.concatenate([a.u.ravel(), a.v.ravel()])
        else:
            flat = np.asarray(a).ravel()
        if p == np.inf:
            return float(np.max(np.abs(flat))) if flat.size else 0.0
        return float((self.vol * np.sum(np.abs(flat) ** p)) ** (1.0 / p))

    def norm2(self, a):
        return self.norm_lp(a, 2)

    # -- basic operators ----------------------------------------------------

    def divergence(self, w: Vec2):
        self.check_vec2(w)
        return _dx(w.u, self.hx) + _dy(w.v, self.hy)

    def gradient(self, p):
        """Cell scalar to faces; zero on boundary-normal faces (Neumann)."""
        g = self.vec2()
        g.u[1:-1, :] = _dx(p, self.hx)
        g.v[:, 1:-1] = _dy(p, self.hy)
        return g

    # -- implicit solves by fast diagonalisation ----------------------------

    def _diag_solve(self, kind, inv, rhs):
        """Apply Q^T diag(inv) Q, Q the 2-D mode basis of operator kind."""
        qx, qy, _ = self._modes[kind]
        return qx.T @ (inv * (qx @ rhs @ qy.T)) @ qy

    def _helmholtz_inv(self, kind, coef):
        """Eigenvalues of (I - coef * Laplacian)^-1, cached per coefficient."""
        key = (kind, float(coef))
        inv = self._inv.get(key)
        if inv is None:
            inv = self._inv[key] = 1.0 / (1.0 + coef * self._modes[kind][2])
        return inv

    def helmholtz_solve_scalar(self, coef, rhs):
        return self._diag_solve("c", self._helmholtz_inv("c", coef), rhs)

    def helmholtz_solve_vec(self, coef, w: Vec2):
        out = self.vec2()
        out.u[1:-1, :] = self._diag_solve("u", self._helmholtz_inv("u", coef), w.u[1:-1, :])
        out.v[:, 1:-1] = self._diag_solve("v", self._helmholtz_inv("v", coef), w.v[:, 1:-1])
        return out

    # -- pressure Poisson / Leray projection --------------------------------

    def poisson_neumann(self, rhs):
        """Solve lap(phi) = rhs with homogeneous Neumann data, zero-mean phi.

        The constant mode of rhs is dropped, so a rhs with nonzero mean gets
        the least-squares solution.
        """
        return self._diag_solve("p", self._poisson_inv, rhs)

    def leray_project(self, w: Vec2, return_phi=False):
        """Remove the discrete gradient part: returns w - grad(phi)."""
        self.check_vec2(w)
        d = self.divergence(w)
        phi = self.poisson_neumann(d)
        g = self.gradient(phi)
        out = Vec2(w.u - g.u, w.v - g.v).zero_normal_boundary()
        if return_phi:
            return out, phi
        return out

    # -- advection (skew-symmetric) and transposes --------------------------

    def advect_scalar(self, U: Vec2, s):
        """Skew form 0.5[(u.grad)s + div(u s)] as the centered flux form
        (u_{i+1} s_{i+1} - u_i s_{i-1}) / 2hx plus the same in y, for U with
        zero boundary-normal faces; its matrix in s is exactly antisymmetric."""
        self.check_vec2(U)
        self.check_scalar(s)
        ux = U.u[1:-1, :] * (0.5 / self.hx)
        vy = U.v[:, 1:-1] * (0.5 / self.hy)
        out = np.zeros_like(s)
        np.multiply(ux, s[1:, :], out=out[:-1, :])
        out[1:, :] -= ux * s[:-1, :]
        out[:, :-1] += vy * s[:, 1:]
        out[:, 1:] -= vy * s[:, :-1]
        return out

    def advect_scalar_t_field(self, U: Vec2, c):
        """Transpose of s -> advect_scalar(U, s), stencil by stencil.

        Equal to -advect_scalar(U, .) when U has zero boundary-normal faces,
        which is what the adjoint march uses; this version is the oracle.
        """
        hx, hy = self.hx, self.hy
        u, v = U.u, U.v
        cu = _dx_t(c, hx)
        cv = _dy_t(c, hy)
        out = _ax_t(u[1:-1, :] * cu[1:-1, :])
        out += _ay_t(v[:, 1:-1] * cv[:, 1:-1])
        divu = _dx(u, hx) + _dy(v, hy)
        out -= 0.5 * divu * c
        return out

    def advect_scalar_t_vel(self, s, c):
        """Transpose of U -> advect_scalar(U, s) over zero-normal U; a Vec2
        holding (c_{f-1} s_f - c_f s_{f-1}) / 2h on each interior face f."""
        g = self.vec2()
        g.u[1:-1, :] = _cross(c, s) * (0.5 / self.hx)
        g.v[:, 1:-1] = _cross(c.T, s.T).T * (0.5 / self.hy)
        return g

    def advect_vector(self, U: Vec2, W: Vec2):
        """Skew-symmetric advection of W by U, componentwise on shifted grids:
        advect_scalar's centered flux form on the cells centered at each
        component's faces, for U and W with zero boundary-normal faces; the
        matrix in W's interior faces is exactly antisymmetric."""
        self.check_vec2(U)
        self.check_vec2(W)
        qx, qy = 0.25 / self.hx, 0.25 / self.hy
        return Vec2(_face_advect(U.u, U.v, W.u, qx, qy),
                    _face_advect(U.v.T, U.u.T, W.v.T, qy, qx).T)

    def advect_vector_t_field(self, U: Vec2, C: Vec2):
        """Transpose of W -> advect_vector(U, W), stencil by stencil.

        Equal to -advect_vector(U, .) on fields with zero boundary-normal
        faces when U has them too; the adjoint march uses that form.
        """
        hx, hy = self.hx, self.hy
        u, v = U.u, U.v
        cu = C.u[1:-1, :]
        cv = C.v[:, 1:-1]
        a = _ax(u)
        b = _ax(v)
        gu = np.zeros_like(U.u)
        Fx_cot = _dx_t(cu, hx)              # (nx, ny)
        gu += _ax_t(a * Fx_cot)
        Fy_cot = _dy_t(cu, hy)              # (nx-1, ny+1)
        gu[1:-1, :] += _ay_t(b[:, 1:-1] * Fy_cot[:, 1:-1])
        divs = _dx(a, hx) + _dy(b, hy)
        gu[1:-1, :] -= 0.5 * divs * cu
        c2 = _ay(v)
        d2 = _ay(u)
        gv = np.zeros_like(U.v)
        Fy2_cot = _dy_t(cv, hy)             # (nx, ny)
        gv += _ay_t(c2 * Fy2_cot)
        Fx2_cot = _dx_t(cv, hx)             # (nx+1, ny-1)
        gv[:, 1:-1] += _ax_t(d2[1:-1, :] * Fx2_cot[1:-1, :])
        divs2 = _dy(c2, hy) + _dx(d2, hx)
        gv[:, 1:-1] -= 0.5 * divs2 * cv
        return Vec2(gu, gv).zero_normal_boundary()

    def advect_vector_t_vel(self, W: Vec2, C: Vec2):
        """Transpose of U -> advect_vector(U, W) over zero-normal U, for W
        and C with zero boundary-normal faces: each transport's cotangent is
        a cross difference, averaged back to the faces it came from."""
        wu, wv, cu, cv = W.u, W.v, C.u, C.v
        qx, qy = 0.5 / self.hx, 0.5 / self.hy
        g = self.vec2()
        g.u[1:-1, :] = (_ax(_cross(cu, wu) * qx)
                        + _ay_t(_cross(cv[:, 1:-1], wv[:, 1:-1]) * qx))
        g.v[:, 1:-1] = (_ay(_cross(cv.T, wv.T).T * qy)
                        + _ax_t(_cross(cu[1:-1, :].T, wu[1:-1, :].T).T * qy))
        return g

    # -- buoyancy -----------------------------------------------------------

    def buoyancy(self, theta, direction):
        """Cell scalar times a constant direction, interpolated to faces."""
        bx, by = direction
        out = self.vec2()
        if bx != 0.0:
            out.u[1:-1, :] = bx * _ax(theta)
        if by != 0.0:
            out.v[:, 1:-1] = by * _ay(theta)
        return out

    def buoyancy_t(self, C: Vec2, direction):
        """Transpose of buoyancy; returns a cell scalar."""
        bx, by = direction
        out = self.scalar()
        if bx != 0.0:
            out += bx * _ax_t(C.u[1:-1, :])
        if by != 0.0:
            out += by * _ay_t(C.v[:, 1:-1])
        return out

    # -- gradient magnitude for sup-norm diagnostics ------------------------

    def grad_inf(self, a):
        """Largest difference quotient |da/dx|, |da/dy| between neighbours of
        a field on any layout (each Vec2 component on its own), or of a stack
        of them; works for scalars and Vec2."""
        if isinstance(a, Vec2):
            return max(self.grad_inf(a.u), self.grad_inf(a.v))
        m = 0.0
        for axis, h in ((-2, self.hx), (-1, self.hy)):
            m = max(m, float((np.abs(np.diff(a, axis=axis)) / h).max(initial=0.0)))
        return m


# ---------------------------------------------------------------------------
# field synthesis
# ---------------------------------------------------------------------------

def fourier_scalar(grid: Grid, rng, modes=4, decay=2.0, x=None, y=None):
    """Seeded truncated Fourier sine series sampled on cell centers.

    Coefficients are standard normal damped by (m^2+n^2)^(-decay/2); the
    field is normalized to unit L2 norm.  Optional x/y coordinate vectors
    sample the same series on other (e.g. face) layouts.
    """
    if x is None:
        x = grid.xc
    if y is None:
        y = grid.yc
    out = np.zeros((len(x), len(y)))
    for m in range(1, modes + 1):
        for n in range(1, modes + 1):
            c = rng.standard_normal() * (m * m + n * n) ** (-decay / 2.0)
            out += c * np.outer(np.sin(m * np.pi * x / grid.lx),
                                np.sin(n * np.pi * y / grid.ly))
    nrm = np.sqrt(grid.vol * float(np.sum(out * out)))
    if nrm > 0:
        out /= nrm
    return out


def fourier_vec2(grid: Grid, rng, modes=4, decay=2.0, div_free=False):
    """Fourier-synthesized face field; optionally projected divergence-free."""
    u = fourier_scalar(grid, rng, modes, decay, x=grid.xf, y=grid.yc)
    v = fourier_scalar(grid, rng, modes, decay, x=grid.xc, y=grid.yf)
    w = Vec2(u, v).zero_normal_boundary()
    if div_free:
        w = grid.leray_project(w)
    nrm = grid.norm2(w)
    if nrm > 0:
        w = w * (1.0 / nrm)
    return w


def fourier_pair(grid: Grid, rng, amplitude, modes=4, decay=2.0, div_free=False):
    """(vector, scalar) pair of unit Fourier fields scaled by amplitude, the
    vector drawn first (fourier_vec2, then fourier_scalar)."""
    w = fourier_vec2(grid, rng, modes, decay, div_free) * amplitude
    return w, amplitude * fourier_scalar(grid, rng, modes, decay)


# ---------------------------------------------------------------------------
# export helpers
# ---------------------------------------------------------------------------

def fields_to_vtk(grid: Grid, path, scalars=None, vectors=None, title="fields"):
    """Legacy VTK structured-points text file with cell-centered data.

    Vector fields are averaged from faces to centers for visualization only.
    """
    scalars = scalars or {}
    vectors = vectors or {}
    n = grid.nx * grid.ny
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {grid.nx} {grid.ny} 1\n")
        fh.write(f"ORIGIN {grid.hx / 2:.17g} {grid.hy / 2:.17g} 0\n")
        fh.write(f"SPACING {grid.hx:.17g} {grid.hy:.17g} 1\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, s in scalars.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            # j-major cell order: i runs fastest
            fh.write("".join(f"{x:.17g}\n" for x in s.T.ravel().tolist()))
        for name, w in vectors.items():
            fh.write(f"VECTORS {name} double\n")
            fh.write("".join(f"{a:.17g} {b:.17g} 0\n"
                             for a, b in zip(_ax(w.u).T.ravel().tolist(),
                                             _ay(w.v).T.ravel().tolist())))
