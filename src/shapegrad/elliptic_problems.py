"""
Stationary model problems with distributed shape derivatives.

Three problems are implemented, each with state solve, adjoint solve,
material-derivative solve, and the tensor representation of the shape
derivative of its cost functional:

* ``robin``: -div(M grad u) + Robin boundary condition
  ``M grad u . n + beta u = g``, cost J = 1/2 int |grad u|^2.
* ``quasilinear``: -div(m(x, u) grad u) + f(x, u) = g with natural
  boundary conditions, cost J = 1/2 int (u - u_d)^2, solved by Newton
  with the exact quadrature-consistent Jacobian.
* ``dirichlet_energy``: -lap u = f with homogeneous Dirichlet data,
  cost J = int |grad u|^2, whose adjoint is p = -2u exactly (also at the
  discrete level, which the tests verify).

One Lagrangian per problem
--------------------------
A problem gives only its Lagrangian density at the quadrature points: the
cost part F(x, u, grad u) with d_u F, d_x F and d_grad u F, and the p-linear
part, the flux matrix A(x, u) of a = A grad u with DA = d_x A, the source
b(x, u) with d_x b and, for Robin, the boundary part b_G(x, u) = beta u - g
with d_x b_G; a partial that is zero is None.  :class:`_EllipticProblem`
derives from it the cost J = int F, its gradient
B_i = int d_u F phi_i + d_grad u F . grad phi_i, and, through the kernel in
``shape_assembly`` (whose docstring has the formulas) with T = grad p x
grad u and p_b = p, the volume tensors S0/S1 and the material right-hand
side L(u) psi.  The boundary part adds S0_G = p d_x b_G and
S1_G = b_G p (I - n x n), whose pairing with Dtheta is b_G p div_G theta,
and int_G [d_x b_G . theta + b_G div_G theta] psi to L(u) psi, with div_G
theta the ``edge_divg`` of the theta samples.  Dirichlet energy evaluates
its tensors at the eliminated adjoint p = -2u, so they need no adjoint solve.

Everything is assembled with the same quadrature as the state equation, so
evaluating the tensors against nodally interpolated velocities reproduces
the derivative of the transported-mesh cost exactly (up to the s^2
finite-difference error).
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import fem_core as fem
from .data_catalog import box_lattice, check_positive
from .fem_core import FeSpace, ScalarField
from .shape_assembly import (ShapeProblem, ShapeTensors, flux_rate, lagrangian_tensors,
                             source_rate, theta_samples)

_I2 = np.eye(2)
_COST_PARTS = ("F", "F_u", "F_x", "F_gu")
_PDE_PARTS = ("A", "DA", "b", "b_x", "bg", "bg_x")


def _parts(names, **given):
    """Density parts by name: those given, and None (a zero partial) for the
    other ``names``."""
    return SimpleNamespace(**{**dict.fromkeys(names), **given})


def _dot(a, b):
    return np.einsum('...i,...i->...', a, b)


def _at_qpoints(space, C):
    """A constant (2, 2) matrix as its values at the volume quadrature points."""
    return np.broadcast_to(C, space.qpoints.shape[:-1] + (2, 2))


class _EllipticProblem(ShapeProblem):
    """Shared body of the stationary problems: the density kernel.

    A subclass solves its state in the constructor (setting ``space``,
    ``u`` and the factorized operator ``_fact``) and gives its Lagrangian
    density from the state's values ``uq`` and gradients ``gu`` at the
    quadrature points (see the module docstring): the cost part
    ``_cost_density(uq, gu)`` and the p-linear part ``_pde_density(uq, gu)``,
    kept apart so that a re-solved cost evaluates only F.  With eliminated
    Dirichlet dofs ``_bd`` and the row mask ``_keep``, ``_material`` gives
    ell = keep L and A udot = -ell (so udot is zero on the Dirichlet dofs),
    and A^T p = -B with zero Dirichlet rows.  The adjoint is solved on first
    use: a rebuilt problem only solves u.
    """

    _bd = np.zeros(0, dtype=np.int64)
    _keep = 1.0

    def _state_qpoints(self):
        return fem.field_qvalues(self.u), fem.field_qgrads(self.u)

    def _tensor_adjoint(self):
        return self.p

    @cached_property
    def p(self):
        rhs = -self.B
        rhs[self._bd] = 0.0
        return ScalarField(self.space, self._fact.solve_transposed(rhs))

    def cost(self):
        """J = int F."""
        return float(np.sum(self.space.qweights * self._cost_density(*self._state_qpoints()).F))

    @cached_property
    def B(self):
        """B_i = dJ/du_i = int d_u F phi_i + d_grad u F . grad phi_i."""
        c = self._cost_density(*self._state_qpoints())
        B = np.zeros(self.space.dof_count)
        if c.F_u is not None:
            B += fem.assemble_load_values(self.space, c.F_u)
        if c.F_gu is not None:
            B += fem.assemble_grad_load_values(self.space, c.F_gu)
        return B

    def _L(self, samples):
        uq, gu = self._state_qpoints()
        e = self._pde_density(uq, gu)
        W = np.einsum('mqij,mqj->mqi', flux_rate(e.A, e.DA, samples), gu)
        vec = fem.assemble_grad_load_values(self.space, W)
        vec += fem.assemble_load_values(self.space, source_rate(e.b, e.b_x, samples))
        if e.bg is not None:
            vals = e.bg * samples.edge_divg + _dot(e.bg_x, samples.edge_val)
            vec += fem.assemble_boundary_load_values(self.space, vals)
        return vec

    def _build_tensors(self):
        uq, gu = self._state_qpoints()
        c = self._cost_density(uq, gu)
        e = self._pde_density(uq, gu)
        p = self._tensor_adjoint()
        pv = fem.field_qvalues(p)
        T = np.einsum('...i,...j->...ij', fem.field_qgrads(p), gu)
        S0, S1 = lagrangian_tensors(T, e.A, e.DA, pv, e.b, e.b_x,
                                    c.F, c.F_x, c.F_gu, gu)
        if e.bg is None:
            return ShapeTensors(self.space, S0=S0, S1=S1)
        pe = fem.edge_qvalues(p)
        n = self.space.edge_normal
        tangential = _I2 - np.einsum('bi,bj->bij', n, n)[:, None]
        return ShapeTensors(self.space, S0=S0, S1=S1, S0_gamma=pe[..., None] * e.bg_x,
                            S1_gamma=(e.bg * pe)[..., None, None] * tangential)

    def _material(self, theta):
        ell = self._L(theta_samples(self.space, theta, "interpolated")) * self._keep
        return ScalarField(self.space, self._fact.solve(-ell)), ell


# ========================================================================= Robin

class RobinData:
    """Coefficients of the Robin problem.

    ``M`` is a constant symmetric positive definite (2, 2) matrix; ``beta``
    (positive on the boundary), ``f`` and ``g`` are scalar catalog entries.
    """

    def __init__(self, M, beta, f, g):
        M = np.asarray(M, dtype=float)
        if M.shape != (2, 2) or abs(M[0, 1] - M[1, 0]) > 1e-14:
            raise ValueError("Robin diffusion matrix must be symmetric 2x2")
        if np.linalg.eigvalsh(M).min() <= 0:
            raise ValueError("Robin diffusion matrix must be positive definite")
        self.M = M
        self.beta = beta
        self.f = f
        self.g = g


def _robin_matrix(space, data):
    check_positive(data.beta, space.edge_qpoints)
    return fem.assemble_diffusion_values(space, _at_qpoints(space, data.M)) \
        + fem.assemble_boundary_mass(space, data.beta.value(space.edge_qpoints))


def _robin_rhs(space, data):
    return fem.assemble_load_values(space, data.f.value(space.qpoints)) \
        + fem.assemble_boundary_load_values(space, data.g.value(space.edge_qpoints))


class RobinProblem(_EllipticProblem):
    """The Robin problem on one mesh: F = 1/2 |grad u|^2, A = M, b = -f and
    b_G = beta u - g."""

    name = "robin"

    def __init__(self, mesh, data, order=1):
        super().__init__(mesh, data, order)
        self.data = data
        self.space = FeSpace(mesh, order=order)
        self._fact = fem.Factorized(_robin_matrix(self.space, data))
        self.u = ScalarField(self.space, self._fact.solve(_robin_rhs(self.space, data)))

    def _cost_density(self, uq, gu):
        return _parts(_COST_PARTS, F=0.5 * _dot(gu, gu), F_gu=gu)

    def _pde_density(self, uq, gu):
        data, P = self.data, self.space.qpoints
        Pe = self.space.edge_qpoints
        ue = fem.edge_qvalues(self.u)
        return _parts(_PDE_PARTS, A=data.M, b=-data.f.value(P), b_x=-data.f.grad(P),
                      bg=data.beta.value(Pe) * ue - data.g.value(Pe),
                      bg_x=ue[..., None] * data.beta.grad(Pe) - data.g.grad(Pe))


# =================================================================== semilinear

class QuasilinearData:
    """Coefficients m(x, r), f(x, r) with monotonicity envelope [c1, c2, c3].

    The envelope is what the well-posedness argument needs: m bounded below
    by c1, the r-derivatives of m and f bounded below by c2, and all three
    quantities bounded above by c3 on the working range |r| <= r_check.
    """

    def __init__(self, m, f, g, u_d, c1=1.0, c2=9e-4, c3=3.0, r_check=10.0):
        self.m = m
        self.f = f
        self.g = g
        self.u_d = u_d
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.c3 = float(c3)
        self.r_check = float(r_check)


def check_quasilinear_bounds(data, points):
    """Sample the envelope over the 32 x 32 ``box_lattice`` of ``points``
    times 64 values of r in [-r_check, r_check]; raise on violation."""
    P = box_lattice(points, 32)
    rs = np.linspace(-data.r_check, data.r_check, 64)
    Pg = np.repeat(P[:, None, :], len(rs), axis=1)
    rg = np.broadcast_to(rs, (len(P), len(rs)))
    mv = data.m.value(Pg, rg)
    mrv = data.m.dr(Pg, rg)
    frv = data.f.dr(Pg, rg)
    if mv.min() < data.c1:
        raise ValueError(
            f"quasilinear bound violated: min m = {mv.min():.6g} < c1 = {data.c1:.6g}")
    if min(mrv.min(), frv.min()) < data.c2:
        raise ValueError(
            f"quasilinear bound violated: min(d_r m, d_r f) = "
            f"{min(mrv.min(), frv.min()):.6g} < c2 = {data.c2:.6g}")
    top = max(mv.max(), mrv.max(), frv.max())
    if top > data.c3:
        raise ValueError(
            f"quasilinear bound violated: max(m, d_r m, d_r f) = {top:.6g} > c3 = {data.c3:.6g}")


def _ql_residual(space, data, field):
    P = space.qpoints
    uq = fem.field_qvalues(field)
    gu = fem.field_qgrads(field)
    mv = data.m.value(P, uq)
    vec = fem.assemble_grad_load_values(space, mv[..., None] * gu)
    vec += fem.assemble_load_values(space, data.f.value(P, uq) - data.g.value(P))
    return vec


def _ql_jacobian(space, data, field):
    """Exact linearization at the current iterate (non-symmetric)."""
    P = space.qpoints
    uq = fem.field_qvalues(field)
    gu = fem.field_qgrads(field)
    mv = data.m.value(P, uq)
    A = fem.assemble_diffusion_values(space, mv[..., None, None] * _I2)
    A = A + fem.assemble_gradscalar_values(space, gu, data.m.dr(P, uq))
    A = A + fem.assemble_mass_values(space, data.f.dr(P, uq))
    return A.tocsr()


NEWTON_REL_TOL = 1e-11
NEWTON_ABS_TOL = 1e-13
NEWTON_MAX_ITER = 25


def quasilinear_solve(mesh, data, order=1):
    """Newton iteration from u = 0 with the exact Jacobian.

    Returns (u, history) where history lists the residual norms, the first
    entry being the norm at u = 0.  Raises NewtonError if the iteration
    does not reach ``max(NEWTON_REL_TOL * |R(0)|, NEWTON_ABS_TOL)`` in
    ``NEWTON_MAX_ITER`` steps.
    """
    check_quasilinear_bounds(data, mesh.nodes)
    space = FeSpace(mesh, order=order, quad_degree=6)
    field = ScalarField(space, np.zeros(space.dof_count))
    history = []
    for _ in range(NEWTON_MAX_ITER):
        R = _ql_residual(space, data, field)
        rn = float(np.linalg.norm(R))
        history.append(rn)
        if rn <= max(NEWTON_REL_TOL * history[0], NEWTON_ABS_TOL):
            return field, history
        J = _ql_jacobian(space, data, field)
        delta = fem.Factorized(J).solve(-R)
        field = ScalarField(space, field.coefficients + delta)
    raise fem.NewtonError(
        f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
        f"(last residual {history[-1]:.3e})", history)


class QuasilinearProblem(_EllipticProblem):
    """The semilinear problem on one mesh: F = 1/2 (u - u_d)^2,
    A = m(x, u) I and b = f(x, u) - g.  The Jacobian at the solution
    and its factorization are built on first use."""

    name = "quasilinear"

    def __init__(self, mesh, data, order=1):
        super().__init__(mesh, data, order)
        self.data = data
        self.u, self.newton_history = quasilinear_solve(mesh, data, order=order)
        self.space = self.u.space

    @cached_property
    def _fact(self):
        return fem.Factorized(_ql_jacobian(self.space, self.data, self.u))

    def _cost_density(self, uq, gu):
        P = self.space.qpoints
        d = uq - self.data.u_d.value(P)
        return _parts(_COST_PARTS, F=0.5 * d * d, F_u=d,
                      F_x=-d[..., None] * self.data.u_d.grad(P))

    def _pde_density(self, uq, gu):
        data, P = self.data, self.space.qpoints
        return _parts(_PDE_PARTS, A=data.m.value(P, uq)[..., None, None] * _I2,
                      DA=np.einsum('ij,...k->...ijk', _I2, data.m.dx(P, uq)),
                      b=data.f.value(P, uq) - data.g.value(P),
                      b_x=data.f.dx(P, uq) - data.g.grad(P))


# ============================================================ Dirichlet energy

class DirichletEnergyData:
    """Source term of the Dirichlet-energy problem."""

    def __init__(self, f):
        self.f = f


class DirichletEnergyProblem(_EllipticProblem):
    """-lap u = f with homogeneous Dirichlet data: F = |grad u|^2,
    A = I and b = -f.  K is assembled and the eliminated operator
    factorized once, for the state and the adjoint."""

    name = "dirichlet_energy"

    def __init__(self, mesh, data, order=1):
        super().__init__(mesh, data, order)
        self.data = data
        self.space = FeSpace(mesh, order=order)
        self._bd = self.space.boundary_dofs()
        self._keep = np.ones(self.space.dof_count)
        self._keep[self._bd] = 0.0
        A2, b2 = fem.apply_dirichlet(
            fem.assemble_diffusion_values(self.space, _at_qpoints(self.space, _I2)),
            fem.assemble_load_values(self.space, data.f.value(self.space.qpoints)),
            self._bd, 0.0)
        self._fact = fem.Factorized(A2)
        self.u = ScalarField(self.space, self._fact.solve(b2))

    def _cost_density(self, uq, gu):
        return _parts(_COST_PARTS, F=_dot(gu, gu), F_gu=2.0 * gu)

    def _pde_density(self, uq, gu):
        P = self.space.qpoints
        return _parts(_PDE_PARTS, A=_I2, b=-self.data.f.value(P), b_x=-self.data.f.grad(P))

    def _tensor_adjoint(self):
        # eliminated: on the free dofs A^T p = -2 K u = -2 A u, so p = -2u
        return ScalarField(self.space, -2.0 * self.u.coefficients)


def dirichlet_energy_boundary_dJ(data, u, samples):
    """Boundary form of the same derivative: int (S1 n . n) theta . n.

    Uses one-sided gradient traces; with the trace of u vanishing this is
    int (2 (dn u)^2 - |grad u|^2) theta . n over the boundary.
    """
    space = u.space
    gue = fem.edge_qgrads(u)
    ue = fem.edge_qvalues(u)
    fe = data.f.value(space.edge_qpoints)
    n = space.edge_normal[:, None, :]
    dn = _dot(gue, np.broadcast_to(n, gue.shape))
    s1nn = 2.0 * dn * dn + 2.0 * fe * ue - _dot(gue, gue)
    thn = _dot(samples.edge_val, np.broadcast_to(n, samples.edge_val.shape))
    return float(np.sum(space.edge_qweights * s1nn * thn))
