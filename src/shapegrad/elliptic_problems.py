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
  discrete level, which the suite verifies).

The material-derivative right-hand sides and the tensors are assembled
with the same quadrature as the state equation, so evaluating the tensors
against nodally interpolated velocities reproduces the derivative of the
transported-mesh cost exactly (up to the s^2 finite-difference error).
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import fem_core as fem
from .data_catalog import check_positive
from .fem_core import FeSpace, ScalarField
from .shape_assembly import (ShapeProblem, ShapeTensors, material_tensor_rate,
                             theta_samples)

_I2 = np.eye(2)


def _outer(a, b):
    return np.einsum('...i,...j->...ij', a, b)


def _dot(a, b):
    return np.einsum('...i,...i->...', a, b)


class _EllipticProblem(ShapeProblem):
    """Shared body of the stationary problems.

    A subclass solves its state in the constructor (setting ``space``,
    ``u`` and the factorized operator ``_fact``) and supplies L(u) as
    ``_L(samples)``, the cost gradient ``B`` and, for eliminated Dirichlet
    dofs ``_bd``, the row mask ``_keep``.  Then A udot = -keep L,
    A^T p = -B with zero Dirichlet rows, and <keep L, p> = <keep B, udot>.
    The adjoint is solved on first use: a rebuilt problem only solves u.
    """

    _bd = np.zeros(0, dtype=np.int64)
    _keep = 1.0

    @cached_property
    def _fact_T(self):
        # symmetric operators share the factorization
        return self._fact

    @cached_property
    def p(self):
        rhs = -self.B
        rhs[self._bd] = 0.0
        return ScalarField(self.space, self._fact_T.solve(rhs))

    def _material_rhs(self, theta):
        samples = theta_samples(self.space, theta, "interpolated")
        return self._L(samples) * self._keep

    def material(self, theta):
        return ScalarField(self.space, self._fact.solve(-self._material_rhs(theta)))

    def duality_pair(self, theta):
        L = self._material_rhs(theta)
        udot = self._fact.solve(-L)
        return float(L @ self.p.coefficients), float((self.B * self._keep) @ udot)


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
    return fem.assemble_diffusion(space, data.M) \
        + fem.assemble_boundary_mass(space, None, data.beta.value)


def _robin_rhs(space, data):
    return fem.assemble_load(space, data.f.value) \
        + fem.assemble_boundary_load(space, None, data.g.value)


def robin_L_vector(data, u, samples):
    """Shape-Lagrangian linear form L(u) evaluated on the test basis.

    L(u) psi = int rate(M) grad u . grad psi - div(f theta) psi
             + int_G (beta u - g) div_G(theta) psi + (u grad beta - grad g) . theta psi
    with div(f theta) expanded analytically as grad f . theta + f div theta.
    """
    space = u.space
    P = space.qpoints
    gu = fem.field_qgrads(u)
    W = np.einsum('mqij,mqj->mqi', material_tensor_rate(data.M, samples), gu)
    vec = fem.assemble_grad_load_values(space, W)
    fv = data.f.value(P)
    vec -= fem.assemble_load_values(
        space, fv * samples.vol_div + _dot(data.f.grad(P), samples.vol_val))

    edges = np.arange(len(space.edge_markers))
    Pe = space.edge_qpoints
    ue = fem.edge_qvalues(u, edges)
    bv = data.beta.value(Pe)
    gv = data.g.value(Pe)
    vals = (bv * ue - gv) * samples.edge_divg \
        + _dot(ue[..., None] * data.beta.grad(Pe) - data.g.grad(Pe), samples.edge_val)
    vec += fem.assemble_boundary_load_values(space, edges, vals)
    return vec


def robin_partial_cost(u, samples):
    """Transport derivative of the cost with the state frozen.

    d/ds [ 1/2 int rate(I) grad u . grad u ] = int 1/2 |grad u|^2 div theta
    - grad u . Dtheta grad u.
    """
    gu = fem.field_qgrads(u)
    term = 0.5 * samples.vol_div * _dot(gu, gu) \
        - np.einsum('mqi,mqij,mqj->mq', gu, samples.vol_jac, gu)
    return float(np.sum(u.space.qweights * term))


def robin_shape_tensors(data, u, p):
    """Distributed tensors of the Robin energy cost.

    S0   = -p grad f
    S1   = -grad p x M grad u - grad u x M grad p - grad u x grad u
           + [M grad u . grad p - f p + 1/2 |grad u|^2] I
    S0_G = p (u grad beta - grad g)
    S1_G = [(beta u - g) p] I, paired with the tangential Jacobian.
    """
    space = u.space
    P = space.qpoints
    gu = fem.field_qgrads(u)
    gp = fem.field_qgrads(p)
    pv = fem.field_qvalues(p)
    fv = data.f.value(P)
    Mgu = np.einsum('ij,mqj->mqi', data.M, gu)
    Mgp = np.einsum('ij,mqj->mqi', data.M, gp)
    S0 = -pv[..., None] * data.f.grad(P)
    scal = _dot(Mgu, gp) - fv * pv + 0.5 * _dot(gu, gu)
    S1 = -_outer(gp, Mgu) - _outer(gu, Mgp) - _outer(gu, gu) \
        + scal[..., None, None] * _I2

    edges = np.arange(len(space.edge_markers))
    Pe = space.edge_qpoints
    ue = fem.edge_qvalues(u, edges)
    pe = fem.edge_qvalues(p, edges)
    bv = data.beta.value(Pe)
    gv = data.g.value(Pe)
    S0g = pe[..., None] * (ue[..., None] * data.beta.grad(Pe) - data.g.grad(Pe))
    S1g = ((bv * ue - gv) * pe)[..., None, None] * _I2
    return ShapeTensors(space, S0=S0, S1=S1, S0_gamma=S0g, S1_gamma=S1g,
                        boundary_pairing="tangential")


class RobinProblem(_EllipticProblem):
    """The Robin problem on one mesh."""

    name = "robin"

    def __init__(self, mesh, data, order=1):
        super().__init__(mesh, data, order)
        self.data = data
        self.space = FeSpace(mesh, order=order)
        # K_I before the LU: its assembly temporaries interleaved with live
        # factors fragment the heap, and repeated re-solves then grow the peak RSS
        self._KI = fem.assemble_diffusion(self.space, _I2)
        self._fact = fem.Factorized(_robin_matrix(self.space, data))
        self.u = ScalarField(self.space, self._fact.solve(_robin_rhs(self.space, data)))

    @cached_property
    def B(self):
        """B_i = dJ/du_i = (K_I u)_i."""
        return self._KI @ self.u.coefficients

    def cost(self):
        """J = 1/2 int |grad u|^2 evaluated through the stiffness matrix."""
        return 0.5 * float(self.u.coefficients @ self.B)

    def _L(self, samples):
        return robin_L_vector(self.data, self.u, samples)

    def _build_tensors(self):
        return robin_shape_tensors(self.data, self.u, self.p)


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


def check_quasilinear_bounds(data, box, nx=32, ny=32, nr=64):
    """Sample the envelope over box x [-r_check, r_check]; raise on violation."""
    (x0, y0), (x1, y1) = np.asarray(box, dtype=float)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    P = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    rs = np.linspace(-data.r_check, data.r_check, nr)
    Pg = np.repeat(P[:, None, :], nr, axis=1)
    rg = np.broadcast_to(rs, (len(P), nr))
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


def quasilinear_solve(mesh, data, order=1, rel_tol=1e-11, abs_tol=1e-13, max_iter=25):
    """Newton iteration from u = 0 with the exact Jacobian.

    Returns (u, history) where history lists the residual norms, the first
    entry being the norm at u = 0.  Raises NewtonError if the iteration
    does not reach ``max(rel_tol * |R(0)|, abs_tol)`` in ``max_iter`` steps.
    """
    box = np.stack([mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)])
    check_quasilinear_bounds(data, box)
    space = FeSpace(mesh, order=order, quad_degree=6)
    field = ScalarField(space, np.zeros(space.dof_count))
    history = []
    r0 = None
    for _ in range(max_iter):
        R = _ql_residual(space, data, field)
        rn = float(np.linalg.norm(R))
        history.append(rn)
        r0 = history[0]
        if rn <= max(rel_tol * r0, abs_tol):
            return field, history
        J = _ql_jacobian(space, data, field)
        delta = fem.solve(J, -R)
        field = ScalarField(space, field.coefficients + delta)
    raise fem.NewtonError(
        f"Newton did not converge in {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history)


def quasilinear_cost(data, u):
    """J = 1/2 int (u - u_d)^2 with u_d evaluated at the quadrature points."""
    space = u.space
    d = fem.field_qvalues(u) - data.u_d.value(space.qpoints)
    return 0.5 * float(np.sum(space.qweights * d * d))


def quasilinear_cost_gradient_vector(data, u):
    """B_i = int (u - u_d) phi_i."""
    space = u.space
    return fem.assemble_load_values(
        space, fem.field_qvalues(u) - data.u_d.value(space.qpoints))


def quasilinear_L_vector(data, u, samples):
    """L(u) psi = int m rate(I) grad u . grad psi + (grad_x m . theta) grad u . grad psi
    + [f div theta + grad_x f . theta] psi - [grad g . theta + g div theta] psi."""
    space = u.space
    P = space.qpoints
    uq = fem.field_qvalues(u)
    gu = fem.field_qgrads(u)
    mv = data.m.value(P, uq)
    rate = material_tensor_rate(_I2, samples)
    W = mv[..., None] * np.einsum('mqij,mqj->mqi', rate, gu) \
        + _dot(data.m.dx(P, uq), samples.vol_val)[..., None] * gu
    vec = fem.assemble_grad_load_values(space, W)
    scal = data.f.value(P, uq) * samples.vol_div + _dot(data.f.dx(P, uq), samples.vol_val) \
        - _dot(data.g.grad(P), samples.vol_val) - data.g.value(P) * samples.vol_div
    vec += fem.assemble_load_values(space, scal)
    return vec


def quasilinear_partial_cost(data, u, samples):
    """d/ds of the transported cost with the state frozen:
    int 1/2 (u - u_d)^2 div theta - (u - u_d) grad u_d . theta."""
    space = u.space
    P = space.qpoints
    d = fem.field_qvalues(u) - data.u_d.value(P)
    term = 0.5 * d * d * samples.vol_div - d * _dot(data.u_d.grad(P), samples.vol_val)
    return float(np.sum(space.qweights * term))


def quasilinear_shape_tensors(data, u, p):
    """S0 = (grad u . grad p) grad_x m + p grad_x f - p grad g - (u - u_d) grad u_d
    S1 = -m (grad p x grad u + grad u x grad p)
         + [m grad u . grad p + f p - g p + 1/2 (u - u_d)^2] I."""
    space = u.space
    P = space.qpoints
    uq = fem.field_qvalues(u)
    gu = fem.field_qgrads(u)
    gp = fem.field_qgrads(p)
    pv = fem.field_qvalues(p)
    mv = data.m.value(P, uq)
    fv = data.f.value(P, uq)
    gv = data.g.value(P)
    d = uq - data.u_d.value(P)
    S0 = _dot(gu, gp)[..., None] * data.m.dx(P, uq) \
        + pv[..., None] * data.f.dx(P, uq) \
        - pv[..., None] * data.g.grad(P) \
        - d[..., None] * data.u_d.grad(P)
    scal = mv * _dot(gu, gp) + fv * pv - gv * pv + 0.5 * d * d
    S1 = -mv[..., None, None] * (_outer(gp, gu) + _outer(gu, gp)) \
        + scal[..., None, None] * _I2
    return ShapeTensors(space, S0=S0, S1=S1)


class QuasilinearProblem(_EllipticProblem):
    """The semilinear problem on one mesh; the Jacobian at the solution and
    its factorizations are built on first use."""

    name = "quasilinear"

    def __init__(self, mesh, data, order=1):
        super().__init__(mesh, data, order)
        self.data = data
        self.u, self.newton_history = quasilinear_solve(mesh, data, order=order)
        self.space = self.u.space

    @cached_property
    def _A(self):
        return _ql_jacobian(self.space, self.data, self.u)

    @cached_property
    def _fact(self):
        return fem.Factorized(self._A)

    @cached_property
    def _fact_T(self):
        return fem.Factorized(self._A.T.tocsr())

    @cached_property
    def B(self):
        return quasilinear_cost_gradient_vector(self.data, self.u)

    def cost(self):
        return quasilinear_cost(self.data, self.u)

    def _L(self, samples):
        return quasilinear_L_vector(self.data, self.u, samples)

    def _build_tensors(self):
        return quasilinear_shape_tensors(self.data, self.u, self.p)


# ============================================================ Dirichlet energy

class DirichletEnergyData:
    """Source term of the Dirichlet-energy problem."""

    def __init__(self, f):
        self.f = f


def dirichlet_energy_L_vector(data, u, samples):
    """L(u) psi = int rate(I) grad u . grad psi - div(f theta) psi."""
    space = u.space
    P = space.qpoints
    gu = fem.field_qgrads(u)
    W = np.einsum('mqij,mqj->mqi', material_tensor_rate(_I2, samples), gu)
    vec = fem.assemble_grad_load_values(space, W)
    vec -= fem.assemble_load_values(
        space, data.f.value(P) * samples.vol_div + _dot(data.f.grad(P), samples.vol_val))
    return vec


def dirichlet_energy_tensors(data, u):
    """Volume tensors with the adjoint eliminated through p = -2u:

    S0 = 2 u grad f,  S1 = 2 grad u x grad u + (2 f u - |grad u|^2) I.
    """
    space = u.space
    P = space.qpoints
    uq = fem.field_qvalues(u)
    gu = fem.field_qgrads(u)
    fv = data.f.value(P)
    S0 = 2.0 * uq[..., None] * data.f.grad(P)
    S1 = 2.0 * _outer(gu, gu) + (2.0 * fv * uq - _dot(gu, gu))[..., None, None] * _I2
    return ShapeTensors(space, S0=S0, S1=S1)


def dirichlet_energy_boundary_dJ(data, u, samples):
    """Boundary form of the same derivative: int (S1 n . n) theta . n.

    Uses one-sided gradient traces; with the trace of u vanishing this is
    int (2 (dn u)^2 - |grad u|^2) theta . n over the boundary.
    """
    space = u.space
    edges = np.arange(len(space.edge_markers))
    gue = fem.edge_qgrads(u, edges)
    ue = fem.edge_qvalues(u, edges)
    fe = data.f.value(space.edge_qpoints)
    n = space.edge_normal[:, None, :]
    dn = _dot(gue, np.broadcast_to(n, gue.shape))
    s1nn = 2.0 * dn * dn + 2.0 * fe * ue - _dot(gue, gue)
    thn = _dot(samples.edge_val, np.broadcast_to(n, samples.edge_val.shape))
    return float(np.sum(space.edge_qweights * s1nn * thn))


class DirichletEnergyProblem(_EllipticProblem):
    """-lap u = f with homogeneous Dirichlet data; K is assembled and the
    eliminated operator factorized once, for the state and the adjoint."""

    name = "dirichlet_energy"

    def __init__(self, mesh, data, order=1):
        super().__init__(mesh, data, order)
        self.data = data
        self.space = FeSpace(mesh, order=order)
        self._K = fem.assemble_diffusion(self.space, _I2)
        self._bd = self.space.boundary_dofs()
        self._keep = np.ones(self.space.dof_count)
        self._keep[self._bd] = 0.0
        A2, b2 = fem.apply_dirichlet(self._K, fem.assemble_load(self.space, data.f.value),
                                     self._bd, 0.0)
        self._fact = fem.Factorized(A2)
        self.u = ScalarField(self.space, self._fact.solve(b2))

    @cached_property
    def B(self):
        return 2.0 * (self._K @ self.u.coefficients)

    def cost(self):
        """J = int |grad u|^2 (no half)."""
        return float(self.u.coefficients @ (self._K @ self.u.coefficients))

    def _L(self, samples):
        return dirichlet_energy_L_vector(self.data, self.u, samples)

    def _build_tensors(self):
        return dirichlet_energy_tensors(self.data, self.u)


def dirichlet_energy_suite(mesh, data, theta, order=1):
    """State, adjoint, material derivative, and both derivative forms."""
    problem = DirichletEnergyProblem(mesh, data, order=order)
    samples = theta_samples(problem.space, theta, "interpolated")
    return SimpleNamespace(
        u=problem.u, p=problem.p, udot=problem.material(theta), tensors=problem.tensors(),
        dJ_volume=problem.derivative(theta),
        dJ_boundary=dirichlet_energy_boundary_dJ(data, problem.u, samples),
        duality=problem.duality_pair(theta))
