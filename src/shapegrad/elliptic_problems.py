"""
Stationary model problems with distributed shape derivatives.

* ``robin``: -div(M grad u) + Robin boundary condition
  ``M grad u . n + beta u = g``, cost J = 1/2 int |grad u|^2.
* ``quasilinear``: -div(m(x, u) grad u) + f(x, u) = g with natural
  boundary conditions, cost J = 1/2 int (u - u_d)^2.
* ``dirichlet_energy``: -lap u = f with homogeneous Dirichlet data,
  cost J = int |grad u|^2, whose adjoint is p = -2u exactly (also at the
  discrete level, which the tests verify).

One Lagrangian per problem
--------------------------
A problem gives only its Lagrangian density at the quadrature points: the
cost part F(x, u, grad u) with d_u F, d_x F and d_grad u F, and the p-linear
part, the flux matrix A(x, u) of a = A grad u, the source b(x, u) and, for
Robin, the boundary part b_G(x, u) = beta u - g, with their partials in u
(d_u A = A_u I, b_u, b_G_u) for the solve or in x (DA = d_x A, b_x, b_G_x)
for the shape phase; a partial that is zero or of the other phase is None.
:class:`_EllipticProblem` derives from it the state equation
R(u) psi = int A grad u . grad psi + b psi + int_G b_G psi = 0 and its
Jacobian d_u R, which one Newton loop solves from u = 0; the cost
J = int F, its gradient B_i = int d_u F phi_i + d_grad u F . grad phi_i
and the adjoint d_u R^T p = -B; and, through the kernel in
``shape_assembly`` (whose docstring has the formulas) with
T = grad p x grad u and p_b = p, the volume tensors S0/S1 and the material
right-hand side L(u) psi, with d_u R udot = -L.  The boundary part adds
S0_G = p d_x b_G and S1_G = b_G p (I - n x n), whose pairing with Dtheta is
b_G p div_G theta, and int_G [d_x b_G . theta + b_G div_G theta] psi to
L(u) psi, with div_G theta the ``edge_divg`` of the theta samples.
Dirichlet energy evaluates its tensors at p = -2u, with no adjoint solve.

Everything is assembled with the same quadrature as the state equation, so
evaluating the tensors against nodally interpolated velocities reproduces
the derivative of the transported-mesh cost exactly (up to the s^2
finite-difference error).
"""

import logging
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import fem_core as fem
from . import shape_assembly
from .data_catalog import box_lattice, check_positive
from .fem_core import FeSpace, ScalarField
from .shape_assembly import (ShapeGradient, ShapeProblem, flux_rate, lagrangian_tensors,
                             source_rate)
from .tensor_calc import inner

log = logging.getLogger(__name__)

_I2 = np.eye(2)
_COST_PARTS = ("F", "F_u", "F_x", "F_gu")
_PDE_PARTS = ("A", "A_u", "DA", "b", "b_u", "b_x", "bg", "bg_u", "bg_x")

NEWTON_REL_TOL = 1e-11
NEWTON_ABS_TOL = 1e-13
NEWTON_MAX_ITER = 25
# the rounding floor of |R| grows like the condition number: on the shipped
# quasilinear data 1.6e-13 |R(0)| at refine 4, 2.5e-12 at 6, 1.0e-11 at 7
NEWTON_FLOOR_FACTOR = 10.0


def _parts(names, **given):
    """Density parts by name: those given, and None (a zero partial) for the
    other ``names``."""
    return SimpleNamespace(**{**dict.fromkeys(names), **given})


class _EllipticProblem(ShapeProblem):
    """Shared body of the stationary problems: the density kernel.

    A subclass checks its input, hands its ``space`` to this constructor
    and gives its density: ``_cost_density(uq, gu)`` from the state's values
    at the quadrature points and its ``field_grads`` (one per element at
    P1), and ``_pde_density(u, shape=False)`` at a field u, one mode per
    phase: A, b and b_G with the u-partials A_u, b_u and b_G_u for a Newton
    iterate, whose residual (its flux A grad u keeps the point axis of A
    and grad u) and Jacobian read the one evaluation; with ``shape``, A, b,
    b_G and the x-partials for the material right-hand side and the
    tensors.  So a re-solved cost evaluates only F and a Newton step no
    x-partial.  The state ``u`` is solved on first use, like the
    adjoint ``p``, by ``solve``: Newton from u = 0 on J = ``jacobian(u)``,
    recording |R| of each iterate, until |R| <= tol = max(NEWTON_REL_TOL
    |R(0)|, NEWTON_ABS_TOL) or, no longer halving, |R| <= NEWTON_FLOOR_FACTOR
    tol (its rounding floor); it raises NewtonError after NEWTON_MAX_ITER
    steps.  A ``linear`` problem takes
    one step and keeps its factors as ``_fact``, the factors of J at the
    state that the adjoint J^T p = -B and the material J udot = -ell use,
    and |J u + R(0)| of that direct solve as ``_state_residual``.  R,
    ell = keep L and -B are zero in the eliminated rows ``_bd`` (row mask
    ``_keep``).

    Which factors and which start a re-solve uses is decided here alone:
    the state of a problem ``rebuilt`` from another is, on first use like
    every state, ``solve(reference, x0)`` with the root ``reference`` that
    ``ShapeProblem.rebuilt`` gives it.  A problem on a mesh of the
    reference's topology then factorizes nothing: each step, a linear
    problem's one and every Newton step of a nonlinear one, is
    ``Factorized.gmres`` on its own J with the factors ``_fact`` of the
    reference's J at its state and the reference's own ``_state_residual``
    as the floor, so that a start as good as the reference's own direct
    solve takes no step (a zero theta keeps a linear reference's bits); a
    nonlinear reference has no floor.  A nonlinear problem whose
    ``_start`` is (theta, s) starts Newton from the material derivative's
    prediction x0 = u + s udot of the root, which the Taylor check shows is
    the state to O(s^2).  Its stop stays relative to |R(0)| of u = 0 on the
    new mesh, so a start near the state cannot loosen it.  With no theta
    there is no prediction, and it solves directly from u = 0.  A re-solve
    whose Krylov solve does not stop in ``KRYLOV_MAX_ITER`` iterations is
    the direct solve: Newton from u = 0 with each J factorized, as the
    reference's own.
    """

    linear = False
    _state_residual = 0.0
    _bd = np.zeros(0, dtype=np.int64)
    _keep = 1.0

    def __init__(self, mesh, data, order, space):
        super().__init__(mesh, data, order)
        self.data = data
        self.space = space

    @cached_property
    def u(self):
        root, x0 = self.reference, None
        if self._start and not self.linear:
            theta, s = self._start
            x0 = root.u.coefficients + s * root.material(theta).coefficients
        return self.solve(root, x0)

    def solve(self, reference=None, x0=None):
        """The state by Newton (see the class docstring): on the ``reference``'s
        factors from ``x0`` when they apply, else directly from u = 0, which
        is also the fallback of a Krylov solve that did not stop.  Sets
        ``newton_history``."""
        if not (reference and reference.mesh.topology is self.mesh.topology
                and (self.linear or x0 is not None)):
            reference = x0 = None
        u, history, cold, notes = self._newton(x0, reference)
        if u is None:  # a Krylov solve did not stop: the direct solve
            x0 = None
            u, history, cold, _ = self._newton(None, None)
        self.newton_history = history
        if log.isEnabledFor(logging.INFO):
            # a linear problem's last residual is not in the history
            rn = fem.norm(self.residual(u)) if self.linear else history[-1]
            krylov = "; GMRES on the reference factors: " + "; ".join(notes) if notes else ""
            log.info("%s state: %d Newton step(s)%s, |R|/|R(0)| = %.3e%s", self.name,
                     len(history) - 1 + self.linear, "" if x0 is None else " from u + s udot",
                     rn / (cold or 1.0), krylov)
        return u

    def _newton(self, x0, reference):
        """(u, |R| of each iterate, |R(0)|, Krylov notes) of Newton from u = 0 or
        the coefficients ``x0``, each step ``Factorized.gmres`` on the
        ``reference``'s factors or, with no reference, factorized; u is None
        when a Krylov solve did not stop.  The stop is relative to |R(0)| of
        u = 0, so that a start near the state cannot loosen it."""
        u = ScalarField(self.space, np.zeros(self.dof_count))
        e = self._pde_density(u)  # one density per iterate, for R and J
        R = self.residual(u, e)
        cold = fem.norm(R)
        if x0 is not None:
            u = ScalarField(self.space, x0)
            e = self._pde_density(u)
            R = self.residual(u, e)
        history, notes = [], []
        for _ in range(NEWTON_MAX_ITER):
            history.append(fem.norm(R))
            rn, tol = history[-1], max(NEWTON_REL_TOL * cold, NEWTON_ABS_TOL)
            stalled = len(history) > 1 and rn > 0.5 * history[-2]
            if not self.linear and (rn <= tol or stalled and rn <= NEWTON_FLOOR_FACTOR * tol):
                break
            J = self.jacobian(u, e)
            e = None  # free the density before the factors or the Krylov basis
            if reference is None:
                fact = fem.Factorized(J)
                step = fact.solve(-R)
                if self.linear:
                    self._fact, self._state_residual = fact, fact.residual
                del fact  # free these factors before the next Jacobian's
            else:
                reference.u  # a linear reference's factors are those of its state solve
                floor = reference._state_residual
                step, iterations, kn = reference._fact.gmres(J, -R, floor)
                notes.append(f"{iterations} iteration(s), |r|/|b| = {kn / (rn or 1.0):.3e}, "
                             f"reference |r|/|b| = {floor / (rn or 1.0):.3e}")
                if step is None:
                    notes[-1] += ", did not stop: factorized directly"
                    return None, history, cold, notes
            u = ScalarField(self.space, u.coefficients + step)
            if self.linear:
                break
            e = self._pde_density(u)
            R = self.residual(u, e)
        else:
            raise fem.NewtonError(
                f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                f"(last residual {history[-1]:.3e})", history)
        return u, history, cold, notes

    def _load(self, W=None, b=None, bg=None):
        """int W . grad psi + b psi + int_G bg psi on the basis, a term that is
        None left out: R(u), L(u) and B are each one such vector."""
        vec = np.zeros(self.dof_count)
        if W is not None:
            vec += fem.assemble_grad_load_values(self.space, W)
        if b is not None:
            vec += fem.assemble_load_values(self.space, b)
        if bg is not None:
            vec += fem.assemble_boundary_load_values(self.space, bg)
        return vec

    def residual(self, u, e=None):
        """R(u) on the basis (see the module docstring), 0 in the eliminated
        rows, from the density ``e`` at u when given."""
        e = self._pde_density(u) if e is None else e
        W = None  # the flux of u = 0, every cold start, is 0
        if np.any(u.coefficients):
            W = np.einsum('...ij,...j->...i', e.A, fem.field_grads(u))
        return self._load(W, e.b, e.bg) * self._keep

    def jacobian(self, u, e=None):
        """d_u R at u, from the density ``e`` at u when given; eliminated rows
        and columns as ``apply_dirichlet`` leaves them."""
        space = self.space
        e = self._pde_density(u) if e is None else e
        J = fem.assemble_diffusion_values(space, e.A)
        if e.A_u is not None:
            J = J + fem.assemble_gradscalar_values(space, fem.field_grads(u), e.A_u)
        if e.b_u is not None:
            J = J + fem.assemble_mass_values(space, e.b_u)
        if e.bg_u is not None:
            J = J + fem.assemble_boundary_mass(space, e.bg_u)
        if len(self._bd):
            J = fem.apply_dirichlet(J, self._bd)
        return J.tocsr()

    @cached_property
    def _fact(self):
        return fem.Factorized(self.jacobian(self.u))

    def _state_qpoints(self):
        return fem.field_qvalues(self.u), fem.field_grads(self.u)

    def _tensor_adjoint(self):
        return self.p

    @cached_property
    def p(self):
        return ScalarField(self.space, self._fact.solve_transposed(-self.B * self._keep))

    def cost(self):
        """J = int F."""
        return float(np.sum(self.space.qweights * self._cost_density(*self._state_qpoints()).F))

    @cached_property
    def B(self):
        """B_i = dJ/du_i = int d_u F phi_i + d_grad u F . grad phi_i."""
        c = self._cost_density(*self._state_qpoints())
        return self._load(c.F_gu, c.F_u)

    def _L(self, samples):
        """L(u) on the basis; R grad u keeps the point axis of R and grad u,
        so at P1 a constant A gives one flux per element."""
        e = self._pde_density(self.u, shape=True)
        W = np.einsum('mqij,mqj->mqi', flux_rate(e.A, e.DA, samples), fem.field_grads(self.u))
        bg = None if e.bg is None else e.bg * samples.edge_divg + inner(e.bg_x, samples.edge_val)
        return self._load(W, source_rate(e.b, e.b_x, samples), bg)

    def _build_tensors(self):
        """The ``ShapeGradient`` of the density: the volume terms from
        ``lagrangian_tensors`` with T = grad p x grad u at the rank of the
        gradients (one per element at P1), and the boundary terms
        S0_G = p d_x b_G, at the points, and S1_G = b_G p (I - n x n), whose
        sum over an edge is that of b_G p times its constant I - n x n."""
        space = self.space
        uq, gu = self._state_qpoints()
        c = self._cost_density(uq, gu)
        e = self._pde_density(self.u, shape=True)
        p = self._tensor_adjoint()
        gp = fem.field_grads(p)
        T = gp[..., :, None] * gu[..., None, :]
        S0, S1 = lagrangian_tensors(space, T, e.A, e.DA, fem.field_qvalues(p), e.b, e.b_x,
                                    c.F, c.F_x, c.F_gu, gu)
        if e.bg is None:
            return ShapeGradient(S0=S0, S1=S1)
        pe = fem.edge_qvalues(p)
        n = space.edge_normal
        edge_sum = (space.edge_qweights * e.bg * pe).sum(axis=1)
        tangential = _I2 - n[:, :, None] * n[:, None, :]
        return ShapeGradient(
            S0=S0, S1=S1,
            S0_gamma=fem.assemble_vertex_load(space, (pe * e.bg_x[..., 0], pe * e.bg_x[..., 1]),
                                              boundary=True),
            S1_gamma=fem.assemble_vertex_grad_load(space, edge_sum[:, None, None] * tangential,
                                                   boundary=True))

    def _material(self, theta):
        # the samples live for this one solve; the memo keeps (udot, ell)
        ell = self._L(shape_assembly.theta_samples(self.space, self.nodal(theta))) * self._keep
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


class RobinProblem(_EllipticProblem):
    """The Robin problem on one mesh: F = 1/2 |grad u|^2, A = M, b = -f and
    b_G = beta u - g."""

    name = "robin"
    linear = True

    def __init__(self, mesh, data, order=1):
        space = FeSpace(mesh, order=order)
        check_positive(data.beta, space.edge_qpoints)
        super().__init__(mesh, data, order, space)

    def _cost_density(self, uq, gu):
        return _parts(_COST_PARTS, F=0.5 * inner(gu, gu), F_gu=gu)

    def _pde_density(self, u, shape=False):
        data, P, Pe = self.data, self.space.qpoints, self.space.edge_qpoints
        beta, ue = data.beta.value(Pe), fem.edge_qvalues(u)
        parts = dict(A=data.M, b=-data.f.value(P), bg=beta * ue - data.g.value(Pe))
        if not shape:
            return _parts(_PDE_PARTS, bg_u=beta, **parts)
        return _parts(_PDE_PARTS, b_x=-data.f.grad(P),
                      bg_x=ue[..., None] * data.beta.grad(Pe) - data.g.grad(Pe), **parts)


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


class QuasilinearProblem(_EllipticProblem):
    """The semilinear problem on one mesh: F = 1/2 (u - u_d)^2,
    A = m(x, u) I and b = f(x, u) - g, on the degree-6 rule.  The Jacobian
    at the solution and its factorization are built on first use."""

    name = "quasilinear"

    def __init__(self, mesh, data, order=1):
        check_quasilinear_bounds(data, mesh.nodes)
        super().__init__(mesh, data, order, FeSpace(mesh, order=order, quad_degree=6))

    def _cost_density(self, uq, gu):
        P = self.space.qpoints
        d = uq - self.data.u_d.value(P)
        return _parts(_COST_PARTS, F=0.5 * d * d, F_u=d,
                      F_x=-d[..., None] * self.data.u_d.grad(P))

    def _pde_density(self, u, shape=False):
        data, P = self.data, self.space.qpoints
        uq = fem.field_qvalues(u)
        parts = dict(A=data.m.value(P, uq)[..., None, None] * _I2,
                     b=data.f.value(P, uq) - data.g.value(P))
        if not shape:
            return _parts(_PDE_PARTS, A_u=data.m.dr(P, uq), b_u=data.f.dr(P, uq), **parts)
        return _parts(_PDE_PARTS, DA=np.einsum('ij,...k->...ijk', _I2, data.m.dx(P, uq)),
                      b_x=data.f.dx(P, uq) - data.g.grad(P), **parts)


# ============================================================ Dirichlet energy

class DirichletEnergyData:
    """Source term of the Dirichlet-energy problem."""

    def __init__(self, f):
        self.f = f


class DirichletEnergyProblem(_EllipticProblem):
    """-lap u = f with homogeneous Dirichlet data: F = |grad u|^2,
    A = I and b = -f, with the boundary dofs eliminated."""

    name = "dirichlet_energy"
    linear = True

    def __init__(self, mesh, data, order=1):
        space = FeSpace(mesh, order=order)
        self._bd = space.boundary_dofs()
        self._keep = np.ones(space.dof_count)
        self._keep[self._bd] = 0.0
        super().__init__(mesh, data, order, space)

    def _cost_density(self, uq, gu):
        return _parts(_COST_PARTS, F=inner(gu, gu), F_gu=2.0 * gu)

    def _pde_density(self, u, shape=False):
        P = self.space.qpoints
        b_x = -self.data.f.grad(P) if shape else None
        return _parts(_PDE_PARTS, A=_I2, b=-self.data.f.value(P), b_x=b_x)

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
    dn = inner(gue, np.broadcast_to(n, gue.shape))
    s1nn = 2.0 * dn * dn + 2.0 * fe * ue - inner(gue, gue)
    thn = inner(samples.edge_val, np.broadcast_to(n, samples.edge_val.shape))
    return float(np.sum(space.edge_qweights * s1nn * thn))
