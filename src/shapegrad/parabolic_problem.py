"""
Time-dependent model problem with distributed shape derivatives.

Implicit-Euler discretization of d/dt u - div(M(t, x) grad u) = f(t, x)
with homogeneous Dirichlet conditions and initial value u_0 = I_h(g),
on a fixed time grid t_k = k t0 / nt.  Two cost functionals are carried:

* ``j1``: time-distributed tracking  J = sum_k dt 1/2 int (u_k - u_d(t_k))^2
* ``j2``: final-time tracking        J = 1/2 int (u_nt - u_d(t0))^2

The coefficients are separable: M(t, x) = a_M(t) M(x) and
f(t, x) = a_f(t) f(x) (``TimeMatrixData`` and ``TimeScalarData``), and so
is the tracked field u_d(t, x) = a(t) u_d(x); other data is rejected with
a ``ValueError``.

``ParabolicProblem`` owns the step operators: it assembles the mass
matrix, the stiffness matrix and the load vector once, rescales the last
two per step, and keeps the factorized step operators, one for a
constant-in-time M and one per step otherwise.  The scheme is one block
system over the slots k = 0..nt: row 0 is the initial condition
M_u u_0 = M_u I_h(g), row k >= 1 the step with Dirichlet rows eliminated.
Its products are its own methods, as for every problem of the protocol:
the state ``u``, its material derivative ``_material`` and the adjoint
``p`` go through the one loop, ``march``; the adjoint marches backward
with the transposed step operator (symmetric here, which the tests exploit
through an independent time-reversal oracle), and its initial-condition
multiplier in slot 0 is q = p_1, with no extra solve.  The material rows
come from the same transported-coefficient rates as the stationary
problems, plus the mass-rate pairing ``Mdot (u_k - u_{k-1})``, reported as
the ``dt_pairing`` term; separability makes the rates step-independent, so
the step rows are one batched expression.  Row 0 is ell_0 = -M_u I_h(grad g . theta), so the
protocol's <ell, p> = <B, udot> runs over all slots.

The time-summed Lagrangian density is the one of ``shape_assembly`` (whose
docstring has the formulas for the tensors and the material rates), with
A = M(x), DA = DM(x) and b = -f(x): the separable time factors move into
the pairing T = sum_k dt a_M(t_k) grad p_k x grad u_k and into
p_b = sum_k dt a_f(t_k) p_k.  Those sums collapse to per-element Gram
matrices sum_k w_k p_k^e (u_k^e)^T, summed over blocks of a few steps (one
row dot over the block's steps per pair of local dofs, so the working
memory does not grow with nt) and contracted once with the basis
gradients.  ``_build_tensors`` returns the whole derivative, a
``ShapeGradient``: ``dt_pairing`` pairs the mass-rate density with div
theta, and ``ic_pairing`` = -(M_u q) . I_h(grad g . theta) is the initial
condition, exact for any datum g, as the material derivative starts from
the same interpolant; ``FeSpace.vertex_sums`` takes its dof rows to the nodes.
"""

from functools import cached_property

import numpy as np

from . import fem_core as fem
from . import shape_assembly
from .data_catalog import TimeMatrixData, TimeScalarData, check_spd
from .fem_core import FeSpace, ScalarField, SolverError
from .shape_assembly import ShapeGradient, ShapeProblem, flux_rate, lagrangian_tensors, source_rate
from .tensor_calc import inner


class ParabolicData:
    """Coefficients of the parabolic problem.

    ``M`` is a separable time-matrix entry a_M(t) M(x) (uniformly SPD,
    with the spatial derivative tensor DM), ``f`` and ``u_d`` separable
    time-scalar entries a(t) s(x); ``g`` is the (stationary) initial datum
    with analytic gradient.
    """

    def __init__(self, M, f, g, u_d, t0=1.0, nt=64):
        if nt < 1:
            raise ValueError("parabolic data needs nt >= 1 time steps")
        if t0 <= 0:
            raise ValueError("parabolic data needs a positive final time")
        if not (isinstance(M, TimeMatrixData) and isinstance(f, TimeScalarData)):
            raise ValueError(
                "parabolic data needs separable coefficients a(t)*s(x): M must be "
                f"a TimeMatrixData and f a TimeScalarData, got {type(M).__name__} "
                f"and {type(f).__name__}")
        if not isinstance(u_d, TimeScalarData):
            raise ValueError(
                "parabolic data needs a separable tracked field a(t)*s(x): u_d must be "
                f"a TimeScalarData, got {type(u_d).__name__}")
        self.M = M
        self.f = f
        self.g = g
        self.u_d = u_d
        self.t0 = float(t0)
        self.nt = int(nt)


class TimeSeriesField:
    """Snapshots of a scalar field on the time grid, shape (nt+1, ndof).

    For adjoint series, slot 0 holds the initial-condition multiplier
    q = p_1 and slots 1..nt the backward states p_k.
    """

    def __init__(self, space, values, t0):
        self.space = space
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != space.dof_count:
            raise ValueError("time series values must have shape (nt+1, dof_count)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("time series values must be finite")
        self.t0 = float(t0)

    @property
    def coefficients(self):
        """All snapshots as one flat vector (a view of ``values``)."""
        return self.values.ravel()

    def field(self, k):
        return ScalarField(self.space, self.values[k])


def initial_rate(space, data, nodal):
    """d/ds of the interpolated initial value: dof values of I_h(grad g . theta),
    from theta's values ``nodal`` at the mesh nodes.  A dof moves with the
    transport, at ``space.dof_values(nodal)``: a vertex with theta and a P2
    midpoint with the average of its edge's endpoints, as the transported
    midpoint stays a midpoint."""
    return inner(data.g.grad(space.dof_coords), space.dof_values(nodal))


def _spatial_density(data, P):
    """A = M(x), DA = DM(x), b = -f(x) and b_x at the points P: the spatial
    parts of the density, whose time factors are a_M(t_k) and a_f(t_k)."""
    Mx, fx = data.M.spatial, data.f.spatial
    return Mx.value(P), Mx.dspace(P), -fx.value(P), -fx.grad(P)


# steps per block of the time sums: the working memory of the tensors is
# that of one block, whatever nt
_BLOCK = 4


class ParabolicProblem(ShapeProblem):
    """The parabolic pipeline for one cost flavor.  It owns the step
    operators M_u + dt a_M(t_k) K with Dirichlet rows eliminated, built from
    ``Mu`` and the spatial stiffness ``K`` (``F`` is the spatial load), and
    the time factors ``a_M``, ``a_f`` and ``a_ud`` of the separable entries
    on the time grid, each a(t_k) evaluated once.  Its state and adjoint
    march on first use, not on construction."""

    def __init__(self, mesh, data, which="j1", order=1):
        if which not in ("j1", "j2"):
            raise ValueError(f"unknown parabolic cost {which!r}; use 'j1' or 'j2'")
        super().__init__(mesh, data, which, order)
        self.name = f"parabolic_{which}"
        self.data = data
        self.which = which
        check_spd(data.M, mesh.nodes, times=(0.0, 0.5 * data.t0, data.t0))
        self.space = FeSpace(mesh, order=order)
        self.Mu = fem.assemble_mass_values(self.space, np.ones(self.space.qweights.shape))
        self.bd = self.space.boundary_dofs()
        self.keep = np.ones(self.space.dof_count)
        self.keep[self.bd] = 0.0
        self.dt = data.t0 / data.nt
        self.times = np.linspace(0.0, data.t0, data.nt + 1)
        self.a_M, self.a_f, self.a_ud = (
            np.array([entry.profile.value(t) for t in self.times], dtype=float)
            for entry in (data.M, data.f, data.u_d))
        self._facts = {}

    @cached_property
    def u(self):
        """The state series: ``march`` from u_0 = I_h(g) with loads dt a_f(t_k) F."""

        def load(k):
            return self.keep * (self.dt * (self.a_f[k] * self.F))

        vals = self.march(self.space.interpolate(self.data.g.value).coefficients, load)
        return TimeSeriesField(self.space, vals, self.data.t0)

    @cached_property
    def K(self):
        P = self.space.qpoints
        return fem.assemble_diffusion_values(self.space, self.data.M.spatial.value(P))

    @cached_property
    def F(self):
        P = self.space.qpoints
        return fem.assemble_load_values(self.space, self.data.f.spatial.value(P))

    def _fact(self, k):
        """The factorized step matrix of step k (of step 1 for a static M)."""
        key = k if self.data.M.time_dependent else 1
        if key not in self._facts:
            stiffness = self.a_M[key] * self.K
            self._facts[key] = fem.Factorized(
                fem.apply_dirichlet(self.Mu + self.dt * stiffness, self.bd))
        return self._facts[key]

    def step(self, k, b):
        try:
            return self._fact(k).solve(b)
        except SolverError as exc:
            raise SolverError(f"time step {k}: {exc}") from exc

    def march(self, x0, rhs, backward=False):
        """The implicit-Euler march x_k = step(k, keep (M_u x_j) + rhs(k)) from
        x_0 = x0 with j = k - 1, or backward from x_{nt+1} = x0 with j = k + 1
        and x_1 in slot 0; returns the (nt+1, ndof) snapshots.  The state, its
        material derivative and the adjoint all march here."""
        vals = np.empty((self.data.nt + 1, self.space.dof_count))
        x = x0
        for k in range(self.data.nt, 0, -1) if backward else range(1, self.data.nt + 1):
            x = vals[k] = self.step(k, self.keep * (self.Mu @ x) + rhs(k))
        vals[0] = vals[1] if backward else x0
        return vals

    @property
    def _scale(self):
        """Time weight of one misfit term: dt for j1, 1 for the final-time j2."""
        return self.dt if self.which == "j1" else 1.0

    def _u_d_steps(self, part):
        """k -> ``part`` ("value" or "grad") of u_d(t_k, .) at the quadrature
        points: that part of the separable u_d = a(t) s(x) has s evaluated
        once and scaled by a_ud(t_k), the product ``u_d.value`` and ``u_d.grad``
        form, so the bits are those of a per-step evaluation."""
        spatial = getattr(self.data.u_d.spatial, part)(self.space.qpoints)
        return lambda k: self.a_ud[k] * spatial

    def _misfits(self):
        """Yield (k, quadrature values of u_k - u_d(t_k)) for the steps the cost uses.

        One step's misfit is alive at a time, so callers stay at O(1) memory
        in the number of steps.
        """
        steps = range(1, self.data.nt + 1) if self.which == "j1" else (self.data.nt,)
        target = self._u_d_steps("value")
        for k in steps:
            yield k, fem.field_qvalues(self.u.field(k)) - target(k)

    @cached_property
    def B(self):
        """Cost-gradient blocks B_k,i = dJ/du_k,i (index 0 is always zero),
        shared by the adjoint march and the duality pair."""
        B = np.zeros_like(self.u.values)
        for k, dk in self._misfits():
            B[k] = self._scale * fem.assemble_load_values(self.space, dk)
        return B

    @cached_property
    def p(self):
        """The adjoint series: ``march`` backward from p_{nt+1} = 0 with loads
        -keep B_k on the step operators, symmetric, so A^T shares their factors.
        Slot 0 is the initial-condition multiplier q = p_1, slots 1..nt p_k."""
        vals = self.march(np.zeros(self.space.dof_count), lambda k: -(self.keep * self.B[k]),
                          backward=True)
        return TimeSeriesField(self.space, vals, self.data.t0)

    def cost(self):
        w = self.space.qweights
        return float(sum(self._scale * 0.5 * np.sum(w * dk * dk) for _, dk in self._misfits()))

    def state_norm(self, vec):
        vals = vec.reshape(self.u.values.shape)
        acc = sum(fem.l2_norm(self.space, vals[k]) ** 2 for k in range(vals.shape[0]))
        return float(np.sqrt(self.dt * acc))

    def _material(self, theta):
        """(udot, ell): the material derivative of the state series, by
        ``march``, and the s-derivatives ell of the scheme's rows, A udot = -ell;
        row 0, of the initial condition, is ell_0 = -M_u udot_0 with
        udot_0 = I_h(grad g . theta).  With separable data the rates of step k
        are a_M(t_k) R and a_f(t_k) bdot for fixed spatial flux and source rates
        R and bdot, so one rate matrix and one load rate serve every step.
        """
        space, data = self.space, self.data
        nodal = self.nodal(theta)
        samples = shape_assembly.theta_samples(space, nodal)
        A, DA, b, b_x = _spatial_density(data, space.qpoints)
        K_R = fem.assemble_diffusion_values(space, flux_rate(A, DA, samples))
        Bdot = fem.assemble_load_values(space, source_rate(b, b_x, samples))
        Mdot = fem.assemble_mass_values(space, samples.vol_div)
        w_M = self.dt * self.a_M[1:]
        w_f = self.dt * self.a_f[1:]
        U = self.u.values
        ell = np.empty_like(U)
        # the step rows summed in place, one series-sized temporary at a time
        ell[1:] = (Mdot @ (U[1:] - U[:-1]).T).T
        ell[1:] += w_M[:, None] * (K_R @ U[1:].T).T
        ell[1:] += w_f[:, None] * Bdot
        ell[1:] *= self.keep
        udot0 = initial_rate(space, data, nodal)
        ell[0] = -(self.Mu @ udot0)
        vals = self.march(udot0, lambda k: -ell[k])
        return TimeSeriesField(space, vals, data.t0), ell

    def _build_tensors(self):
        """The ``ShapeGradient`` of the cost: S0, S1, the mass-rate term
        ``dt_pairing`` and the initial-condition term ``ic_pairing``.

        The kernel ``lagrangian_tensors`` gives S0 and S1 from the spatial
        density (``_spatial_density``), the pairing
        T = sum_k dt a_M(t_k) grad p_k x grad u_k, p_b = sum_k dt a_f(t_k) p_k
        and the summed tracking term F with its x-derivative.  T and the
        mass-rate density sum_k p_k (u_k - u_{k-1}) come from per-element Gram
        matrices of the dof vectors, summed over blocks of ``_BLOCK`` steps, one
        row dot over the block's steps per pair of local dofs, and contracted
        with the basis once; T keeps the point axis of the basis gradients, of
        length 1 at P1.  The mass-rate density pairs with div theta, so only its
        sum over each element is kept, times I.  F and F_x are summed over the
        misfits of ``_misfits``, which ``cost`` and ``B`` use too; ``ic_pairing``
        weighs grad g at the dofs with M_u q, q = p_1.
        """
        space, data = self.space, self.data
        U, Pv = self.u.values, self.p.values
        dofs = space.element_dofs.T
        nloc, M = dofs.shape
        w_M = self.dt * self.a_M
        w_f = self.dt * self.a_f

        G_pu = np.zeros((nloc, nloc, M))                      # [a, c, m]
        G_d = np.zeros((nloc, nloc, M))
        pf = np.zeros(space.dof_count)
        for k0 in range(1, data.nt + 1, _BLOCK):
            k1 = min(k0 + _BLOCK, data.nt + 1)
            # element values [k, a, m] of the block's p, and of its u from k0 - 1
            pe = np.take(Pv[k0:k1], dofs, axis=1)
            ue = np.take(U[k0 - 1:k1], dofs, axis=1)
            G_d += np.einsum('kam,kcm->acm', pe, ue[1:] - ue[:-1])
            pf += w_f[k0:k1] @ Pv[k0:k1]
            pe *= w_M[k0:k1, None, None]
            G_pu += np.einsum('kam,kcm->acm', pe, ue[1:])
        g = space.grads
        T = np.swapaxes(g, -1, -2) @ (G_pu.transpose(2, 0, 1)[:, None] @ g)
        pairs = (space.basis[:, :, None] * space.basis[:, None, :]).reshape(-1, nloc * nloc)
        dtp = G_d.reshape(nloc * nloc, M).T @ pairs.T
        dt_sum = (space.qweights * dtp).sum(axis=1)

        # the x-derivative of the tracking term one coordinate at a time
        F = np.zeros(space.qweights.shape)
        F_x = np.zeros((2,) + F.shape)
        ud_grad = self._u_d_steps("grad")
        for k, dk in self._misfits():
            F += dk * dk
            gk = ud_grad(k)
            F_x[0] -= dk * gk[..., 0]
            F_x[1] -= dk * gk[..., 1]
        F *= 0.5 * self._scale
        F_x *= self._scale
        A, DA, b, b_x = _spatial_density(data, space.qpoints)
        S0, S1 = lagrangian_tensors(space, T, A, DA, fem.field_qvalues(ScalarField(space, pf)),
                                    b, b_x, F, np.moveaxis(F_x, 0, -1))
        dt_pairing = fem.assemble_vertex_grad_load(space, dt_sum[:, None, None] * np.eye(2))
        Mq = fem.assemble_load_values(space, fem.field_qvalues(self.p.field(0)))
        ic_pairing = space.vertex_sums(-Mq[:, None] * data.g.grad(space.dof_coords))
        return ShapeGradient(S0=S0, S1=S1, dt_pairing=dt_pairing, ic_pairing=ic_pairing)
