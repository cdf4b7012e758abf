"""
Time-dependent model problem with distributed shape derivatives.

Implicit-Euler discretization of d/dt u - div(M(t, x) grad u) = f(t, x)
with homogeneous Dirichlet conditions and initial value u_0 = I_h(g),
on a fixed time grid t_k = k t0 / nt.  Two cost functionals are carried:

* ``j1``: time-distributed tracking  J = sum_k dt 1/2 int (u_k - u_d(t_k))^2
* ``j2``: final-time tracking        J = 1/2 int (u_nt - u_d(t0))^2

The coefficients are separable: M(t, x) = a_M(t) M(x) and
f(t, x) = a_f(t) f(x) (``TimeMatrixData`` and ``TimeScalarData``); other
data is rejected with a ``ValueError``.  The march therefore assembles
the stiffness matrix and the load vector once and rescales them per
step.  The tracked field u_d may be any time-scalar entry.

The adjoint marches backward with the transposed step operator (the step
matrices are symmetric here, which the tests exploit through an
independent time-reversal oracle), and the initial-condition multiplier
is q = p_1 with no extra solve.  The material derivative marches forward
with right-hand sides assembled from the same transported-coefficient
rates as the stationary problems, plus the mass-rate pairing
``Mdot (u_k - u_{k-1})`` whose contribution to the derivative is reported
separately as the ``dt_pairing`` term.  Separability makes the rate
matrix and the load rate step-independent, so every right-hand side is
built in one batched expression and the march only solves.

The time-summed Lagrangian density is the one of ``shape_assembly`` (whose
docstring has the formulas for the tensors and the material rates), with
A = M(x), DA = DM(x) and b = -f(x): the separable time factors move into
the pairing T = sum_k dt a_M(t_k) grad p_k x grad u_k and into
p_b = sum_k dt a_f(t_k) p_k.  Those sums collapse to per-element Gram
matrices sum_k w_k p_k^e (u_k^e)^T, accumulated one step at a time and
contracted once with the basis gradients.  The initial condition
enters through the nodal ``ic_pairing`` term -(M_u q) . I_h(grad g . theta),
the same interpolant the material derivative starts from, so the
derivative is exact for any initial datum g.
"""

from functools import cached_property

import numpy as np

from . import fem_core as fem
from .data_catalog import TimeMatrixData, TimeScalarData, check_spd
from .fem_core import FeSpace, ScalarField, SolverError
from .shape_assembly import (AssembledDerivative, ShapeProblem, ShapeTensors,
                             assemble_dJ, flux_rate, lagrangian_tensors,
                             source_rate, theta_samples)


def _dot(a, b):
    return np.einsum('...i,...i->...', a, b)


class ParabolicData:
    """Coefficients of the parabolic problem.

    ``M`` is a separable time-matrix entry a_M(t) M(x) (uniformly SPD,
    with the spatial derivative tensor DM) and ``f`` a separable
    time-scalar entry a_f(t) f(x); ``u_d`` is any time-scalar entry;
    ``g`` is the (stationary) initial datum with analytic gradient.
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
        self.M = M
        self.f = f
        self.g = g
        self.u_d = u_d
        self.t0 = float(t0)
        self.nt = int(nt)

    @property
    def m_static(self):
        return not self.M.time_dependent


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
    def nt(self):
        return self.values.shape[0] - 1

    @property
    def times(self):
        return np.linspace(0.0, self.t0, self.nt + 1)

    @property
    def coefficients(self):
        """All snapshots as one flat vector (a view of ``values``)."""
        return self.values.ravel()

    def field(self, k):
        return ScalarField(self.space, self.values[k])


class _March:
    """Step operators (M_u + dt a_M(t_k) K) with Dirichlet rows eliminated.

    K and the load vector F of the spatial coefficient parts are assembled
    once.  A time-independent diffusion matrix is factorized once and
    shared by every step; otherwise each step keeps its own factorization.
    """

    def __init__(self, mesh, data, order=1):
        box = np.stack([mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)])
        check_spd(data.M, box, times=(0.0, 0.5 * data.t0, data.t0))
        self.mesh = mesh
        self.data = data
        self.space = FeSpace(mesh, order=order)
        self.Mu = fem.assemble_mass_values(self.space, np.ones(self.space.qweights.shape))
        self.bd = self.space.boundary_dofs()
        self.keep = np.ones(self.space.dof_count)
        self.keep[self.bd] = 0.0
        self.dt = data.t0 / data.nt
        self.times = np.linspace(0.0, data.t0, data.nt + 1)
        self._A2 = {}
        self._facts = {}

    def _key(self, k):
        return 1 if self.data.m_static else k

    @cached_property
    def K(self):
        P = self.space.qpoints
        return fem.assemble_diffusion_values(self.space, self.data.M.spatial.value(P))

    @cached_property
    def F(self):
        P = self.space.qpoints
        return fem.assemble_load_values(self.space, self.data.f.spatial.value(P))

    def stiffness(self, k):
        return self.data.M.profile.value(self.times[k]) * self.K

    def A2(self, k):
        key = self._key(k)
        if key not in self._A2:
            A = self.Mu + self.dt * self.stiffness(key)
            A2, _ = fem.apply_dirichlet(A, np.zeros(self.space.dof_count), self.bd, 0.0)
            self._A2[key] = A2
        return self._A2[key]

    def fact(self, k):
        key = self._key(k)
        if key not in self._facts:
            self._facts[key] = fem.Factorized(self.A2(key))
        return self._facts[key]

    def load(self, k):
        return self.data.f.profile.value(self.times[k]) * self.F

    def step(self, k, b):
        try:
            return self.fact(k).solve(b)
        except SolverError as exc:
            raise SolverError(f"time step {k}: {exc}") from exc


def parabolic_solve(mesh, data, order=1, march=None):
    """Implicit-Euler forward march; returns the state TimeSeriesField."""
    march = march or _March(mesh, data, order=order)
    space = march.space
    vals = np.empty((data.nt + 1, space.dof_count))
    vals[0] = space.interpolate(data.g.value).coefficients
    u = vals[0]
    for k in range(1, data.nt + 1):
        b = march.keep * (march.Mu @ u + march.dt * march.load(k))
        u = march.step(k, b)
        vals[k] = u
    return TimeSeriesField(space, vals, data.t0)


def _tracking_misfits(data, series, which):
    """Yield (k, quadrature values of u_k - u_d(t_k)) for the steps the cost uses.

    One step's misfit is alive at a time, so callers stay at O(1) memory
    in the number of steps.
    """
    if which == "j1":
        steps = range(1, series.nt + 1)
    elif which == "j2":
        steps = (series.nt,)
    else:
        raise ValueError(f"unknown parabolic cost {which!r}; use 'j1' or 'j2'")
    P = series.space.qpoints
    times = series.times
    for k in steps:
        yield k, fem.field_qvalues(series.field(k)) - data.u_d.value(times[k], P)


def _misfit_scale(data, which):
    """Time weight of one misfit term: dt for j1, 1 for the final-time j2."""
    return data.t0 / data.nt if which == "j1" else 1.0


def parabolic_cost(data, series, which):
    """Evaluate the selected tracking cost on a state series."""
    w = series.space.qweights
    scale = _misfit_scale(data, which)
    return float(sum(scale * 0.5 * np.sum(w * dk * dk)
                     for _, dk in _tracking_misfits(data, series, which)))


def _cost_gradients(data, series, which):
    """Blocks B_k with B_k,i = dJ/du_k,i; index 0 is always zero."""
    B = np.zeros_like(series.values)
    scale = _misfit_scale(data, which)
    for k, dk in _tracking_misfits(data, series, which):
        B[k] = scale * fem.assemble_load_values(series.space, dk)
    return B


def parabolic_adjoint(mesh, data, series, which, march=None, B=None):
    """Backward march with the transposed step operators.

    Slot 0 of the returned series is the initial-condition multiplier
    q = p_1; slots 1..nt are the adjoint states.  ``B`` reuses cost
    gradient blocks already built from ``series``.
    """
    march = march or _March(mesh, data, order=series.space.order)
    space = march.space
    if B is None:
        B = _cost_gradients(data, series, which)
    vals = np.zeros((data.nt + 1, space.dof_count))
    p = np.zeros(space.dof_count)
    for k in range(data.nt, 0, -1):
        b = march.keep * (march.Mu @ p - B[k])
        # the step matrices are symmetric, so A^T shares the factorization
        p = march.step(k, b)
        vals[k] = p
    vals[0] = vals[1]
    return TimeSeriesField(space, vals, data.t0)


def dof_velocities(space, theta):
    """Velocities of the degrees of freedom under nodal transport.

    Vertices move with theta; P2 midpoint dofs move with the average of
    their edge endpoints (the transported midpoint stays a midpoint).
    """
    v = theta.eval(space.mesh.nodes)
    if space.order == 1:
        return v
    e = space.mesh.topology.edges
    return np.vstack([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]])])


def initial_rate(space, data, theta):
    """d/ds of the interpolated initial value: dof values of I_h(grad g . theta)."""
    vel = dof_velocities(space, theta)
    return _dot(data.g.grad(space.dof_coords), vel)


def _profile_values(entry, times):
    """The time factor a(t) of a separable entry at each time."""
    return np.array([entry.profile.value(t) for t in times], dtype=float)


def _spatial_density(data, P):
    """A = M(x), DA = DM(x), b = -f(x) and b_x at the points P: the spatial
    parts of the density, whose time factors are a_M(t_k) and a_f(t_k)."""
    Mx, fx = data.M.spatial, data.f.spatial
    return Mx.value(P), Mx.dspace(P), -fx.value(P), -fx.grad(P)


def parabolic_material(mesh, data, series, theta, march=None):
    """Forward march for the material derivative of the state series.

    Returns (udot, ell) where ``ell`` stacks the per-step right-hand-side
    blocks (index 0 unused) for duality pairing.  With separable data the
    coefficient rates are a_M(t_k) R and a_f(t_k) bdot for the fixed
    spatial flux and source rates R and bdot, so one rate matrix and one
    load rate serve every step.
    """
    march = march or _March(mesh, data, order=series.space.order)
    space = march.space
    samples = theta_samples(space, theta, "interpolated")
    A, DA, b, b_x = _spatial_density(data, space.qpoints)
    K_R = fem.assemble_diffusion_values(space, flux_rate(A, DA, samples))
    Bdot = fem.assemble_load_values(space, source_rate(b, b_x, samples))
    Mdot = fem.assemble_mass_values(space, samples.vol_div)
    w_M = march.dt * _profile_values(data.M, march.times[1:])
    w_f = march.dt * _profile_values(data.f, march.times[1:])
    U = series.values
    ell = np.zeros_like(U)
    ell[1:] = march.keep * ((Mdot @ (U[1:] - U[:-1]).T).T
                            + w_M[:, None] * (K_R @ U[1:].T).T
                            + w_f[:, None] * Bdot)
    vals = np.empty_like(U)
    vals[0] = initial_rate(space, data, theta)
    udot = vals[0]
    for k in range(1, data.nt + 1):
        udot = march.step(k, march.keep * (march.Mu @ udot) - ell[k])
        vals[k] = udot
    return TimeSeriesField(space, vals, data.t0), ell


class ParabolicShapeTensors:
    """Volume tensors plus the separately-reported mass-rate density and
    the initial-condition weights."""

    def __init__(self, tensors, dt_density, ic_weights, data):
        self.tensors = tensors
        self.dt_density = dt_density  # (M, nq): sum_k p_k (u_k - u_{k-1})
        self.ic_weights = ic_weights  # (ndof,): M_u q
        self.data = data


def _element_gram(space, a, b):
    """Per-element outer products a^e (b^e)^T of two dof vectors, (M, nloc, nloc)."""
    dofs = space.element_dofs
    return a[dofs][:, :, None] * b[dofs][:, None, :]


def parabolic_shape_tensors(data, series, adjoint, which):
    """Accumulate the distributed tensors of the selected cost.

    The kernel ``lagrangian_tensors`` gives S0 and S1 from the spatial
    density (``_spatial_density``), the pairing
    T = sum_k dt a_M(t_k) grad p_k x grad u_k, p_b = sum_k dt a_f(t_k) p_k
    and the summed tracking term F with its x-derivative.  T and the
    mass-rate density sum_k p_k (u_k - u_{k-1}) come from per-element Gram
    matrices of the dof vectors, accumulated step by step and contracted
    with the basis once.  The initial condition is paired at the dofs (see
    ``assemble_parabolic_dJ``).
    """
    space = series.space
    P = space.qpoints
    M, nq = space.qweights.shape
    nloc = space.element_dofs.shape[1]
    dt = data.t0 / data.nt
    times = series.times
    w_M = dt * _profile_values(data.M, times)
    w_f = dt * _profile_values(data.f, times)

    G_pu = np.zeros((M, nloc, nloc))
    G_d = np.zeros((M, nloc, nloc))
    pf = np.zeros(space.dof_count)
    for k in range(1, data.nt + 1):
        p, u = adjoint.values[k], series.values[k]
        G_pu += w_M[k] * _element_gram(space, p, u)
        G_d += _element_gram(space, p, u - series.values[k - 1])
        pf += w_f[k] * p

    T = np.einsum('mqaj,mab,mqbk->mqjk', space.grads, G_pu, space.grads, optimize=True)
    F = F_x = 0.0
    scale = _misfit_scale(data, which)
    for k, dk in _tracking_misfits(data, series, which):
        F = F + scale * 0.5 * dk * dk
        F_x = F_x - scale * dk[..., None] * data.u_d.grad(times[k], P)
    A, DA, b, b_x = _spatial_density(data, P)
    S0, S1 = lagrangian_tensors(T, A, DA, fem.field_qvalues(ScalarField(space, pf)),
                                b, b_x, F, F_x)
    dtp = np.einsum('qa,mab,qb->mq', space.basis, G_d, space.basis)
    ic_weights = fem.assemble_load_values(space, fem.field_qvalues(adjoint.field(0)))
    return ParabolicShapeTensors(ShapeTensors(space, S0=S0, S1=S1), dtp, ic_weights, data)


def assemble_parabolic_dJ(mesh, ptensors, theta):
    """Tensor evaluation plus the dt- and initial-condition pairings, as one
    breakdown.  ``ic_pairing`` is -(M_u q) . I_h(grad g . theta), nodal."""
    space = ptensors.tensors.space
    samples = theta_samples(space, theta, "interpolated")
    base = assemble_dJ(mesh, ptensors.tensors, theta, samples=samples)
    terms = dict(base.terms)
    terms["dt_pairing"] = float(np.sum(space.qweights * ptensors.dt_density * samples.vol_div))
    terms["ic_pairing"] = -fem.dot(ptensors.ic_weights, initial_rate(space, ptensors.data, theta))
    return AssembledDerivative(terms)


class ParabolicProblem(ShapeProblem):
    """The parabolic pipeline for one cost flavor; the adjoint marches on
    first use."""

    def __init__(self, mesh, data, which="j1", order=1):
        if which not in ("j1", "j2"):
            raise ValueError(f"unknown parabolic cost {which!r}; use 'j1' or 'j2'")
        super().__init__(mesh, data, which, order)
        self.name = f"parabolic_{which}"
        self.data = data
        self.which = which
        self.march = _March(mesh, data, order=order)
        self.space = self.march.space
        self.u = parabolic_solve(mesh, data, march=self.march)

    @cached_property
    def B(self):
        """Cost-gradient blocks, shared by the adjoint march and ``duality_pair``."""
        return _cost_gradients(self.data, self.u, self.which)

    @cached_property
    def p(self):
        return parabolic_adjoint(self.mesh, self.data, self.u, self.which,
                                 march=self.march, B=self.B)

    def cost(self):
        return parabolic_cost(self.data, self.u, self.which)

    def state_norm(self, vec):
        vals = vec.reshape(self.u.values.shape)
        acc = sum(fem.l2_norm(self.space, vals[k]) ** 2 for k in range(vals.shape[0]))
        return float(np.sqrt(self.march.dt * acc))

    def material(self, theta):
        udot, _ = parabolic_material(self.mesh, self.data, self.u, theta,
                                     march=self.march)
        return udot

    def _build_tensors(self):
        return parabolic_shape_tensors(self.data, self.u, self.p, self.which)

    def breakdown(self, theta):
        return assemble_parabolic_dJ(self.mesh, self.tensors(), theta)

    def duality_pair(self, theta):
        udot, ell = parabolic_material(self.mesh, self.data, self.u, theta,
                                       march=self.march)
        lhs = fem.dot(ell[1:], self.p.values[1:]) \
            - fem.dot(self.p.values[1], self.march.Mu @ udot.values[0])
        rhs = fem.dot(self.B[1:], udot.values[1:])
        return lhs, rhs
