"""
Time-dependent model problem with distributed shape derivatives.

Implicit-Euler discretization of d/dt u - div(M(t, x) grad u) = f(t, x)
with homogeneous Dirichlet conditions and initial value u_0 = I_h(g),
on a fixed time grid t_k = k t0 / nt.  Two cost functionals are carried:

* ``j1``: time-distributed tracking  J = sum_k dt 1/2 int (u_k - u_d(t_k))^2
* ``j2``: final-time tracking        J = 1/2 int (u_nt - u_d(t0))^2

The adjoint marches backward with the transposed step operator (the step
matrices are symmetric here, which the tests exploit through an
independent time-reversal oracle), and the initial-condition multiplier
is q = p_1 with no extra solve.  The material derivative marches forward
with right-hand sides assembled from the same transported-coefficient
rates as the stationary problems, plus the mass-rate pairing
``Mdot (u_k - u_{k-1})`` whose contribution to the derivative is reported
separately as the ``dt_pairing`` term.

The initial-condition slot of the shape-derivative tensor uses the
analytic gradient of g (term -q grad g . theta).  The discrete derivative
actually contains the interpolant I_h(grad g . theta); the two coincide
exactly when g is affine, which the shipped configurations use.
"""

import numpy as np

from . import fem_core as fem
from . import tensor_calc as tc
from .data_catalog import check_spd
from .fem_core import FeSpace, ScalarField, SolverError
from .shape_assembly import (AssembledDerivative, ShapeTensors, assemble_dJ,
                             material_tensor_rate, theta_samples)

_I2 = np.eye(2)


def _dot(a, b):
    return np.einsum('...i,...i->...', a, b)


class ParabolicData:
    """Coefficients of the parabolic problem.

    ``M`` is a time-matrix entry (uniformly SPD, with the spatial
    derivative tensor DM); ``f`` and ``u_d`` are time-scalar entries;
    ``g`` is the (stationary) initial datum with analytic gradient.
    """

    def __init__(self, M, f, g, u_d, t0=1.0, nt=64):
        if nt < 1:
            raise ValueError("parabolic data needs nt >= 1 time steps")
        if t0 <= 0:
            raise ValueError("parabolic data needs a positive final time")
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

    def field(self, k):
        return ScalarField(self.space, self.values[k])


class _March:
    """Step operators (M_u + dt K(t_k)) with Dirichlet rows eliminated.

    A time-independent diffusion matrix is factorized once and shared by
    every step; otherwise each step keeps its own factorization.
    """

    def __init__(self, mesh, data, order=1):
        box = np.stack([mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)])
        check_spd(data.M, box, times=(0.0, 0.5 * data.t0, data.t0))
        self.mesh = mesh
        self.data = data
        self.space = FeSpace(mesh, order=order)
        self.Mu = fem.assemble_mass(self.space)
        self.bd = self.space.boundary_dofs()
        self.keep = np.ones(self.space.dof_count)
        self.keep[self.bd] = 0.0
        self.dt = data.t0 / data.nt
        self.times = np.linspace(0.0, data.t0, data.nt + 1)
        self._A2 = {}
        self._facts = {}

    def _key(self, k):
        return 1 if self.data.m_static else k

    def stiffness(self, k):
        t = self.times[k]
        return fem.assemble_diffusion(self.space, lambda P: self.data.M.value(t, P))

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
        t = self.times[k]
        return fem.assemble_load(self.space, lambda P: self.data.f.value(t, P))

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
    """Quadrature values of u_k - u_d(t_k) for the steps the cost uses."""
    space = series.space
    P = space.qpoints
    times = series.times
    out = {}
    if which == "j1":
        for k in range(1, series.nt + 1):
            out[k] = fem.field_qvalues(series.field(k)) - data.u_d.value(times[k], P)
    elif which == "j2":
        out[series.nt] = fem.field_qvalues(series.field(series.nt)) \
            - data.u_d.value(data.t0, P)
    else:
        raise ValueError(f"unknown parabolic cost {which!r}; use 'j1' or 'j2'")
    return out


def parabolic_cost(data, series, which):
    """Evaluate the selected tracking cost on a state series."""
    space = series.space
    w = space.qweights
    d = _tracking_misfits(data, series, which)
    if which == "j1":
        dt = data.t0 / data.nt
        return float(sum(dt * 0.5 * np.sum(w * dk * dk) for dk in d.values()))
    dk = d[series.nt]
    return 0.5 * float(np.sum(w * dk * dk))


def _cost_gradients(data, series, which):
    """Blocks B_k with B_k,i = dJ/du_k,i; index 0 is always zero."""
    space = series.space
    B = np.zeros_like(series.values)
    d = _tracking_misfits(data, series, which)
    dt = data.t0 / data.nt
    for k, dk in d.items():
        scale = dt if which == "j1" else 1.0
        B[k] = scale * fem.assemble_load_values(space, dk)
    return B


def parabolic_adjoint(mesh, data, series, which, march=None):
    """Backward march with the transposed step operators.

    Slot 0 of the returned series is the initial-condition multiplier
    q = p_1; slots 1..nt are the adjoint states.
    """
    march = march or _March(mesh, data, order=series.space.order)
    space = march.space
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
    out = np.empty((space.dof_count, 2))
    n = space.mesh.n_nodes
    out[:n] = v
    for (a, b), idx in space._edge_index.items():
        out[n + idx] = 0.5 * (v[a] + v[b])
    return out


def initial_rate(space, data, theta):
    """d/ds of the interpolated initial value: dof values of I_h(grad g . theta)."""
    vel = dof_velocities(space, theta)
    return _dot(data.g.grad(space.dof_coords), vel)


def parabolic_material(mesh, data, series, theta, which=None, march=None,
                       samples=None):
    """Forward march for the material derivative of the state series.

    Returns (udot, ell) where ``ell`` stacks the per-step right-hand-side
    blocks (index 0 unused) for duality pairing.
    """
    march = march or _March(mesh, data, order=series.space.order)
    space = march.space
    if samples is None:
        samples = theta_samples(space, theta, "interpolated")
    P = space.qpoints
    dt = march.dt
    Mdot = fem.assemble_mass_values(space, samples.vol_div)
    ell = np.zeros_like(series.values)
    vals = np.empty_like(series.values)
    vals[0] = initial_rate(space, data, theta)
    udot = vals[0]
    for k in range(1, data.nt + 1):
        t = march.times[k]
        uk = series.field(k)
        gu = fem.field_qgrads(uk)
        Mk = data.M.value(t, P)
        rate = material_tensor_rate(Mk, samples) \
            + tc.matvec3(data.M.dspace(t, P), samples.vol_val)
        W = np.einsum('mqij,mqj->mqi', rate, gu)
        fdot = data.f.value(t, P) * samples.vol_div + _dot(data.f.grad(t, P), samples.vol_val)
        lk = Mdot @ (series.values[k] - series.values[k - 1]) \
            + dt * fem.assemble_grad_load_values(space, W) \
            - dt * fem.assemble_load_values(space, fdot)
        ell[k] = march.keep * lk
        b = march.keep * (march.Mu @ udot) - ell[k]
        udot = march.step(k, b)
        vals[k] = udot
    return TimeSeriesField(space, vals, data.t0), ell


def parabolic_partial_cost(data, series, samples, which):
    """Transport derivative of the cost with the state snapshots frozen."""
    space = series.space
    P = space.qpoints
    w = space.qweights
    d = _tracking_misfits(data, series, which)
    dt = data.t0 / data.nt
    times = series.times
    total = 0.0
    for k, dk in d.items():
        scale = dt if which == "j1" else 1.0
        gud = data.u_d.grad(times[k] if which == "j1" else data.t0, P)
        total += scale * float(np.sum(
            w * (0.5 * dk * dk * samples.vol_div - dk * _dot(gud, samples.vol_val))))
    return total


class ParabolicShapeTensors:
    """Volume tensors plus the separately-reported mass-rate density."""

    def __init__(self, tensors, dt_density):
        self.tensors = tensors
        self.dt_density = dt_density  # (M, nq): sum_k p_k (u_k - u_{k-1})


def parabolic_shape_tensors(data, series, adjoint, which):
    """Accumulate the distributed tensors of the selected cost.

    S0 = -q grad g + sum_k dt [ DM(t_k)-contraction(grad p_k, grad u_k)
                                - p_k grad f(t_k) ]  (+ tracking terms)
    S1 = sum_k dt [ -grad p_k x M grad u_k - grad u_k x M^T grad p_k
                    + (M grad u_k . grad p_k - p_k f(t_k)) I ]  (+ tracking)
    plus the mass-rate density sum_k p_k (u_k - u_{k-1}).
    """
    space = series.space
    P = space.qpoints
    M, nq = space.qweights.shape
    dt = data.t0 / data.nt
    times = series.times
    d = _tracking_misfits(data, series, which)

    qv = fem.field_qvalues(adjoint.field(0))
    S0 = np.zeros((M, nq, 2))
    S0 -= qv[..., None] * data.g.grad(P)
    S1 = np.zeros((M, nq, 2, 2))
    dtp = np.zeros((M, nq))
    for k in range(1, data.nt + 1):
        t = times[k]
        uk = series.field(k)
        pk = adjoint.field(k)
        gu = fem.field_qgrads(uk)
        gp = fem.field_qgrads(pk)
        pv = fem.field_qvalues(pk)
        Mk = data.M.value(t, P)
        DM = data.M.dspace(t, P)
        fv = data.f.value(t, P)
        Mgu = np.einsum('mqij,mqj->mqi', Mk, gu)
        Mtgp = np.einsum('mqji,mqj->mqi', Mk, gp)
        S0 += dt * (tc.apply3(tc.transpose3(tc.transpose3(DM)), gp, gu)
                    - pv[..., None] * data.f.grad(t, P))
        scal = _dot(Mgu, gp) - pv * fv
        S1 += dt * (-np.einsum('...i,...j->...ij', gp, Mgu)
                    - np.einsum('...i,...j->...ij', gu, Mtgp)
                    + scal[..., None, None] * _I2)
        uq = fem.field_qvalues(uk)
        um = fem.field_qvalues(series.field(k - 1))
        dtp += pv * (uq - um)
    for k, dk in d.items():
        scale = dt if which == "j1" else 1.0
        t = times[k] if which == "j1" else data.t0
        S0 -= scale * dk[..., None] * data.u_d.grad(t, P)
        S1 += scale * (0.5 * dk * dk)[..., None, None] * _I2
    return ParabolicShapeTensors(ShapeTensors(space, S0=S0, S1=S1), dtp)


def assemble_parabolic_dJ(mesh, ptensors, theta, theta_mode="interpolated",
                          samples=None):
    """Tensor evaluation plus the dt-pairing term, as one breakdown."""
    if samples is None:
        samples = theta_samples(ptensors.tensors.space, theta, theta_mode)
    base = assemble_dJ(mesh, ptensors.tensors, theta, samples=samples)
    terms = dict(base.terms)
    terms["dt_pairing"] = float(np.sum(
        ptensors.tensors.space.qweights * ptensors.dt_density * samples.vol_div))
    return AssembledDerivative(terms)


class ParabolicOperator:
    """Block forward map of the discrete scheme and its exact transpose.

    Vectors are (nt+1, ndof) arrays: row 0 is the initial-condition block,
    rows k >= 1 the eliminated step rows.  ``forward``/``adjoint`` satisfy
    <A V, W> = <V, A^T W> identically, which the tests check on random
    blocks to pin the adjoint march to the transposed operator.
    """

    def __init__(self, mesh, data, order=1, march=None):
        self.march = march or _March(mesh, data, order=order)
        self.nt = data.nt

    def forward(self, V):
        m = self.march
        out = np.empty_like(V)
        out[0] = m.Mu @ V[0]
        for k in range(1, self.nt + 1):
            out[k] = m.A2(k) @ V[k] - m.keep * (m.Mu @ V[k - 1])
        return out

    def adjoint(self, W):
        m = self.march
        out = np.empty_like(W)
        for k in range(self.nt + 1):
            acc = m.Mu @ W[0] if k == 0 else m.A2(k).T @ W[k]
            if k < self.nt:
                acc = acc - m.Mu @ (m.keep * W[k + 1])
            out[k] = acc
        return out


class ParabolicProblem:
    """Adapter bundling the parabolic pipeline for one cost flavor."""

    def __init__(self, mesh, data, which="j1", order=1):
        if which not in ("j1", "j2"):
            raise ValueError(f"unknown parabolic cost {which!r}; use 'j1' or 'j2'")
        self.name = f"parabolic_{which}"
        self.mesh = mesh
        self.data = data
        self.which = which
        self.order = order
        self.march = _March(mesh, data, order=order)
        self.space = self.march.space
        self.u = parabolic_solve(mesh, data, march=self.march)
        self.p = parabolic_adjoint(mesh, data, self.u, which, march=self.march)
        self._tensors = None

    @property
    def dof_count(self):
        return self.space.dof_count

    def cost(self):
        return parabolic_cost(self.data, self.u, self.which)

    def resolve_cost(self, mesh_s):
        u_s = parabolic_solve(mesh_s, self.data, order=self.order)
        return parabolic_cost(self.data, u_s, self.which)

    def state_vector(self, mesh_s=None):
        if mesh_s is None:
            return self.u.values.ravel().copy()
        return parabolic_solve(mesh_s, self.data, order=self.order).values.ravel()

    def state_norm(self, vec):
        vals = vec.reshape(self.u.values.shape)
        dt = self.data.t0 / self.data.nt
        acc = sum(fem.l2_norm(self.space, vals[k]) ** 2 for k in range(vals.shape[0]))
        return float(np.sqrt(dt * acc))

    def material(self, theta):
        udot, _ = parabolic_material(self.mesh, self.data, self.u, theta,
                                     march=self.march)
        return udot

    def tensors(self):
        if self._tensors is None:
            self._tensors = parabolic_shape_tensors(self.data, self.u, self.p,
                                                    self.which)
        return self._tensors

    def breakdown(self, theta, theta_mode="interpolated"):
        return assemble_parabolic_dJ(self.mesh, self.tensors(), theta,
                                     theta_mode=theta_mode)

    def derivative(self, theta):
        return self.breakdown(theta).total

    def duality_pair(self, theta):
        samples = theta_samples(self.space, theta, "interpolated")
        udot, ell = parabolic_material(self.mesh, self.data, self.u, theta,
                                       march=self.march, samples=samples)
        B = _cost_gradients(self.data, self.u, self.which)
        lhs = float(np.sum(ell[1:] * self.p.values[1:])) \
            - float(self.p.values[1] @ (self.march.Mu @ udot.values[0]))
        rhs = float(np.sum(B[1:] * udot.values[1:]))
        return lhs, rhs
