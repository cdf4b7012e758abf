"""Parabolic oracles for the tests: the block operator of the discrete
scheme on independently assembled step matrices, with its exact
transpose, the frozen-state transport derivative of the tracking
costs, written from the cost's definition rather than from the package's
tensors, the state and material marches and the duality pair as first
written, each with a loop of its own, and the tensors' time sums one step
at a time."""

import numpy as np

from shapegrad import fem_core as fem
from shapegrad.fem_core import FeSpace, ScalarField
from shapegrad.parabolic_problem import _spatial_density, initial_rate

from nodal_references import lagrangian_tensors_per_point


class ParabolicOperator:
    """Block forward map of the discrete scheme and its exact transpose.

    Vectors are (nt+1, ndof) arrays: row 0 is the initial-condition block,
    rows k >= 1 the eliminated step rows.  ``forward``/``adjoint`` satisfy
    <A V, W> = <V, A^T W> identically.  Step k's matrix M_u + dt K(t_k),
    with K(t_k) assembled from M(t_k, .) pointwise, has its Dirichlet rows
    eliminated by ``fem.apply_dirichlet``.
    """

    def __init__(self, mesh, data, order=1):
        self.space = space = FeSpace(mesh, order=order)
        self.nt = data.nt
        self.Mu = fem.assemble_mass_values(space, np.ones(space.qweights.shape))
        bd = space.boundary_dofs()
        self.keep = np.ones(space.dof_count)
        self.keep[bd] = 0.0
        dt = data.t0 / data.nt
        self.A2 = [None]
        for t in np.linspace(0.0, data.t0, data.nt + 1)[1:]:
            K = fem.assemble_diffusion_values(space, data.M.value(t, space.qpoints))
            self.A2.append(fem.apply_dirichlet(self.Mu + dt * K, bd))

    def forward(self, V):
        out = np.empty_like(V)
        out[0] = self.Mu @ V[0]
        for k in range(1, self.nt + 1):
            out[k] = self.A2[k] @ V[k] - self.keep * (self.Mu @ V[k - 1])
        return out

    def adjoint(self, W):
        out = np.empty_like(W)
        for k in range(self.nt + 1):
            acc = self.Mu @ W[0] if k == 0 else self.A2[k].T @ W[k]
            if k < self.nt:
                acc = acc - self.Mu @ (self.keep * W[k + 1])
            out[k] = acc
        return out


def parabolic_partial_cost(problem, samples):
    """d/ds of the tracking cost with the state snapshots frozen:
    sum_k w_k int 1/2 (u_k - u_d)^2 div theta - (u_k - u_d) grad u_d . theta,
    with w_k = dt for every step (j1) or 1 for the final step only (j2)."""
    data, series, which = problem.data, problem.u, problem.which
    space = series.space
    P = space.qpoints
    times = problem.times
    dt = data.t0 / data.nt
    steps = range(1, data.nt + 1) if which == "j1" else (data.nt,)
    weight = dt if which == "j1" else 1.0
    total = 0.0
    for k in steps:
        d = fem.field_qvalues(series.field(k)) - data.u_d.value(times[k], P)
        gud = np.einsum('...i,...i->...', data.u_d.grad(times[k], P), samples.vol_val)
        total += weight * float(np.sum(
            space.qweights * (0.5 * d * d * samples.vol_div - d * gud)))
    return total


def state_loop(problem):
    """The state snapshots of the problem's step operators, marched in a
    loop of their own: b_k = keep (M_u u_{k-1} + dt a_f(t_k) F)."""
    data = problem.data
    vals = np.empty((data.nt + 1, problem.space.dof_count))
    vals[0] = problem.space.interpolate(data.g.value).coefficients
    for k in range(1, data.nt + 1):
        load = data.f.profile.value(problem.times[k]) * problem.F
        vals[k] = problem.step(k, problem.keep * (problem.Mu @ vals[k - 1] + problem.dt * load))
    return vals


def material_loop(problem, theta, ell):
    """The material snapshots from the step right-hand sides ``ell[1:]``,
    marched in a loop of their own from udot_0 = I_h(grad g . theta)."""
    vals = np.empty((problem.data.nt + 1, problem.space.dof_count))
    vals[0] = initial_rate(problem.space, problem.data, theta.eval(problem.mesh.nodes))
    for k in range(1, problem.data.nt + 1):
        vals[k] = problem.step(k, problem.keep * (problem.Mu @ vals[k - 1]) - ell[k])
    return vals


def duality_pair(problem, theta):
    """The parabolic duality pair as first written, over the step slots
    with the initial-condition term apart:
    (sum_k>=1 <ell_k, p_k> - <p_1, M_u udot_0>, sum_k>=1 <B_k, udot_k>)."""
    udot, ell = problem._material(theta)
    p = problem.p.values
    lhs = fem.dot(ell[1:], p[1:]) - fem.dot(p[1], problem.Mu @ udot.values[0])
    return lhs, fem.dot(problem.B[1:], udot.values[1:])


def _element_gram(space, a, b):
    """Per-element outer products a^e (b^e)^T of two dof vectors, (M, nloc, nloc)."""
    dofs = space.element_dofs
    return a[dofs][:, :, None] * b[dofs][:, None, :]


def shape_tensors_per_step(problem):
    """(S0, S1, dt density) of the parabolic tensors with the time sums taken
    one step at a time: the Gram matrices of p_k and u_k and of p_k and
    u_k - u_{k-1}, the load sum p_b, and the tracking term F with its
    x-derivative, contracted with the basis by einsum."""
    space, data = problem.space, problem.data
    series, adjoint = problem.u, problem.p
    M = space.qweights.shape[0]
    nloc = space.element_dofs.shape[1]
    w_M = problem.dt * np.array([data.M.profile.value(t) for t in problem.times])
    w_f = problem.dt * np.array([data.f.profile.value(t) for t in problem.times])

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
    ud_grad = problem._u_d_steps("grad")
    for k, dk in problem._misfits():
        F = F + problem._scale * 0.5 * dk * dk
        F_x = F_x - problem._scale * dk[..., None] * ud_grad(k)
    A, DA, b, b_x = _spatial_density(data, space.qpoints)
    S0, S1 = lagrangian_tensors_per_point(T, A, DA, fem.field_qvalues(ScalarField(space, pf)),
                                          b, b_x, F, F_x)
    dtp = np.einsum('qa,mab,qb->mq', space.basis, G_d, space.basis)
    return S0, S1, dtp
