"""Parabolic oracles for the tests: the block operator of the discrete
scheme on independently assembled step matrices, with its exact
transpose, and the frozen-state transport derivative of the tracking
costs, written from the cost's definition rather than from the package's
tensors."""

import numpy as np

from shapegrad import fem_core as fem
from shapegrad.fem_core import FeSpace


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
        zero = np.zeros(space.dof_count)
        self.A2 = [None]
        for t in np.linspace(0.0, data.t0, data.nt + 1)[1:]:
            K = fem.assemble_diffusion_values(space, data.M.value(t, space.qpoints))
            self.A2.append(fem.apply_dirichlet(self.Mu + dt * K, zero, bd, 0.0)[0])

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
