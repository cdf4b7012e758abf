"""The per-point theta samples that the element-rank Dtheta replaced, kept
as the reference the material right-hand sides are checked against.

``per_point_samples`` is ``theta_samples`` as it stored the vertex
interpolant's Dtheta: the element's matrix copied to
every volume quadrature point, (M, nq, 2, 2), and the owner's to every
edge point, (B, nqe, 2, 2).  ``material_per_point`` is the pair
(udot, ell) that a problem's ``_material`` returned from those samples:
for a stationary problem the flux rate with A broadcast to the points
(``per_point_tensor_rate``) times grad u at every point; for the parabolic
one its own ``_material`` fed the per-point samples, whose kernels take
per-point arrays as they always did (``shape_assembly.theta_samples``
swapped for the per-point builder during that call).
"""

import numpy as np

from shapegrad import shape_assembly
from shapegrad import tensor_calc as tc
from shapegrad.fem_core import ScalarField
from shapegrad.parabolic_problem import ParabolicProblem
from shapegrad.shape_assembly import ThetaSamples, source_rate

from conftest import field_qgrads


def per_point_samples(space, theta):
    """Interpolated ``ThetaSamples`` with Dtheta at every quadrature point."""
    mesh = space.mesh
    nodal = theta.eval(mesh.nodes)
    tv = nodal[mesh.triangles]
    lmb = space.vol_rule.points
    vol_val = np.einsum('qk,mkd->mqd', lmb, tv)
    dtheta = np.stack([tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]], axis=2)
    jac_el = np.einsum('mia,mja->mij', dtheta, space.invJT)
    vol_jac = np.broadcast_to(jac_el[:, None], (len(tv), len(lmb), 2, 2)).copy()
    be = mesh.boundary_edges
    ta, tb = nodal[be[:, 0]], nodal[be[:, 1]]
    t = space.edg_rule.points
    edge_val = ta[:, None, :] * (1.0 - t)[None, :, None] + tb[:, None, :] * t[None, :, None]
    edge_jac = vol_jac[space.edge_owner][:, :1, :, :].repeat(len(t), axis=1)
    return ThetaSamples(space, vol_val, vol_jac, None, edge_val, edge_jac)


def per_point_tensor_rate(M, samples):
    """div(theta) M - Dtheta M - M Dtheta^T with M broadcast to Dtheta's points."""
    J = samples.vol_jac
    MM = np.broadcast_to(M, J.shape)
    return samples.vol_div[..., None, None] * MM \
        - tc.matmul2(J, MM) - tc.matmul2(MM, np.swapaxes(J, -1, -2))


def material_per_point(problem, theta):
    """(udot, ell) of ``problem._material(theta)`` from ``per_point_samples``;
    ``problem`` keeps no theta memo."""
    samples = per_point_samples(problem.space, theta)
    if isinstance(problem, ParabolicProblem):
        build = shape_assembly.theta_samples
        shape_assembly.theta_samples = lambda space, nodal: samples
        try:
            return problem._material(theta)
        finally:
            shape_assembly.theta_samples = build
            problem._theta_memo = None
    e = problem._pde_density(problem.u, shape=True)
    R = per_point_tensor_rate(e.A, samples)
    if e.DA is not None:
        R = R + tc.matvec3(e.DA, samples.vol_val)
    W = np.einsum('mqij,mqj->mqi', R, field_qgrads(problem.u))
    bg = None if e.bg is None else e.bg * samples.edge_divg + tc.inner(e.bg_x, samples.edge_val)
    ell = problem._load(W, source_rate(e.b, e.b_x, samples), bg) * problem._keep
    return ScalarField(problem.space, problem._fact.solve(-ell)), ell
