"""Hand-derived transported integrands and state equations of the
stationary problems.

Each problem's shape tensors, material right-hand side L(u), cost and state
equation were once derived by hand, term by term: the Robin matrix and
right-hand side, the quasilinear residual and its Newton Jacobian.  The
package now derives all of them from one Lagrangian density per problem
(see ``shapegrad.elliptic_problems``); these independent derivations stay
here as the reference the density kernel is checked against, together with
the frozen-state cost derivatives the tensor-consistency tests need.
"""

import numpy as np

from shapegrad import fem_core as fem
from shapegrad.shape_assembly import ShapeTensors, material_tensor_rate, theta_samples

from conftest import field_qgrads

_I2 = np.eye(2)


def _outer(a, b):
    return np.einsum('...i,...j->...ij', a, b)


def _dot(a, b):
    return np.einsum('...i,...i->...', a, b)


def eliminate_dirichlet(A, b, dofs, values):
    """The nonhomogeneous elimination: ``fem.apply_dirichlet(A, dofs)`` and
    the lifted right-hand side b - A z, z the data ``values`` on ``dofs`` and
    0 elsewhere, with the data in the eliminated rows, so that the
    eliminated system's solution takes the data there."""
    dofs = np.asarray(dofs, dtype=np.int64)
    z = np.zeros(A.shape[0])
    z[dofs] = values
    b2 = b - A @ z
    b2[dofs] = values
    return fem.apply_dirichlet(A, dofs), b2


def robin_matrix(space, data):
    """A = int M grad phi_j . grad phi_i + int_G beta phi_i phi_j."""
    M = np.broadcast_to(data.M, space.qpoints.shape[:-1] + (2, 2))
    return fem.assemble_diffusion_values(space, M) \
        + fem.assemble_boundary_mass(space, data.beta.value(space.edge_qpoints))


def robin_rhs(space, data):
    """b = int f phi_i + int_G g phi_i, with A u = b the Robin state."""
    return fem.assemble_load_values(space, data.f.value(space.qpoints)) \
        + fem.assemble_boundary_load_values(space, data.g.value(space.edge_qpoints))


def quasilinear_residual(space, data, field):
    """R(u) psi = int m(x, u) grad u . grad psi + (f(x, u) - g) psi."""
    P = space.qpoints
    uq = fem.field_qvalues(field)
    gu = field_qgrads(field)
    mv = data.m.value(P, uq)
    vec = fem.assemble_grad_load_values(space, mv[..., None] * gu)
    vec += fem.assemble_load_values(space, data.f.value(P, uq) - data.g.value(P))
    return vec


def quasilinear_jacobian(space, data, field):
    """The exact linearization of ``quasilinear_residual`` (non-symmetric):
    int m grad phi_j . grad phi_i + d_r m phi_j grad u . grad phi_i
    + d_r f phi_j phi_i."""
    P = space.qpoints
    uq = fem.field_qvalues(field)
    gu = field_qgrads(field)
    mv = data.m.value(P, uq)
    A = fem.assemble_diffusion_values(space, mv[..., None, None] * _I2)
    A = A + fem.assemble_gradscalar_values(space, gu, data.m.dr(P, uq))
    A = A + fem.assemble_mass_values(space, data.f.dr(P, uq))
    return A.tocsr()


def robin_cost_and_gradient(u):
    """J = 1/2 u^T K_I u and B = K_I u through the stiffness matrix K_I."""
    eye = np.broadcast_to(_I2, u.space.qpoints.shape[:-1] + (2, 2))
    B = fem.assemble_diffusion_values(u.space, eye) @ u.coefficients
    return 0.5 * float(u.coefficients @ B), B


def robin_L_vector(data, u, samples):
    """Shape-Lagrangian linear form L(u) evaluated on the test basis.

    L(u) psi = int rate(M) grad u . grad psi - div(f theta) psi
             + int_G (beta u - g) div_G(theta) psi + (u grad beta - grad g) . theta psi
    with div(f theta) expanded analytically as grad f . theta + f div theta.
    """
    space = u.space
    P = space.qpoints
    gu = field_qgrads(u)
    W = np.einsum('mqij,mqj->mqi', material_tensor_rate(data.M, samples), gu)
    vec = fem.assemble_grad_load_values(space, W)
    fv = data.f.value(P)
    vec -= fem.assemble_load_values(
        space, fv * samples.vol_div + _dot(data.f.grad(P), samples.vol_val))

    Pe = space.edge_qpoints
    ue = fem.edge_qvalues(u)
    bv = data.beta.value(Pe)
    gv = data.g.value(Pe)
    vals = (bv * ue - gv) * samples.edge_divg \
        + _dot(ue[..., None] * data.beta.grad(Pe) - data.g.grad(Pe), samples.edge_val)
    vec += fem.assemble_boundary_load_values(space, vals)
    return vec


def robin_partial_cost(u, samples):
    """Transport derivative of the cost with the state frozen.

    d/ds [ 1/2 int rate(I) grad u . grad u ] = int 1/2 |grad u|^2 div theta
    - grad u . Dtheta grad u.
    """
    gu = field_qgrads(u)
    term = 0.5 * samples.vol_div * _dot(gu, gu) \
        - np.einsum('mqi,mqij,mqj->mq', gu, samples.vol_jac, gu)
    return float(np.sum(u.space.qweights * term))


def robin_shape_tensors(data, u, p):
    """Distributed tensors of the Robin energy cost.

    S0   = -p grad f
    S1   = -grad p x M grad u - grad u x M grad p - grad u x grad u
           + [M grad u . grad p - f p + 1/2 |grad u|^2] I
    S0_G = p (u grad beta - grad g)
    S1_G = [(beta u - g) p] (I - n x n), paired with the full Jacobian
           (the tangential pairing of [(beta u - g) p] I).
    """
    space = u.space
    P = space.qpoints
    gu = field_qgrads(u)
    gp = field_qgrads(p)
    pv = fem.field_qvalues(p)
    fv = data.f.value(P)
    Mgu = np.einsum('ij,mqj->mqi', data.M, gu)
    Mgp = np.einsum('ij,mqj->mqi', data.M, gp)
    S0 = -pv[..., None] * data.f.grad(P)
    scal = _dot(Mgu, gp) - fv * pv + 0.5 * _dot(gu, gu)
    S1 = -_outer(gp, Mgu) - _outer(gu, Mgp) - _outer(gu, gu) \
        + scal[..., None, None] * _I2

    Pe = space.edge_qpoints
    ue = fem.edge_qvalues(u)
    pe = fem.edge_qvalues(p)
    bv = data.beta.value(Pe)
    gv = data.g.value(Pe)
    S0g = pe[..., None] * (ue[..., None] * data.beta.grad(Pe) - data.g.grad(Pe))
    n = space.edge_normal[:, None, :]
    S1g = ((bv * ue - gv) * pe)[..., None, None] * (_I2 - _outer(n, n))
    return ShapeTensors(space, S0=S0, S1=S1, S0_gamma=S0g, S1_gamma=S1g)


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
    gu = field_qgrads(u)
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
    gu = field_qgrads(u)
    gp = field_qgrads(p)
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


def dirichlet_energy_L_vector(data, u, samples):
    """L(u) psi = int rate(I) grad u . grad psi - div(f theta) psi."""
    space = u.space
    P = space.qpoints
    gu = field_qgrads(u)
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
    gu = field_qgrads(u)
    fv = data.f.value(P)
    S0 = 2.0 * uq[..., None] * data.f.grad(P)
    S1 = 2.0 * _outer(gu, gu) + (2.0 * fv * uq - _dot(gu, gu))[..., None, None] * _I2
    return ShapeTensors(space, S0=S0, S1=S1)


def duality_pair(problem, theta):
    """The stationary duality pair as first written, on the problem's own
    L(u), factors and row mask: L = keep L(u), udot = A^-1(-L) and
    (<L, p>, <keep B, udot>)."""
    L = problem._L(theta_samples(problem.space, theta.eval(problem.mesh.nodes))) * problem._keep
    udot = problem._fact.solve(-L)
    return fem.dot(L, problem.p.coefficients), fem.dot(problem.B * problem._keep, udot)
