"""The manufactured catalogs' adjoint and data closures as they were written
out by hand, before ``ManufacturedFields`` derived p, grad p and D2p as -2
times the state's closures and took h and f from the scalar catalog (not
collected).

``written_out(name, fields)`` returns those closures by attribute name;
the state closures they were written against (p = -2u) come from
``fields``.  The tests compare them with the derived ones bit for bit.

``analytic_transport_derivative`` is the frozen-state cost's derivative
with theta sampled analytically, the target of the transport FD check
when it advected the quadrature points themselves; the interpolated target
that replaced it converges to it at O(h^2).
"""

import numpy as np


def _disk(fields):
    def p(P):
        return -2.0 * fields.u(P)

    def grad_p(P):
        return P.copy()

    def hess_p(P):
        return np.broadcast_to(np.eye(2), P.shape[:-1] + (2, 2)).copy()

    def h(P):
        x, y = P[..., 0], P[..., 1]
        return 0.3 + 0.2 * x - 0.1 * y + 0.15 * x * x + 0.1 * x * y - 0.05 * y * y

    def grad_h(P):
        x, y = P[..., 0], P[..., 1]
        return np.stack([0.2 + 0.3 * x + 0.1 * y, -0.1 + 0.1 * x - 0.1 * y], axis=-1)

    return dict(p=p, grad_p=grad_p, hess_p=hess_p, h=h, grad_h=grad_h)


def _disk_higher(fields):
    def f(P):
        return 1.0 + P[..., 0]

    def grad_f(P):
        out = np.zeros(P.shape)
        out[..., 0] = 1.0
        return out

    return dict(p=lambda P: -2.0 * fields.u(P),
                grad_p=lambda P: -2.0 * fields.grad_u(P),
                hess_p=lambda P: -2.0 * fields.hess_u(P),
                h=lambda P: np.zeros(P.shape[:-1]),
                grad_h=lambda P: np.zeros(P.shape),
                f=f, grad_f=grad_f)


def written_out(name, fields):
    return {"disk": _disk, "disk-higher": _disk_higher}[name](fields)


def analytic_transport_derivative(fields, space, theta):
    """int dF/dx(x, u) . theta + F(x, u) div theta, with theta and its
    Jacobian's trace from the field's closures at the quadrature points."""
    P = space.qpoints
    u = fields.u(P)
    J = theta.jac(P)
    dens = (np.einsum('mqd,mqd->mq', fields.dF_dx(P, u), theta.eval(P))
            + fields.F(P, u) * (J[..., 0, 0] + J[..., 1, 1]))
    return float(np.sum(space.qweights * dens))
