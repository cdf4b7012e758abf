"""Flow oracles for the tests (not collected).

* Pullback factors of the mesh transport T_s = id + s theta, built from its
  Jacobian DT_s = I + s Dtheta in closed form.  The transport-rate tests
  difference these factors in s and compare the quotients with the rates
  the assembly uses: ``material_tensor_rate`` and the
  ``vol_div``/``edge_divg`` of ``analytic_samples``.
* The per-edge stretch rate of the nodal interpolant, as
  ``theta_samples`` computed div_G theta and D_G theta before it derived
  them from the owning element's Dtheta.
* The values of the bump fields, the value and Jacobian of poly2 and the
  support-box cutoff in their broadcast form: broadcasting over the
  length-2 last axis, ``np.stack`` for the polynomial basis and its
  gradients, ``einsum`` for the squared radius, the basis contractions and
  the outer products, and the cutoff factor multiplied into both
  components at once, at every point.  The package writes the poly2 value
  and Jacobian, the bumps' squared radius and the cutoff's product one
  component at a time.
"""

import numpy as np

from shapegrad.flow import RAMP, VectorFieldSpec, make_field


def transport_jacobian(theta, s, points):
    """DT_s = I + s Dtheta at ``points`` (n, 2): (n, 2, 2)."""
    return np.eye(2) + s * theta.jac(np.asarray(points, dtype=float))


def det2(J):
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


def _det_inv(J):
    det = det2(J)
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    return det, inv / det[..., None, None]


def pullback_factors(J, Je, n, Q):
    """xi DT^-1 Q DT^-T and xi = det DT from the volume Jacobians ``J``,
    and xi_G = |det DT| |DT^-T n| from the edge Jacobians ``Je`` and unit
    normals ``n``; ``Q`` is a (2, 2) matrix or per-point values."""
    det, inv = _det_inv(J)
    M = det[..., None, None] * (inv @ Q @ np.swapaxes(inv, -1, -2))
    det_e, inv_e = _det_inv(Je)
    v = np.einsum('...ji,...j->...i', inv_e, n)
    return M, det, np.abs(det_e) * np.hypot(v[..., 0], v[..., 1])


def pullback_quotients(theta, space, Q, s=1e-4):
    """Centered quotients (f(s) - f(-s)) / 2s of the three pullback factors
    at the volume and edge quadrature points of ``space``."""
    P, Pe = space.qpoints, space.edge_qpoints
    n = np.broadcast_to(space.edge_normal[:, None, :], Pe.shape)
    points = np.vstack([P.reshape(-1, 2), Pe.reshape(-1, 2)])

    def factors(t):
        J = transport_jacobian(theta, t, points)
        split = P.size // 2
        return pullback_factors(J[:split].reshape(P.shape + (2,)),
                                J[split:].reshape(Pe.shape + (2,)), n, Q)

    return [(a - b) / (2.0 * s) for a, b in zip(factors(s), factors(-s))]


def edge_stretch_rate(space, theta):
    """div_G theta = rate . t and D_G theta = rate x t per boundary edge of
    ``space``, with rate = (theta_b - theta_a) / |e| the derivative of the
    nodal interpolant along the unit tangent t = (x_b - x_a) / |e|."""
    mesh = space.mesh
    a, b = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    nodal = theta.eval(mesh.nodes)
    rate = (nodal[b] - nodal[a]) / space.edge_len[:, None]
    tang = (mesh.nodes[b] - mesh.nodes[a]) / space.edge_len[:, None]
    return np.einsum('bd,bd->b', rate, tang), np.einsum('bi,bj->bij', rate, tang)


def _smoothstep(t):
    out = np.clip(t, 0.0, 1.0)
    ramp = (out > 0.0) & (out < 1.0)
    if ramp.any():
        out = np.array(out)
        r = out[ramp]
        out[ramp] = r ** 3 * (10.0 - 15.0 * r + 6.0 * r * r)
    return out


def _smoothstep_d1(t):
    tc = np.clip(t, 0.0, 1.0)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 30.0 * tc ** 2 * (1.0 - tc) ** 2, 0.0)


def cutoff_rho(box):
    """The support-box cutoff r and its gradient, (..., ) and (..., 2)."""
    lo, hi = np.asarray(box, dtype=float)
    w = RAMP * (hi - lo)

    def axis(x, k):
        tl, tr = (x - lo[k]) / w[k], (hi[k] - x) / w[k]
        gl, gr = _smoothstep(tl), _smoothstep(tr)
        dl, dr = _smoothstep_d1(tl) / w[k], -_smoothstep_d1(tr) / w[k]
        return gl * gr, dl * gr + gl * dr

    def rho(P):
        (gx, dgx), (gy, dgy) = axis(P[..., 0], 0), axis(P[..., 1], 1)
        return gx * gy, np.stack([dgx * gy, gx * dgy], axis=-1)

    return rho


def _cutoff(val, jac, box):
    rho = cutoff_rho(box)

    def cut_val(P):
        return val(P) * rho(P)[0][..., None]

    def cut_jac(P):
        r, dr = rho(P)
        return jac(P) * r[..., None, None] + np.einsum('...i,...j->...ij', val(P), dr)

    return cut_val, cut_jac


def _poly2(C):
    C = np.asarray(C, dtype=float).reshape(2, 6)

    def val(P):
        x, y = P[..., 0], P[..., 1]
        basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)
        return np.einsum('ik,...k->...i', C, basis)

    def jac(P):
        x, y = P[..., 0], P[..., 1]
        zero, one = np.zeros_like(x), np.ones_like(x)
        dx = np.stack([zero, one, zero, 2 * x, y, zero], axis=-1)
        dy = np.stack([zero, zero, one, zero, x, 2 * y], axis=-1)
        out = np.empty(P.shape[:-1] + (2, 2))
        out[..., 0] = np.einsum('ik,...k->...i', C, dx)
        out[..., 1] = np.einsum('ik,...k->...i', C, dy)
        return out

    return val, jac


def _bump_val(a, c, r):
    def val(P):
        d = (P - c) / r
        u = np.einsum('...i,...i->...', d, d)
        om = np.where(u < 1.0, 1.0 - u, 0.0)
        return np.einsum('...,i->...i', om ** 3, a)
    return val


def _tensor_bump_val(a, c, w):
    def axis(t):
        return np.where(np.abs(t) < 1.0, 1.0 - t * t, 0.0) ** 3

    def val(P):
        return np.einsum('...,i->...i', axis((P[..., 0] - c[0]) / w[0])
                         * axis((P[..., 1] - c[1]) / w[1]), a)
    return val


def einsum_field(name, params, support_box=None):
    """``make_field(name, params, support_box)`` with the value of
    ``bump``, ``tensor_bump`` and ``poly2``, the Jacobian of ``poly2`` and
    the cutoff evaluated the einsum way; the other values and Jacobians of
    the base field, which no rewrite touched, and the Hessian are the
    package's."""
    p = np.asarray(params, dtype=float)
    base = make_field(name, params)
    val, jac = base.eval, base.jac
    if name == "poly2":
        val, jac = _poly2(p)
    elif name == "bump":
        val = _bump_val(p[:2], p[2:4], p[4])
    elif name == "tensor_bump":
        val = _tensor_bump_val(p[:2], p[2:4], p[4:6])
    if support_box is not None:
        val, jac = _cutoff(val, jac, support_box)
    theta = make_field(name, params, support_box)
    return VectorFieldSpec(name, val, jac, theta.hess, support_box)
