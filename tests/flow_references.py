"""Flow oracles for the tests (not collected).

* Pullback factors of a flow map, built from RK4 flow Jacobians.  The
  transport-rate tests difference these factors in s and compare the
  quotients with the rates the assembly uses: ``material_tensor_rate``
  and the ``vol_div``/``edge_divg`` of ``theta_samples``.
* The values of the bump fields and of the support-box cutoff as written
  before their per-component rewrite: broadcasting over the length-2 last
  axis, ``einsum`` for the squared radius and for the outer product with
  the amplitude, and the cutoff factor multiplied in at every point.
"""

import numpy as np

from shapegrad.flow import VectorFieldSpec, advect_batch, make_field


def _det_inv(J):
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
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
        _, J = advect_batch(theta, t, points)
        split = P.size // 2
        return pullback_factors(J[:split].reshape(P.shape + (2,)),
                                J[split:].reshape(Pe.shape + (2,)), n, Q)

    return [(a - b) / (2.0 * s) for a, b in zip(factors(s), factors(-s))]


def _smoothstep(t):
    out = np.clip(t, 0.0, 1.0)
    ramp = (out > 0.0) & (out < 1.0)
    if ramp.any():
        out = np.array(out)
        r = out[ramp]
        out[ramp] = r ** 3 * (10.0 - 15.0 * r + 6.0 * r * r)
    return out


def _cutoff_value(box, ramp):
    lo, hi = np.asarray(box, dtype=float)
    w = ramp * (hi - lo)

    def axis(x, k):
        return _smoothstep((x - lo[k]) / w[k]) * _smoothstep((hi[k] - x) / w[k])

    return lambda P: axis(P[..., 0], 0) * axis(P[..., 1], 1)


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


def einsum_field(name, params, support_box=None, ramp=0.15):
    """``make_field(name, params, support_box, ramp)`` for ``bump`` or
    ``tensor_bump`` with its value evaluated the einsum way; the Jacobian
    and Hessian are the package's."""
    p = np.asarray(params, dtype=float)
    base = _bump_val(p[:2], p[2:4], p[4]) if name == "bump" \
        else _tensor_bump_val(p[:2], p[2:4], p[4:6])
    val = base
    if support_box is not None:
        value = _cutoff_value(support_box, ramp)
        val = lambda P: base(P) * value(P)[..., None]
    theta = make_field(name, params, support_box, ramp)
    return VectorFieldSpec(name, val, theta.jac, theta.hess, support_box)
