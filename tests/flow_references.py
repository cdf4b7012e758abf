"""Pullback factors of a flow map, built from RK4 flow Jacobians (not collected).

The transport-rate tests difference these factors in s and compare the
quotients with the rates the assembly uses: ``material_tensor_rate`` and
the ``vol_div``/``edge_divg`` of ``theta_samples``.
"""

import numpy as np

from shapegrad.flow import advect_batch


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
