"""The per-element kernels in their broadcast forms, with the point, vertex
and coordinate axes trailing, kept as the reference that the kernels
written over the element axis are checked against bit for bit.

``geometry`` is ``FeSpace._build_geometry`` as it formed each array from
the (M, 3, 2) vertex gather: the determinant, the inverse transposed
Jacobian, the quadrature weights and points and the physical gradients.
``diffusion_local`` is ``fem_core._diffusion_local``'s P1 branch on (M, 2,
2) coefficient sums and (M, 3) gradient rows, ``signed_areas`` is
``mesh._signed_areas`` on the same gather, and ``affine_mat_value`` is
``affine_mat``'s value as one broadcast sum M0 + x A + y B.
"""

import numpy as np

from shapegrad import fem_core as fem


def signed_areas(nodes, triangles):
    """Half the cross product of the two edge vectors leaving vertex 0."""
    p = nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def geometry(space):
    """dict of detJ, invJT, qweights, qpoints, grads and vertex_grads of
    ``space``'s mesh, order and volume rule."""
    mesh = space.mesh
    tri = mesh.nodes[mesh.triangles]                       # (M, 3, 2)
    J = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invJ = np.empty_like(J)
    invJ[:, 0, 0] = J[:, 1, 1]
    invJ[:, 0, 1] = -J[:, 0, 1]
    invJ[:, 1, 0] = -J[:, 1, 0]
    invJ[:, 1, 1] = J[:, 0, 0]
    invJ /= detJ[:, None, None]
    invJT = np.swapaxes(invJ, 1, 2)
    lmb = space.vol_rule.points
    qweights = 0.5 * detJ[:, None] * space.vol_rule.weights[None, :]
    qpoints = np.empty((len(tri), len(lmb), 2))
    for d in range(2):
        x = tri[:, :, d, None]
        qd = qpoints[..., d]
        np.multiply(x[:, 0], lmb[:, 0], out=qd)
        qd += x[:, 1] * lmb[:, 1]
        qd += x[:, 2] * lmb[:, 2]
    qpoints += 0.0
    vertex = fem._REF_GRAD_L[None]
    gref = vertex if space.order == 1 else fem._grad_p2(lmb)
    grads = fem._physical_grads(invJT, gref)
    vertex_grads = (grads if space.order == 1 else fem._physical_grads(invJT, vertex))[:, 0]
    return {"detJ": detJ, "invJT": invJT, "qweights": qweights, "qpoints": qpoints,
            "grads": grads, "vertex_grads": vertex_grads}


def diffusion_local(space, C):
    """P1 local stiffness matrices (M, 3, 3) of C (2, 2), (M, 1, 2, 2) or
    (M, nq, 2, 2): the weighted C summed over the points as (M, 2, 2)
    matrices, CG = WC grad phi as (M, 3) rows, and each matrix row i as
    g0_i CG0 + g1_i CG1, then ``+= 0.0``."""
    G = space.grads
    w = space.qweights
    C = np.broadcast_to(C, w.shape + (2, 2))
    WC = w[:, 0, None, None] * C[:, 0]
    for q in range(1, w.shape[1]):
        WC += w[:, q, None, None] * C[:, q]
    G0, G1 = G[:, 0, :, 0], G[:, 0, :, 1]
    CG0 = WC[:, 0, 0, None] * G0 + WC[:, 0, 1, None] * G1
    CG1 = WC[:, 1, 0, None] * G0 + WC[:, 1, 1, None] * G1
    local = np.empty(G0.shape + G0.shape[1:])
    for i in range(G0.shape[1]):
        row = local[:, i]
        np.multiply(G0[:, i, None], CG0, out=row)
        row += G1[:, i, None] * CG1
    local += 0.0
    return local


def affine_mat_value(M0, A, B, P):
    """M0 + x A + y B at the points P (..., 2), as (..., 2, 2)."""
    x = P[..., 0, None, None]
    y = P[..., 1, None, None]
    return M0 + x * A + y * B
