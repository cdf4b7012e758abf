"""The per-point shape-derivative pairing that the nodal gradients replaced,
kept as the reference they are checked against.

``lagrangian_tensors_per_point`` is the density kernel as it formed S0 and
S1 at every quadrature point, and ``pair_per_point`` contracts per-point
tensors with theta samples term by term, returning each term's value and
the sum of the absolute values of its per-point contributions (the scale
of its rounding).  ``reduce_to_nodes`` reduces per-point tensors to the
nodal gradients of the vertex interpolant on its own: barycentric
gradients from inverted element Jacobians, ``einsum`` and ``np.add.at``.
``NodalTheta`` is a velocity given by its values at the mesh nodes, which
is all an ``interpolated`` sample reads.
"""

import numpy as np

from shapegrad import tensor_calc as tc

_I2 = np.eye(2)


def lagrangian_tensors_per_point(T, A, DA, p_b, b, b_x, F, F_x, F_gu=None, grad_u=None):
    """Per-point (S0, S1) of the density G = F + A : T + p_b b:
    S0 = F_x + DA : T + p_b b_x and S1 = G I - T^T A - T A^T - grad u x F_gu,
    a partial that is zero None."""
    G = F + p_b * b + np.einsum('...ij,...ij->...', A, T)
    S0 = p_b[..., None] * b_x
    if F_x is not None:
        S0 = S0 + F_x
    if DA is not None:
        S0 = S0 + np.einsum('...ijk,...ij->...k', DA, T)
    S1 = G[..., None, None] * _I2 - tc.matmul2(np.swapaxes(T, -1, -2), A) \
        - tc.matmul2(T, np.swapaxes(A, -1, -2))
    if F_gu is not None:
        S1 = S1 - np.einsum('...i,...j->...ij', grad_u, F_gu)
    return S0, S1


def pair_per_point(space, samples, S0=None, S1=None, S0_gamma=None, S1_gamma=None,
                   dt_density=None):
    """{term: (value, sum of |per-point contributions|)} of the per-point
    tensors given, paired with ``samples``; ``dt_density`` pairs with
    div theta as the parabolic ``dt_pairing``."""
    w, we = space.qweights, space.edge_qweights
    parts = {
        "S0": None if S0 is None else w * np.einsum('mqd,mqd->mq', S0, samples.vol_val),
        "S1": None if S1 is None else w * np.einsum('mqij,mqij->mq', S1, samples.vol_jac),
        "S0_gamma": None if S0_gamma is None
        else we * np.einsum('bqd,bqd->bq', S0_gamma, samples.edge_val),
        "S1_gamma": None if S1_gamma is None
        else we * np.einsum('bqij,bqij->bq', S1_gamma, samples.edge_jac),
        "dt_pairing": None if dt_density is None else w * dt_density * samples.vol_div,
    }
    return {name: (float(c.sum()), float(np.abs(c).sum()))
            for name, c in parts.items() if c is not None}


def barycentric_gradients(mesh):
    """(M, 3, 2) gradients of each triangle's barycentric coordinates, from
    the inverse of its Jacobian [x1 - x0, x2 - x0]."""
    X = mesh.nodes[mesh.triangles]
    J = np.stack([X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]], axis=2)
    invJ = np.linalg.inv(J)
    return np.stack([-invJ[:, 0] - invJ[:, 1], invJ[:, 0], invJ[:, 1]], axis=1)


def reduce_to_nodes(space, S0=None, S1=None, S0_gamma=None, S1_gamma=None, dt_density=None):
    """{term: (N, 2) nodal gradient} of the per-point tensors given, for the
    vertex interpolant of theta: S0 against the barycentric weights of the
    points, S1 summed over each element and contracted with its barycentric
    gradients, the boundary terms likewise on the edges (S1_gamma with the
    owner's gradients), ``dt_density`` as the S1 of dt_density I."""
    mesh = space.mesh
    n = mesh.n_nodes
    w, we = space.qweights, space.edge_qweights
    lmb = space.vol_rule.points
    t = space.edg_rule.points
    lmb_e = np.stack([1.0 - t, t], axis=1)
    lam = barycentric_gradients(mesh)
    owner = space.edge_owner
    out = {}
    if S1 is not None:
        S1 = np.broadcast_to(S1, w.shape + (2, 2))

    def gather(cells, local):
        g = np.zeros((n, 2))
        np.add.at(g, cells, local)
        return g

    if S0 is not None:
        out["S0"] = gather(mesh.triangles, np.einsum('mq,qv,mqd->mvd', w, lmb, S0))
    if S1 is not None:
        out["S1"] = gather(mesh.triangles, np.einsum('mq,mqij,mvj->mvi', w, S1, lam))
    if S0_gamma is not None:
        out["S0_gamma"] = gather(mesh.boundary_edges[:, :2],
                                 np.einsum('bq,qv,bqd->bvd', we, lmb_e, S0_gamma))
    if S1_gamma is not None:
        out["S1_gamma"] = gather(mesh.triangles[owner],
                                 np.einsum('bq,bqij,bvj->bvi', we, S1_gamma, lam[owner]))
    if dt_density is not None:
        out["dt_pairing"] = gather(mesh.triangles,
                                   np.einsum('mq,mq,mvi->mvi', w, dt_density, lam))
    return out


class NodalTheta:
    """A velocity known by its (N, 2) values at the mesh nodes."""

    name = "nodal"

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = values

    def eval(self, P):
        assert P is self.mesh.nodes or np.array_equal(P, self.mesh.nodes)
        return self.values
