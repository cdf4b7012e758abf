"""
Lagrange P1/P2 finite elements on triangular meshes.

The geometry map is always the affine P1 map of the triangle vertices
(also for P2 fields), so every integral reduces to a fixed reference
quadrature rule scaled by element areas.  One :class:`FeSpace` instance
fixes the quadrature degrees used by *all* assemblies on it; keeping the
state, adjoint, material and shape-derivative assemblies on the same rule
is what makes the discrete identities in the rest of the package exact.

Every assembly takes its coefficient as values at the quadrature points
it integrates over: ``space.qpoints`` for the volume forms,
``space.edge_qpoints`` for the boundary forms, over the whole boundary.
Local matrices and vectors come from one kernel per form, written as
matrix products against the reference basis or out over the two
coordinates: values at the points are ``coeff[element_dofs] @ basis.T``,
a load is ``wvals @ basis`` and a mass matrix is one such product per
local column, ``(wvals * basis[:, j]) @ basis``.  The products keep nloc
or nq columns rather than nloc^2: with two OpenBLAS threads, one product
against the (nq, nloc^2) basis pairs at 24,576 rows took 16 ms in some
processes against 0.2 ms in others.  The volume and boundary forms share
the mass and load kernels, one matrix scatter and one ``np.bincount``
scatter for vectors, keyed by ``element_dofs`` or ``edge_dofs``;
``bincount`` adds each dof's values in the order ``np.add.at`` does, so it
gives the same bits, several times faster.  The matrix scatter is a
:class:`ScatterPlan`, one per dof layout of a ``MeshTopology``, keyed
there by the layout's ``(order, boundary)`` (P1 or P2, element or
boundary-edge dofs), which each matrix assembly names; it is built on
first use and shared by every mesh transported from the topology.  A plan
holds the CSR pattern that COO->CSR conversion gives the layout and the
order in which that conversion sums duplicates, so a matrix is a gather
and a few masked vector adds with the conversion's bits (the refine-6
stiffness in 1.4 ms against 4.2-4.9 ms for the conversion, on a 2-vCPU
VM), and a re-solve on a transported mesh does not sort its pattern
again.  All of it is deterministic run to run.

``FeSpace.grads`` holds the physical basis gradients with a quadrature
axis of length nq for P2 but of length 1 for P1: the geometry map is
affine and the P1 basis linear, so a P1 gradient is the same at every
point of an element.  The kernels broadcast that axis.  The stiffness
kernel, for P1, first sums the weighted coefficient over the points,
sum_q w_q C(x_q), and then contracts it with the element's gradients once:
the same sum regrouped, exact in exact arithmetic and different only in
the last bits (at most 5.3e-16 of max|K| on the refine-6 disk).

Every factorization goes through one :class:`Factorized` path: a reverse
Cuthill-McKee renumbering followed by SuperLU with its ``MMD_AT_PLUS_A``
ordering.  The renumbering matters because MMD is sensitive to the input
numbering: on the Robin matrix in ``gen_disk``'s native node order,
ordering plus factoring took 1.47 s at 12,481 dofs and about 145 s at
49,537 dofs, against 0.08 s and 0.28 s after RCM, with less fill.  A
matrix close to a factored one, symmetric or not (the matrix or a Newton
Jacobian of the same problem on a transported mesh), is solved on those
factors with no new factorization, by right-preconditioned GMRES
(``Factorized.gmres``).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


class SolverError(Exception):
    """Linear solver failure: singular factorization or residual too large."""


class NewtonError(SolverError):
    """Nonlinear iteration failure; carries the residual-norm history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


# ------------------------------------------------------------------ quadrature

class QuadratureRule:
    """Reference-element rule: barycentric points and weights summing to 1.

    Volume rules integrate ``|K| * sum_q w_q f(x_q)`` exactly for
    polynomials up to the degree they were built for; edge rules use points
    parametrized by ``t`` in [0, 1] along the edge.
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)


def _orbit3(a):
    return [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a)]


def volume_rule(degree):
    """The symmetric triangle rule exact through degree 4 (``degree`` <= 4) or 6."""
    if degree <= 4:
        a1, w1 = 0.44594849091596489, 0.22338158967801147
        a2, w2 = 0.091576213509770743, 0.10995174365532187
        pts = _orbit3(a1) + _orbit3(a2)
        wts = [w1] * 3 + [w2] * 3
        return QuadratureRule(pts, wts)
    if degree <= 6:
        a1, w1 = 0.063089014491502228, 0.050844906370206817
        a2, w2 = 0.24928674517091042, 0.11678627572637937
        a3, b3, w3 = 0.31035245103378441, 0.053145049844816947, 0.082851075618373575
        pts = _orbit3(a1) + _orbit3(a2) + _orbit6(a3, b3)
        wts = [w1] * 3 + [w2] * 3 + [w3] * 6
        return QuadratureRule(pts, wts)
    raise ValueError(f"no volume rule of degree {degree}")


def edge_rule():
    """The 3-point Gauss rule on [0, 1], exact through degree 5."""
    d = np.sqrt(15.0) / 10.0
    return QuadratureRule([0.5 - d, 0.5, 0.5 + d], [5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


# ----------------------------------------------------------------- shape funcs

_REF_GRAD_L = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # grad of (l1,l2,l3)


def _basis_p1(lmb):
    return np.asarray(lmb, dtype=float)


def _grad_p1(lmb):
    nq = len(lmb)
    return np.broadcast_to(_REF_GRAD_L, (nq, 3, 2)).copy()


def _basis_p2(lmb):
    lmb = np.asarray(lmb, dtype=float)
    v = lmb * (2.0 * lmb - 1.0)
    e = 4.0 * np.stack([lmb[:, 0] * lmb[:, 1],
                        lmb[:, 1] * lmb[:, 2],
                        lmb[:, 2] * lmb[:, 0]], axis=1)
    return np.concatenate([v, e], axis=1)


def _grad_p2(lmb):
    lmb = np.asarray(lmb, dtype=float)
    nq = len(lmb)
    g = np.empty((nq, 6, 2))
    for i in range(3):
        g[:, i] = (4.0 * lmb[:, i, None] - 1.0) * _REF_GRAD_L[i]
    pairs = [(0, 1), (1, 2), (2, 0)]
    for k, (i, j) in enumerate(pairs):
        g[:, 3 + k] = 4.0 * (lmb[:, i, None] * _REF_GRAD_L[j] + lmb[:, j, None] * _REF_GRAD_L[i])
    return g


# ----------------------------------------------------------------------- space

class FeSpace:
    """Scalar Lagrange space of order 1 or 2 with frozen quadrature rules.

    Parameters
    ----------
    mesh : shapegrad.mesh.Mesh
    order : int
        1 (vertex dofs) or 2 (vertex + edge-midpoint dofs).
    quad_degree : int
        Volume quadrature degree shared by every assembly on this space.
        Boundary integrals use the 3-point Gauss rule (``edge_rule``).

    Attributes
    ----------
    qpoints, qweights : (M, nq, 2) and (M, nq) arrays
        Volume quadrature points and weights (|K| times the rule's).
    basis : (nq, nloc) array
        Basis values at the reference quadrature points.
    grads : (M, 1, 3, 2) array for P1, (M, nq, 6, 2) for P2
        Physical basis gradients: one set per element for P1, whose
        gradients are constant on an element, one per point for P2.
        Index [m, q, i, d] is d phi_i / dx_d, read at every point when the
        point axis has length 1; ``field_qgrads`` broadcasts it.
    """

    def __init__(self, mesh, order=1, quad_degree=4):
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        self.mesh = mesh
        self.order = order
        self.vol_rule = volume_rule(quad_degree)
        self.edg_rule = edge_rule()
        self._build_dofs()
        self._build_geometry()
        self._build_boundary()

    # -------------------------------------------------------------- structure

    def _build_dofs(self):
        mesh = self.mesh
        topo = mesh.topology
        self.element_dofs = topo.dof_layout(self.order)
        if self.order == 1:
            self.dof_count = mesh.n_nodes
            self.dof_coords = mesh.nodes.copy()
            return
        n = mesh.n_nodes
        e = topo.edges
        self.dof_count = n + len(e)
        self.dof_coords = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[e[:, 0]] + mesh.nodes[e[:, 1]])])

    def _build_geometry(self):
        mesh = self.mesh
        tri = mesh.nodes[mesh.triangles]                       # (M, 3, 2)
        J = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
        self.detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJ = np.empty_like(J)
        invJ[:, 0, 0] = J[:, 1, 1]
        invJ[:, 0, 1] = -J[:, 0, 1]
        invJ[:, 1, 0] = -J[:, 1, 0]
        invJ[:, 1, 1] = J[:, 0, 0]
        invJ /= self.detJ[:, None, None]
        self.invJT = np.swapaxes(invJ, 1, 2)

        lmb = self.vol_rule.points
        self.qweights = 0.5 * self.detJ[:, None] * self.vol_rule.weights[None, :]
        if self.order == 1:
            self.basis = _basis_p1(lmb)
            gref = _REF_GRAD_L[None]  # constant on the element: one "point"
        else:
            self.basis = _basis_p2(lmb)
            gref = _grad_p2(lmb)
        # quadrature points, and physical gradients (invJ^T applied to the
        # reference gradients), one coordinate at a time and term by term:
        # 2-3x faster than einsum and the same bits (einsum accumulates onto
        # +0.0, so a sum of zero products is +0.0; "+= 0.0" does the same)
        self.qpoints = np.empty((len(tri), len(lmb), 2))
        self.grads = np.empty((len(tri),) + gref.shape)
        for d in range(2):
            x = tri[:, :, d, None]
            self.qpoints[..., d] = x[:, 0] * lmb[:, 0] + x[:, 1] * lmb[:, 1] + x[:, 2] * lmb[:, 2]
            r = self.invJT[:, d, :, None, None]
            self.grads[..., d] = r[:, 0] * gref[..., 0] + r[:, 1] * gref[..., 1]
        self.qpoints += 0.0
        self.grads += 0.0

    def _build_boundary(self):
        mesh = self.mesh
        be = mesh.boundary_edges
        t = self.edg_rule.points
        self.edge_owner = mesh.topology.boundary_owner
        a = mesh.nodes[be[:, 0]]
        b = mesh.nodes[be[:, 1]]
        tv = b - a
        self.edge_len = np.hypot(tv[:, 0], tv[:, 1])
        n = np.column_stack([tv[:, 1], -tv[:, 0]]) / self.edge_len[:, None]
        # orient away from the owning triangle's centroid
        cent = mesh.nodes[mesh.triangles[self.edge_owner]].mean(axis=1)
        flip = np.einsum('bd,bd->b', n, 0.5 * (a + b) - cent) < 0.0
        n[flip] *= -1.0
        self.edge_normal = n
        self.edge_qpoints = a[:, None, :] + t[None, :, None] * tv[:, None, :]
        self.edge_qweights = self.edge_len[:, None] * self.edg_rule.weights[None, :]
        self.edge_dofs = mesh.topology.dof_layout(self.order, boundary=True)
        if self.order == 1:
            self.edge_basis = np.column_stack([1.0 - t, t])
        else:
            self.edge_basis = np.column_stack([(1.0 - t) * (1.0 - 2.0 * t),
                                               t * (2.0 * t - 1.0),
                                               4.0 * t * (1.0 - t)])

    # -------------------------------------------------------------- utilities

    def boundary_dofs(self):
        """Sorted dof indices lying on the boundary."""
        return np.unique(self.edge_dofs.ravel())

    def interpolate(self, f):
        """Nodal interpolant of ``f`` (callable on (n, 2) arrays)."""
        vals = np.asarray(f(self.dof_coords), dtype=float)
        if vals.shape != (self.dof_count,):
            raise ValueError("interpolate: function must return one value per point")
        return ScalarField(self, vals)


class ScalarField:
    """Coefficients of a scalar FE function on a :class:`FeSpace`."""

    def __init__(self, space, coefficients):
        self.space = space
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape != (space.dof_count,):
            raise ValueError(f"expected {space.dof_count} coefficients, got {self.coefficients.shape}")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("non-finite field coefficients")


def _rows_times_basis(coeff, basis):
    """coeff @ basis.T, with the transposed basis copied C-contiguous: the
    same bits as the strided view, in about a third of the time."""
    return coeff @ np.ascontiguousarray(basis.T)


def field_qvalues(field):
    """Field values at all volume quadrature points, shape (M, nq)."""
    space = field.space
    return _rows_times_basis(field.coefficients[space.element_dofs], space.basis)


def field_grads(field):
    """Field gradients with the point axis of ``space.grads``: (M, 1, 2) for
    P1, one per element, and (M, nq, 2) for P2.

    Summed over the local dofs left to right, then ``+= 0.0``: the bits of
    ``einsum('mqad,ma->mqd')`` (see ``_build_geometry``).
    """
    space = field.space
    grads = space.grads
    coeff = field.coefficients[space.element_dofs][:, None, :, None]
    out = coeff[:, :, 0] * grads[:, :, 0]
    for a in range(1, grads.shape[2]):
        out += coeff[:, :, a] * grads[:, :, a]
    out += 0.0
    return out


def field_qgrads(field):
    """Field gradients at all volume quadrature points, shape (M, nq, 2):
    ``field_grads``, a P1 gradient as a read-only broadcast view over the
    points."""
    return np.broadcast_to(field_grads(field), field.space.qpoints.shape)


def edge_qvalues(field):
    """Trace values at the boundary-edge quadrature points, shape (B, nqe)."""
    space = field.space
    return _rows_times_basis(field.coefficients[space.edge_dofs], space.edge_basis)


def edge_qgrads(field):
    """One-sided gradient traces from the owning element, shape (B, nqe, 2).

    The trace is evaluated with the owner's basis at the barycentric image
    of each edge quadrature point.
    """
    space = field.space
    mesh = space.mesh
    owner = space.edge_owner
    v = mesh.nodes[mesh.triangles[owner]]                  # (B, 3, 2)
    T = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    pts = space.edge_qpoints                               # (B, nqe, 2)
    loc = np.swapaxes(np.linalg.solve(T, np.swapaxes(pts - v[:, None, 0], 1, 2)), 1, 2)
    lmb = np.concatenate([1.0 - loc.sum(axis=2, keepdims=True), loc], axis=2)
    g = (_grad_p1 if space.order == 1 else _grad_p2)(lmb.reshape(-1, 3))
    g = g.reshape(lmb.shape[:2] + g.shape[1:])             # (B, nqe, a, 2)
    gphys = np.einsum('edr,eqar->eqad', space.invJT[owner], g)
    return np.einsum('eqad,ea->eqd', gphys, field.coefficients[space.element_dofs[owner]])


def l2_norm(space, values):
    """L2 norm of a coefficient vector over the space's mesh."""
    f = ScalarField(space, values)
    v = field_qvalues(f)
    return float(np.sqrt(np.sum(space.qweights * v * v)))


# ------------------------------------------------------------------- assembly

class ScatterPlan:
    """The CSR pattern of one dof layout and the order in which scipy's
    COO->CSR conversion sums its local matrices.

    ``sp.coo_matrix((local.ravel(), (rows, cols))).tocsr()``, with entry
    e = k nloc^2 + a nloc + b at (``dofs[k, a]``, ``dofs[k, b]``), buckets
    the entries by row in input order (a counting sort), sorts each row by
    column (``csr_sort_indices``, a ``std::sort`` that compares columns
    only) and then adds each run of equal columns left to right
    (``csr_sum_duplicates``: x = a_0, x += a_1, ...).  Which entry lands
    where depends on the pattern alone, never on the values, so one probe
    conversion, with the entry numbers as data, records the order for
    every set of values: the bucketing is the conversion of unique,
    increasing columns, which sorts nothing, and the row sort is
    ``sort_indices`` on the bucketed columns, the call the conversion
    makes.  :meth:`matrix` gathers the first entry of each run and then,
    for i = 1, 2, ..., adds the i-th entry of every run longer than i, one
    masked vector add per i: the bits, indices and index pointers of the
    conversion.  The bit-identity rests on scipy's summation order, which
    ``tests/test_fem_core.py`` checks against the conversion itself.

    Attributes
    ----------
    shape : (int, int)
    indices, indptr : read-only int arrays
        The CSR pattern, shared by every matrix of the plan: read-only so
        that an in-place sparse operation on one matrix (``sort_indices``,
        ``eliminate_zeros``) raises instead of corrupting the others.
    """

    def __init__(self, dofs, n):
        K, nloc = dofs.shape
        # the entries of group g = k nloc + a, e = g nloc + b for b < nloc,
        # are consecutive and all in row dofs[k, a]: bucketing the groups by
        # row buckets the entries, and the bucketing is the conversion of
        # unique, increasing columns, which sorts nothing
        groups = np.arange(K * nloc)
        buckets = sp.coo_matrix((groups, (dofs.ravel(), groups)), shape=(n, K * nloc)).tocsr()
        bucketed, indptr = buckets.indices, buckets.indptr * nloc
        within = np.arange(nloc, dtype=bucketed.dtype)
        entries = (bucketed[:, None] * nloc + within).ravel()
        cols = dofs.astype(bucketed.dtype)[bucketed // nloc].ravel()
        probe = sp.csr_matrix((entries, cols, indptr), shape=(n, n))
        probe.sort_indices()
        order, sorted_cols = probe.data, probe.indices
        first = np.ones(len(order), dtype=bool)     # the first entry of each run
        first[1:] = sorted_cols[1:] != sorted_cols[:-1]
        first[indptr[:-1][np.diff(indptr) > 0]] = True
        starts = np.flatnonzero(first)
        lengths = np.diff(starts, append=len(order))
        self.shape = (n, n)
        self.indices = sorted_cols[starts]
        self.indptr = np.searchsorted(starts, indptr).astype(indptr.dtype)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        # the first entry of each run, then for i = 1, 2, ... the runs with
        # more than i entries and their i-th entries
        self._first = order[starts]
        self._addends = []
        for i in range(1, lengths.max(initial=1)):
            runs = np.flatnonzero(lengths > i)
            self._addends.append((runs, order[starts[runs] + i]))

    def matrix(self, local):
        """CSR sum of ``local`` (K, nloc, nloc), bit for bit the conversion's."""
        v = local.reshape(-1)
        data = v[self._first]
        for runs, entries in self._addends:
            data[runs] += v[entries]
        A = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        A.has_canonical_format = True
        return A


def _scatter_matrix(space, boundary, local):
    """Sum local matrices (K, nloc, nloc) into a CSR matrix at the space's
    element dofs, or with ``boundary`` its boundary-edge dofs, as COO->CSR
    conversion does: by the topology's plan of that layout, built on first
    use (see :class:`ScatterPlan`)."""
    topo = space.mesh.topology
    key = (space.order, boundary)
    plan = topo.scatter_plans.get(key)
    if plan is None:
        plan = topo.scatter_plans[key] = ScatterPlan(topo.dof_layout(*key), space.dof_count)
    return plan.matrix(local)


def _scatter_vector(space, dofs, local):
    """Sum local vectors (K, nloc) into a dof vector at ``dofs`` (K, nloc)."""
    return np.bincount(dofs.ravel(), local.ravel(), minlength=space.dof_count)


def _mass(space, boundary, wvals, basis):
    """int w phi_i phi_j from weighted values ``wvals`` (K, nq) on cells or,
    with ``boundary``, on boundary edges."""
    local = np.stack([(wvals * basis[:, j]) @ basis for j in range(basis.shape[1])], axis=2)
    return _scatter_matrix(space, boundary, local)


def _load(space, dofs, wvals, basis):
    """int f phi_i from weighted values ``wvals`` (K, nq) on cells or edges."""
    return _scatter_vector(space, dofs, wvals @ basis)


def assemble_diffusion_values(space, C):
    """Stiffness matrix int (C grad phi_j) . grad phi_i, C of shape (M, nq, 2, 2).

    Written out over the two coordinates.  With P1 gradients, constant on
    each element, the weighted coefficient is summed over the quadrature
    points first, one point at a time, so the local matrices are formed
    once per element.
    """
    G = space.grads                                       # (M, 1 or nq, nloc, 2)
    w = space.qweights
    if G.shape[1] == 1:
        # point by point, w_0 C_0 + w_1 C_1 + ...: the bits of summing the
        # (M, nq, 2, 2) products over axis 1, without forming them
        WC = w[:, 0, None, None] * C[:, 0]
        for q in range(1, w.shape[1]):
            WC += w[:, q, None, None] * C[:, q]
        WC = WC[:, None]
    else:
        WC = w[..., None, None] * C
    G0, G1 = G[..., 0], G[..., 1]
    # the components of C grad phi_j, dotted with grad phi_i and summed
    # over the points by a batched matmul
    CG0 = WC[..., 0, 0, None] * G0 + WC[..., 0, 1, None] * G1
    CG1 = WC[..., 1, 0, None] * G0 + WC[..., 1, 1, None] * G1
    local = np.swapaxes(G0, 1, 2) @ CG0 + np.swapaxes(G1, 1, 2) @ CG1
    return _scatter_matrix(space, False, local)


def assemble_mass_values(space, vals):
    """Mass matrix int w phi_i phi_j, w of shape (M, nq)."""
    return _mass(space, False, space.qweights * vals, space.basis)


def assemble_gradscalar_values(space, W, vals):
    """Matrix with entries int vals * (W . grad phi_i) phi_j   (non-symmetric).

    ``W`` has shape (M, nq, 2) and ``vals`` (M, nq); used for Newton
    linearizations where the trial function enters algebraically.  With
    X = w vals W at the points, a P1 entry is grad phi_i . H_j with
    H_j = sum_q X_q phi_j(x_q), one product with the basis per coordinate,
    as the gradients are constant on an element; for P2 the gradients are
    dotted with X at each point first, then multiplied with the basis.
    """
    G = space.grads                                       # (M, 1 or nq, nloc, 2)
    wv = space.qweights * vals
    X0, X1 = wv * W[..., 0], wv * W[..., 1]
    if G.shape[1] == 1:
        H0, H1 = X0 @ space.basis, X1 @ space.basis
        local = G[:, 0, :, 0, None] * H0[:, None, :] + G[:, 0, :, 1, None] * H1[:, None, :]
    else:
        Y = np.swapaxes(G[..., 0] * X0[..., None] + G[..., 1] * X1[..., None], 1, 2)
        nloc, nq = Y.shape[1:]
        local = (Y.reshape(-1, nq) @ space.basis).reshape(-1, nloc, nloc)
    return _scatter_matrix(space, False, local)


def assemble_load_values(space, vals):
    """Load vector int f phi_i, f of shape (M, nq)."""
    return _load(space, space.element_dofs, space.qweights * vals, space.basis)


def assemble_grad_load_values(space, W):
    """Vector with entries int W . grad phi_i, W of shape (M, nq, 2).

    With P1 gradients, constant on each element, the weighted W is summed
    over the points first, one sum per coordinate a, and a local entry is
    sum_a grad_a phi_i (sum_q w_q W_qa); P2 contracts at every point.
    """
    G = space.grads                                       # (M, 1 or nq, nloc, 2)
    if G.shape[1] == 1:
        S0 = (space.qweights * W[..., 0]).sum(axis=1)
        S1 = (space.qweights * W[..., 1]).sum(axis=1)
        local = G[:, 0, :, 0] * S0[:, None] + G[:, 0, :, 1] * S1[:, None]
    else:
        local = np.einsum('mq,mqa,mqia->mi', space.qweights, W, G)
    return _scatter_vector(space, space.element_dofs, local)


def assemble_boundary_mass(space, vals):
    """Boundary mass matrix int_G w phi_i phi_j, w of shape (B, nqe)."""
    return _mass(space, True, space.edge_qweights * vals, space.edge_basis)


def assemble_boundary_load_values(space, vals):
    """Boundary load vector int_G g phi_i, g of shape (B, nqe)."""
    return _load(space, space.edge_dofs, space.edge_qweights * vals, space.edge_basis)


# ------------------------------------------------------------ constraints

def apply_dirichlet(A, dofs):
    """Symmetric elimination of homogeneous Dirichlet dofs: a copy of ``A``
    with the constrained rows and columns zeroed and 1 on their diagonal,
    so a symmetric ``A`` stays symmetric.  Applying it twice is a no-op.
    The problems zero the eliminated rows of their right-hand sides
    themselves.

    The matrix is ``A`` with every entry in an eliminated row or column
    set to 0, a 1 on each eliminated diagonal and the zeros dropped
    (``eliminate_zeros``, -0.0 included): the entries, bits and structure
    of Dk A Dk + Dc with the diagonal keep matrices Dk and Dc = I - Dk,
    without the sparse products.  A missing eliminated diagonal is added
    as that sum would add it.  ``A`` is taken in canonical CSR form (its
    duplicates summed), as the assemblies return it.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    n = A.shape[0]
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    keep = np.ones(n, dtype=bool)
    keep[dofs] = False
    row = np.repeat(np.arange(n), np.diff(A.indptr))
    data = np.where(keep[row] & keep[A.indices], A.data, 0.0)
    diagonal = ~keep[row] & (A.indices == row)
    data[diagonal] = 1.0
    A2 = sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)
    A2.eliminate_zeros()
    missing = np.setdiff1d(np.flatnonzero(~keep), row[diagonal])
    if len(missing):
        A2 = A2 + sp.csr_matrix((np.ones(len(missing)), (missing, missing)), shape=A.shape)
    return A2


def dot(a, b):
    """a . b without BLAS: a BLAS dot (``@``, ``np.linalg.norm``), with two
    OpenBLAS threads gone cold, took about 15 ms at 12,481 entries on a
    2-vCPU VM, against 0.1 ms for this sum."""
    return float(np.sum(a * b))


def norm(v):
    return float(np.sqrt(dot(v, v)))


# the relative stop of ``Factorized.gmres`` and its iteration budget: a
# transported Robin mesh took 20, 14, 10, 8, 7 and 6 iterations at
# s = 0.16, 0.08, 0.04, 0.02, 0.01 and 0.005 at refine 6, and a
# quasilinear Newton step from the predictor 6-8 at |s| <= 0.01, 10 at
# 0.04 and 19 at 0.16, at refine 4 and 6
KRYLOV_REL_TOL = 1e-14
KRYLOV_MAX_ITER = 50


class Factorized:
    """Sparse LU factorization, reused across right-hand sides.

    The unknowns are first renumbered by reverse Cuthill-McKee (RCM), then
    SuperLU factors the renumbered matrix with its ``MMD_AT_PLUS_A``
    column ordering.  MMD alone is very sensitive to the input numbering:
    on the Robin matrix in ``gen_disk``'s node order, ordering plus
    factoring took 1.47 s at 12,481 dofs and about 145 s at 49,537,
    against 0.08 s and 0.28 s after the RCM renumbering, with less fill.
    COLAMD is no substitute: it also avoids the cliff but more than
    doubles the fill of the parabolic step matrices.  The RCM pass uses
    the pattern of ``A`` as given, which the finite-element matrices
    here have symmetric also when their values are not (Newton Jacobians
    and their transposes).

    ``solve_transposed`` solves with A^T from the same factors, so an
    adjoint needs no second factorization.  ``gmres`` solves any matrix
    near A, of the same size and symmetric or not, by GMRES with these
    factors as the right preconditioner.  Every answer is checked against
    the matrix it solves: ``|Ax - b| <= 1e-10 (|b| + 1)``, with A^T for a
    transposed solve.

    Attributes
    ----------
    fill : int
        nnz(L) + nnz(U) of the factors.
    ordering : str
        The fill-reducing ordering used.
    residual : float
        |Ax - b| of the last ``solve`` or ``solve_transposed``.
    """

    ordering = "RCM+MMD_AT_PLUS_A"

    def __init__(self, A):
        self.A = A.tocsc()
        # intp, not the int32 that RCM returns: every solve gathers and
        # scatters by it, and numpy indexes with intp without a conversion
        self._perm = csgraph.reverse_cuthill_mckee(self.A, symmetric_mode=True).astype(np.intp)
        permuted = self.A[self._perm][:, self._perm]
        try:
            self._lu = spla.splu(permuted, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"singular system: {exc}") from exc

    @property
    def fill(self):
        return self._lu.L.nnz + self._lu.U.nnz

    def solve(self, b):
        """x with A x = b."""
        return self._solve(b, "N")

    def solve_transposed(self, b):
        """x with A^T x = b, by SuperLU's transposed solve on the same factors."""
        return self._solve(b, "T")

    def gmres(self, A, b, floor):
        """x with A x = b, for a matrix A near the factored one, symmetric or
        not: GMRES on A right-preconditioned by these factors, from
        x_0 = LU^-1 b, unrestarted.

        ``floor`` is the residual the caller accepts from a direct solve.  A
        start with |r_0| <= max(KRYLOV_REL_TOL |b|, floor), one the factors
        solve as well as that, takes no step and keeps the bits of a direct
        solve with these factors; any other start iterates until
        |r| <= KRYLOV_REL_TOL |b|.  The Krylov basis of A LU^-1 is
        orthogonalized by modified Gram-Schmidt and the least-squares problem
        kept triangular by Givens rotations, whose running product gives |r|
        of each iterate without forming it; x_0 + LU^-1 (V y) is formed once
        |r| meets the stop.  The reductions are ``dot`` and ``norm`` and the
        basis stays a list of vectors, so no product goes through BLAS.
        Returns (x, iterations, |r|); x is None when the stop was not met in
        KRYLOV_MAX_ITER iterations or when x fails the solve check against A.
        """
        A = A.tocsc()  # the format, and so the matvec bits, of ``_solve``'s check
        b = np.asarray(b, dtype=float)
        x = self._apply(b, "N")
        r = b - A @ x
        rn, tol = norm(r), KRYLOV_REL_TOL * norm(b)
        stop = rn if rn <= max(tol, floor) else tol
        basis, columns, rotations, g = [], [], [], [rn]
        w, wn = r, rn
        while not rn <= stop and len(basis) < KRYLOV_MAX_ITER:
            basis.append(w / wn)
            w = A @ self._apply(basis[-1], "N")
            h = []
            for v in basis:
                h.append(dot(w, v))
                w -= h[-1] * v
            wn = norm(w)
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            d = float(np.hypot(h[-1], wn))
            c, s = h[-1] / d, wn / d
            rotations.append((c, s))
            h[-1] = d
            columns.append(h)
            g.append(-s * g[-1])
            g[-2] *= c
            rn = abs(g[-1])
        it = len(basis)
        if it:
            y = [0.0] * it
            for i in reversed(range(it)):
                y[i] = (g[i] - sum(columns[j][i] * y[j] for j in range(i + 1, it))) / columns[i][i]
            z = y[0] * basis[0]
            for yj, v in zip(y[1:], basis[1:]):
                z += yj * v
            x += self._apply(z, "N")
        if not (rn <= stop and norm(A @ x - b) <= 1e-10 * (norm(b) + 1.0)):
            return None, it, rn
        return x, it, rn

    def _apply(self, b, trans):
        """LU^-1 b (LU^-T b for trans "T") on the renumbered unknowns, unchecked."""
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm], trans=trans)
        return x

    def _solve(self, b, trans):
        b = np.asarray(b, dtype=float)
        x = self._apply(b, trans)
        if not np.all(np.isfinite(x)):
            raise SolverError("singular system: factorization produced non-finite solution")
        A = self.A if trans == "N" else self.A.T
        self.residual = norm(A @ x - b)
        if self.residual > 1e-10 * (norm(b) + 1.0):
            raise SolverError(f"solver residual {self.residual:.3e} exceeds tolerance")
        return x
