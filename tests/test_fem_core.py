import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from shapegrad import fem_core as fem
from shapegrad.data_catalog import parse_rfunction, parse_scalar, time_matrix
from shapegrad.elliptic_problems import QuasilinearData, QuasilinearProblem
from shapegrad.mesh import Mesh, gen_disk, gen_rectangle

from conftest import basis_p1, bump_theta, field_qgrads, scatter_vector, transported
from elliptic_references import eliminate_dirichlet
from nodal_references import jacobian_gradient, point_gradient

# frozen by hand: P1 stiffness of the reference triangle (0,0),(1,0),(0,1)
# with unit coefficient: K_ij = area * grad phi_i . grad phi_j
REF_STIFFNESS = np.array([[1.0, -0.5, -0.5],
                          [-0.5, 0.5, 0.0],
                          [-0.5, 0.0, 0.5]])


def _ref_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    bnd = np.array([[0, 1, 1], [1, 2, 1], [2, 0, 1]])
    return Mesh(nodes, tris, bnd)


def _const_mat(space, C):
    """A constant (2, 2) coefficient as its values at the volume quadrature points."""
    return np.broadcast_to(np.asarray(C, dtype=float), space.qpoints.shape[:-1] + (2, 2))


def _stiffness(space, C=np.eye(2)):
    return fem.assemble_diffusion_values(space, _const_mat(space, C))


def _tri_monomial_exact(i, j):
    import math
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


# ------------------------------------------------------------------ quadrature

@pytest.mark.parametrize("degree", [4, 6])
def test_volume_rule_exactness(degree):
    rule = fem.volume_rule(degree)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            quad = 0.5 * np.sum(rule.weights * x ** i * y ** j)
            assert abs(quad - _tri_monomial_exact(i, j)) <= 1e-14


def test_volume_rule_degree4_not_exact_at_degree5():
    rule = fem.volume_rule(4)
    x = rule.points[:, 1]
    quad = 0.5 * np.sum(rule.weights * x ** 5)
    assert abs(quad - _tri_monomial_exact(5, 0)) > 1e-6


def test_edge_rule_exactness():
    rule = fem.edge_rule()
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    for k in range(6):
        assert abs(np.sum(rule.weights * rule.points ** k) - 1.0 / (k + 1)) <= 1e-14


# -------------------------------------------------------------------- assembly

def test_reference_triangle_stiffness():
    space = fem.FeSpace(_ref_triangle(), order=1)
    K = _stiffness(space).toarray()
    assert np.abs(K - REF_STIFFNESS).max() <= 1e-14
    K2 = _stiffness(space, 2.0 * np.eye(2)).toarray()
    assert np.abs(K2 - 2.0 * REF_STIFFNESS).max() <= 1e-14


def test_stiffness_linear_in_coefficient():
    m = gen_rectangle(0, 0, 1, 1, 3, 3)
    space = fem.FeSpace(m, order=1)
    C = np.array([[2.0, 0.5], [0.5, 1.0]])
    D = np.array([[0.3, -0.2], [-0.2, 0.7]])
    A1 = _stiffness(space, C)
    # a broadcast view and per-point values in memory assemble alike
    A2 = fem.assemble_diffusion_values(space, np.array(_const_mat(space, C)))
    assert abs(A1 - A2).max() <= 1e-14
    A3 = _stiffness(space, C + D)
    assert abs(A3 - (A1 + _stiffness(space, D))).max() <= 1e-14


def _point_grads(space):
    """Basis gradients at every quadrature point, (M, nq, nloc, 2): a P1
    space stores one per element."""
    g = space.grads
    return np.broadcast_to(g, space.qweights.shape + g.shape[2:])


def _stiffness_einsum(space, C):
    # the stiffness kernel as one optimized einsum over per-point gradients
    G = _point_grads(space)
    local = np.einsum('mq,mqia,mqab,mqjb->mij', space.qweights, G, C, G, optimize=True)
    return _coo_scatter(space, space.element_dofs, local)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("coef", ["const", "affine_mat"])
def test_stiffness_matches_einsum_reference(order, coef):
    """The written-out kernel (for P1 over per-element gradients, with the
    weighted coefficient summed over the points first) is the einsum up to
    the order of the sums."""
    m = gen_disk((0.2, -0.1), 1.0, 3)
    space = fem.FeSpace(m.with_nodes(m.nodes + 0.01 * np.cos(5.0 * m.nodes)), order=order)
    assert space.grads.shape[1] == (1 if order == 1 else space.qweights.shape[1])
    if coef == "const":
        C = _const_mat(space, [[2.0, 0.3], [0.3, 1.5]])
    else:
        C = time_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3").spatial.value(
            space.qpoints)
    K = fem.assemble_diffusion_values(space, C)
    K_ref = _stiffness_einsum(space, C)
    assert abs(K - K_ref).max() <= 1e-15 * abs(K_ref).max()


@pytest.mark.parametrize("order", [1, 2])
def test_mass_partition_of_unity(order):
    for m, area in ((gen_rectangle(0, 0, 2, 1.5, 4, 3), 3.0),
                    (gen_disk((0, 0), 1.0, 3), None)):
        if area is None:
            area = m.areas().sum()
        space = fem.FeSpace(m, order=order)
        M = fem.assemble_mass_values(space, np.ones(space.qweights.shape))
        total = float(np.ones(space.dof_count) @ (M @ np.ones(space.dof_count)))
        assert abs(total - area) <= 1e-12 * max(1.0, area)


@pytest.mark.parametrize("order", [1, 2])
def test_boundary_mass_perimeter(order):
    m = gen_rectangle(0, 0, 1, 1, 4, 4)
    space = fem.FeSpace(m, order=order)
    Mb = fem.assemble_boundary_mass(space, np.ones(space.edge_qweights.shape))
    ones = np.ones(space.dof_count)
    assert abs(ones @ (Mb @ ones) - 4.0) <= 1e-12 * 4.0


def test_load_constant_sums_to_area():
    m = gen_disk((0.2, -0.1), 0.8, 3)
    space = fem.FeSpace(m, order=2)
    b = fem.assemble_load_values(space, np.ones(space.qweights.shape))
    assert abs(b.sum() - m.areas().sum()) <= 1e-12 * m.areas().sum()


def test_load_linear_moment():
    m = gen_rectangle(0, 0, 1, 1, 5, 5)
    space = fem.FeSpace(m, order=1)
    b = fem.assemble_load_values(space, space.qpoints[..., 0])
    assert abs(b.sum() - 0.5) <= 1e-12


def test_boundary_load_sums_to_perimeter():
    m = gen_rectangle(0, 0, 1, 1, 3, 3)
    space = fem.FeSpace(m, order=1)
    g = fem.assemble_boundary_load_values(space, np.ones(space.edge_qweights.shape))
    assert abs(g.sum() - 4.0) <= 1e-12 * 4.0


# -------------------------------------------------------------- scatter plans

def _coo_scatter(space, dofs, local):
    """The COO->CSR sum that ``fem.ScatterPlan`` reproduces: the reference
    for its bits."""
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(space.dof_count, space.dof_count)).tocsr()


def _same_csr(A, B):
    """Byte equality of the CSR arrays, dtypes included."""
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr)))


def _signed_locals(rng, shape):
    """Random local matrices with +0.0 and -0.0 entries and both signs of
    each, so that a run summing to zero, -0.0 + -0.0 and -0.0 + 0.0 occur."""
    local = rng.standard_normal(shape)
    local[rng.random(shape) < 0.2] = 0.0
    local[rng.random(shape) < 0.2] = -0.0
    local[rng.random(shape) < 0.3] *= -1.0
    return local


@pytest.mark.parametrize("mesh", ["disk", "rect"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("layout", ["element", "edge", "custom"])
def test_scatter_matches_coo_conversion_byte_for_byte(mesh, order, layout):
    m = gen_disk((0.1, -0.2), 1.0, 3) if mesh == "disk" else gen_rectangle(0, 0, 2, 1, 5, 3)
    space = fem.FeSpace(m, order=order)
    rng = np.random.default_rng(7 + order)
    if layout == "custom":
        dofs = rng.integers(0, space.dof_count, (60, 4))
        scatter = fem.ScatterPlan(dofs, space.dof_count).matrix
    else:
        boundary = layout == "edge"
        dofs = space.edge_dofs if boundary else space.element_dofs

        def scatter(local):
            return fem._scatter_matrix(space, boundary, local)
    for _ in range(3):
        local = _signed_locals(rng, dofs.shape + dofs.shape[1:])
        A = scatter(local)
        assert _same_csr(A, _coo_scatter(space, dofs, local))
        assert A.has_canonical_format
    # a zero local and an all -0.0 local keep their explicit entries
    for fill in (0.0, -0.0):
        local = np.full(dofs.shape + dofs.shape[1:], fill)
        assert _same_csr(scatter(local), _coo_scatter(space, dofs, local))


def test_every_assembly_matches_coo_conversion(monkeypatch):
    """Each matrix kernel's local matrices, summed by the plan, give the
    conversion's bytes: stiffness, mass, grad-scalar and boundary mass."""
    seen = []
    matrix = fem.ScatterPlan.matrix

    def recording(self, local):
        seen.append(local)
        return matrix(self, local)

    monkeypatch.setattr(fem.ScatterPlan, "matrix", recording)
    rng = np.random.default_rng(3)
    for order in (1, 2):
        space = fem.FeSpace(gen_disk((0, 0), 1.0, 2), order=order)
        q, qe = space.qweights.shape, space.edge_qweights.shape
        cases = [
            (fem.assemble_diffusion_values, (rng.standard_normal(q + (2, 2)),), space.element_dofs),
            (fem.assemble_mass_values, (rng.standard_normal(q),), space.element_dofs),
            (fem.assemble_gradscalar_values, (rng.standard_normal(q + (2,)),
                                              rng.standard_normal(q)), space.element_dofs),
            (fem.assemble_boundary_mass, (rng.standard_normal(qe),), space.edge_dofs),
        ]
        for assemble, args, dofs in cases:
            seen.clear()
            A = assemble(space, *args)
            assert len(seen) == 1
            assert _same_csr(A, _coo_scatter(space, dofs, seen[0]))


def test_transported_mesh_reuses_the_reference_plan():
    m = gen_disk((0, 0), 1.0, 3)
    moved = m.with_nodes(m.nodes * np.array([1.1, 0.9]) + 0.01)
    for order in (1, 2):
        ref, new = fem.FeSpace(m, order=order), fem.FeSpace(moved, order=order)
        assert new.element_dofs is ref.element_dofs and new.edge_dofs is ref.edge_dofs
        A = fem.assemble_mass_values(ref, np.ones(ref.qweights.shape))
        plans = dict(m.topology.scatter_plans)
        B = fem.assemble_mass_values(new, np.ones(new.qweights.shape))
        assert m.topology.scatter_plans == plans   # no new plan, the same objects
        plan = m.topology.scatter_plans[(order, False)]
        for M in (A, B):
            assert np.shares_memory(M.indices, plan.indices)
            assert np.shares_memory(M.indptr, plan.indptr)
    # another topology builds its own
    other = fem.FeSpace(gen_disk((0, 0), 1.0, 3), order=1)
    C = fem.assemble_mass_values(other, np.ones(other.qweights.shape))
    plan = other.mesh.topology.scatter_plans[(1, False)]
    assert plan is not m.topology.scatter_plans[(1, False)]
    assert np.shares_memory(C.indices, plan.indices)


def test_custom_dofs_never_receive_a_topology_plan():
    """A plan of a dofs array other than the topology's layouts is the
    caller's own: building and using it leaves the topology's plans alone,
    and its pattern is not theirs, also when the array equals a layout."""
    m = gen_disk((0, 0), 1.0, 2)
    space = fem.FeSpace(m, order=1)
    A = _stiffness(space)
    plans = dict(m.topology.scatter_plans)
    rng = np.random.default_rng(5)
    for dofs in (space.element_dofs.copy(), rng.integers(0, space.dof_count, (30, 3))):
        local = _signed_locals(rng, dofs.shape + dofs.shape[1:])
        B = fem.ScatterPlan(dofs, space.dof_count).matrix(local)
        assert _same_csr(B, _coo_scatter(space, dofs, local))
        assert m.topology.scatter_plans == plans
        assert not np.shares_memory(B.indices, A.indices)
        assert not np.shares_memory(B.indptr, A.indptr)


def test_plan_matrices_cannot_corrupt_the_plan():
    """The shared index arrays are read-only: an in-place operation on one
    matrix raises, and the next matrix of the plan is unchanged."""
    space = fem.FeSpace(gen_rectangle(0, 0, 1, 1, 3, 3), order=1)
    A = _stiffness(space)
    before = (A.indices.copy(), A.indptr.copy())
    assert not A.indices.flags.writeable and not A.indptr.flags.writeable
    A.data[:4] = 0.0
    with pytest.raises(ValueError):
        A.eliminate_zeros()
    B = _stiffness(space)
    assert np.array_equal(B.indices, before[0]) and np.array_equal(B.indptr, before[1])
    # operations that make new arrays still work on plan matrices
    assert np.array_equal((2.0 * A + B).tocsc().toarray(), 2.0 * A.toarray() + B.toarray())


def _stiffness_summed_products(space, C):
    """The P1 stiffness with sum_q w_q C_q formed as the (M, nq, 2, 2)
    products summed over axis 1: the reference for the point-by-point sum."""
    G = space.grads
    WC = (space.qweights[..., None, None] * C).sum(axis=1, keepdims=True)
    G0, G1 = G[..., 0], G[..., 1]
    CG0 = WC[..., 0, 0, None] * G0 + WC[..., 0, 1, None] * G1
    CG1 = WC[..., 1, 0, None] * G0 + WC[..., 1, 1, None] * G1
    local = np.swapaxes(G0, 1, 2) @ CG0 + np.swapaxes(G1, 1, 2) @ CG1
    return _coo_scatter(space, space.element_dofs, local)


@pytest.mark.parametrize("quad_degree", [4, 6])
def test_p1_stiffness_point_sum_keeps_the_bits(quad_degree):
    space = fem.FeSpace(gen_disk((0, 0), 1.0, 3), order=1, quad_degree=quad_degree)
    rng = np.random.default_rng(quad_degree)
    for C in (_const_mat(space, [[2.0, 0.3], [0.3, 1.0]]),
              rng.standard_normal(space.qweights.shape + (2, 2))):
        assert _same_csr(fem.assemble_diffusion_values(space, C),
                         _stiffness_summed_products(space, C))


def test_p1_stiffness_rows_keep_the_matmul_bits():
    """The P1 local matrices, formed one row at a time, have the bits of
    the batched matmul, which sums onto +0.0: on one right triangle, whose
    vertex gradients (0, -1) and (-1, 0) give the entry between them two
    products of -0.0 under a diagonal C, and on a crossed-triangle mesh."""
    right = Mesh(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
                 np.array([[0, 1, 1], [1, 2, 1], [2, 0, 1]]))
    rng = np.random.default_rng(11)
    for mesh in (right, gen_rectangle(0.0, 0.0, 1.0, 1.0, 6, 5)):
        space = fem.FeSpace(mesh, order=1)
        for C in (_const_mat(space, [[2.0, 0.0], [0.0, 1.0]]),
                  _const_mat(space, [[-1.0, 0.0], [0.0, -3.0]]),
                  rng.standard_normal(space.qweights.shape + (2, 2))):
            assert _same_csr(fem.assemble_diffusion_values(space, C),
                             _stiffness_summed_products(space, C))


@pytest.mark.parametrize("order", [1, 2])
def test_element_rank_coefficient_keeps_the_bits(order):
    """A coefficient with one value per element, point axis of length 1,
    assembles to the bits of its copy at every quadrature point."""
    space = fem.FeSpace(gen_disk((0, 0), 1.0, 3), order=order)
    C = np.random.default_rng(order).standard_normal((space.qweights.shape[0], 1, 2, 2))
    assert _same_csr(fem.assemble_diffusion_values(space, C),
                     fem.assemble_diffusion_values(
                         space, np.broadcast_to(C, space.qweights.shape + (2, 2)).copy()))


def test_one_plan_per_topology_and_layout_over_a_validate(tmp_path, monkeypatch):
    """A robin-disk ``validate`` transports 8 meshes; every matrix on them
    comes from the reference topology's two plans (P1 element and P1
    boundary-edge dofs), each built once."""
    import os
    from shapegrad import cli, mesh as mesh_mod
    built, transported = [], []

    class CountingPlan(fem.ScatterPlan):
        def __init__(self, dofs, n):
            built.append(dofs)
            super().__init__(dofs, n)

    with_nodes = mesh_mod.Mesh.with_nodes

    def counting_with_nodes(self, nodes):
        transported.append(self.topology)
        return with_nodes(self, nodes)

    monkeypatch.setattr(fem, "ScatterPlan", CountingPlan)
    monkeypatch.setattr(mesh_mod.Mesh, "with_nodes", counting_with_nodes)
    cfg = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "robin-disk.cfg")
    assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(transported) == 8 and len({id(t) for t in transported}) == 1
    topology = transported[0]
    assert len(built) == 2
    assert {id(d) for d in built} == {id(topology.dof_layout(1)),
                                      id(topology.dof_layout(1, boundary=True))}


# ---------------------------------------------------------------- constraints

def test_apply_dirichlet_idempotent():
    m = gen_rectangle(0, 0, 1, 1, 3, 3)
    space = fem.FeSpace(m, order=1)
    dofs = space.boundary_dofs()
    A1 = fem.apply_dirichlet(_stiffness(space), dofs)
    assert _same_csr(fem.apply_dirichlet(A1, dofs), A1)
    # symmetry preserved
    assert abs(A1 - A1.T).max() <= 1e-14


def _dirichlet_by_diagonal_products(A, dofs):
    """Dk A Dk + Dc with the keep diagonals Dk and Dc = I - Dk: the sparse
    products that ``fem.apply_dirichlet`` reproduces, its reference."""
    keep = np.ones(A.shape[0])
    keep[np.asarray(dofs, dtype=np.int64)] = 0.0
    Dk, Dc = sp.diags(keep), sp.diags(1.0 - keep)
    return (Dk @ A @ Dk + Dc).tocsr()


@pytest.mark.parametrize("order", [1, 2])
def test_apply_dirichlet_matches_diagonal_products_byte_for_byte(order):
    space = fem.FeSpace(gen_rectangle(0, 0, 1, 1, 6, 5), order=order)
    rng = np.random.default_rng(order)
    A = fem._scatter_matrix(space, False,
                            _signed_locals(rng, space.element_dofs.shape + space.element_dofs.shape[1:]))
    for dofs in (space.boundary_dofs(), rng.integers(0, space.dof_count, 25), []):
        A1 = fem.apply_dirichlet(A, dofs)
        assert _same_csr(A1, _dirichlet_by_diagonal_products(A, dofs))
        assert _same_csr(fem.apply_dirichlet(A1, dofs), A1)
    # an eliminated dof without a diagonal entry gets its 1 all the same
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, 0.0], [0.0, 0.0, 0.0]]))
    for dofs in ([2], [0, 2]):
        assert _same_csr(fem.apply_dirichlet(A, dofs), _dirichlet_by_diagonal_products(A, dofs))


@pytest.mark.parametrize("order", [1, 2])
def test_patch_test_linear_exact(order):
    # -lap u = 0 with u = 1 + 2x - 3y on the boundary reproduces u exactly
    m = gen_rectangle(0, 0, 1, 1, 4, 3)
    space = fem.FeSpace(m, order=order)

    def uex(P):
        return 1.0 + 2.0 * P[..., 0] - 3.0 * P[..., 1]

    A = _stiffness(space)
    b = np.zeros(space.dof_count)
    dofs = space.boundary_dofs()
    A1, b1 = eliminate_dirichlet(A, b, dofs, uex(space.dof_coords[dofs]))
    x = fem.Factorized(A1).solve(b1)
    assert np.abs(x - uex(space.dof_coords)).max() <= 1e-12


def test_p2_exact_for_harmonic_quadratic():
    # u = x^2 - y^2 is harmonic and quadratic: P2 reproduces it to solver precision
    m = gen_rectangle(0, 0, 1, 1, 3, 3)
    space = fem.FeSpace(m, order=2)

    def uex(P):
        return P[..., 0] ** 2 - P[..., 1] ** 2

    A = _stiffness(space)
    dofs = space.boundary_dofs()
    A1, b1 = eliminate_dirichlet(A, np.zeros(space.dof_count), dofs, uex(space.dof_coords[dofs]))
    x = fem.Factorized(A1).solve(b1)
    assert np.abs(x - uex(space.dof_coords)).max() <= 1e-10


def test_solve_residual_and_singular():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(fem.SolverError):
        fem.Factorized(A).solve(np.array([1.0, 1.0]))


def test_factorized_matches_solve():
    m = gen_rectangle(0, 0, 1, 1, 4, 4)
    space = fem.FeSpace(m, order=1)
    A = _stiffness(space) + fem.assemble_mass_values(space, np.ones(space.qweights.shape))
    b = fem.assemble_load_values(space, space.qpoints[..., 1])
    x1 = spla.spsolve(A.tocsc(), b)
    x2 = fem.Factorized(A).solve(b)
    assert np.abs(x1 - x2).max() <= 1e-12


def _robin_system(mesh):
    """Robin matrix (M = diag(2, 1), beta = 1) and load on ``mesh``."""
    space = fem.FeSpace(mesh, order=1)
    A = _stiffness(space, np.diag([2.0, 1.0])) \
        + fem.assemble_boundary_mass(space, np.ones(space.edge_qweights.shape))
    P = space.qpoints
    b = fem.assemble_load_values(space, 1.0 + P[..., 0] * P[..., 1])
    return A, b


def test_factorized_no_ordering_cliff_at_refine7():
    # MMD without the RCM renumbering took about 145 s on this matrix
    # (49,537 dofs in gen_disk's node order); COLAMD gave 6.68M fill.
    A, b = _robin_system(gen_disk((0.0, 0.0), 1.0, 7))
    t0 = time.perf_counter()
    fact = fem.Factorized(A)
    x = fact.solve(b)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    assert fact.A.shape[0] == 49537
    assert fact.fill <= 5.0e6
    assert fact.ordering == "RCM+MMD_AT_PLUS_A"
    assert np.linalg.norm(A @ x - b) <= 1e-10 * (np.linalg.norm(b) + 1.0)


def test_factorized_numbering_invariant():
    A, b = _robin_system(gen_disk((0.0, 0.0), 1.0, 5))
    x = fem.Factorized(A).solve(b)
    perm = np.random.default_rng(11).permutation(A.shape[0])
    Ap = A.tocsr()[perm][:, perm]
    xp = fem.Factorized(Ap).solve(b[perm])
    assert np.linalg.norm(xp - x[perm]) <= 1e-12 * np.linalg.norm(x)


def test_factorized_unsymmetric_jacobian_and_transpose(disk4):
    data = QuasilinearData(m=parse_rfunction("saturating"), f=parse_rfunction("affine_r 1 0.1"),
                           g=parse_scalar("const 2"), u_d=parse_scalar("const 0"))
    problem = QuasilinearProblem(disk4, data)
    space = problem.space
    u = space.interpolate(lambda P: 1.0 + np.sin(2.0 * P[..., 0]) * P[..., 1])
    J = problem.jacobian(u)
    assert abs(J - J.T).max() > 1e-8
    b = fem.assemble_load_values(space, 1.0 + space.qpoints[..., 0])
    JT = J.T.tocsr()
    # (solution, reference matrix): A x = b for A = J and J^T, and the
    # transposed solve on J's factors, checked against COLAMD on J^T
    for x, M in ((fem.Factorized(J).solve(b), J), (fem.Factorized(JT).solve(b), JT),
                 (fem.Factorized(J).solve_transposed(b), JT)):
        ref = spla.splu(M.tocsc(), permc_spec="COLAMD").solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gmres_solves_an_unsymmetric_jacobian_on_the_factors_of_another(disk4, monkeypatch):
    """``Factorized.gmres`` solves a matrix on the factors of another near
    it, unsymmetric or symmetric: the quasilinear Jacobian at one state on
    the factors of the Jacobian at another, and the Robin matrix on the disk
    transported by s theta on the factors of the Robin matrix on the disk.
    Each meets the COLAMD answer to 1e-10, with |r| <= KRYLOV_REL_TOL |b|.
    On the factored matrix itself its start is the direct solve, which one
    iteration at most polishes, and which, with that solve's residual as the
    floor, it keeps with its bits and no iteration; a solve that does not
    stop in KRYLOV_MAX_ITER (here 0) iterations gives None and does not
    raise."""
    data = QuasilinearData(m=parse_rfunction("saturating"), f=parse_rfunction("affine_r 1 0.1"),
                           g=parse_scalar("const 2"), u_d=parse_scalar("const 0"))
    problem = QuasilinearProblem(disk4, data)
    space = problem.space
    u0 = space.interpolate(lambda P: 1.0 + np.sin(2.0 * P[..., 0]) * P[..., 1])
    u1 = space.interpolate(lambda P: 1.2 + np.sin(2.0 * P[..., 0]) * P[..., 1] + 0.3 * P[..., 0])
    b = fem.assemble_load_values(space, 1.0 + space.qpoints[..., 0])
    robin, robin_b = _robin_system(disk4)
    robin_s, _ = _robin_system(transported(bump_theta(), 0.04, disk4))
    for J0, J1, b in ((problem.jacobian(u0), problem.jacobian(u1), b),
                      (robin, robin_s, robin_b)):
        fact = fem.Factorized(J0)
        x, iterations, rn = fact.gmres(J1, b, 0.0)
        ref = spla.splu(J1.tocsc(), permc_spec="COLAMD").solve(b)
        assert 1 <= iterations < fem.KRYLOV_MAX_ITER and rn <= fem.KRYLOV_REL_TOL * fem.norm(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        direct = fact.solve(b)
        x, iterations, _ = fact.gmres(J0, b, 0.0)
        assert iterations <= 1 and np.linalg.norm(x - direct) <= 1e-14 * np.linalg.norm(direct)
        x, iterations, _ = fact.gmres(J0, b, fact.residual)
        assert iterations == 0 and np.array_equal(x, direct)
        monkeypatch.setattr(fem, "KRYLOV_MAX_ITER", 0)
        assert fact.gmres(J1, b, 0.0)[0] is None
        monkeypatch.undo()


# ------------------------------------------------------------- interpolation

@pytest.mark.parametrize("order,poly", [(1, "linear"), (2, "quadratic")])
def test_interpolation_exactness(order, poly):
    m = gen_disk((0, 0), 1.0, 2)
    space = fem.FeSpace(m, order=order)

    def f(P):
        if poly == "linear":
            return 0.3 + 1.2 * P[..., 0] - 0.7 * P[..., 1]
        return 0.3 + P[..., 0] - P[..., 1] + 2.0 * P[..., 0] * P[..., 1] - P[..., 1] ** 2

    u = space.interpolate(f)
    assert np.abs(u.coefficients - f(space.dof_coords)).max() <= 1e-14
    rng = np.random.default_rng(2)
    for elem in rng.integers(0, m.n_triangles, size=10):
        lam = rng.dirichlet([1, 1, 1])
        p = lam @ m.nodes[m.triangles[elem]]
        basis = (basis_p1 if order == 1 else fem._basis_p2)(lam[None, :])[0]
        val = basis @ u.coefficients[space.element_dofs[elem]]
        assert abs(val - f(p[None, :])[0]) <= 1e-13


def test_edge_traces():
    m = gen_rectangle(0, 0, 1, 1, 2, 2)
    space = fem.FeSpace(m, order=2)
    u = space.interpolate(lambda P: P[..., 0] ** 2 + 0.5 * P[..., 1])
    vals = fem.edge_qvalues(u)
    grads = fem.edge_qgrads(u)
    P = space.edge_qpoints
    assert np.abs(vals - (P[..., 0] ** 2 + 0.5 * P[..., 1])).max() <= 1e-12
    exact = np.stack([2.0 * P[..., 0], np.full(P.shape[:-1], 0.5)], axis=-1)
    assert np.abs(grads - exact).max() <= 1e-11


def _edge_qgrads_per_edge(field):
    # edge_qgrads as a loop over edges, one 2x2 solve each: the reference
    space = field.space
    mesh = space.mesh
    out = np.empty((len(mesh.boundary_edges), space.edg_rule.points.shape[0], 2))
    for e in range(len(out)):
        owner = space.edge_owner[e]
        v = mesh.nodes[mesh.triangles[owner]]
        T = np.stack([v[1] - v[0], v[2] - v[0]], axis=1)
        loc = np.linalg.solve(T, (space.edge_qpoints[e] - v[0]).T).T
        lmb = np.column_stack([1.0 - loc.sum(axis=1), loc])
        g = (fem._grad_p1 if space.order == 1 else fem._grad_p2)(lmb)
        gphys = np.einsum('dr,qar->qad', space.invJT[owner], g)
        out[e] = np.einsum('qad,a->qd', gphys, field.coefficients[space.element_dofs[owner]])
    return out


@pytest.mark.parametrize("order", [1, 2])
def test_edge_qgrads_matches_per_edge_loop(order):
    m = gen_disk((0.2, -0.1), 1.0, 3)
    space = fem.FeSpace(m.with_nodes(m.nodes + 0.01 * np.cos(5.0 * m.nodes)), order=order)
    u = space.interpolate(lambda P: np.cos(3.0 * P[..., 0]) * np.exp(P[..., 1]))
    assert fem.edge_qgrads(u).tobytes() == _edge_qgrads_per_edge(u).tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_field_qgrads_matches_einsum_bit_for_bit(order):
    m = gen_disk((0.2, -0.1), 1.0, 3)
    space = fem.FeSpace(m.with_nodes(m.nodes + 0.01 * np.cos(5.0 * m.nodes)), order=order)
    u = space.interpolate(lambda P: np.where(P[..., 0] > 0.3, 0.0,
                                             np.cos(3.0 * P[..., 0]) * np.exp(P[..., 1])))
    # zero and negative-zero coefficients: the einsum sums onto +0.0
    u.coefficients[::5] = -0.0
    # per element for P1, broadcast over the points
    want = np.einsum('mqad,ma->mqd', space.grads, u.coefficients[space.element_dofs])
    grads = fem.field_grads(u)
    assert grads.shape == space.grads.shape[:2] + (2,)
    assert grads.tobytes() == want.tobytes()
    got = field_qgrads(u)
    assert got.shape == space.qpoints.shape
    assert got.tobytes() == np.broadcast_to(want, got.shape).tobytes()


# The P1 (vertex) data of a space, at either order, and the nodal sums of
# the shape gradient as P1 assemblies on it.

@pytest.mark.parametrize("order", [1, 2])
def test_vertex_grads_are_the_barycentric_gradients_bit_for_bit(order):
    space = _perturbed_space(order)
    got = space.vertex_grads
    assert got.shape == (space.mesh.n_triangles, 3, 2)
    if order == 1:
        assert np.shares_memory(got, space.grads)
        assert got.tobytes() == space.grads[:, 0].tobytes()
    else:
        want = np.einsum('mda,va->mvd', space.invJT, fem._REF_GRAD_L)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("boundary", [False, True], ids=["volume", "boundary"])
def test_vertex_assemblies_match_the_nodal_sums_bit_for_bit(order, boundary):
    """The P1 load and grad-load give the bits of the nodal sums they
    replaced, signed zeros included."""
    space = _perturbed_space(order)
    rng = np.random.default_rng(40 + 2 * order + boundary)
    shape = (2,) + (space.edge_qweights if boundary else space.qweights).shape
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    X[:, ::7] = -0.0
    S = rng.standard_normal((shape[1], 2, 2))
    S[::5] = -0.0
    got = fem.assemble_vertex_load(space, X, boundary)
    assert got.shape == (space.mesh.n_nodes, 2)
    assert got.tobytes() == point_gradient(space, X, boundary).tobytes()
    got = fem.assemble_vertex_grad_load(space, S, boundary)
    assert got.shape == (space.mesh.n_nodes, 2)
    assert got.tobytes() == jacobian_gradient(space, S, boundary).tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_dof_values_keep_vertices_and_average_midpoints(order, rect_unit):
    space = fem.FeSpace(rect_unit, order=order)
    nodal = bump_theta().eval(rect_unit.nodes)
    vals = space.dof_values(nodal)
    if order == 1:
        assert vals is nodal
        assert space.dof_coords is rect_unit.nodes
        return
    n = rect_unit.n_nodes
    assert vals.shape == (space.dof_count, 2)
    assert np.array_equal(vals[:n], nodal)
    for idx, (a, b) in enumerate(rect_unit.topology.edges):
        assert np.array_equal(vals[n + idx], 0.5 * (nodal[a] + nodal[b]))
        assert np.array_equal(space.dof_coords[n + idx],
                              0.5 * (rect_unit.nodes[a] + rect_unit.nodes[b]))


@pytest.mark.parametrize("order", [1, 2])
def test_vertex_sums_is_the_transpose_of_dof_values(order, rect_unit):
    """r . dof_values(v) = vertex_sums(r) . v, checked against the dense
    matrix of ``dof_values`` built one node and coordinate at a time."""
    space = fem.FeSpace(rect_unit, order=order)
    n = rect_unit.n_nodes
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((space.dof_count, 2))
    sums = space.vertex_sums(rows)
    if order == 1:
        assert sums is rows
        return
    D = np.stack([space.dof_values(np.eye(n)[:, [i]])[:, 0] for i in range(n)], axis=1)
    assert sums.shape == (n, 2)
    assert np.allclose(sums, D.T @ rows, rtol=0.0, atol=1e-13)


# Einsum references of the quadrature kernels: the forms the matrix-product
# kernels replaced, one einsum per form over per-point gradients.

def _perturbed_space(order):
    m = gen_disk((0.2, -0.1), 1.0, 3)
    return fem.FeSpace(m.with_nodes(m.nodes + 0.01 * np.cos(5.0 * m.nodes)), order=order)


def _add_at_scatter(space, dofs, local):
    out = np.zeros(space.dof_count)
    np.add.at(out, dofs, local)
    return out


def _einsum_mass(space, dofs, wvals, basis):
    local = np.einsum('mq,qi,qj->mij', wvals, basis, basis)
    return _coo_scatter(space, dofs, local)


def _einsum_load(space, dofs, wvals, basis):
    return _add_at_scatter(space, dofs, np.einsum('mq,qi->mi', wvals, basis))


def _einsum_gradscalar(space, W, vals):
    local = np.einsum('mq,mqia,mqa,qj->mij', space.qweights, _point_grads(space),
                      W * vals[..., None], space.basis)
    return _coo_scatter(space, space.element_dofs, local)


def _einsum_grad_load(space, W):
    local = np.einsum('mq,mqa,mqia->mi', space.qweights, W, _point_grads(space))
    return _add_at_scatter(space, space.element_dofs, local)


def _rel(a, b):
    if sp.issparse(a):
        a, b = a.toarray(), b.toarray()
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("order", [1, 2])
def test_quadrature_kernels_match_einsum_references(order):
    """Values, loads and mass matrices, volume and boundary, are their
    einsum forms up to the order of the sums."""
    space = _perturbed_space(order)
    rng = np.random.default_rng(order)
    u = fem.ScalarField(space, rng.standard_normal(space.dof_count))
    want = np.einsum('qa,ma->mq', space.basis, u.coefficients[space.element_dofs])
    assert _rel(fem.field_qvalues(u), want) <= 1e-13
    want = np.einsum('qa,ba->bq', space.edge_basis, u.coefficients[space.edge_dofs])
    assert _rel(fem.edge_qvalues(u), want) <= 1e-13

    vals = rng.standard_normal(space.qweights.shape)
    wv = space.qweights * vals
    assert _rel(fem.assemble_mass_values(space, vals),
                _einsum_mass(space, space.element_dofs, wv, space.basis)) <= 1e-13
    assert _rel(fem.assemble_load_values(space, vals),
                _einsum_load(space, space.element_dofs, wv, space.basis)) <= 1e-13
    evals = rng.standard_normal(space.edge_qweights.shape)
    ewv = space.edge_qweights * evals
    assert _rel(fem.assemble_boundary_mass(space, evals),
                _einsum_mass(space, space.edge_dofs, ewv, space.edge_basis)) <= 1e-13
    assert _rel(fem.assemble_boundary_load_values(space, evals),
                _einsum_load(space, space.edge_dofs, ewv, space.edge_basis)) <= 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_gradscalar_matches_einsum_reference(order):
    space = _perturbed_space(order)
    rng = np.random.default_rng(10 + order)
    W = rng.standard_normal(space.qpoints.shape)
    vals = rng.standard_normal(space.qweights.shape)
    assert _rel(fem.assemble_gradscalar_values(space, W, vals),
                _einsum_gradscalar(space, W, vals)) <= 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_grad_load_matches_einsum_reference(order):
    """For P1 the weighted W is summed over the points before the element
    gradients multiply it: the einsum regrouped, within 1e-15 of max|b|."""
    space = _perturbed_space(order)
    rng = np.random.default_rng(30 + order)
    for W in (rng.standard_normal(space.qpoints.shape), space.qpoints * space.qpoints[..., ::-1]):
        assert _rel(fem.assemble_grad_load_values(space, W), _einsum_grad_load(space, W)) <= 1e-15


@pytest.mark.parametrize("order", [1, 2])
def test_bincount_scatter_is_add_at_bit_for_bit(order):
    """``bincount`` sums each dof's contributions in the order ``np.add.at``
    does, signed zeros included, volume and boundary."""
    space = _perturbed_space(order)
    rng = np.random.default_rng(20 + order)
    for dofs in (space.element_dofs, space.edge_dofs):
        local = rng.standard_normal(dofs.shape) * 10.0 ** rng.integers(-8, 8, dofs.shape)
        local[::7] = -0.0
        got = scatter_vector(space, dofs, local)
        assert got.tobytes() == _add_at_scatter(space, dofs, local).tobytes()


# ---------------------------------------------------------------- convergence

def _dirichlet_poisson_error(nx, order):
    m = gen_rectangle(0, 0, 1, 1, nx, nx)
    space = fem.FeSpace(m, order=order)

    def uex(P):
        return np.sin(np.pi * P[..., 0]) * np.sin(np.pi * P[..., 1])

    def f(P):
        return 2.0 * np.pi ** 2 * uex(P)

    A = _stiffness(space)
    b = fem.assemble_load_values(space, f(space.qpoints))
    dofs = space.boundary_dofs()
    A1, b1 = eliminate_dirichlet(A, b, dofs, np.zeros(len(dofs)))
    x = fem.Factorized(A1).solve(b1)
    uh = fem.field_qvalues(fem.ScalarField(space, x))
    diff = uh - uex(space.qpoints)
    return np.sqrt(np.sum(space.qweights * diff * diff))


def test_p1_l2_convergence_order():
    errs = [_dirichlet_poisson_error(nx, 1) for nx in (8, 16, 32)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_p2_l2_convergence_order():
    errs = [_dirichlet_poisson_error(nx, 2) for nx in (4, 8, 16)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.9
