import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from shapegrad import fem_core as fem
from shapegrad.data_catalog import parse_rfunction, parse_scalar, time_matrix
from shapegrad.elliptic_problems import QuasilinearData, QuasilinearProblem
from shapegrad.mesh import Mesh, gen_disk, gen_rectangle

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
    return fem._scatter_matrix(space, space.element_dofs, local)


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
            area = m.area()
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
    assert abs(b.sum() - m.area()) <= 1e-12 * m.area()


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


# ---------------------------------------------------------------- constraints

def test_apply_dirichlet_idempotent():
    m = gen_rectangle(0, 0, 1, 1, 3, 3)
    space = fem.FeSpace(m, order=1)
    A = _stiffness(space)
    b = fem.assemble_load_values(space, np.ones(space.qweights.shape))
    dofs = space.boundary_dofs()
    vals = space.dof_coords[dofs, 0]
    A1, b1 = fem.apply_dirichlet(A, b, dofs, vals)
    A2, b2 = fem.apply_dirichlet(A1, b1, dofs, vals)
    assert np.array_equal(b1, b2)
    assert abs(A1 - A2).max() == 0.0
    # symmetry preserved
    assert abs(A1 - A1.T).max() <= 1e-14


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
    A1, b1 = fem.apply_dirichlet(A, b, dofs, uex(space.dof_coords[dofs]))
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
    A1, b1 = fem.apply_dirichlet(A, np.zeros(space.dof_count), dofs, uex(space.dof_coords[dofs]))
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


def _robin_system(refine):
    """Robin matrix (M = diag(2, 1), beta = 1) and load on the unit disk."""
    space = fem.FeSpace(gen_disk((0.0, 0.0), 1.0, refine), order=1)
    A = _stiffness(space, np.diag([2.0, 1.0])) \
        + fem.assemble_boundary_mass(space, np.ones(space.edge_qweights.shape))
    P = space.qpoints
    b = fem.assemble_load_values(space, 1.0 + P[..., 0] * P[..., 1])
    return A, b


def test_factorized_no_ordering_cliff_at_refine7():
    # MMD without the RCM renumbering took about 145 s on this matrix
    # (49,537 dofs in gen_disk's node order); COLAMD gave 6.68M fill.
    A, b = _robin_system(7)
    t0 = time.perf_counter()
    fact = fem.Factorized(A)
    x = fact.solve(b)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    assert fact.n == 49537
    assert fact.fill <= 5.0e6
    assert fact.ordering == "RCM+MMD_AT_PLUS_A"
    assert np.linalg.norm(A @ x - b) <= 1e-10 * (np.linalg.norm(b) + 1.0)


def test_factorized_numbering_invariant():
    A, b = _robin_system(5)
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
        basis = (fem._basis_p1 if order == 1 else fem._basis_p2)(lam[None, :])[0]
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
    got = fem.field_qgrads(u)
    assert got.shape == space.qpoints.shape
    assert got.tobytes() == np.broadcast_to(want, got.shape).tobytes()


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
    return fem._scatter_matrix(space, dofs, local)


def _einsum_load(space, dofs, wvals, basis):
    return _add_at_scatter(space, dofs, np.einsum('mq,qi->mi', wvals, basis))


def _einsum_gradscalar(space, W, vals):
    local = np.einsum('mq,mqia,mqa,qj->mij', space.qweights, _point_grads(space),
                      W * vals[..., None], space.basis)
    return fem._scatter_matrix(space, space.element_dofs, local)


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
        got = fem._scatter_vector(space, dofs, local)
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
    A1, b1 = fem.apply_dirichlet(A, b, dofs, np.zeros(len(dofs)))
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
