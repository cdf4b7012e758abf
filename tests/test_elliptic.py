"""Oracles for the three stationary problems: exact states, the state
equation against its hand derivation and its own finite differences,
transpose identities, Newton behavior, duality pairings, and
finite-difference checks against costs recomputed on transported meshes."""

import logging

import numpy as np
import pytest

from shapegrad import elliptic_problems
from shapegrad import fem_core as fem
from shapegrad.data_catalog import parse_rfunction, parse_scalar
from shapegrad.elliptic_problems import (DirichletEnergyData,
                                         DirichletEnergyProblem,
                                         QuasilinearData, QuasilinearProblem,
                                         RobinData, RobinProblem,
                                         check_quasilinear_bounds,
                                         dirichlet_energy_boundary_dJ)
from shapegrad.fem_core import ScalarField
from shapegrad.flow import transport_mesh
from shapegrad.mesh import gen_disk, gen_rectangle
from shapegrad.shape_assembly import theta_samples

from conftest import bump_theta, catalog_thetas
from flow_references import edge_stretch_rate
from nodal_references import reduce_to_nodes
import elliptic_references as refs


def _const(c):
    return parse_scalar(f"const {c}")


def _robin_data_nontrivial():
    return RobinData(M=np.array([[2.0, 0.0], [0.0, 1.0]]),
                     beta=_const(1.0), f=_const(1.0), g=_const(0.0))


def _ql_data():
    return QuasilinearData(m=parse_rfunction("saturating"),
                           f=parse_rfunction("affine_r 1 0.1"),
                           g=_const(2.0),
                           u_d=parse_scalar("linear 0 1 0"))


# ===================================================================== Robin

def test_robin_constant_state(disk4):
    data = RobinData(M=np.eye(2), beta=_const(1.0), f=_const(0.0), g=_const(1.0))
    u = RobinProblem(disk4, data).u
    assert np.abs(u.coefficients - 1.0).max() <= 1e-10


def test_robin_constant_state_zero_derivative(disk4):
    data = RobinData(M=np.eye(2), beta=_const(1.0), f=_const(0.0), g=_const(1.0))
    problem = RobinProblem(disk4, data)
    theta = bump_theta()
    assert abs(problem.derivative(theta)) <= 1e-10
    s = 0.01
    jp = problem.rebuilt(transport_mesh(theta, +s, disk4)).cost()
    jm = problem.rebuilt(transport_mesh(theta, -s, disk4)).cost()
    assert abs((jp - jm) / (2 * s)) <= 1e-10


def test_robin_rejects_bad_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        RobinData(M=np.array([[1.0, 0.5], [0.0, 1.0]]),
                  beta=_const(1.0), f=_const(0.0), g=_const(0.0))
    with pytest.raises(ValueError, match="positive definite"):
        RobinData(M=np.array([[1.0, 0.0], [0.0, -1.0]]),
                  beta=_const(1.0), f=_const(0.0), g=_const(0.0))


def test_robin_rejects_nonpositive_beta(disk4):
    data = RobinData(M=np.eye(2), beta=parse_scalar("linear -2 1 0"),
                     f=_const(0.0), g=_const(0.0))
    with pytest.raises(ValueError, match="not positive"):
        RobinProblem(disk4, data)


def test_robin_manufactured_convergence():
    """u* = 1 + x^2 on the unit square: g per side, f = -2, order >= 1.9."""
    def g_value(P):
        x = P[..., 0]
        u = 1.0 + x * x
        return np.where(np.isclose(x, 1.0), u + 2.0, u)

    gdata = parse_scalar("const 0")
    gdata.value = g_value
    data = RobinData(M=np.eye(2), beta=_const(1.0), f=_const(-2.0), g=gdata)
    errs, hs = [], []
    for n in (8, 16, 32):
        mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, n, n)
        u = RobinProblem(mesh, data).u
        P = u.space.qpoints
        d = fem.field_qvalues(u) - (1.0 + P[..., 0] ** 2)
        errs.append(np.sqrt(np.sum(u.space.qweights * d * d)))
        hs.append(1.0 / n)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_robin_matrix_symmetry(disk4):
    data = RobinData(M=np.array([[2.0, 0.3], [0.3, 1.0]]),
                     beta=parse_scalar("linear 1.5 0.2 0.1"),
                     f=_const(1.0), g=_const(0.5))
    problem = RobinProblem(disk4, data)
    A = problem.jacobian(problem.u)
    assert abs(A - A.T).max() <= 1e-12


def test_robin_duality_and_tensor_consistency(disk4):
    problem = RobinProblem(disk4, _robin_data_nontrivial())
    for theta in (bump_theta(), catalog_thetas()[4]):
        lhs, rhs = problem.duality_pair(theta)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
        samples = theta_samples(problem.space, theta, "interpolated")
        partial = refs.robin_partial_cost(problem.u, samples)
        total = problem.derivative(theta)
        assert abs(total - (lhs + partial)) <= 1e-12 * (1.0 + abs(total))


def test_robin_fd_convergence(disk4):
    problem = RobinProblem(disk4, _robin_data_nontrivial())
    theta = bump_theta()
    d = problem.derivative(theta)
    svals = np.array([0.02, 0.01, 0.005])
    errs = []
    for s in svals:
        jp = problem.rebuilt(transport_mesh(theta, +s, disk4)).cost()
        jm = problem.rebuilt(transport_mesh(theta, -s, disk4)).cost()
        errs.append(abs((jp - jm) / (2 * s) - d))
    errs = np.array(errs)
    order = np.polyfit(np.log(svals), np.log(errs), 1)[0]
    assert order >= 1.9
    assert errs[-1] <= 1e-5 * (1.0 + abs(d))


def test_robin_material_taylor(disk4):
    problem = RobinProblem(disk4, _robin_data_nontrivial())
    theta = bump_theta()
    udot = problem.material(theta)
    svals = np.array([0.16, 0.08, 0.04])
    errs = []
    for s in svals:
        us = problem.rebuilt(transport_mesh(theta, s, disk4)).u.coefficients
        diff = us - problem.u.coefficients - s * udot.coefficients
        errs.append(problem.state_norm(diff))
    order = np.polyfit(np.log(svals), np.log(np.array(errs)), 1)[0]
    assert order >= 1.9


# ================================================================ quasilinear

def test_quasilinear_reduces_to_linear(disk4):
    """With m constant and f = r the Newton loop solves a linear problem and
    must match a direct assembly of (2K + M) u = G."""
    data = QuasilinearData(m=parse_rfunction("const_r 2"),
                           f=parse_rfunction("affine_r 1 0"),
                           g=parse_scalar("sine2 1 1 1"),
                           u_d=_const(0.0), c2=0.0)
    problem = QuasilinearProblem(disk4, data)
    u, history = problem.u, problem.newton_history
    space = u.space
    P = space.qpoints
    C = np.broadcast_to(2.0 * np.eye(2), P.shape[:-1] + (2, 2))
    A = fem.assemble_diffusion_values(space, C) + fem.assemble_mass_values(space, np.ones(P.shape[:-1]))
    G = fem.assemble_load_values(space, data.g.value(P))
    direct = fem.Factorized(A).solve(G)
    assert np.abs(u.coefficients - direct).max() <= 1e-11
    assert len(history) <= 3


def test_quasilinear_newton_quadratic(disk4):
    problem = QuasilinearProblem(disk4, _ql_data())
    problem.u
    hist = problem.newton_history
    assert len(hist) <= 8
    assert hist[-1] <= 1e-11 * hist[0]
    for a, b in zip(hist[1:-1], hist[2:]):
        if b > 1e-12 * hist[0]:
            assert b <= 1e3 * a * a


def test_quasilinear_newton_failure(disk4, monkeypatch):
    monkeypatch.setattr(elliptic_problems, "NEWTON_MAX_ITER", 1)
    with pytest.raises(fem.NewtonError) as err:
        QuasilinearProblem(disk4, _ql_data()).u
    assert len(err.value.history) == 1


def test_quasilinear_bound_violations(disk4):
    box = [[-1, -1], [1, 1]]
    bad = QuasilinearData(m=parse_rfunction("const_r 0.5"),
                          f=parse_rfunction("affine_r 1 0"),
                          g=_const(0.0), u_d=_const(0.0))
    with pytest.raises(ValueError, match="c1"):
        check_quasilinear_bounds(bad, box)
    bad = QuasilinearData(m=parse_rfunction("const_r 2"),
                          f=parse_rfunction("const_r 1"),
                          g=_const(0.0), u_d=_const(0.0))
    with pytest.raises(ValueError, match="c2"):
        check_quasilinear_bounds(bad, box)
    bad = QuasilinearData(m=parse_rfunction("const_r 5"),
                          f=parse_rfunction("affine_r 1 0"),
                          g=_const(0.0), u_d=_const(0.0), c2=0.0)
    with pytest.raises(ValueError, match="c3"):
        check_quasilinear_bounds(bad, box)


def test_quasilinear_jacobian_transpose_adjoint(disk4):
    data = _ql_data()
    problem = QuasilinearProblem(disk4, data)
    A = problem.jacobian(problem.u)
    assert abs(A - A.T).max() > 1e-8  # genuinely non-symmetric linearization
    B = refs.quasilinear_cost_gradient_vector(data, problem.u)
    res = A.T @ problem.p.coefficients + B
    assert np.linalg.norm(res) <= 1e-10 * (np.linalg.norm(B) + 1.0)


def test_quasilinear_tensor_symmetry(disk4):
    """S1 is symmetric, so it pairs to zero with the antisymmetric Dtheta of
    a rotation: its nodal gradient against theta = (-y, x) at the nodes
    vanishes to 1e-14 of the sum of its contributions' magnitudes."""
    problem = QuasilinearProblem(disk4, _ql_data())
    g = problem.tensors().terms["S1"]
    x, y = disk4.nodes.T
    rot = np.column_stack([-y, x])
    assert abs(fem.dot(g, rot)) <= 1e-14 * np.sum(np.abs(g * rot))


def test_quasilinear_duality_and_tensor_consistency(disk4):
    data = _ql_data()
    problem = QuasilinearProblem(disk4, data)
    theta = bump_theta()
    lhs, rhs = problem.duality_pair(theta)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
    samples = theta_samples(problem.space, theta, "interpolated")
    partial = refs.quasilinear_partial_cost(data, problem.u, samples)
    total = problem.derivative(theta)
    assert abs(total - (lhs + partial)) <= 1e-12 * (1.0 + abs(total))


def test_quasilinear_fd_convergence(disk4):
    problem = QuasilinearProblem(disk4, _ql_data())
    theta = bump_theta()
    d = problem.derivative(theta)
    svals = np.array([0.02, 0.01, 0.005])
    errs = []
    for s in svals:
        jp = problem.rebuilt(transport_mesh(theta, +s, disk4)).cost()
        jm = problem.rebuilt(transport_mesh(theta, -s, disk4)).cost()
        errs.append(abs((jp - jm) / (2 * s) - d))
    errs = np.array(errs)
    order = np.polyfit(np.log(svals), np.log(errs), 1)[0]
    assert order >= 1.9
    assert errs[-1] <= 1e-4 * (1.0 + abs(d))


def test_quasilinear_spatial_m_term(disk4):
    """A law with spatial drift exercises the grad_x m tensor slot."""
    data = QuasilinearData(m=parse_rfunction("saturating_sine 0.25"),
                           f=parse_rfunction("affine_r 1 0.1"),
                           g=_const(2.0), u_d=parse_scalar("linear 0 1 0"),
                           c1=0.7, c3=3.5)
    problem = QuasilinearProblem(disk4, data)
    theta = bump_theta()
    lhs, rhs = problem.duality_pair(theta)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
    samples = theta_samples(problem.space, theta, "interpolated")
    partial = refs.quasilinear_partial_cost(data, problem.u, samples)
    total = problem.derivative(theta)
    assert abs(total - (lhs + partial)) <= 1e-12 * (1.0 + abs(total))


# =========================================================== Dirichlet energy

def test_dirichlet_adjoint_is_minus_two_u(disk4):
    data = DirichletEnergyData(f=_const(1.0))
    problem = DirichletEnergyProblem(disk4, data)
    u, p = problem.u, problem.p
    assert np.abs(p.coefficients + 2.0 * u.coefficients).max() <= 1e-10


def test_dirichlet_suite_duality(disk4):
    data = DirichletEnergyData(f=parse_scalar("linear 1 0.5 -0.3"))
    problem = DirichletEnergyProblem(disk4, data)
    lhs, rhs = problem.duality_pair(bump_theta())
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
    assert np.abs(problem.p.coefficients + 2.0 * problem.u.coefficients).max() <= 1e-10


def test_dirichlet_tensor_consistency(disk4):
    """Volume form equals <L, p> plus the frozen-state transport term."""
    data = DirichletEnergyData(f=parse_scalar("linear 1 0.5 -0.3"))
    problem = DirichletEnergyProblem(disk4, data)
    theta = bump_theta()
    lhs, _ = problem.duality_pair(theta)
    samples = theta_samples(problem.space, theta, "interpolated")
    partial = 2.0 * refs.robin_partial_cost(problem.u, samples)
    total = problem.derivative(theta)
    assert abs(total - (lhs + partial)) <= 1e-11 * (1.0 + abs(total))


def test_dirichlet_volume_vs_boundary_convergence():
    data = DirichletEnergyData(f=_const(1.0))
    theta = bump_theta()
    diffs, hs = [], []
    for ref in (3, 4, 5):
        mesh = gen_disk((0.0, 0.0), 1.0, ref)
        problem = DirichletEnergyProblem(mesh, data)
        samples = theta_samples(problem.space, theta, "interpolated")
        diffs.append(abs(problem.derivative(theta)
                         - dirichlet_energy_boundary_dJ(data, problem.u, samples)))
        hs.append(2.0 ** -ref)
    order = np.polyfit(np.log(hs), np.log(np.array(diffs)), 1)[0]
    assert order >= 0.9


def test_dirichlet_fd_convergence(disk4):
    data = DirichletEnergyData(f=_const(1.0))
    problem = DirichletEnergyProblem(disk4, data)
    theta = bump_theta()
    d = problem.derivative(theta)
    svals = np.array([0.02, 0.01, 0.005])
    errs = []
    for s in svals:
        jp = problem.rebuilt(transport_mesh(theta, +s, disk4)).cost()
        jm = problem.rebuilt(transport_mesh(theta, -s, disk4)).cost()
        errs.append(abs((jp - jm) / (2 * s) - d))
    errs = np.array(errs)
    order = np.polyfit(np.log(svals), np.log(errs), 1)[0]
    assert order >= 1.9
    assert errs[-1] <= 1e-5 * (1.0 + abs(d))


def test_dirichlet_derivative_linear_in_theta(disk4):
    data = DirichletEnergyData(f=_const(1.0))
    problem = DirichletEnergyProblem(disk4, data)
    d1 = problem.derivative(bump_theta(amp=(0.5, 0.3)))
    d2 = problem.derivative(bump_theta(amp=(1.0, 0.6)))
    assert abs(d2 - 2.0 * d1) <= 1e-12 * (1.0 + abs(d2))


def test_dirichlet_material_taylor(disk4):
    data = DirichletEnergyData(f=_const(1.0))
    problem = DirichletEnergyProblem(disk4, data)
    theta = bump_theta()
    udot = problem.material(theta)
    svals = np.array([0.16, 0.08, 0.04])
    errs = []
    for s in svals:
        us = problem.rebuilt(transport_mesh(theta, s, disk4)).u.coefficients
        diff = us - problem.u.coefficients - s * udot.coefficients
        errs.append(problem.state_norm(diff))
    order = np.polyfit(np.log(svals), np.log(np.array(errs)), 1)[0]
    assert order >= 1.9


# ============================================ density kernel vs hand derivation

def _rel(kernel, reference):
    return np.abs(kernel - reference).max() / np.abs(reference).max()


def _robin_varying(mesh, order):
    data = RobinData(M=np.array([[2.0, 0.3], [0.3, 1.0]]),
                     beta=parse_scalar("gauss 1.5 0.3 -0.2 0.6"),
                     f=parse_scalar("poly2 1 0.2 -0.3 0.5 0.1 -0.2"),
                     g=parse_scalar("sine2 0.7 1 0.5"))
    problem = RobinProblem(mesh, data, order)
    J, B = refs.robin_cost_and_gradient(problem.u)
    return (problem, J, B, refs.robin_shape_tensors(data, problem.u, problem.p),
            lambda samples: refs.robin_L_vector(data, problem.u, samples))


@pytest.mark.parametrize("order", [1, 2])
def test_robin_full_pairing_equals_tangential_pairing(disk3, order):
    """Robin's S1_G = b_G p (I - n x n) paired with Dtheta equals the
    tangential pairing b_G p I : D_G theta, with D_G theta = rate x t the
    stretch of each boundary edge, to 1e-13 relative."""
    problem = _robin_varying(disk3, order)[0]
    data, space = problem.data, problem.space
    Pe = space.edge_qpoints
    bg = data.beta.value(Pe) * fem.edge_qvalues(problem.u) - data.g.value(Pe)
    S1g = (bg * fem.edge_qvalues(problem.p))[..., None, None] * np.eye(2)
    for theta in (bump_theta(), catalog_thetas()[1], catalog_thetas()[4]):
        _, dgt = edge_stretch_rate(space, theta)
        tangential = float(np.sum(space.edge_qweights
                                  * np.einsum('bqij,bij->bq', S1g, dgt)))
        full = problem.breakdown(theta).terms["S1_gamma"]
        assert abs(full - tangential) <= 1e-13 * abs(tangential), theta.name


def _quasilinear_varying(mesh, order):
    data = QuasilinearData(m=parse_rfunction("saturating_sine 0.25"),
                           f=parse_rfunction("affine_r 1 0.1"),
                           g=parse_scalar("gauss 2 0.2 0.1 0.5"),
                           u_d=parse_scalar("poly2 0.1 0.3 -0.2 0.2 0.1 0.1"),
                           c1=0.7, c3=3.5)
    problem = QuasilinearProblem(mesh, data, order)
    return (problem, refs.quasilinear_cost(data, problem.u),
            refs.quasilinear_cost_gradient_vector(data, problem.u),
            refs.quasilinear_shape_tensors(data, problem.u, problem.p),
            lambda samples: refs.quasilinear_L_vector(data, problem.u, samples))


def _dirichlet_varying(mesh, order):
    data = DirichletEnergyData(f=parse_scalar("linear 1 0.5 -0.3"))
    problem = DirichletEnergyProblem(mesh, data, order)
    J, B = refs.robin_cost_and_gradient(problem.u)   # twice these: u^T K u and 2 K u
    return (problem, 2.0 * J, 2.0 * B, refs.dirichlet_energy_tensors(data, problem.u),
            lambda samples: refs.dirichlet_energy_L_vector(data, problem.u, samples))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", [_robin_varying, _quasilinear_varying, _dirichlet_varying])
def test_density_kernel_matches_hand_derivation(case, order, disk3):
    """Cost, B, every tensor slot's nodal gradient and L(u) from the density
    kernel equal the hand-derived transported integrands (the tensors
    reduced to the nodes) to 1e-13 relative."""
    problem, J, B, tensors, L_vector = case(disk3, order)
    assert abs(problem.cost() - J) <= 1e-13 * abs(J)
    assert _rel(problem.B, B) <= 1e-13
    kernel = problem.tensors().terms
    expected = reduce_to_nodes(problem.space, **{slot: getattr(tensors, slot) for slot in
                                                 ("S0", "S1", "S0_gamma", "S1_gamma")})
    for slot in ("S0", "S1", "S0_gamma", "S1_gamma"):
        if slot not in expected:
            assert kernel[slot] is None, slot
        else:
            assert _rel(kernel[slot], expected[slot]) <= 1e-13, slot
    for theta in (bump_theta(), catalog_thetas()[1], catalog_thetas()[4]):
        samples = theta_samples(problem.space, theta, "interpolated")
        assert _rel(problem._L(samples), L_vector(samples)) <= 1e-13


# ============================================== state equation from the density

def _same_bits(a, b):
    return a.tobytes() == b.tobytes()


def _same_matrix(A, B):
    A, B = A.tocsr(), B.tocsr()
    return all(_same_bits(getattr(A, k), getattr(B, k)) for k in ("indptr", "indices", "data"))


def _field(space, seed):
    """A smooth nonzero field, plus a small random part."""
    x = space.dof_coords
    rng = np.random.default_rng(seed)
    return ScalarField(space, 1.0 + np.sin(2.0 * x[:, 0]) * x[:, 1]
                       + 0.1 * rng.standard_normal(space.dof_count))


@pytest.mark.parametrize("order", [1, 2])
def test_robin_state_equation_is_the_hand_derived_system(disk3, order):
    """-R(0) and d_u R from the density are, bit for bit, the Robin
    right-hand side and matrix; R(u) = A u - b to rounding."""
    problem = _robin_varying(disk3, order)[0]
    space, data = problem.space, problem.data
    zero = ScalarField(space, np.zeros(space.dof_count))
    rhs = refs.robin_rhs(space, data)
    A = refs.robin_matrix(space, data)
    assert _same_bits(-problem.residual(zero), rhs)
    assert _same_matrix(problem.jacobian(zero), A)
    assert _same_matrix(problem.jacobian(problem.u), A)
    assert _same_bits(problem.u.coefficients, fem.Factorized(A).solve(rhs))
    u = _field(space, 1)
    assert _rel(problem.residual(u), A @ u.coefficients - rhs) <= 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_quasilinear_state_equation_is_the_hand_derived_system(disk3, order):
    """R(u) and d_u R from the density are, bit for bit, the quasilinear
    residual and Newton Jacobian, at 0, at a smooth field and at the state."""
    problem = _quasilinear_varying(disk3, order)[0]
    space, data = problem.space, problem.data
    for u in (ScalarField(space, np.zeros(space.dof_count)), _field(space, 2), problem.u):
        assert _same_bits(problem.residual(u), refs.quasilinear_residual(space, data, u))
        assert _same_matrix(problem.jacobian(u), refs.quasilinear_jacobian(space, data, u))


@pytest.mark.parametrize("order", [1, 2])
def test_dirichlet_state_equation_is_the_eliminated_system(disk3, order):
    """d_u R and -R(0) are, bit for bit, the stiffness matrix and load with
    the boundary dofs eliminated by ``apply_dirichlet``; R(u) is zero in the
    eliminated rows."""
    problem = _dirichlet_varying(disk3, order)[0]
    space, data = problem.space, problem.data
    bd = space.boundary_dofs()
    eye = np.broadcast_to(np.eye(2), space.qpoints.shape[:-1] + (2, 2))
    K = fem.assemble_diffusion_values(space, eye)
    A2, b2 = refs.eliminate_dirichlet(K, fem.assemble_load_values(space, data.f.value(space.qpoints)),
                                 bd, 0.0)
    zero = ScalarField(space, np.zeros(space.dof_count))
    assert _same_matrix(problem.jacobian(zero), A2)
    assert np.array_equal(-problem.residual(zero), b2)
    assert _same_bits(problem.u.coefficients, fem.Factorized(A2).solve(b2))
    u = _field(space, 3)
    R = problem.residual(u)
    assert np.all(R[bd] == 0.0)
    free = np.setdiff1d(np.arange(space.dof_count), bd)
    assert _rel(R[free], (K @ u.coefficients - fem.assemble_load_values(
        space, data.f.value(space.qpoints)))[free]) <= 1e-13


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", [_robin_varying, _quasilinear_varying, _dirichlet_varying])
def test_jacobian_is_the_derivative_of_the_residual(case, order, disk3):
    """d_u R(u) d against the central difference of R along a random d that
    vanishes on the eliminated dofs, at u = 0 and at the solved state."""
    problem = case(disk3, order)[0]
    space = problem.space
    d = np.random.default_rng(4).standard_normal(space.dof_count)
    d[problem._bd] = 0.0
    h = 1e-5
    for u in (np.zeros(space.dof_count), problem.u.coefficients):
        Jd = problem.jacobian(ScalarField(space, u)) @ d
        fd = (problem.residual(ScalarField(space, u + h * d))
              - problem.residual(ScalarField(space, u - h * d))) / (2.0 * h)
        assert _rel(fd, Jd) <= 1e-7


def test_linear_problems_take_one_newton_step(disk3):
    """The state of a linear problem is one step from 0, whose
    factorization is the one the adjoint and material solves use."""
    for case in (_robin_varying, _dirichlet_varying):
        problem = case(disk3, 1)[0]
        assert problem.linear
        assert len(problem.newton_history) == 1
        assert "_fact" in vars(problem)
    assert not QuasilinearProblem.linear


def test_quasilinear_newton_stops_at_the_rounding_floor(disk4, monkeypatch):
    """With the tolerance just under the residual's rounding floor (about
    1.6e-13 |R(0)| at refine 4), Newton stops once |R| is within
    NEWTON_FLOOR_FACTOR of it and no longer halves; far under the floor it
    still raises NewtonError."""
    monkeypatch.setattr(elliptic_problems, "NEWTON_REL_TOL", 1e-13)
    monkeypatch.setattr(elliptic_problems, "NEWTON_ABS_TOL", 1e-20)
    problem = QuasilinearProblem(disk4, _ql_data())
    problem.u
    hist = problem.newton_history
    assert len(hist) - 1 <= 5
    assert 1e-13 * hist[0] < hist[-1] <= 1e-12 * hist[0]
    assert hist[-1] > 0.5 * hist[-2]
    monkeypatch.setattr(elliptic_problems, "NEWTON_REL_TOL", 1e-15)
    with pytest.raises(fem.NewtonError) as err:
        QuasilinearProblem(disk4, _ql_data()).u
    assert len(err.value.history) == elliptic_problems.NEWTON_MAX_ITER


def test_state_solve_logs_one_line(disk3, caplog):
    """SHAPEGRAD_LOG=info: one line per state solve, with the step count and
    the final |R|/|R(0)|."""
    caplog.set_level(logging.INFO, logger="shapegrad")
    problem = QuasilinearProblem(disk3, _ql_data())
    problem.u
    RobinProblem(disk3, _robin_data_nontrivial()).u
    lines = [r.getMessage() for r in caplog.records if r.name == "shapegrad.elliptic_problems"]
    hist = problem.newton_history
    assert lines == [
        f"quasilinear state: {len(hist) - 1} Newton step(s), |R|/|R(0)| = "
        f"{hist[-1] / hist[0]:.3e}", lines[1]]
    assert lines[1].startswith("robin state: 1 Newton step(s), |R|/|R(0)| = ")
    assert float(lines[1].rsplit("= ", 1)[1]) <= 1e-11


# ================================ re-solves by GMRES on the reference factors

def _count_factorizations(monkeypatch):
    factored = []
    init = fem.Factorized.__init__

    def counting_init(self, A):
        factored.append(A.shape[0])
        init(self, A)

    monkeypatch.setattr(fem.Factorized, "__init__", counting_init)
    return factored


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", [_robin_varying, _quasilinear_varying, _dirichlet_varying])
def test_resolve_by_cg_agrees_with_the_direct_solve(case, order, disk3, monkeypatch):
    """A problem rebuilt on a mesh transported by s theta factorizes nothing:
    its one step (linear) or Newton from u + s udot (quasilinear), each step
    by GMRES on the reference's factors, gives the cost and the state of a
    direct solve on that mesh to 1e-12 relative, up to the largest Taylor
    step."""
    problem = case(disk3, order)[0]
    theta = bump_theta()
    for s in (0.16, 0.01, -0.04):
        mesh_s = transport_mesh(theta, s, disk3)
        direct = type(problem)(mesh_s, problem.data, order)
        factored = _count_factorizations(monkeypatch)
        resolved = problem.rebuilt(mesh_s, theta, s)
        monkeypatch.undo()
        assert factored == [] and "_fact" not in vars(resolved)
        assert abs(resolved.cost() - direct.cost()) <= 1e-12 * abs(direct.cost())
        assert _rel(resolved.u.coefficients, direct.u.coefficients) <= 1e-12


def test_resolve_that_does_not_stop_factorizes_directly(disk3, monkeypatch, caplog):
    """A re-solve whose Krylov solve does not stop within KRYLOV_MAX_ITER
    iterations (here 0) is the direct solve, for Robin and for quasilinear
    from the predictor alike: Newton from u = 0 with each step
    factorized, with its bits, and its state line says so; it does not
    raise."""
    theta = bump_theta()
    mesh_s = transport_mesh(theta, 0.04, disk3)
    for case in (_robin_varying, _quasilinear_varying):
        problem = case(disk3, 1)[0]
        direct = type(problem)(mesh_s, problem.data)
        direct.u
        problem.material(theta)
        monkeypatch.setattr(fem, "KRYLOV_MAX_ITER", 0)
        caplog.clear()
        caplog.set_level(logging.INFO, logger="shapegrad")
        factored = _count_factorizations(monkeypatch)
        resolved = problem.rebuilt(mesh_s, theta, 0.04)
        monkeypatch.undo()
        steps = len(direct.newton_history) - 1 + problem.linear
        assert factored == [problem.dof_count] * steps
        assert _same_bits(resolved.u.coefficients, direct.u.coefficients)
        assert resolved.cost() == direct.cost()
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "shapegrad.elliptic_problems"]
        assert "; GMRES on the reference factors: 0 iteration(s), " in line
        assert line.endswith(", did not stop: factorized directly")


@pytest.mark.parametrize("scale", [0.0, 10.0])
def test_a_wrong_predictor_converges_to_the_same_state(scale, disk3):
    """The material derivative enters a quasilinear re-solve only through
    its start: from u + s (scale udot), with udot dropped or ten times too
    large, Newton on the reference factors meets its own stop and gives the
    state and the cost of the right start to 1e-12 relative."""
    problem = _quasilinear_varying(disk3, 1)[0]
    theta = bump_theta()
    udot = problem.material(theta).coefficients
    for s in (0.16, 0.01, -0.04):
        mesh_s = transport_mesh(theta, s, disk3)
        right = problem.rebuilt(mesh_s, theta, s)
        wrong = type(problem)(mesh_s, *problem.params)
        wrong.u = wrong.solve(problem, problem.u.coefficients + s * scale * udot)
        cold = fem.norm(wrong.residual(ScalarField(wrong.space, np.zeros(wrong.dof_count))))
        tol = max(elliptic_problems.NEWTON_REL_TOL * cold, elliptic_problems.NEWTON_ABS_TOL)
        assert wrong.newton_history[-1] <= elliptic_problems.NEWTON_FLOOR_FACTOR * tol
        assert _rel(wrong.u.coefficients, right.u.coefficients) <= 1e-12
        assert abs(wrong.cost() - right.cost()) <= 1e-12 * abs(right.cost())


def test_a_plain_quasilinear_rebuild_is_the_direct_solve(disk3, monkeypatch):
    """With no predictor, a quasilinear problem rebuilt on a transported mesh
    solves from u = 0 with each Newton step factorized: the bits of a
    direct solve on that mesh."""
    problem = _quasilinear_varying(disk3, 1)[0]
    mesh_s = transport_mesh(bump_theta(), 0.04, disk3)
    direct = QuasilinearProblem(mesh_s, problem.data)
    direct.u
    factored = _count_factorizations(monkeypatch)
    resolved = problem.rebuilt(mesh_s)
    assert factored == [problem.dof_count] * (len(direct.newton_history) - 1)
    assert _same_bits(resolved.u.coefficients, direct.u.coefficients)


LINEAR = pytest.mark.parametrize("cls, data", [
    (RobinProblem, _robin_data_nontrivial()),
    (DirichletEnergyProblem, DirichletEnergyData(f=parse_scalar("linear 1 0.5 -0.3")))],
    ids=["robin", "dirichlet_energy"])


@LINEAR
def test_rebuilding_an_unsolved_problem_factorizes_once(cls, data, disk3, monkeypatch):
    """Constructing a linear problem and rebuilding it before its state is
    solved costs one factorization, the reference's: its state is solved
    first, and the re-solve runs GMRES on those factors."""
    factored = _count_factorizations(monkeypatch)
    problem = cls(disk3, data)
    resolved = problem.rebuilt(transport_mesh(bump_theta(), 0.04, disk3))
    assert factored == [problem.dof_count]
    assert "_fact" in vars(problem) and "_fact" not in vars(resolved)


@LINEAR
def test_rebuilding_a_rebuilt_problem_uses_the_root_factors(cls, data, disk3, monkeypatch):
    """A problem rebuilt from a rebuilt one re-solves on the factors of the
    problem solved directly, the root: it factorizes nothing and gets the
    bits of rebuilding the root itself."""
    theta = bump_theta()
    mesh_a, mesh_b = (transport_mesh(theta, s, disk3) for s in (0.04, -0.02))
    problem = cls(disk3, data)
    resolved = problem.rebuilt(mesh_a)
    factored = _count_factorizations(monkeypatch)
    again = resolved.rebuilt(mesh_b)
    monkeypatch.undo()
    assert factored == []
    assert _same_bits(again.u.coefficients, problem.rebuilt(mesh_b).u.coefficients)


def test_resolve_logs_its_krylov_statistics(disk3, caplog):
    """SHAPEGRAD_LOG=info: a re-solve's one state line adds, per step, the
    GMRES iteration count, the final |r|/|b| and the reference's own |r|/|b|,
    the floor of its stop: for a linear problem one step within the floor,
    for a quasilinear one its Newton steps from the predictor, with |R|
    against the cold |R(0)| within the Newton stop, each to KRYLOV_REL_TOL
    with no floor."""
    theta = bump_theta()
    problem = RobinProblem(disk3, _robin_data_nontrivial())
    problem.u
    quasilinear = QuasilinearProblem(disk3, _ql_data())
    quasilinear.material(theta)
    caplog.set_level(logging.INFO, logger="shapegrad")
    problem.rebuilt(transport_mesh(theta, 0.04, disk3))
    resolved = quasilinear.rebuilt(transport_mesh(theta, 0.04, disk3), theta, 0.04)
    line, ql_line = [r.getMessage() for r in caplog.records
                     if r.name == "shapegrad.elliptic_problems"]

    def notes(text):
        head, krylov = text.split("; GMRES on the reference factors: ")
        parsed = []
        for note in krylov.split("; "):
            iterations, rest = note.split(" iteration(s), |r|/|b| = ")
            rel, ref = (float(x) for x in rest.split(", reference |r|/|b| = "))
            parsed.append((int(iterations), rel, ref))
        return head, parsed

    head, ((iterations, rel, ref),) = notes(line)
    assert head.startswith("robin state: 1 Newton step(s), |R|/|R(0)| = ")
    assert iterations >= 1
    assert rel <= max(fem.KRYLOV_REL_TOL, ref) and ref <= 1e-11

    head, steps = notes(ql_line)
    count, rest = head.split(" Newton step(s) from u + s udot, |R|/|R(0)| = ")
    assert count == f"quasilinear state: {len(resolved.newton_history) - 1}"
    assert float(rest) <= elliptic_problems.NEWTON_FLOOR_FACTOR * elliptic_problems.NEWTON_REL_TOL
    assert len(steps) == len(resolved.newton_history) - 1 >= 1
    for iterations, rel, ref in steps:
        assert 1 <= iterations <= fem.KRYLOV_MAX_ITER
        assert rel <= fem.KRYLOV_REL_TOL and ref == 0.0
