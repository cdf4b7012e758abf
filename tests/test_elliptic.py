"""Oracles for the three stationary problems: exact states, transpose
identities, Newton behavior, duality pairings, and finite-difference checks
against costs recomputed on transported meshes."""

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
                                         dirichlet_energy_boundary_dJ,
                                         quasilinear_solve, _robin_matrix,
                                         _ql_jacobian)
from shapegrad.fem_core import FeSpace, ScalarField
from shapegrad.flow import transport_mesh
from shapegrad.mesh import gen_disk, gen_rectangle
from shapegrad.shape_assembly import theta_samples

from conftest import bump_theta, catalog_thetas
from flow_references import edge_stretch_rate
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
    space = FeSpace(disk4, order=1)
    A = _robin_matrix(space, data)
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
    u, history = quasilinear_solve(disk4, data)
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
    hist = problem.newton_history
    assert len(hist) <= 8
    assert hist[-1] <= 1e-11 * hist[0]
    for a, b in zip(hist[1:-1], hist[2:]):
        if b > 1e-12 * hist[0]:
            assert b <= 1e3 * a * a


def test_quasilinear_newton_failure(disk4, monkeypatch):
    monkeypatch.setattr(elliptic_problems, "NEWTON_MAX_ITER", 1)
    with pytest.raises(fem.NewtonError) as err:
        quasilinear_solve(disk4, _ql_data())
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
    A = _ql_jacobian(problem.space, data, problem.u)
    assert abs(A - A.T).max() > 1e-8  # genuinely non-symmetric linearization
    B = refs.quasilinear_cost_gradient_vector(data, problem.u)
    res = A.T @ problem.p.coefficients + B
    assert np.linalg.norm(res) <= 1e-10 * (np.linalg.norm(B) + 1.0)


def test_quasilinear_tensor_symmetry(disk4):
    problem = QuasilinearProblem(disk4, _ql_data())
    S1 = problem.tensors().S1
    assert np.abs(S1 - np.swapaxes(S1, -1, -2)).max() <= 1e-14


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
    """Cost, B, every tensor slot and L(u) from the density kernel equal the
    hand-derived transported integrands to 1e-13 relative."""
    problem, J, B, tensors, L_vector = case(disk3, order)
    assert abs(problem.cost() - J) <= 1e-13 * abs(J)
    assert _rel(problem.B, B) <= 1e-13
    kernel = problem.tensors()
    for slot in ("S0", "S1", "S0_gamma", "S1_gamma"):
        expected = getattr(tensors, slot)
        if expected is None:
            assert getattr(kernel, slot) is None, slot
        else:
            assert _rel(getattr(kernel, slot), expected) <= 1e-13, slot
    for theta in (bump_theta(), catalog_thetas()[1], catalog_thetas()[4]):
        samples = theta_samples(problem.space, theta, "interpolated")
        assert _rel(problem._L(samples), L_vector(samples)) <= 1e-13
