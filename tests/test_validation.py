"""Validation plumbing: order estimation, FD tables, Taylor tables, duality
reports, and the pure-geometry area gate that everything else rests on."""

import numpy as np
import pytest

from shapegrad.data_catalog import parse_scalar, time_matrix, time_scalar
from shapegrad.elliptic_problems import RobinData, RobinProblem
from shapegrad.flow import make_field
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem
from shapegrad.shape_assembly import ManufacturedProblem
from shapegrad.validation import (AreaProblem, DualityReport, FdTable,
                                  duality_check, estimate_order,
                                  fd_shape_check, fd_transport_check,
                                  material_taylor_check)

from conftest import HOLDALL, bump_theta


def _const(c):
    return parse_scalar(f"const {c}")


def _robin_problem(mesh, f=1.0, g=0.0):
    data = RobinData(M=np.eye(2), beta=_const(1.0), f=_const(f), g=_const(g))
    return RobinProblem(mesh, data)


# ------------------------------------------------------------ estimate_order

def test_estimate_order_exact_quadratic():
    rows = [(0.1, 1e-2), (0.05, 2.5e-3), (0.025, 6.25e-4)]
    assert abs(estimate_order(rows) - 2.0) < 1e-12


def test_estimate_order_constant_errors():
    rows = [(0.1, 3e-4), (0.05, 3e-4), (0.025, 3e-4)]
    assert abs(estimate_order(rows)) < 1e-12


def test_estimate_order_noisy_linear():
    rng = np.random.default_rng(42)
    steps = 0.2 * 0.5 ** np.arange(6)
    errors = 0.7 * steps * (1.0 + 0.01 * rng.standard_normal(6))
    order = estimate_order(list(zip(steps, errors)))
    assert abs(order - 1.0) < 0.1


def test_estimate_order_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 3"):
        estimate_order([(0.1, 1e-2), (0.05, 5e-3)])
    with pytest.raises(ValueError, match="positive"):
        estimate_order([(0.1, 1e-2), (0.05, 0.0), (0.025, 1e-3)])
    with pytest.raises(ValueError, match="positive"):
        estimate_order([(0.1, 1e-2), (-0.05, 1e-3), (0.025, 1e-4)])


# ------------------------------------------------------------- the area gate

def test_area_fd_gate(disk4):
    """J = |Omega|: the transport/assembly plumbing must satisfy the FD
    check at second order with the extrapolated quotient at 1e-10."""
    problem = AreaProblem(disk4)
    assert abs(problem.cost() - np.pi) < 0.01
    table = fd_shape_check(problem, bump_theta(), (0.04, 0.02, 0.01))
    assert [r.s for r in table.rows] == [0.04, 0.02, 0.01]
    assert table.orders().min() > 1.9
    assert table.observed_order() > 1.9
    assert table.extrapolated_error <= 1e-10
    for r in table.rows:
        assert np.isfinite(r.j_plus) and np.isfinite(r.j_minus)
        assert r.forward_error > r.error  # central beats one-sided here


def test_area_rigid_fields_zero_derivative(disk3):
    problem = AreaProblem(disk3)
    const = make_field("constant", (0.4, -0.3), support_box=HOLDALL)
    rot = make_field("rotation", (0.7, 0.1, -0.2), support_box=HOLDALL)
    assert problem.derivative(const) == 0.0
    assert abs(problem.derivative(rot)) < 1e-13


def test_constant_state_all_quotients_vanish(disk3):
    problem = _robin_problem(disk3, f=0.0, g=1.0)
    table = fd_shape_check(problem, bump_theta(), (0.04, 0.02))
    assert abs(table.dJ) <= 1e-12
    for r in table.rows:
        assert abs(r.central) <= 1e-10


def test_locality_distant_support(disk3):
    """theta supported away from the mesh: bit-identical costs, zero dJ."""
    problem = AreaProblem(disk3)
    far = make_field("bump", (0.5, 0.3, -0.2, 0.1, 0.4),
                     support_box=np.array([[2.0, 2.0], [3.0, 3.0]]))
    table = fd_shape_check(problem, far, (0.1, 0.05))
    j0 = problem.cost()
    assert table.dJ == 0.0
    for r in table.rows:
        assert r.j_plus == j0 and r.j_minus == j0
        assert r.central == 0.0 and r.error == 0.0


def test_degenerate_transport_flags_row(disk3):
    problem = AreaProblem(disk3)
    violent = make_field("bump", (3.0, 0.0, -0.3, 0.0, 0.35))
    table = fd_shape_check(problem, violent, (0.5, 0.004), steps=1)
    assert table.rows[0].flagged and "triangle" in table.rows[0].note
    assert not table.rows[1].flagged
    assert np.isnan(table.rows[0].central)
    assert len(table.clean_rows()) == 1
    assert np.isnan(table.extrapolated)


def test_fd_rejects_bad_steps(disk3):
    with pytest.raises(ValueError, match="positive step"):
        fd_shape_check(AreaProblem(disk3), bump_theta(), (0.1, -0.05))


@pytest.mark.parametrize("s_list", [(0.02, 0.02, 0.01), (0.01, 0.02, 0.04), (0.04, 0.0),
                                    (0.04, np.nan, 0.01), (np.inf, 0.01), ()])
def test_studies_refuse_steps_not_positive_and_decreasing(disk3, s_list):
    """A repeated, increasing, zero, NaN or infinite step size, or none, is a
    ValueError for every study, not a division by zero in the Neville
    extrapolation or a row order taken against a larger s."""
    theta = bump_theta()
    studies = [lambda: fd_shape_check(AreaProblem(disk3), theta, s_list),
               lambda: fd_transport_check(ManufacturedProblem(disk3, variant="prop5"),
                                          theta, s_list),
               lambda: material_taylor_check(_robin_problem(disk3), theta, s_list)]
    for study in studies:
        with pytest.raises(ValueError, match="strictly decreasing"):
            study()


def test_fd_table_reproducible(disk3):
    """Identical inputs give bit-identical tables (deterministic path)."""
    problem = _robin_problem(disk3)
    theta = bump_theta()
    t1 = fd_shape_check(problem, theta, (0.04, 0.02))
    t2 = fd_shape_check(problem, theta, (0.04, 0.02))
    assert t1.dJ == t2.dJ and t1.extrapolated == t2.extrapolated
    for a, b in zip(t1.rows, t2.rows):
        for attr in ("s", "j_plus", "j_minus", "central", "error", "forward"):
            assert getattr(a, attr) == getattr(b, attr)


def test_fd_metadata(disk3):
    problem = _robin_problem(disk3)
    table = fd_shape_check(problem, bump_theta(), (0.08, 0.04, 0.02))
    assert table.metadata["problem"] == "robin"
    assert table.metadata["theta"] == "bump"
    assert table.metadata["dofs"] == problem.dof_count
    assert table.metadata["mesh"].startswith(f"{disk3.n_nodes}n")


# ------------------------------------------------------------- Taylor checks

def test_material_taylor_robin(disk3):
    problem = _robin_problem(disk3, f=1.0, g=0.0)
    table = material_taylor_check(problem, bump_theta(), (0.16, 0.08, 0.04))
    orders = [r.order for r in table.rows[1:]]
    assert min(orders) > 1.9, [(r.s, r.remainder) for r in table.rows]
    assert table.observed_order() > 1.9


def test_material_taylor_zero_theta(disk3):
    problem = _robin_problem(disk3)
    zero = make_field("constant", (0.0, 0.0))
    table = material_taylor_check(problem, zero, (0.1, 0.05, 0.025))
    for r in table.rows:
        assert r.remainder == 0.0


def test_material_taylor_constant_state(disk3):
    problem = _robin_problem(disk3, f=0.0, g=1.0)
    table = material_taylor_check(problem, bump_theta(), (0.1, 0.05))
    for r in table.rows:
        assert r.remainder < 1e-12


# ------------------------------------------------------------ duality checks

def test_duality_check_robin(disk3):
    report = duality_check(_robin_problem(disk3), bump_theta())
    assert report.abs_gap == abs(report.lhs - report.rhs)
    assert report.rel_gap <= 1e-9


def test_duality_check_parabolic_j1(rect_unit):
    data = ParabolicData(
        M=time_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3"),
        f=time_scalar("sine2 1.5 1 1", "decay 0.4"),
        g=parse_scalar("linear 0.2 0.3 -0.1"),
        u_d=time_scalar("poly2 0.1 0.2 -0.1 0.3 0 0.15"), nt=8)
    report = duality_check(ParabolicProblem(rect_unit, data, which="j1"), bump_theta())
    assert report.rel_gap <= 1e-9


def test_duality_check_zero_theta(disk3):
    report = duality_check(_robin_problem(disk3), make_field("constant", (0.0, 0.0)))
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.rel_gap <= 1e-9
