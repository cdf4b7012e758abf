"""Validation plumbing: order estimation, FD tables, Taylor tables, duality
reports, and the pure-geometry area gate that everything else rests on."""

import numpy as np
import pytest

from shapegrad import shape_assembly
from shapegrad.data_catalog import parse_scalar, time_matrix, time_scalar
from shapegrad.elliptic_problems import RobinData, RobinProblem
from shapegrad.flow import make_field
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem
from shapegrad.shape_assembly import ManufacturedProblem
from shapegrad.validation import (AreaProblem, DualityReport, FdRow, FdTable,
                                  TaylorRow, TaylorTable, duality_check,
                                  estimate_order, fd_shape_check,
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


# ----------------------------------------------------------- the order verdict

def _fd(dJ, *rows):
    """An FdTable of (s, error) rows; an error of None flags the row."""
    return FdTable({}, dJ, [FdRow(s, flagged=True) if e is None else
                            FdRow(s, central=dJ + e, error=e) for s, e in rows])


def _taylor(*rows):
    return TaylorTable({}, [TaylorRow(s, np.nan, flagged=True) if e is None else
                            TaylorRow(s, e) for s, e in rows])


def test_observed_order_is_inf_when_every_error_is_at_rounding():
    # 1e-13 * (1 + |dJ|) = 3e-13 bounds the errors, however few the rows
    assert _fd(-2.0, (0.04, 2.9e-13), (0.02, 0.0)).observed_order() == np.inf
    assert _fd(-2.0, (0.04, 3e-13)).observed_order() == np.inf
    assert _taylor((0.16, 1e-13), (0.08, 5e-14), (0.04, 0.0)).observed_order() == np.inf
    assert _fd(-2.0, (0.04, 3.1e-13), (0.02, 1e-13)).observed_order() < np.inf


def test_observed_order_of_three_rows_is_the_least_squares_slope():
    rows = [(0.16, 3e-3), (0.08, 7e-4), (0.04, 2e-4)]
    assert _taylor(*rows).observed_order() == estimate_order(rows)
    # an error of 0 beside errors above rounding has no slope
    assert np.isnan(_taylor((0.16, 3e-3), (0.08, 0.0), (0.04, 2e-4)).observed_order())


def test_observed_order_of_two_rows_is_the_pair_order():
    assert _taylor((0.1, 4e-4), (0.05, 1e-4)).observed_order() == pytest.approx(2.0, abs=1e-14)
    assert _fd(1.0, (0.04, 1.6e-5), (0.02, 8e-6)).observed_order() == pytest.approx(
        1.0, abs=1e-14)


def test_observed_order_of_one_clean_row_is_nan():
    assert np.isnan(_taylor((0.1, 4e-4)).observed_order())
    assert np.isnan(_fd(1.0, (0.04, 1e-5), (0.02, None)).observed_order())
    assert np.isnan(_fd(1.0, (0.04, None)).observed_order())


def test_observed_order_pairs_the_clean_rows_across_a_flagged_one():
    table = _taylor((0.1, 4e-4), (0.05, None), (0.025, 2.5e-5))
    assert table.rows[2].order == pytest.approx(2.0, abs=1e-14)
    assert np.isnan(table.rows[1].order)
    assert table.observed_order() == table.rows[2].order
    # with three clean rows the flagged one is left out of the fit
    table = _fd(0.5, (0.08, 6.4e-5), (0.04, 1.6e-5), (0.02, None), (0.01, 1e-6))
    assert table.observed_order() == estimate_order([(0.08, 6.4e-5), (0.04, 1.6e-5),
                                                     (0.01, 1e-6)])


def test_rel_gap_is_the_smallest_clean_step_over_the_scale():
    assert _fd(-1.0, (0.04, 1e-6), (0.02, 2.5e-7)).rel_gap == 2.5e-7 / 2.0
    # a flagged last row leaves the smallest clean step's error
    table = _fd(-1.0, (0.04, 1e-6), (0.02, 2.5e-7), (0.01, None))
    assert table.rel_gap == 2.5e-7 / 2.0
    assert np.isnan(_fd(-1.0, (0.04, None)).rel_gap)


def test_extrapolation_needs_two_clean_rows():
    assert np.isnan(_fd(1.0, (0.04, 1e-6), (0.02, None)).extrapolated)
    # quotients dJ + c s^2 extrapolate to dJ
    table = _fd(1.0, (0.04, 1.6e-5), (0.02, None), (0.01, 1e-6))
    assert abs(table.extrapolated_error) < 1e-15


# ------------------------------------------------------------- the area gate

def test_area_fd_gate(disk4):
    """J = |Omega| on meshes moved by T_s = id + s theta: each P1 triangle's
    area is |T| (1 + s tr Dtheta_T + s^2 det Dtheta_T), a quadratic in s,
    so every central quotient is exact up to rounding, and so is the
    Neville extrapolation.  The bump's Jacobian a x grad w has rank one, so
    its area is even linear in s and the forward quotient is exact too;
    under theta = x, J(s) = (1 + s)^2 |Omega|, whose forward error
    s |Omega| halves with s."""
    problem = AreaProblem(disk4)
    assert abs(problem.cost() - np.pi) < 0.01
    steps = (0.04, 0.02, 0.01)
    bump, radial = (fd_shape_check(problem, theta, steps)
                    for theta in (bump_theta(), make_field("linear", (1, 0, 0, 1, 0, 0))))
    for table in (bump, radial):
        assert [r.s for r in table.rows] == list(steps)
        assert table.observed_order() == np.inf
        assert table.extrapolated_error <= 1e-10
        for r in table.rows:
            assert np.isfinite(r.j_plus) and np.isfinite(r.j_minus)
            assert r.error <= 1e-13
    assert all(r.forward_error <= 1e-13 for r in bump.rows)
    forward = [r.forward_error for r in radial.rows]
    assert np.allclose(forward, [s * problem.cost() for s in steps], rtol=1e-10)
    assert np.allclose(np.divide(forward[:-1], forward[1:]), 2.0, rtol=1e-9)


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
    table = fd_shape_check(problem, violent, (0.5, 0.004))
    assert table.rows[0].flagged and "triangle" in table.rows[0].note
    assert not table.rows[1].flagged
    assert np.isnan(table.rows[0].central)
    assert len(table.clean_rows()) == 1
    assert np.isnan(table.extrapolated)


def test_transport_out_of_the_holdall_flags_row(disk3):
    """theta(x) = x carries the disk's boundary to radius 1 + s = 1.6 at
    s = 0.6, outside its hold-all box [-1.5, 1.5]^2: the FD and the Taylor
    row at that step are flagged, and the rest of each study runs."""
    theta = make_field("linear", (1, 0, 0, 1, 0, 0))
    for table in (fd_shape_check(AreaProblem(disk3), theta, (0.6, 0.02, 0.01)),
                  material_taylor_check(_robin_problem(disk3), theta, (0.6, 0.02, 0.01))):
        assert table.rows[0].flagged and "hold-all box" in table.rows[0].note
        assert not any(r.flagged for r in table.rows[1:])


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
               lambda: fd_shape_check(ManufacturedProblem(disk3, variant="prop5"),
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


def _count_transports(monkeypatch):
    calls = []
    transport = shape_assembly.transport_mesh

    def counting_transport(theta, s, mesh):
        calls.append((theta, s))
        return transport(theta, s, mesh)

    monkeypatch.setattr(shape_assembly, "transport_mesh", counting_transport)
    return calls


def test_resolved_rows_are_kept_per_theta_object(disk3, monkeypatch):
    """A re-solved row is served from the memo only for the theta object
    and s that solved it: an equal second theta object, and the first one
    again after it, are solved afresh, to the same bits."""
    problem = _robin_problem(disk3)
    calls = _count_transports(monkeypatch)
    first, second = bump_theta(), bump_theta()
    row = problem.resolved(first, 0.04)
    assert problem.resolved(first, 0.04) is row and len(calls) == 1
    again = problem.resolved(second, 0.04)
    assert again is not row and len(calls) == 2
    assert again[0] == row[0] and np.array_equal(again[1], row[1])
    assert problem.resolved(first, 0.04) is not row and len(calls) == 3
    problem.resolved(first, 0.02)
    assert len(calls) == 4
    # FD rows at -s keep only the cost
    assert problem.resolved(first, -0.04)[1] is None


def test_flagged_rows_are_never_served_from_the_memo(disk3, monkeypatch):
    """A transport that inverts a triangle raises each time it is asked for,
    so a second study of the same theta flags the row again."""
    problem = AreaProblem(disk3)
    violent = make_field("bump", (3.0, 0.0, -0.3, 0.0, 0.35))
    calls = _count_transports(monkeypatch)
    for _ in range(2):
        table = fd_shape_check(problem, violent, (0.5, 0.004))
        assert table.rows[0].flagged and not table.rows[1].flagged
    # the clean rows +-0.004 are solved once, the flagged +0.5 each time
    assert [s for _, s in calls] == [0.5, 0.004, -0.004, 0.5]


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
