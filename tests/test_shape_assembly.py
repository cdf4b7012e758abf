"""Tensor-assembly oracles: dual form vs raw displays, transport FD checks."""

import numpy as np
import pytest

from shapegrad.data_catalog import parse_matrix
from shapegrad.fem_core import FeSpace
from shapegrad.flow import VectorFieldSpec, make_field, transport_mesh
from shapegrad.mesh import gen_disk
from shapegrad.shape_assembly import (AssembledDerivative, ManufacturedProblem, ShapeTensors,
                                      assemble_dJ, cost_transport_derivative,
                                      make_manufactured, material_tensor_rate,
                                      prop5_raw_dJ, prop5_tensors, prop6_raw_dJ,
                                      prop6_tensors, theta_samples)
from shapegrad.validation import estimate_order, fd_shape_check

from conftest import HOLDALL, catalog_thetas, bump_theta
from flow_references import edge_stretch_rate
from manufactured_references import analytic_transport_derivative, written_out


def _sum_fields(a, b):
    return VectorFieldSpec("sum",
                           lambda P: a.eval(P) + b.eval(P),
                           lambda P: a.jac(P) + b.jac(P),
                           lambda P: a.hess(P) + b.hess(P))


def _dJ(tensors, theta, mode):
    return assemble_dJ(tensors, theta_samples(tensors.space, theta, mode))


def _disk_points(n, rmax=0.9, seed=7):
    rng = np.random.default_rng(seed)
    r = rmax * np.sqrt(rng.uniform(0.02, 1.0, n))
    a = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


def verify_manufactured(fields, pts, h=1e-5):
    """Max deviation of the derivative closures from centered differences."""
    worst = 0.0

    def fd_grad(fn):
        out = np.empty(pts.shape)
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            out[..., ax] = (fn(pts + e) - fn(pts - e)) / (2 * h)
        return out

    worst = max(worst, np.abs(fd_grad(fields.u) - fields.grad_u(pts)).max())
    worst = max(worst, np.abs(fd_grad(fields.p) - fields.grad_p(pts)).max())
    worst = max(worst, np.abs(fd_grad(fields.h) - fields.grad_h(pts)).max())
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        fdH = (fields.grad_u(pts + e) - fields.grad_u(pts - e)) / (2 * h)
        worst = max(worst, np.abs(fdH - fields.hess_u(pts)[..., ax]).max())
        fdH = (fields.grad_p(pts + e) - fields.grad_p(pts - e)) / (2 * h)
        worst = max(worst, np.abs(fdH - fields.hess_p(pts)[..., ax]).max())
    if fields.f is not None:
        worst = max(worst, np.abs(fd_grad(fields.f) - fields.grad_f(pts)).max())
    r = fields.u(pts)
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        fd_x = (fields.F(pts + e, r) - fields.F(pts - e, r)) / (2 * h)
        worst = max(worst, np.abs(fd_x - fields.dF_dx(pts, r)[..., ax]).max())
    return float(worst)


@pytest.fixture(scope="module")
def space4(disk4):
    return FeSpace(disk4, order=1)


# ------------------------------------------------------------- manufactured

@pytest.mark.parametrize("name", ["disk", "disk-higher"])
def test_manufactured_closures_match_fd(name):
    fields = make_manufactured(name)
    assert verify_manufactured(fields, _disk_points(200)) < 1e-8


def test_manufactured_unknown_name():
    with pytest.raises(ValueError, match="unknown manufactured"):
        make_manufactured("nope")


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", ["disk", "disk-higher"])
def test_derived_manufactured_closures_keep_the_written_out_bits(name, order, disk4):
    # p = -2u through the state's closures and h, f from the scalar catalog
    # give the bits of the closures they replace, at scattered points and
    # at the volume and edge quadrature points
    fields = make_manufactured(name)
    space = FeSpace(disk4, order=order)
    ref = written_out(name, fields)
    for P in (_disk_points(200), space.qpoints, space.edge_qpoints):
        for attr, fn in ref.items():
            got, want = getattr(fields, attr)(P), fn(P)
            assert got.shape == want.shape and got.dtype == want.dtype, attr
            assert got.tobytes() == want.tobytes(), attr
    if name == "disk":
        assert fields.f is None and fields.grad_f is None


def test_manufactured_higher_source_is_neg_laplacian():
    fields = make_manufactured("disk-higher")
    P = _disk_points(100)
    lap = np.einsum('nii->n', fields.hess_u(P))
    assert np.abs(fields.f(P) + lap).max() < 1e-14


# ---------------------------------------------------- dual form == raw form

def test_tracking_dual_form_matches_raw(space4):
    fields = make_manufactured("disk")
    tensors = prop5_tensors(fields, space4)
    # unconfined too: the fields' own closures, with no cutoff
    for theta in catalog_thetas() + catalog_thetas(None):
        raw = prop5_raw_dJ(fields, space4, theta)
        dual = _dJ(tensors, theta, "analytic").total
        assert abs(dual - raw) <= 1e-12 * (1.0 + abs(raw)), theta.name


def test_hessian_dual_form_matches_raw(space4):
    fields = make_manufactured("disk-higher")
    tensors = prop6_tensors(fields, space4)
    for theta in catalog_thetas() + catalog_thetas(None):
        raw = prop6_raw_dJ(fields, space4, theta)
        dual = _dJ(tensors, theta, "analytic").total
        assert abs(dual - raw) <= 1e-12 * (1.0 + abs(raw)), theta.name


def test_second_order_term_is_exercised(space4):
    """The curved catalog fields must feed a nonzero S2 contribution."""
    fields = make_manufactured("disk")
    tensors = prop5_tensors(fields, space4)
    hits = 0
    for theta in catalog_thetas():
        br = _dJ(tensors, theta, "analytic")
        if abs(br.terms["S2"]) > 1e-8:
            hits += 1
    assert hits >= 2


def test_boundary_tensor_normal_component(space4):
    """n . S1_G n equals +h * dn(p) pointwise on the boundary."""
    fields = make_manufactured("disk")
    tensors = prop5_tensors(fields, space4)
    space = tensors.space
    n = space.edge_normal
    got = np.einsum('bi,bqij,bj->bq', n, tensors.S1_gamma, n)
    Pe = space.edge_qpoints
    dnp = np.einsum('bqd,bd->bq', fields.grad_p(Pe), n)
    want = fields.h(Pe) * dnp
    assert np.abs(got - want).max() < 1e-13


# ------------------------------------------------------------ assembly basics

def test_constant_tensors_integrate_exactly(disk4):
    space = FeSpace(disk4, order=1)
    M, nq = space.qweights.shape
    c = np.array([0.7, -0.4])
    S0 = np.broadcast_to(c, (M, nq, 2)).copy()
    C = np.array([[0.3, -0.2], [0.1, 0.5]])
    S1 = np.broadcast_to(C, (M, nq, 2, 2)).copy()
    tensors = ShapeTensors(space, S0=S0, S1=S1)

    const = make_field("constant", (0.4, -0.3), support_box=HOLDALL)
    br = _dJ(tensors, const, "interpolated")
    area = disk4.areas().sum()
    assert abs(br.terms["S0"] - c @ np.array([0.4, -0.3]) * area) < 1e-13
    assert abs(br.terms["S1"]) < 1e-13  # constant field has zero Jacobian

    A = np.array([0.3, -0.2, 0.1, -0.4, 0.05, 0.1])
    lin = make_field("linear", tuple(A), support_box=HOLDALL)
    br = _dJ(tensors, lin, "interpolated")
    J = np.array([[0.3, -0.2], [0.1, -0.4]])
    assert abs(br.terms["S1"] - np.sum(C * J) * area) < 1e-12


def test_interpolated_matches_analytic_for_linear_theta(space4):
    """Nodal interpolation is exact for affine velocities, so the two
    sampling modes must agree to roundoff (S2 vanishes either way)."""
    fields = make_manufactured("disk")
    tensors = prop5_tensors(fields, space4)
    lin = make_field("linear", (0.3, -0.2, 0.1, -0.4, 0.05, 0.1), support_box=HOLDALL)
    a = _dJ(tensors, lin, "analytic")
    b = _dJ(tensors, lin, "interpolated")
    assert abs(a.total - b.total) <= 1e-12 * (1.0 + abs(a.total))


def test_assembly_is_linear_in_theta(space4):
    fields = make_manufactured("disk")
    tensors = prop5_tensors(fields, space4)
    t1 = bump_theta()
    t2 = make_field("rotation", (0.7, 0.1, -0.2), support_box=HOLDALL)
    d1 = _dJ(tensors, t1, "analytic").total
    d2 = _dJ(tensors, t2, "analytic").total
    d12 = _dJ(tensors, _sum_fields(t1, t2), "analytic").total
    assert abs(d12 - (d1 + d2)) <= 1e-12 * (1.0 + abs(d12))

    double = make_field("bump", (1.0, 0.6, -0.2, 0.1, 0.9), support_box=HOLDALL)
    dd = _dJ(tensors, double, "analytic").total
    assert abs(dd - 2.0 * d1) <= 1e-12 * (1.0 + abs(dd))


def test_breakdown_sums_to_total(space4):
    fields = make_manufactured("disk")
    tensors = prop5_tensors(fields, space4)
    br = _dJ(tensors, bump_theta(), "analytic")
    assert isinstance(br, AssembledDerivative)
    assert set(br.terms) == {"S0", "S1", "S2", "S0_gamma", "S1_gamma"}
    assert abs(br.total - sum(br.terms.values())) < 1e-15


def test_assemble_validates_inputs(space4):
    with pytest.raises(ValueError, match="unknown theta sampling mode"):
        theta_samples(space4, bump_theta(), "nope")


def test_material_tensor_rate_formula(disk4):
    """rate(M) = div M - J M - M J^T, checked entrywise against loops."""
    rng = np.random.default_rng(5)
    space = FeSpace(disk4, order=1)
    samples = theta_samples(space, bump_theta(), "analytic")
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    rate = material_tensor_rate(M, samples)
    m, q = 17, 2
    J = samples.vol_jac[m, q]
    want = samples.vol_div[m, q] * M - J @ M - M @ J.T
    assert np.abs(rate[m, q] - want).max() < 1e-15
    del rng


@pytest.mark.parametrize("mode", ["interpolated", "analytic"])
def test_material_tensor_rate_matches_einsum_bit_for_bit(disk4, mode):
    """The term-by-term products give the bits of the batched einsums
    D theta M and M D theta^T, for a constant (Robin) and a per-point
    (parabolic affine) M."""
    space = FeSpace(disk4, order=1)
    samples = theta_samples(space, bump_theta(), mode)
    J = samples.vol_jac
    affine = parse_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3")
    for M in (np.array([[2.0, 0.0], [0.0, 1.0]]), affine.value(space.qpoints)):
        MM = np.broadcast_to(M, J.shape)
        want = samples.vol_div[..., None, None] * MM \
            - np.einsum('mqij,mqjk->mqik', J, MM) - np.einsum('mqij,mqkj->mqik', MM, J)
        assert material_tensor_rate(M, samples).tobytes() == want.tobytes()


@pytest.mark.parametrize("theta", catalog_thetas(), ids=lambda t: t.name)
def test_interpolated_samples_are_rates_of_the_transported_mesh(disk3, theta):
    """Interpolated vol_div per element and edge_divg per boundary edge
    against centered FD (s = 1e-4) of the triangle areas and boundary-edge
    lengths of the mesh transported by +-s."""
    s = 1e-4
    samples = theta_samples(FeSpace(disk3, order=1), theta, "interpolated")
    plus, minus = transport_mesh(theta, s, disk3), transport_mesh(theta, -s, disk3)
    a, b = disk3.boundary_edges[:, 0], disk3.boundary_edges[:, 1]

    def lengths(m):
        return np.hypot(*(m.nodes[b] - m.nodes[a]).T)

    div = (plus.areas() - minus.areas()) / (2 * s) / disk3.areas()
    divg = (lengths(plus) - lengths(minus)) / (2 * s) / lengths(disk3)
    for got, fd in ((samples.vol_div, div), (samples.edge_divg, divg)):
        assert (np.abs(got - fd[:, None]) <= 1e-6 * np.maximum(1.0, np.abs(got))).all()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("theta", catalog_thetas(), ids=lambda t: t.name)
def test_interpolated_edge_divg_is_the_edge_stretch_rate(disk3, theta, order):
    """div_G theta = tr Dtheta - (Dtheta n) . n of the owning element equals
    the stretch rate (theta_b - theta_a) / |e| . t of each boundary edge.
    The bound is rounding relative to the Dtheta entries the trace sums:
    for the rotation both sides are 0 up to rounding."""
    space = FeSpace(disk3, order=order)
    samples = theta_samples(space, theta, "interpolated")
    divg, _ = edge_stretch_rate(space, theta)
    scale = np.abs(samples.edge_jac).max()
    assert np.abs(samples.edge_divg - divg[:, None]).max() <= 1e-15 * scale


# ---------------------------------------------------------- frozen-state cost

def _frozen_cost(fields, space, theta, s):
    """sum_q w_q(s) F(x_q(s), u_q) on the mesh transported node by node,
    u_q the state at the reference quadrature points."""
    moved = FeSpace(transport_mesh(theta, s, space.mesh), order=space.order)
    return float(np.sum(moved.qweights * fields.F(moved.qpoints, fields.u(space.qpoints))))


def test_prop5_fd_rows_are_frozen_state_resolved_rows(disk4):
    """prop5's FD table differences the problem's own ``resolved`` costs: a
    rebuilt problem carries the reference state values at the quadrature
    points, so each row is the frozen-state sum, bit for bit, and the target
    is the interpolated-theta ``cost_transport_derivative``."""
    problem = ManufacturedProblem(disk4, "prop5")
    theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=HOLDALL)
    table = fd_shape_check(problem, theta, (0.02, 0.01))
    assert table.metadata["target"] == "transport_cost"
    assert table.dJ == cost_transport_derivative(problem.fields, problem.space,
                                                 theta_samples(problem.space, theta))
    for row in table.rows:
        for s, j in ((row.s, row.j_plus), (-row.s, row.j_minus)):
            assert j == problem.resolved(theta, s)[0] \
                == _frozen_cost(problem.fields, problem.space, theta, s)


def test_cost_transport_derivative_matches_fd(space4):
    fields = make_manufactured("disk")
    theta = bump_theta()
    d = cost_transport_derivative(fields, space4, theta_samples(space4, theta))
    svals = np.array([0.04, 0.02, 0.01])
    errs = []
    for s in svals:
        jp = _frozen_cost(fields, space4, theta, +s)
        jm = _frozen_cost(fields, space4, theta, -s)
        errs.append(abs((jp - jm) / (2 * s) - d))
    errs = np.array(errs)
    order = np.polyfit(np.log(svals), np.log(errs), 1)[0]
    assert order > 1.9
    assert errs[-1] <= 1e-4 * (1.0 + abs(d))


def test_interpolated_transport_target_converges_to_the_analytic_one():
    """The FD target differentiates theta's nodal interpolant; the
    analytic-theta derivative is its limit, at O(h^2): for this bump
    -3.6122e-2 against -3.4246e-2 at refine 3, -3.4721e-2 against
    -3.4256e-2 at refine 4, -3.4374e-2 against -3.4259e-2 at refine 5."""
    fields = make_manufactured("disk")
    theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=HOLDALL)
    rows = []
    for refine in (3, 4, 5):
        space = FeSpace(gen_disk((0.0, 0.0), 1.0, refine), order=1)
        gap = (cost_transport_derivative(fields, space, theta_samples(space, theta))
               - analytic_transport_derivative(fields, space, theta))
        rows.append((2.0 ** -refine, abs(gap)))
    assert estimate_order(rows) >= 1.9


def test_fd_row_evaluates_theta_only_at_the_mesh_nodes(disk4):
    """The frozen-state FD table moves the mesh nodes and interpolates
    theta for its target: theta's value at arrays of the mesh's nodes,
    never its Jacobian or Hessian, and the same table as without the spy."""
    problem = ManufacturedProblem(disk4, "prop5")
    theta = make_field("poly2", (0.3, -0.2, 0.1, 0.15, -0.1, 0.2, 0.05, -0.15, 0.1, 0.2, -0.05, 0.1))
    calls = []

    def spied(name, fn):
        def call(P):
            calls.append((name, P.shape))
            return fn(P)
        return call

    spy = VectorFieldSpec("spy", spied("eval", theta.eval), spied("jac", theta.jac),
                          spied("hess", theta.hess))
    table = fd_shape_check(problem, spy, (0.02, 0.01))
    assert calls and set(calls) == {("eval", (disk4.n_nodes, 2))}
    ref = fd_shape_check(problem, theta, (0.02, 0.01))
    assert table.dJ == ref.dJ
    assert [(r.j_plus, r.j_minus) for r in table.rows] == [(r.j_plus, r.j_minus) for r in ref.rows]
