import numpy as np
import pytest

from shapegrad.data_catalog import parse_matrix
from shapegrad.fem_core import FeSpace
from shapegrad.flow import FIELD_CATALOG, FlowDegeneracyError, make_field, transport_mesh
from shapegrad.mesh import Mesh, gen_disk
from shapegrad.shape_assembly import analytic_samples, material_tensor_rate

from conftest import HOLDALL as BOX, THETA_SPECS, catalog_thetas, transported
from flow_references import (cutoff_rho, det2, einsum_field, pullback_quotients,
                             transport_jacobian)

#: one representative parameterization per catalog entry (cutoff applied)
CATALOG_FIELDS = catalog_thetas(BOX)

RADIAL = make_field("linear", (1.0, 0.0, 0.0, 1.0, 0.0, 0.0))    # theta = x


# ------------------------------------------------------------------ transport

def _point_mesh(P):
    """The points P as the nodes of a mesh with no triangles: the transport
    moves each of them, and checks only that they stay in the hold-all."""
    none = np.zeros((0, 3), dtype=int)
    return Mesh(P, none, none, holdall_box=[[-10.0, -10.0], [10.0, 10.0]])


def test_advect_s_zero_is_identity():
    theta = make_field("rotation", (1.0, 0.0, 0.0))
    m = _point_mesh(np.array([[0.3, 0.4]]))
    assert np.array_equal(transported(theta, 0.0, m).nodes, m.nodes)


def test_advect_constant_field_exact_translation():
    theta = make_field("constant", (0.25, -1.5))
    x0 = np.array([[1.0, 2.0]])
    X = transported(theta, 0.8, _point_mesh(x0)).nodes
    assert np.abs(X[0] - np.array([1.2, 0.8])).max() < 1e-14
    assert np.array_equal(transport_jacobian(theta, 0.8, x0)[0], np.eye(2))


def test_advect_degenerate_jacobian_raises():
    # violently sheared bump: s Dtheta is far below -1 and the transported
    # mesh folds over
    theta = make_field("bump", (0.0, 200.0, 0.0, 0.0, 0.5))
    with pytest.raises(FlowDegeneracyError, match="inverts triangle"):
        transported(theta, 1.0, gen_disk((0.0, 0.0), 1.0, 2))


@pytest.mark.parametrize("theta", CATALOG_FIELDS, ids=lambda t: t.name)
def test_transport_is_id_plus_s_theta_bit_for_bit(theta):
    """The transported nodes are x + s theta(x), from the nodal values."""
    m = gen_disk((0.0, 0.0), 1.0, 3)
    nodal = theta.eval(m.nodes)
    for s in (0.16, 0.04, -0.04):
        moved = transport_mesh(nodal, s, m).nodes
        assert moved.tobytes() == (m.nodes + s * nodal).tobytes()


@pytest.mark.parametrize("theta", [
    make_field("bump", (0.6, -0.4, 0.25, 0.5, 0.5), support_box=BOX),
    make_field("tensor_bump", (0.4, -0.5, 0.0, 0.1, 0.8, 1.0), support_box=BOX),
    make_field("rotation", (0.7, 0.1, -0.2), support_box=[[-0.6, -0.9], [0.8, 0.5]]),
    make_field("poly2", (0.1, 0.2, -0.1, 0.3, 0, 0.15, -0.2, 0.1, 0.05, 0.0, 0.2, -0.1)),
    # no point moves
    make_field("zero"),
    pytest.param(make_field("bump", (0.6, -0.4, 3.0, 3.0, 0.5)), id="bump-off-the-points"),
], ids=lambda t: t.name)
def test_transport_keeps_nodes_where_theta_is_zero(theta):
    """A point where theta is +0.0 keeps its bits: x + s * +0.0 is x for
    every x but -0.0, which no generated mesh has.  Points inside, exactly
    on (|x - c| = r) and outside the bump support, plus the rotation
    centre, where theta vanishes; poly2 vanishes at none of them."""
    rng = np.random.default_rng(5)
    on = np.array([0.25, 0.5]) + 0.5 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    pts = np.vstack([rng.uniform(-1.45, 1.45, (600, 2)), on, [[0.1, -0.2]],
                     gen_disk((0, 0), 1.0, 3).nodes])
    still = ~theta.eval(pts).any(axis=1)
    assert still.any() == (theta.name != "poly2")
    mesh = _point_mesh(pts)
    for s in (0.3, -0.05):
        X = transported(theta, s, mesh).nodes
        assert X[still].tobytes() == pts[still].tobytes()
        assert (X[~still] != pts[~still]).any(axis=1).all()


# ------------------------------------------------------- pullback derivatives
#
# The rates the assembly uses (material_tensor_rate and the vol_div and
# edge_divg of analytic_samples) against the pullback factors of T_s = id + s theta,
# at the quadrature points of a disk that reaches deep into the cutoff ramp
# of BOX.

@pytest.fixture(scope="module")
def wide_space():
    return FeSpace(gen_disk((0.0, 0.0), 1.4, 2), order=1)


def test_xi_radial_field(disk3):
    # theta = x: T_s = (1 + s) id scales every triangle's area by (1 + s)^2
    for s in (0.1, -0.3):
        ratio = transported(RADIAL, s, disk3).areas() / disk3.areas()
        assert np.abs(ratio - (1.0 + s) ** 2).max() <= 1e-14


def test_m_of_s_symmetric_for_symmetric_Q(wide_space):
    samples = analytic_samples(wide_space, CATALOG_FIELDS[3])
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    R = material_tensor_rate(Q, samples)
    assert np.abs(R - np.swapaxes(R, -1, -2)).max() <= 1e-12 * max(1.0, np.abs(R).max())


def test_m_prime0_stretch_example(wide_space):
    # theta = (x1, 0), Q = I  ->  div Q - Dtheta Q - Q Dtheta^T = diag(-1, 1)
    theta = make_field("linear", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    R = material_tensor_rate(np.eye(2), analytic_samples(wide_space, theta))
    assert np.array_equal(R, np.broadcast_to(np.diag([-1.0, 1.0]), R.shape))


def test_m_prime0_matches_difference_quotient(wide_space):
    theta = CATALOG_FIELDS[3]
    Q = np.array([[1.5, 0.2], [0.2, 0.8]])
    R = material_tensor_rate(Q, analytic_samples(wide_space, theta))
    # the quotient's O(s^2) truncation error is 1.5e-8 at 1e-4, 1.7e-10 at 1e-5
    fd = pullback_quotients(theta, wide_space, Q, s=1e-5)[0]
    assert np.abs(fd - R).max() <= 1e-8


def test_m_prime0_fd_all_catalog_fields(wide_space):
    """A per-point matrix, as the parabolic problem passes, frozen at x.
    poly2 is differenced at s = 1e-5: on the cutoff ramp its quotient at
    1e-4 carries an O(s^2) truncation error of 5.3e-7 (5.3e-5 at 1e-3,
    5.3e-9 at 1e-5), the resolution of the quotient, not of the rate."""
    affine = parse_matrix("affine_mat 1.3 -0.2 0.9 0.1 0.2 -0.1 0.05 0.2 0.3")
    Q = affine.value(wide_space.qpoints)
    for theta in CATALOG_FIELDS:
        R = material_tensor_rate(Q, analytic_samples(wide_space, theta))
        s = 1e-5 if theta.name == "poly2" else 1e-4
        fd = pullback_quotients(theta, wide_space, Q, s=s)[0]
        scale = np.maximum(1.0, np.abs(R).max(axis=(-2, -1)))
        assert (np.abs(fd - R).max(axis=(-2, -1)) <= 1e-6 * scale).all(), theta.name


def test_xi_prime_is_divergence(wide_space):
    for theta in CATALOG_FIELDS:
        div = analytic_samples(wide_space, theta).vol_div
        fd = pullback_quotients(theta, wide_space, np.eye(2))[1]
        assert (np.abs(fd - div) <= 1e-6 * np.maximum(1.0, np.abs(div))).all(), theta.name


def test_xi_gamma_prime_is_tangential_divergence(wide_space):
    for theta in CATALOG_FIELDS:
        divg = analytic_samples(wide_space, theta).edge_divg
        fd = pullback_quotients(theta, wide_space, np.eye(2))[2]
        assert (np.abs(fd - divg) <= 1e-6 * np.maximum(1.0, np.abs(divg))).all(), theta.name


def test_div_gamma_radial_field(wide_space):
    divg = analytic_samples(wide_space, RADIAL).edge_divg
    assert np.abs(divg - 1.0).max() <= 1e-12


def test_xi_gamma_radial_field(disk3):
    # theta = x: every transported boundary edge is the original scaled by 1 + s
    moved = transported(RADIAL, 0.1, disk3)
    a, b = disk3.boundary_edges[:, 0], disk3.boundary_edges[:, 1]
    before = np.hypot(*(disk3.nodes[b] - disk3.nodes[a]).T)
    after = np.hypot(*(moved.nodes[b] - moved.nodes[a]).T)
    assert np.abs(after / before - 1.1).max() <= 1e-14


# ------------------------------------------------------------- mesh transport

def test_transport_mesh_keeps_connectivity():
    m = gen_disk((0, 0), 1.0, 3)
    theta = make_field("bump", (0.3, -0.1, 0.2, 0.0, 0.7), support_box=BOX)
    mt = transported(theta, 0.1, m)
    assert np.array_equal(mt.triangles, m.triangles)
    assert np.array_equal(mt.boundary_edges, m.boundary_edges)
    assert np.array_equal(mt.holdall_box, m.holdall_box)
    assert not np.array_equal(mt.nodes, m.nodes)


def test_transport_mesh_inversion_reports_triangle():
    """At s = 0.5 this bump's s d(theta_x)/dx reaches about -7, far below
    -1: triangles invert, and the message names the first of them."""
    m = gen_disk((0, 0), 1.0, 3)
    theta = make_field("bump", (3.0, 0.0, -0.3, 0.0, 0.35))
    X = (m.nodes + 0.5 * theta.eval(m.nodes))[m.triangles]
    e1, e2 = X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]
    inverted = np.nonzero(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] <= 0.0)[0]
    assert len(inverted) > 1
    with pytest.raises(FlowDegeneracyError, match=f"inverts triangle {inverted[0]} "):
        transported(theta, 0.5, m)


def test_transport_mesh_shares_topology():
    m = gen_disk((0, 0), 1.0, 3)
    theta = make_field("bump", (0.3, -0.1, 0.2, 0.0, 0.7), support_box=BOX)
    assert transported(theta, 0.1, m).topology is m.topology


def _cutoff_point_sets():
    """Point sets for the per-component bump values; BOX's plateau is
    [-1.05, 1.05]^2, the bump support the disk of radius 0.5 about
    (0.25, 0.5)."""
    rng = np.random.default_rng(11)
    c, r = np.array([0.25, 0.5]), 0.5
    ang = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    axes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    outside_bump = rng.uniform(-1.0, 1.0, (400, 2))
    outside_bump = outside_bump[np.hypot(*(outside_bump - c).T) > r]
    sets = {
        "plateau": rng.uniform(-1.0, 1.0, (300, 2)),
        "ramp": np.column_stack([rng.uniform(1.06, 1.49, 100), rng.uniform(-1.6, 1.6, 100)]),
        "outside_box": rng.uniform(1.5, 2.5, (50, 2)) * rng.choice([-1.0, 1.0], (50, 2)),
        "bump_rim": np.vstack([c + r * (1.0 - 1e-9) * ring, c + r * axes]),
        "theta_zero": outside_bump,
    }
    sets["all"] = np.vstack(list(sets.values()))
    return sets


_SMALL_BOX = [[-0.3, 0.0], [0.9, 1.1]]

# (name, params, support box) of the fields whose values keep the bits of
# their einsum forms: the bumps, which the shipped configs and the benchmark
# transport by value, and, through the cutoff's value, the constant fields
_COMPONENT_FIELDS = [
    ("bump", (0.6, -0.4, 0.25, 0.5, 0.5), BOX),
    ("bump", (0.6, -0.4, 0.25, 0.5, 0.5), None),
    ("bump", (-0.3, 0.7, 0.25, 0.5, 0.5), _SMALL_BOX),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.5, 0.5, 0.6), BOX),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.5, 0.5, 0.6), None),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.5, 0.5, 0.6), _SMALL_BOX),
    ("zero", (), BOX),
    ("constant", (0.4, -0.3), _SMALL_BOX),
]


@pytest.mark.parametrize("name,params,box", _COMPONENT_FIELDS)
def test_field_values_match_einsum_reference_bit_for_bit(name, params, box):
    """Per-component values, the cutoff factor and the +0.0
    where theta vanishes keep the bits of the einsum evaluation."""
    theta = make_field(name, params, support_box=box)
    ref = einsum_field(name, params, support_box=box)
    sets = _cutoff_point_sets()
    for label, P in sets.items():
        assert theta.eval(P).tobytes() == ref.eval(P).tobytes(), label
    if name == "bump":
        zero = theta.eval(sets["theta_zero"])
        assert not zero.any() and not np.signbit(zero).any()


@pytest.mark.parametrize("name,params,box", _COMPONENT_FIELDS)
def test_advect_matches_einsum_reference_bit_for_bit(name, params, box):
    theta = make_field(name, params, support_box=box)
    ref = einsum_field(name, params, support_box=box)
    sets = _cutoff_point_sets()
    for mesh in (_point_mesh(sets["plateau"]), _point_mesh(sets["all"]),
                 gen_disk((0.2, 0.3), 1.2, 3)):
        for s in (0.04, -0.04, 0.16):
            moved = transported(theta, s, mesh).nodes
            assert moved.tobytes() == transported(ref, s, mesh).nodes.tobytes()


def test_confined_value_on_the_plateau_is_the_base_value():
    """A confined poly2, which reports no support box, multiplies its value
    by the cutoff at every point; where every point lies on the plateau the
    factor is exactly 1.0 and the value has the bytes of the base value,
    signed zeros included."""
    rng = np.random.default_rng(8)
    P = np.vstack([rng.uniform(-1.05, 1.05, (500, 2)), [[-1.05, 1.05], [1.05, -1.05]],
                   [[-0.0, 0.3], [0.3, -0.0], [-0.0, -0.0]]])
    C = rng.standard_normal(12)
    C[[0, 7]] = 0.0
    for params in (C, (-0.0,) * 12, (0.0,) * 12):
        confined = make_field("poly2", params, support_box=BOX).eval(P)
        assert confined.tobytes() == make_field("poly2", params).eval(P).tobytes()
    assert np.signbit(make_field("poly2", (-0.0,) * 12).eval(P)).any()


# (name, params, box): the bump well inside BOX's plateau [-1.05, 1.05]^2,
# tangent to its edge, crossing it, and a tensor bump inside and crossing
_UNWRAP_CASES = [
    ("bump", (0.6, -0.4, 0.25, 0.5, 0.5), BOX),
    ("bump", (0.6, -0.4, 0.55, 0.0, 0.5), BOX),
    ("bump", (0.6, -0.4, 0.8, 0.1, 0.5), BOX),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.3, 0.5, 0.6), BOX),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.3, 0.5, 0.9), BOX),
]


@pytest.mark.parametrize("name,params,box", _UNWRAP_CASES)
def test_bump_value_unwrapped_on_the_plateau_keeps_the_bits(name, params, box):
    """A confined bump's value, its base value times the cutoff at every
    point, has the bits of the einsum form wherever its support lies: in
    the support, on its rim, on the ramp and outside the box."""
    theta = make_field(name, params, support_box=box)
    c = np.asarray(params[2:4])
    reach = np.asarray(params[4:6] if name == "tensor_bump" else params[4:5] * 2)
    rng = np.random.default_rng(4)
    ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    rim = c + reach * np.column_stack([np.cos(ang), np.sin(ang)])
    corners = c + reach * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1], [1, 0], [0, 1]])
    sets = [rng.uniform(c - reach, c + reach, (400, 2)), rim,
            np.nextafter(rim, c), np.nextafter(rim, 2 * rim - c), corners,
            rng.uniform(-1.6, 1.6, (400, 2)), _cutoff_point_sets()["all"]]
    for P in sets:
        assert theta.eval(P).tobytes() == einsum_field(name, params, support_box=box).eval(P).tobytes()


def _catalog_cases():
    """Every catalog field of ``THETA_SPECS``, ``zero`` and an all -0.0
    poly2 under the hold-all box and under a small box, where the reference
    cutoff enters; unconfined, only the fields with a reference form of
    their own (the bump values, the poly2 value and Jacobian)."""
    fields = [("zero", "zero", ()), ("poly2_negative_zero", "poly2", (-0.0,) * 12)]
    fields += [(name, name, params) for name, params in THETA_SPECS]
    boxes = [("unbounded", None), ("box", BOX), ("small_box", _SMALL_BOX)]
    return [pytest.param(name, params, box, id=f"{label}-{box_id}")
            for label, name, params in fields for box_id, box in boxes
            if box is not None or name in ("bump", "tensor_bump", "poly2")]


@pytest.mark.parametrize("name,params,box", _catalog_cases())
def test_catalog_matches_einsum_reference(name, params, box):
    """Values and Jacobians against the ``np.stack``/``einsum`` forms of
    ``einsum_field``, by ``tobytes`` but for poly2.  poly2 sums its terms
    in an order of its own, so its value and Jacobian are held to the
    rounding bound of two orders of the same additions, at most 5 eps of
    the sum of the terms' magnitudes (S for the value, S_D for the
    Jacobian), its Jacobian's zeros to +0.0; under a box, one more eps of
    each for the cutoff's products and of |J| for their sum."""
    theta = make_field(name, params, support_box=box)
    ref = einsum_field(name, params, support_box=box)
    eps = np.finfo(float).eps
    signed_zero = np.array([[-0.0, -0.3], [-0.0, 0.3], [0.3, -0.0], [-0.3, -0.0], [-0.0, -0.0]])
    for label, P in dict(_cutoff_point_sets(), signed_zero=signed_zero).items():
        v, vr, J, Jr = theta.eval(P), ref.eval(P), theta.jac(P), ref.jac(P)
        if name != "poly2":
            assert v.tobytes() == vr.tobytes(), label
            assert J.tobytes() == Jr.tobytes(), label
            continue
        x, y = P[:, 0], P[:, 1]
        zero, one = np.zeros_like(x), np.ones_like(x)
        C = np.abs(np.reshape(params, (2, 6)))
        S = np.abs(np.stack([one, x, y, x * x, x * y, y * y], axis=-1)) @ C.T   # (n, 2)
        S_D = np.stack([np.abs(np.stack(d, axis=-1)) @ C.T for d in
                        ([zero, one, zero, 2 * x, y, zero], [zero, zero, one, zero, x, 2 * y])],
                       axis=-1)                                                  # (n, 2, 2)
        if box is None:
            assert (np.abs(v - vr) <= 5 * eps * S).all(), label
            assert (np.abs(J - Jr) <= 5 * eps * S_D).all(), label
            assert not np.signbit(J[J == 0.0]).any(), label
        else:
            r, dr = cutoff_rho(box)(P)
            assert (np.abs(v - vr) <= 6 * eps * S).all(), label
            bound = (6 * eps * (S_D * r[:, None, None] + S[:, :, None] * np.abs(dr)[:, None, :])
                     + eps * (np.abs(J) + np.abs(Jr)))
            assert (np.abs(J - Jr) <= bound).all(), label


def test_xi_matches_triangle_area_ratios():
    theta = make_field("bump", (0.25, -0.15, 0.1, 0.0, 0.8), support_box=BOX)
    s = 0.05
    for ref in (3, 4):
        m = gen_disk((0, 0), 1.0, ref)
        mt = transported(theta, s, m)
        cent = m.nodes[m.triangles].mean(axis=1)
        xi = det2(transport_jacobian(theta, s, cent))
        ratio = mt.areas() / m.areas()
        h = 2 * np.pi / (6 * 2 ** ref)
        assert np.abs(ratio - xi).max() <= h * h + s * s


# ------------------------------------------------------------ field catalog

@pytest.mark.parametrize("theta", CATALOG_FIELDS, ids=lambda t: t.name)
def test_fields_vanish_outside_support(theta):
    lo, hi = theta.support_box
    rng = np.random.default_rng(5)
    # points on the box faces and on an outside ring
    t = rng.uniform(0, 1, size=40)
    face = np.concatenate([
        np.column_stack([lo[0] + t * (hi[0] - lo[0]), np.full_like(t, lo[1])]),
        np.column_stack([lo[0] + t * (hi[0] - lo[0]), np.full_like(t, hi[1])]),
        np.column_stack([np.full_like(t, lo[0]), lo[1] + t * (hi[1] - lo[1])]),
        np.column_stack([np.full_like(t, hi[0]), lo[1] + t * (hi[1] - lo[1])]),
    ])
    outside = rng.uniform(1.0, 3.0, size=(50, 2)) * np.sign(rng.standard_normal((50, 2))) + \
        np.sign(rng.standard_normal((50, 2))) * 1.5
    outside = np.clip(outside, None, None)
    pts = np.vstack([face, outside[np.abs(outside).max(axis=1) >= 1.5]])
    assert np.abs(theta.eval(pts)).max() == 0.0
    assert np.abs(theta.jac(pts)).max() == 0.0
    assert np.abs(theta.hess(pts)).max() == 0.0


@pytest.mark.parametrize("theta", CATALOG_FIELDS, ids=lambda t: t.name)
def test_jacobian_matches_fd(theta):
    rng = np.random.default_rng(23)
    P = rng.uniform(-1.45, 1.45, size=(60, 2))
    h = 1e-5
    J = theta.jac(P)
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        fd = (theta.eval(P + e) - theta.eval(P - e)) / (2 * h)
        assert np.abs(J[..., ax] - fd).max() <= 1e-7


@pytest.mark.parametrize("theta", CATALOG_FIELDS, ids=lambda t: t.name)
def test_hessian_matches_fd_of_jacobian(theta):
    rng = np.random.default_rng(29)
    P = rng.uniform(-1.45, 1.45, size=(60, 2))
    h = 1e-5
    H = theta.hess(P)
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        fd = (theta.jac(P + e) - theta.jac(P - e)) / (2 * h)
        assert np.abs(H[..., ax] - fd).max() <= 2e-6


def test_hessian_symmetric_in_last_two_slots():
    for theta in CATALOG_FIELDS:
        rng = np.random.default_rng(31)
        P = rng.uniform(-1.4, 1.4, size=(50, 2))
        H = theta.hess(P)
        assert np.abs(H - np.swapaxes(H, -1, -2)).max() <= 1e-13


def test_make_field_validation():
    with pytest.raises(ValueError, match="unknown field"):
        make_field("vortex", ())
    with pytest.raises(ValueError, match="parameters"):
        make_field("bump", (1.0, 2.0))
    assert set(FIELD_CATALOG) == {"zero", "constant", "linear", "rotation",
                                  "poly2", "bump", "tensor_bump"}
    # a NaN radius gave theta = 0 everywhere, a zero width divided by zero,
    # an infinite coefficient an infinite theta: each is refused by name
    for name, params, key in [
            ("bump", (1.0, 0.4, 0.2, -0.1, np.nan), "finite"),
            ("bump", (1.0, 0.4, 0.2, -0.1, 0.0), "radius"),
            ("bump", (1.0, 0.4, 0.2, -0.1, -0.8), "radius"),
            ("tensor_bump", (0.4, -0.5, 0.0, 0.1, 0.0, 0.5), "widths"),
            ("tensor_bump", (0.4, -0.5, 0.0, 0.1, 0.8, -1.0), "widths"),
            ("poly2", (0.3, np.inf) + (0.1,) * 10, "finite"),
            ("rotation", (0.7, -np.inf, 0.0), "finite"),
            ("constant", (np.nan, 0.0), "finite")]:
        with pytest.raises(ValueError, match=key):
            make_field(name, params)


@pytest.mark.parametrize("box", [
    [[1.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]], [[-np.inf, -1.5], [1.5, 1.5]]])
def test_make_field_rejects_degenerate_cutoff(box):
    """An empty box makes theta vanish everywhere and an infinite one makes
    it NaN: both are refused by name."""
    with pytest.raises(ValueError, match="support box"):
        make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=box)
