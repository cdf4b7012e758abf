import numpy as np
import pytest

from shapegrad.data_catalog import parse_matrix
from shapegrad.fem_core import FeSpace
from shapegrad.flow import (FIELD_CATALOG, FlowDegeneracyError, advect_batch,
                            make_field, transport_mesh)
from shapegrad.mesh import gen_disk
from shapegrad.shape_assembly import material_tensor_rate, theta_samples

from flow_references import einsum_field, pullback_quotients

BOX = np.array([[-1.5, -1.5], [1.5, 1.5]])

#: one representative parameterization per catalog entry (cutoff applied)
CATALOG_FIELDS = [
    make_field("constant", (0.4, -0.3), support_box=BOX),
    make_field("linear", (0.3, -0.2, 0.1, -0.4, 0.05, 0.1), support_box=BOX),
    make_field("rotation", (0.7, 0.1, -0.2), support_box=BOX),
    make_field("bump", (0.5, 0.3, -0.2, 0.1, 0.9), support_box=BOX),
    make_field("tensor_bump", (0.4, -0.5, 0.0, 0.1, 0.8, 1.0), support_box=BOX),
]

RADIAL = make_field("linear", (1.0, 0.0, 0.0, 1.0, 0.0, 0.0))    # theta = x


# ------------------------------------------------------------------ advection

def test_advect_s_zero_is_identity():
    theta = make_field("rotation", (1.0, 0.0, 0.0))
    X, J = advect_batch(theta, 0.0, np.array([[0.3, 0.4]]))
    assert np.array_equal(X, [[0.3, 0.4]])
    assert np.array_equal(J, [np.eye(2)])


def test_advect_constant_field_exact_translation():
    theta = make_field("constant", (0.25, -1.5))
    X, J = advect_batch(theta, 0.8, np.array([[1.0, 2.0]]), steps=7)
    assert np.abs(X[0] - np.array([1.2, 0.8])).max() < 1e-14
    assert np.array_equal(J[0], np.eye(2))


def test_advect_linear_radial_field_exponential():
    # theta = x: T_s(x) = e^s x, DT_s = e^s I
    x0 = np.array([0.7, -0.4])
    X, J = advect_batch(RADIAL, 0.1, x0[None, :], steps=16)
    es = np.exp(0.1)
    assert np.abs(X[0] - es * x0).max() <= 1e-10
    assert np.abs(J[0] - es * np.eye(2)).max() <= 1e-10


def test_advect_degenerate_jacobian_raises():
    # violently sheared bump integrated with a single coarse step
    theta = make_field("bump", (0.0, 200.0, 0.0, 0.0, 0.5))
    with pytest.raises(FlowDegeneracyError):
        advect_batch(theta, 1.0, np.array([[0.3, 0.1]]), steps=1)


def test_semigroup_property():
    theta = make_field("bump", (0.5, 0.3, -0.2, 0.1, 0.9), support_box=BOX)
    rng = np.random.default_rng(3)
    X0 = rng.uniform(-0.8, 0.8, size=(20, 2))
    for s1, s2 in [(0.1, 0.1), (0.06, 0.04), (0.1, 0.05)]:
        Xa, Ja = advect_batch(theta, s1 + s2, X0, steps=32)
        X1, J1 = advect_batch(theta, s1, X0, steps=32)
        X2, J2 = advect_batch(theta, s2, X1, steps=32)
        Jc = np.einsum('nij,njk->nik', J2, J1)
        assert np.abs(Xa - X2).max() <= 1e-9
        assert np.abs(Ja - Jc).max() <= 1e-9


# ------------------------------------------------------- pullback derivatives
#
# The rates the assembly uses (material_tensor_rate and the vol_div and
# edge_divg of theta_samples) against the pullback factors of the flow map,
# at the quadrature points of a disk that reaches deep into the cutoff ramp
# of BOX.

@pytest.fixture(scope="module")
def wide_space():
    return FeSpace(gen_disk((0.0, 0.0), 1.4, 2), order=1)


def test_xi_radial_field(disk3):
    # theta = x: every transported triangle is the original scaled by e^s
    ratio = transport_mesh(RADIAL, 0.1, disk3, steps=16).areas() / disk3.areas()
    assert np.abs(ratio - np.exp(0.2)).max() <= 1e-10


def test_m_of_s_symmetric_for_symmetric_Q(wide_space):
    samples = theta_samples(wide_space, CATALOG_FIELDS[3], "analytic")
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    R = material_tensor_rate(Q, samples)
    assert np.abs(R - np.swapaxes(R, -1, -2)).max() <= 1e-12 * max(1.0, np.abs(R).max())


def test_m_prime0_stretch_example(wide_space):
    # theta = (x1, 0), Q = I  ->  div Q - Dtheta Q - Q Dtheta^T = diag(-1, 1)
    theta = make_field("linear", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    R = material_tensor_rate(np.eye(2), theta_samples(wide_space, theta, "analytic"))
    assert np.array_equal(R, np.broadcast_to(np.diag([-1.0, 1.0]), R.shape))


def test_m_prime0_matches_difference_quotient(wide_space):
    theta = CATALOG_FIELDS[3]
    Q = np.array([[1.5, 0.2], [0.2, 0.8]])
    R = material_tensor_rate(Q, theta_samples(wide_space, theta, "analytic"))
    fd = pullback_quotients(theta, wide_space, Q)[0]
    assert np.abs(fd - R).max() <= 1e-8


def test_m_prime0_fd_all_catalog_fields(wide_space):
    # a per-point matrix, as the parabolic problem passes, frozen at x
    affine = parse_matrix("affine_mat 1.3 -0.2 0.9 0.1 0.2 -0.1 0.05 0.2 0.3")
    Q = affine.value(wide_space.qpoints)
    for theta in CATALOG_FIELDS:
        R = material_tensor_rate(Q, theta_samples(wide_space, theta, "analytic"))
        fd = pullback_quotients(theta, wide_space, Q)[0]
        scale = np.maximum(1.0, np.abs(R).max(axis=(-2, -1)))
        assert (np.abs(fd - R).max(axis=(-2, -1)) <= 1e-6 * scale).all(), theta.name


def test_xi_prime_is_divergence(wide_space):
    for theta in CATALOG_FIELDS:
        div = theta_samples(wide_space, theta, "analytic").vol_div
        fd = pullback_quotients(theta, wide_space, np.eye(2))[1]
        assert (np.abs(fd - div) <= 1e-6 * np.maximum(1.0, np.abs(div))).all(), theta.name


def test_xi_gamma_prime_is_tangential_divergence(wide_space):
    for theta in CATALOG_FIELDS:
        divg = theta_samples(wide_space, theta, "analytic").edge_divg
        fd = pullback_quotients(theta, wide_space, np.eye(2))[2]
        assert (np.abs(fd - divg) <= 1e-6 * np.maximum(1.0, np.abs(divg))).all(), theta.name


def test_div_gamma_radial_field(wide_space):
    divg = theta_samples(wide_space, RADIAL, "analytic").edge_divg
    assert np.abs(divg - 1.0).max() <= 1e-12


def test_xi_gamma_radial_field(disk3):
    # theta = x: every transported boundary edge is the original scaled by e^s
    moved = transport_mesh(RADIAL, 0.1, disk3, steps=16)
    a, b = disk3.boundary_edges[:, 0], disk3.boundary_edges[:, 1]
    before = np.hypot(*(disk3.nodes[b] - disk3.nodes[a]).T)
    after = np.hypot(*(moved.nodes[b] - moved.nodes[a]).T)
    assert np.abs(after / before - np.exp(0.1)).max() <= 1e-9


# ------------------------------------------------------------- mesh transport

def test_transport_mesh_keeps_connectivity():
    m = gen_disk((0, 0), 1.0, 3)
    theta = make_field("bump", (0.3, -0.1, 0.2, 0.0, 0.7), support_box=BOX)
    mt = transport_mesh(theta, 0.1, m)
    assert np.array_equal(mt.triangles, m.triangles)
    assert np.array_equal(mt.boundary_edges, m.boundary_edges)
    assert np.array_equal(mt.holdall_box, m.holdall_box)
    assert not np.array_equal(mt.nodes, m.nodes)


def test_transport_mesh_inversion_reports_triangle():
    m = gen_disk((0, 0), 1.0, 3)
    theta = make_field("bump", (3.0, 0.0, -0.3, 0.0, 0.35))
    with pytest.raises(FlowDegeneracyError, match="triangle 128"):
        transport_mesh(theta, 0.5, m, steps=1)


def test_transport_mesh_shares_topology():
    m = gen_disk((0, 0), 1.0, 3)
    theta = make_field("bump", (0.3, -0.1, 0.2, 0.0, 0.7), support_box=BOX)
    assert transport_mesh(theta, 0.1, m).topology is m.topology


def _advect_every_point(theta, s, x0, steps, want_jac):
    # advect_batch before fixed points were skipped: every point through
    # every stage, Jacobian products by einsum
    X = np.array(x0, dtype=float)
    J = np.broadcast_to(np.eye(2), X.shape + (2,)).copy() if want_jac else None
    h = s / steps

    def rhs(Xc, Jc):
        v = theta.eval(Xc)
        if Jc is None:
            return v, None
        return v, np.einsum('...ij,...jk->...ik', theta.jac(Xc), Jc)

    for _ in range(steps):
        k1x, k1j = rhs(X, J)
        k2x, k2j = rhs(X + 0.5 * h * k1x, None if J is None else J + 0.5 * h * k1j)
        k3x, k3j = rhs(X + 0.5 * h * k2x, None if J is None else J + 0.5 * h * k2j)
        k4x, k4j = rhs(X + h * k3x, None if J is None else J + h * k3j)
        X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        if J is not None:
            J = J + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
    return X, J


@pytest.mark.parametrize("theta", [
    make_field("bump", (0.6, -0.4, 0.25, 0.5, 0.5), support_box=BOX),
    make_field("tensor_bump", (0.4, -0.5, 0.0, 0.1, 0.8, 1.0), support_box=BOX),
    make_field("rotation", (0.7, 0.1, -0.2), support_box=[[-0.6, -0.9], [0.8, 0.5]]),
    make_field("poly2", (0.1, 0.2, -0.1, 0.3, 0, 0.15, -0.2, 0.1, 0.05, 0.0, 0.2, -0.1)),
], ids=lambda t: t.name)
def test_advect_skips_fixed_points_bit_for_bit(theta):
    rng = np.random.default_rng(5)
    # inside, exactly on (|x - c| = r) and outside the bump support, plus
    # the rotation centre, where theta vanishes but Dtheta does not
    on = np.array([0.25, 0.5]) + 0.5 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    pts = np.vstack([rng.uniform(-1.45, 1.45, (600, 2)), on, [[0.1, -0.2]], gen_disk((0, 0), 1.0, 3).nodes])
    for want_jac in (False, True):
        for s in (0.3, -0.05):
            X, J = advect_batch(theta, s, pts, steps=8, want_jac=want_jac)
            Xr, Jr = _advect_every_point(theta, s, pts, 8, want_jac)
            assert X.tobytes() == Xr.tobytes()
            assert (J is None and Jr is None) or J.tobytes() == Jr.tobytes()


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


# (name, params, support box) of fields with a per-component value
_COMPONENT_FIELDS = [
    ("bump", (0.6, -0.4, 0.25, 0.5, 0.5), BOX),
    ("bump", (0.6, -0.4, 0.25, 0.5, 0.5), None),
    ("bump", (-0.3, 0.7, 0.25, 0.5, 0.5), [[-0.3, 0.0], [0.9, 1.1]]),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.5, 0.5, 0.6), BOX),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.5, 0.5, 0.6), None),
]


@pytest.mark.parametrize("name,params,box", _COMPONENT_FIELDS)
def test_field_values_match_einsum_reference_bit_for_bit(name, params, box):
    """Per-component values, the plateau skip of the cutoff and the +0.0
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
    for P in (sets["plateau"], sets["all"]):
        for s in (0.04, -0.04, 0.16):
            for want_jac in (False, True):
                X, J = advect_batch(theta, s, P, steps=8, want_jac=want_jac)
                Xr, Jr = advect_batch(ref, s, P, steps=8, want_jac=want_jac)
                assert X.tobytes() == Xr.tobytes()
                assert (J is None and Jr is None) or J.tobytes() == Jr.tobytes()


def test_xi_matches_triangle_area_ratios():
    theta = make_field("bump", (0.25, -0.15, 0.1, 0.0, 0.8), support_box=BOX)
    s = 0.05
    for ref in (3, 4):
        m = gen_disk((0, 0), 1.0, ref)
        mt = transport_mesh(theta, s, m)
        cent = m.nodes[m.triangles].mean(axis=1)
        _, J = advect_batch(theta, s, cent, steps=32)
        dets = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        ratio = mt.areas() / m.areas()
        h = 2 * np.pi / (6 * 2 ** ref)
        assert np.abs(ratio - dets).max() <= h * h + s * s


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
