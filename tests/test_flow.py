import numpy as np
import pytest

from shapegrad import flow
from shapegrad.data_catalog import parse_matrix
from shapegrad.fem_core import FeSpace
from shapegrad.flow import (FIELD_CATALOG, FlowDegeneracyError, advect_batch,
                            make_field, transport_mesh)
from shapegrad.mesh import gen_disk
from shapegrad.shape_assembly import material_tensor_rate, theta_samples

from conftest import HOLDALL as BOX, THETA_SPECS, catalog_thetas
from flow_references import (advect_with_jacobian, cutoff_rho, det2, einsum_field,
                             pullback_quotients)

#: one representative parameterization per catalog entry (cutoff applied)
CATALOG_FIELDS = catalog_thetas(BOX)

RADIAL = make_field("linear", (1.0, 0.0, 0.0, 1.0, 0.0, 0.0))    # theta = x

#: |xi - det DT_s| between the scalar and the variational RK4 at 32 steps,
#: the semigroup bound: the two truncation errors differ by at most 4.2e-10
#: on the catalog fields (rotation at s = 0.16)
XI_DET_BOUND = 1e-9


# ------------------------------------------------------------------ advection

def test_advect_s_zero_is_identity():
    theta = make_field("rotation", (1.0, 0.0, 0.0))
    X, xi = advect_batch(theta, 0.0, np.array([[0.3, 0.4]]))
    assert np.array_equal(X, [[0.3, 0.4]])
    assert np.array_equal(xi, [1.0])


def test_advect_constant_field_exact_translation():
    theta = make_field("constant", (0.25, -1.5))
    x0 = np.array([[1.0, 2.0]])
    X, xi = advect_batch(theta, 0.8, x0, steps=7)
    assert np.abs(X[0] - np.array([1.2, 0.8])).max() < 1e-14
    assert np.array_equal(xi, [1.0])
    Xr, J = advect_with_jacobian(theta, 0.8, x0, steps=7)
    assert Xr.tobytes() == X.tobytes()
    assert np.array_equal(J[0], np.eye(2))


def test_advect_linear_radial_field_exponential():
    # theta = x: T_s(x) = e^s x, DT_s = e^s I, xi = e^2s
    x0 = np.array([0.7, -0.4])
    X, xi = advect_batch(RADIAL, 0.1, x0[None, :], steps=16)
    es = np.exp(0.1)
    assert np.abs(X[0] - es * x0).max() <= 1e-10
    assert abs(xi[0] - es * es) <= 1e-10
    _, J = advect_with_jacobian(RADIAL, 0.1, x0[None, :], steps=16)
    assert np.abs(J[0] - es * np.eye(2)).max() <= 1e-10


def test_advect_integrates_xi_where_only_theta_vanishes():
    # theta = x vanishes at the origin, div theta = 2 does not: the point
    # stays put exactly while its volume ratio grows as e^2s
    for s in (0.1, -0.05):
        X, xi = advect_batch(RADIAL, s, np.array([[0.0, 0.0], [0.3, 0.0]]), steps=16)
        assert np.array_equal(X[0], [0.0, 0.0])
        assert abs(xi[0] - np.exp(2 * s)) <= 1e-10
        assert xi[0] == xi[1]


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
        Xa, xia = advect_batch(theta, s1 + s2, X0, steps=32)
        X1, xi1 = advect_batch(theta, s1, X0, steps=32)
        X2, xi2 = advect_batch(theta, s2, X1, steps=32)
        assert np.abs(Xa - X2).max() <= 1e-9
        assert np.abs(xia - xi2 * xi1).max() <= 1e-9
        _, Ja = advect_with_jacobian(theta, s1 + s2, X0, steps=32)
        _, J1 = advect_with_jacobian(theta, s1, X0, steps=32)
        _, J2 = advect_with_jacobian(theta, s2, X1, steps=32)
        Jc = np.einsum('nij,njk->nik', J2, J1)
        assert np.abs(Ja - Jc).max() <= 1e-9


@pytest.mark.parametrize("theta", CATALOG_FIELDS, ids=lambda t: t.name)
def test_xi_is_the_determinant_of_the_variational_jacobian(theta):
    """Liouville's scalar ODE and the 2x2 variational equation, both by
    RK4, give the same det DT_s up to their truncation errors."""
    rng = np.random.default_rng(13)
    X0 = rng.uniform(-1.45, 1.45, size=(200, 2))
    for s in (0.16, -0.04):
        X, xi = advect_batch(theta, s, X0, steps=32)
        Xr, J = advect_with_jacobian(theta, s, X0, steps=32)
        assert X.tobytes() == Xr.tobytes()
        assert np.abs(xi - det2(J)).max() <= XI_DET_BOUND


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
    """A per-point matrix, as the parabolic problem passes, frozen at x.
    poly2 is differenced at s = 1e-5: on the cutoff ramp its quotient at
    1e-4 carries an O(s^2) truncation error of 1.45e-6 (1.45e-4 at 1e-3,
    1.45e-8 at 1e-5), the resolution of the quotient, not of the rate."""
    affine = parse_matrix("affine_mat 1.3 -0.2 0.9 0.1 0.2 -0.1 0.05 0.2 0.3")
    Q = affine.value(wide_space.qpoints)
    for theta in CATALOG_FIELDS:
        R = material_tensor_rate(Q, theta_samples(wide_space, theta, "analytic"))
        s = 1e-5 if theta.name == "poly2" else 1e-4
        fd = pullback_quotients(theta, wide_space, Q, s=s)[0]
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


def _advect_every_point(theta, s, x0, steps, want_xi):
    # advect_batch without the fixed-point skip: every point through every
    # stage, div theta taken as the trace of the Jacobian
    X = np.array(x0, dtype=float)
    xi = np.ones(len(X)) if want_xi else None
    h = s / steps

    def rhs(Xc, xic):
        v = theta.eval(Xc)
        if xic is None:
            return v, None
        J = theta.jac(Xc)
        return v, (J[:, 0, 0] + J[:, 1, 1]) * xic

    for _ in range(steps):
        k1x, k1 = rhs(X, xi)
        k2x, k2 = rhs(X + 0.5 * h * k1x, None if xi is None else xi + 0.5 * h * k1)
        k3x, k3 = rhs(X + 0.5 * h * k2x, None if xi is None else xi + 0.5 * h * k2)
        k4x, k4 = rhs(X + h * k3x, None if xi is None else xi + h * k3)
        X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        if xi is not None:
            xi = xi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return X, xi


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
    for want_xi in (False, True):
        for s in (0.3, -0.05):
            X, xi = advect_batch(theta, s, pts, steps=8, want_xi=want_xi)
            Xr, xir = _advect_every_point(theta, s, pts, 8, want_xi)
            assert X.tobytes() == Xr.tobytes()
            assert (xi is None and xir is None) or xi.tobytes() == xir.tobytes()


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
    for P in (sets["plateau"], sets["all"]):
        for s in (0.04, -0.04, 0.16):
            for want_xi in (False, True):
                X, xi = advect_batch(theta, s, P, steps=8, want_xi=want_xi)
                Xr, xir = advect_batch(ref, s, P, steps=8, want_xi=want_xi)
                assert X.tobytes() == Xr.tobytes()
                assert (xi is None and xir is None) or xi.tobytes() == xir.tobytes()
    mesh = gen_disk((0.2, 0.3), 1.2, 3)
    for s in (0.04, -0.04, 0.16):
        moved = transport_mesh(theta, s, mesh).nodes
        assert moved.tobytes() == transport_mesh(ref, s, mesh).nodes.tobytes()


def test_plateau_test_on_the_extremes_is_the_pointwise_test():
    """``_on_plateau`` decides the plateau from min and max of the
    coordinates; the verdict is that of (x - lo) / w >= 1 and
    (hi - x) / w >= 1 at every point, on random sets at the plateau's
    edges and with NaN."""
    rng = np.random.default_rng(21)
    for lo, hi, ramp in ((-1.5, 1.5, 0.15), (0.1, 0.7, 0.3), (-2.0, -1.0, 0.05)):
        w = ramp * (hi - lo)
        edges = (lo + w, hi - w)
        sets = []
        for _ in range(200):
            centre = rng.choice(edges)
            x = centre + rng.uniform(-1.0, 1.0, rng.integers(1, 6)) * 10.0 ** rng.integers(-16, 0)
            sets.append(x)
            sets.append(np.append(x, np.nan))
        sets.append(np.array([edges[0], edges[1]]))
        sets.append(np.nextafter(np.array([edges[0], edges[1]]), 0.0))
        verdicts = set()
        for x in sets:
            tl, tr = (x - lo) / w, (hi - x) / w
            pointwise = bool(tl.min() >= 1.0 and tr.min() >= 1.0)
            assert flow._on_plateau(x.min(), x.max(), lo, hi, w) == pointwise
            verdicts.add(pointwise)
        assert verdicts == {True, False}


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


# (name, params, box, whether the value is the base value itself): the
# bump well inside BOX's plateau [-1.05, 1.05]^2, tangent to its edge,
# crossing it, and a tensor bump inside and crossing
_UNWRAP_CASES = [
    ("bump", (0.6, -0.4, 0.25, 0.5, 0.5), BOX, True),
    ("bump", (0.6, -0.4, 0.55, 0.0, 0.5), BOX, False),
    ("bump", (0.6, -0.4, 0.8, 0.1, 0.5), BOX, False),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.3, 0.5, 0.6), BOX, True),
    ("tensor_bump", (0.4, -0.5, 0.25, 0.3, 0.5, 0.9), BOX, False),
]


@pytest.mark.parametrize("name,params,box,unwrapped", _UNWRAP_CASES)
def test_bump_value_unwrapped_on_the_plateau_keeps_the_bits(name, params, box, unwrapped):
    """With its support box on the cutoff's plateau, a confined bump's
    value is the base value itself; the wrapped value, cutoff and all, has
    the same bits at every point: in the support, on its rim, on the
    ramp and outside the box."""
    theta = make_field(name, params, support_box=box)
    val, jac, hess, _, _ = flow.FIELD_CATALOG[name][0](np.asarray(params, dtype=float))
    wrapped = flow._apply_cutoff(val, jac, hess, box, 0.15)[0]
    # the base value closure is named val, the cutoff's wrapper v
    assert (theta.eval.__name__ == val.__name__) == unwrapped
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
        assert theta.eval(P).tobytes() == wrapped(P).tobytes()
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
            r, dr = cutoff_rho(box, 0.15)(P)
            assert (np.abs(v - vr) <= 6 * eps * S).all(), label
            bound = (6 * eps * (S_D * r[:, None, None] + S[:, :, None] * np.abs(dr)[:, None, :])
                     + eps * (np.abs(J) + np.abs(Jr)))
            assert (np.abs(J - Jr) <= bound).all(), label



@pytest.mark.parametrize("name,params,box", _catalog_cases())
def test_div_is_the_trace_of_the_jacobian(name, params, box):
    """Bit for bit, signed zeros included: poly2 writes its own divergence,
    every other field takes the trace."""
    theta = make_field(name, params, support_box=box)
    signed_zero = np.array([[-0.0, -0.3], [-0.0, 0.3], [0.3, -0.0], [-0.3, -0.0], [-0.0, -0.0]])
    for label, P in dict(_cutoff_point_sets(), signed_zero=signed_zero).items():
        J = theta.jac(P)
        trace, div = J[:, 0, 0] + J[:, 1, 1], theta.div(P)
        assert div.tobytes() == trace.tobytes(), label
        assert np.array_equal(np.signbit(div), np.signbit(trace)), label

def test_xi_matches_triangle_area_ratios():
    theta = make_field("bump", (0.25, -0.15, 0.1, 0.0, 0.8), support_box=BOX)
    s = 0.05
    for ref in (3, 4):
        m = gen_disk((0, 0), 1.0, ref)
        mt = transport_mesh(theta, s, m)
        cent = m.nodes[m.triangles].mean(axis=1)
        _, xi = advect_batch(theta, s, cent, steps=32)
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


@pytest.mark.parametrize("box,ramp,key", [
    (BOX, 0.0, "ramp"), (BOX, -0.1, "ramp"), (BOX, np.nan, "ramp"), (BOX, np.inf, "ramp"),
    ([[1.0, 1.0], [0.0, 0.0]], 0.15, "support box"),
    ([[0.0, 1.0], [1.0, 1.0]], 0.15, "support box"),
    ([[-np.inf, -1.5], [1.5, 1.5]], 0.15, "support box")])
def test_make_field_rejects_degenerate_cutoff(box, ramp, key):
    """A zero ramp divides by zero and an empty box makes theta vanish
    everywhere: both are refused by name."""
    with pytest.raises(ValueError, match=key):
        make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=box, ramp=ramp)
