"""The per-element kernels written over the element axis keep the bits of
their broadcast forms (``kernel_references``): every ``FeSpace`` geometry
array at P1 and P2, the P1 local stiffness for each shape of C, the signed
areas, ``affine_mat``'s value and the volume theta samples, compared with
``tobytes``.  And the format-free matvec that ``Factorized.gmres`` relies
on: a Jacobian in the canonical CSR the problems return multiplies with the
bits of its CSC copy.
"""

import numpy as np
import pytest

from shapegrad import data_catalog as dc
from shapegrad import fem_core as fem
from shapegrad.data_catalog import parse_scalar
from shapegrad.elliptic_problems import RobinData, RobinProblem
from shapegrad.fem_core import ScalarField
from shapegrad.flow import make_field
from shapegrad.mesh import _signed_areas, gen_disk, gen_rectangle
from shapegrad.shape_assembly import theta_samples

from conftest import HOLDALL, THETA_SPECS, bump_theta, transported
import kernel_references as refs
from test_nodal_gradient import _dirichlet_energy, _quasilinear, _robin


@pytest.fixture(scope="module")
def meshes(disk4):
    """A reference disk, the disk transported by 0.04 theta, and a crossed
    rectangle."""
    return {"disk": disk4, "transported": transported(bump_theta(), 0.04, disk4),
            "rectangle": gen_rectangle(0.0, 0.0, 1.0, 0.5, 7, 4)}


def _same(a, b):
    return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["disk", "transported", "rectangle"])
@pytest.mark.parametrize("order,quad_degree", [(1, 4), (1, 6), (2, 4), (2, 6)])
def test_geometry_matches_broadcast_forms_bit_for_bit(meshes, name, order, quad_degree):
    space = fem.FeSpace(meshes[name], order, quad_degree)
    for key, want in refs.geometry(space).items():
        assert _same(getattr(space, key), want), key


@pytest.mark.parametrize("name", ["disk", "transported", "rectangle"])
def test_signed_areas_and_detJ_bit_for_bit(meshes, name):
    """The areas of the element-axis gather are those of the (M, 3, 2) one,
    and a space's detJ is twice its mesh's areas, bitwise its own
    determinant."""
    mesh = meshes[name]
    want = refs.signed_areas(mesh.nodes, mesh.triangles)
    assert _same(_signed_areas(mesh.nodes, mesh.triangles), want)
    assert _same(mesh.areas(), want)
    space = fem.FeSpace(mesh)
    assert _same(space.detJ, 2.0 * mesh.areas())
    assert _same(space.detJ, refs.geometry(space)["detJ"])


def test_detJ_is_twice_the_areas_on_a_transported_refine6_disk():
    mesh = transported(bump_theta(), 0.04, gen_disk((0.0, 0.0), 1.0, 6))
    space = fem.FeSpace(mesh)
    assert _same(space.detJ, refs.geometry(space)["detJ"])


@pytest.mark.parametrize("name", ["disk", "transported", "rectangle"])
@pytest.mark.parametrize("shape", ["constant", "signed zeros", "per element", "per point"])
def test_p1_stiffness_matches_broadcast_form_bit_for_bit(meshes, name, shape):
    space = fem.FeSpace(meshes[name])
    rng = np.random.default_rng(36)
    M, nq = space.qweights.shape
    C = {"constant": np.array([[2.0, 0.3], [0.3, 1.0]]),
         "signed zeros": np.array([[-0.0, 0.0], [0.0, -0.0]]),
         "per element": rng.standard_normal((M, 1, 2, 2)),
         "per point": rng.standard_normal((M, nq, 2, 2))}[shape]
    assert _same(fem._diffusion_local(space, C), refs.diffusion_local(space, C))


@pytest.mark.parametrize("shape", [(2,), (7, 2), (9, 6, 2)])
def test_affine_mat_value_matches_broadcast_sum_bit_for_bit(shape):
    params = (2.0, 0.3, 1.5, 0.3, 0.1, 0.2, -0.2, 0.05, 0.3)
    value, _ = dc._mat_affine(*params)
    M0, A, B = (dc._sym(*params[k:k + 3]) for k in (0, 3, 6))
    P = np.random.default_rng(7).uniform(-1.0, 1.0, shape)
    assert _same(value(P), refs.affine_mat_value(M0, A, B, P))


@pytest.mark.parametrize("theta", ["bump", "poly2", "random", "signed zeros"])
@pytest.mark.parametrize("name", ["disk", "transported", "rectangle"])
@pytest.mark.parametrize("order", [1, 2])
def test_theta_samples_match_einsum_forms_bit_for_bit(meshes, name, order, theta):
    """theta at the points and Dtheta of the element-axis loops against the
    einsums, for catalog fields, seeded random nodal values and signed
    zeros, whose einsum sums are +0.0."""
    space = fem.FeSpace(meshes[name], order)
    N = len(space.mesh.nodes)
    if theta == "random":
        nodal = np.random.default_rng(40).standard_normal((N, 2))
    elif theta == "signed zeros":
        nodal = np.where(np.random.default_rng(41).random((N, 2)) < 0.5, -0.0, 0.0)
    else:
        nodal = make_field(theta, dict(THETA_SPECS)[theta], support_box=HOLDALL).eval(
            space.mesh.nodes)
    samples = theta_samples(space, nodal)
    vol_val, vol_jac = refs.theta_volume_samples(space, nodal)
    assert _same(samples.vol_val, vol_val)
    assert _same(samples.vol_jac, vol_jac)


def _matvec_bits_agree(J, rng):
    assert J.format == "csr" and J.has_sorted_indices
    for x in (rng.standard_normal(J.shape[0]), np.ones(J.shape[0])):
        assert (J @ x).tobytes() == (J.tocsc() @ x).tobytes()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", [_robin, _quasilinear, _dirichlet_energy],
                         ids=lambda c: c.__name__.strip("_"))
def test_jacobian_csr_and_csc_matvecs_agree_bit_for_bit(case, order, disk3):
    """``Factorized`` checks a solve with the CSR matrix it keeps and a
    transposed solve with that matrix's CSC transpose, and ``gmres``
    multiplies the CSR Jacobian it is given: a scipy whose two matvecs
    split would make a solve check's residual depend on the format."""
    problem, _ = case(disk3, order)
    rng = np.random.default_rng(3)
    _matvec_bits_agree(problem.jacobian(problem.u), rng)
    moved = problem.rebuilt(transported(bump_theta(), 0.04, disk3))
    _matvec_bits_agree(moved.jacobian(ScalarField(moved.space, problem.u.coefficients)), rng)


def test_transported_refine6_robin_jacobian_matvecs_agree_bit_for_bit():
    """The matrix of every refine-6 Robin re-solve, linear in u."""
    data = RobinData(M=np.diag([2.0, 1.0]), beta=parse_scalar("const 1"),
                     f=parse_scalar("const 1"), g=parse_scalar("const 0"))
    mesh = transported(bump_theta(), 0.04, gen_disk((0.0, 0.0), 1.0, 6))
    problem = RobinProblem(mesh, data)
    zero = ScalarField(problem.space, np.zeros(problem.dof_count))
    _matvec_bits_agree(problem.jacobian(zero), np.random.default_rng(6))
