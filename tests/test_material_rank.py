"""The vertex interpolant's Dtheta at the rank it has, one matrix per element.

Interpolated samples carry Dtheta, div theta and div_G theta with a point
axis of length 1, at P1 and P2.  Every problem with a material derivative
returns, from those samples, the bits of (udot, ell) built from the
per-point copies they replaced (``sample_references``), and the refine-6
Robin duality pairing stays within a memory bound those copies broke.
"""

import tracemalloc

import numpy as np
import pytest

from shapegrad.data_catalog import parse_scalar
from shapegrad.elliptic_problems import RobinData, RobinProblem
from shapegrad.fem_core import FeSpace
from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk

from conftest import HOLDALL, bump_theta, catalog_thetas, interpolated_samples
from sample_references import material_per_point
from test_nodal_gradient import _area, CASES

MATERIAL_CASES = [case for case in CASES if case is not _area]


@pytest.mark.parametrize("order", [1, 2])
def test_interpolated_jacobian_has_one_value_per_element(disk3, order):
    space = FeSpace(disk3, order=order)
    samples = interpolated_samples(space, bump_theta())
    M, B = space.qweights.shape[0], space.edge_qweights.shape[0]
    assert samples.vol_jac.shape == (M, 1, 2, 2)
    assert samples.edge_jac.shape == (B, 1, 2, 2)
    assert samples.vol_div.shape == (M, 1)
    assert samples.edge_divg.shape == (B, 1)
    assert samples.vol_val.shape == space.qpoints.shape
    assert samples.edge_val.shape == space.edge_qpoints.shape


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", MATERIAL_CASES, ids=lambda c: c.__name__.strip("_"))
def test_material_matches_per_point_samples_bit_for_bit(case, order, disk3):
    problem, _ = case(disk3, order)
    for theta in (bump_theta(), catalog_thetas()[4]):
        want_udot, want_ell = material_per_point(problem, theta)
        udot, ell = problem._material(theta)
        assert np.asarray(ell).tobytes() == np.asarray(want_ell).tobytes(), theta.name
        assert udot.coefficients.tobytes() == want_udot.coefficients.tobytes(), theta.name


def test_robin_r6_duality_pair_memory():
    """With u, p and B solved, the refine-6 Robin duality pairing peaks
    (tracemalloc) at no more than 0.6 times the 22.6 MB that the per-point
    Dtheta copies took; it read 23.7 MB with them on this problem and
    11.1 MB without, when this was written."""
    data = RobinData(M=np.diag([2.0, 1.0]), beta=parse_scalar("const 1"),
                     f=parse_scalar("const 1"), g=parse_scalar("const 0"))
    problem = RobinProblem(gen_disk((0.0, 0.0), 1.0, 6), data)
    theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=HOLDALL)
    problem.u, problem.p, problem.B
    tracemalloc.start()
    try:
        problem.duality_pair(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 22.6e6, peak
