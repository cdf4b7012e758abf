"""The nodal shape gradient against the per-point pairing it replaced.

For every problem whose theta is its vertex interpolant, at P1 and P2, each
term of ``tensors()`` paired with theta at the nodes equals the hand-derived
per-point tensors of ``elliptic_references`` and ``parabolic_references``
paired with ``theta_samples`` (``nodal_references.pair_per_point``), to
1e-12 of the sum of the per-point contributions' magnitudes.  The same
holds for g . v over seeded random nodal directions v, one dot product
each.  A last test bounds the memory of the tensors and the pairing.
"""

import tracemalloc

import numpy as np
import pytest

from shapegrad import fem_core as fem
from shapegrad.data_catalog import parse_rfunction, parse_scalar, time_matrix, time_scalar
from shapegrad.elliptic_problems import (DirichletEnergyData, DirichletEnergyProblem,
                                         QuasilinearData, QuasilinearProblem, RobinData,
                                         RobinProblem)
from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk, gen_rectangle
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem
from shapegrad.validation import AreaProblem

from conftest import HOLDALL, bump_theta, catalog_thetas, interpolated_samples
import elliptic_references as refs
from nodal_references import NodalTheta, pair_per_point
from parabolic_references import shape_tensors_per_step

RANDOM_DIRECTIONS = 8


def _robin(mesh, order):
    data = RobinData(M=np.array([[2.0, 0.3], [0.3, 1.0]]),
                     beta=parse_scalar("gauss 1.5 0.3 -0.2 0.6"),
                     f=parse_scalar("poly2 1 0.2 -0.3 0.5 0.1 -0.2"),
                     g=parse_scalar("sine2 0.7 1 0.5"))
    problem = RobinProblem(mesh, data, order)
    t = refs.robin_shape_tensors(data, problem.u, problem.p)
    return problem, dict(S0=t.S0, S1=t.S1, S0_gamma=t.S0_gamma, S1_gamma=t.S1_gamma)


def _quasilinear(mesh, order):
    data = QuasilinearData(m=parse_rfunction("saturating_sine 0.25"),
                           f=parse_rfunction("affine_r 1 0.1"),
                           g=parse_scalar("gauss 2 0.2 0.1 0.5"),
                           u_d=parse_scalar("poly2 0.1 0.3 -0.2 0.2 0.1 0.1"),
                           c1=0.7, c3=3.5)
    problem = QuasilinearProblem(mesh, data, order)
    t = refs.quasilinear_shape_tensors(data, problem.u, problem.p)
    return problem, dict(S0=t.S0, S1=t.S1)


def _dirichlet_energy(mesh, order):
    data = DirichletEnergyData(f=parse_scalar("linear 1 0.5 -0.3"))
    problem = DirichletEnergyProblem(mesh, data, order)
    t = refs.dirichlet_energy_tensors(data, problem.u)
    return problem, dict(S0=t.S0, S1=t.S1)


def _area(mesh, order):
    problem = AreaProblem(mesh, order)
    eye = np.broadcast_to(np.eye(2), problem.space.qweights.shape + (2, 2))
    return problem, dict(S1=eye)


def _parabolic(which):
    def case(mesh, order):
        data = ParabolicData(
            M=time_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3", "ramp 0.5"),
            f=time_scalar("sine2 1.5 1 1", "decay 0.4"), g=parse_scalar("sine2 1 1 1"),
            u_d=time_scalar("poly2 0.1 0.2 -0.1 0.3 0 0.15", "decay 0.3"), nt=5)
        problem = ParabolicProblem(gen_rectangle(0.0, 0.0, 1.0, 1.0, 6, 6), data, which, order)
        S0, S1, dtp = shape_tensors_per_step(problem)
        return problem, dict(S0=S0, S1=S1, dt_density=dtp)
    case.__name__ = f"_parabolic_{which}"
    return case


CASES = [_robin, _quasilinear, _dirichlet_energy, _area, _parabolic("j1"), _parabolic("j2")]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__.strip("_"))
def test_nodal_gradient_matches_per_point_pairing(case, order, disk3):
    problem, tensors = case(disk3, order)
    space, mesh = problem.space, problem.mesh
    terms = problem.tensors().terms
    assert terms["S2"] is None
    rng = np.random.default_rng(20151)
    directions = [NodalTheta(mesh, rng.standard_normal((mesh.n_nodes, 2)))
                  for _ in range(RANDOM_DIRECTIONS)]
    for theta in [bump_theta(), catalog_thetas()[4]] + directions:
        want = pair_per_point(space, interpolated_samples(space, theta), **tensors)
        assert {name for name, g in terms.items() if g is not None} == set(want)
        if isinstance(theta, NodalTheta):
            got = {name: fem.dot(terms[name], theta.values) for name in want}
        else:
            got = problem.breakdown(theta).terms
        for name, (value, scale) in want.items():
            assert abs(got[name] - value) <= 1e-12 * scale, (theta.name, name, got[name], value)


def test_robin_r6_tensors_and_pairing_memory():
    """With u and p solved, the refine-6 Robin tensors() and breakdown()
    peak at no more than half the 27.6 MB (tracemalloc) that the per-point
    tensors and theta samples took: 11.5 MB when this was written."""
    data = RobinData(M=np.diag([2.0, 1.0]), beta=parse_scalar("const 1"),
                     f=parse_scalar("const 1"), g=parse_scalar("const 0"))
    problem = RobinProblem(gen_disk((0.0, 0.0), 1.0, 6), data)
    theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=HOLDALL)
    problem.u, problem.p
    tracemalloc.start()
    try:
        problem.breakdown(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 27.56e6, peak
