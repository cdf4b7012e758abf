"""The nodal shape gradient against the per-point pairing it replaced, and
against the re-solved cost in every node direction.

For every problem whose theta is its vertex interpolant, at P1 and P2, each
term of ``tensors()`` paired with theta at the nodes equals the hand-derived
per-point tensors of ``elliptic_references`` and ``parabolic_references``
paired with ``theta_samples`` (``nodal_references.pair_per_point``), to
1e-12 of the sum of the per-point contributions' magnitudes; the parabolic
``ic_pairing`` equals -(M_u q) . I_h(grad g . theta) at the dofs
(``nodal_references.pair_initial_condition``).  The same holds for g . v
over seeded random nodal directions v, one dot product each.  Every
interpolated problem pairs through ``ShapeProblem.breakdown`` alone.

The summed terms of ``tensors()`` are the gradient of the discrete cost
with respect to the node positions: in each of the 2N node directions, one
Richardson step of the central quotients of re-solved costs at h and h/2
matches its entry to 1e-10 of max|g|.  A last test bounds the memory of
the tensors and the pairing.
"""

import os
import tracemalloc

import numpy as np
import pytest

from shapegrad import cli
from shapegrad import fem_core as fem
from shapegrad.data_catalog import parse_rfunction, parse_scalar, time_matrix, time_scalar
from shapegrad.elliptic_problems import (DirichletEnergyData, DirichletEnergyProblem,
                                         QuasilinearData, QuasilinearProblem, RobinData,
                                         RobinProblem)
from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk, gen_rectangle
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem
from shapegrad.shape_assembly import ShapeProblem
from shapegrad.validation import AreaProblem

from conftest import HOLDALL, bump_theta, catalog_thetas, interpolated_samples
import elliptic_references as refs
from nodal_references import NodalTheta, pair_initial_condition, pair_per_point
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
        if isinstance(problem, ParabolicProblem):
            want["ic_pairing"] = pair_initial_condition(problem, theta.eval(mesh.nodes))
        assert {name for name, g in terms.items() if g is not None} == set(want)
        if isinstance(theta, NodalTheta):
            got = {name: fem.dot(terms[name], theta.values) for name in want}
        else:
            got = problem.breakdown(theta).terms
        for name, (value, scale) in want.items():
            assert abs(got[name] - value) <= 1e-12 * scale, (theta.name, name, got[name], value)


@pytest.mark.parametrize("cls", [RobinProblem, QuasilinearProblem, DirichletEnergyProblem,
                                 AreaProblem, ParabolicProblem], ids=lambda c: c.__name__)
def test_interpolated_problems_pair_in_one_place(cls):
    """No interpolated problem pairs a term outside its ``ShapeGradient``."""
    assert cls.breakdown is ShapeProblem.breakdown


SHIPPED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "demos", "configs")
#: the oracle's cases: a shipped config's name, or "area", and its class
NODE_CASES = {"robin-disk": RobinProblem, "quasilinear-disk": QuasilinearProblem,
              "dirichlet-energy-disk": DirichletEnergyProblem, "area": AreaProblem,
              "parabolic-j1-square": ParabolicProblem, "parabolic-j2-square": ParabolicProblem}
NODE_STEP = 1e-3


def _node_case(name, order):
    """Area on a refine-2 disk, the stationary problems on a refine-1 disk
    and the parabolic ones (nt = 16) on a 4x4 square, with shipped data."""
    cls = NODE_CASES[name]
    if cls is AreaProblem:
        return AreaProblem(gen_disk((0.0, 0.0), 1.0, 2), order)
    data = cli.RunConfig(os.path.join(SHIPPED, f"{name}.cfg")).data
    if cls is ParabolicProblem:
        assert data.nt == 16
        return ParabolicProblem(gen_rectangle(0.0, 0.0, 1.0, 1.0, 4, 4), data,
                                name.split("-")[1], order)
    return cls(gen_disk((0.0, 0.0), 1.0, 1), data, order)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", list(NODE_CASES))
def test_nodal_gradient_is_the_node_gradient_of_the_cost(name, order):
    """Entry (n, d) of the summed ``tensors()`` terms against the re-solved
    costs with node n moved by +-h and +-h/2 in coordinate d: one Richardson
    step (4 D(h/2) - D(h)) / 3 of the central quotients D, h = 1e-3.  The
    parabolic ``ic_pairing`` is part of the gradient: without it j1 misses
    by 2.0e-3 of max|g|."""
    problem = _node_case(name, order)
    mesh = problem.mesh
    g = sum(t for t in problem.tensors().terms.values() if t is not None)

    def cost(n, d, step):
        nodes = mesh.nodes.copy()
        nodes[n, d] += step
        return problem.rebuilt(mesh.with_nodes(nodes)).cost()

    fd = np.empty_like(g)
    for n in range(mesh.n_nodes):
        for d in range(2):
            D = [(cost(n, d, h) - cost(n, d, -h)) / (2.0 * h) for h in (NODE_STEP, NODE_STEP / 2)]
            fd[n, d] = (4.0 * D[1] - D[0]) / 3.0
    worst = np.abs(fd - g).max() / np.abs(g).max()
    assert worst <= 1e-10, worst


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
