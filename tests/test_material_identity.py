"""The material derivative method beside the Lagrangian formula.

By the chain rule the derivative of the discrete cost is
dJ = d_s J_h(u frozen) + <B, udot>.  The first term, the cost half, is the
``ShapeGradient`` of a problem that holds the solved u and a zero adjoint,
paired with theta at the nodes: a stationary problem whose
``_tensor_adjoint`` is zero, or a parabolic one whose adjoint series p is
zero, which zeroes ``dt_pairing`` and ``ic_pairing`` too.  The second is
the right-hand side of the duality pair.  So dJ minus the cost half checks
the tensors' constraint half against <B, udot>, with no step list and no
new solve, to rounding: 1e-12 of max(|dJ|, |<B, udot>|) on the shipped
configs, where the worst gap was 2.3e-14 (quasilinear-disk at P2).  A dJ
off by one part in 1e6 fails the same bound in every case.
"""

import os

import numpy as np
import pytest

from shapegrad import cli
from shapegrad.fem_core import ScalarField
from shapegrad.parabolic_problem import ParabolicProblem, TimeSeriesField

SHIPPED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "demos", "configs")
CASES = [(name, order) for name in ("robin-disk", "quasilinear-disk", "dirichlet-energy-disk")
         for order in (1, 2)]
CASES += [("parabolic-j1-square", 1), ("parabolic-j1-square", 2), ("parabolic-j2-square", 1)]
BOUND = 1e-12
SCALE = 1.0 + 1e-6


def _shipped(name, order):
    """The shipped config's problem at ``order`` and its theta."""
    cfg = cli.RunConfig(os.path.join(SHIPPED, f"{name}.cfg"))
    mesh, theta = cli.build_mesh(cfg), cli.build_theta(cfg, required=True)
    cls = cli.PROBLEM_CLASSES[cfg.get("run", "problem")]
    if cls is ParabolicProblem:
        return cls(mesh, cfg.data, name.split("-")[1], order), theta
    return cls(mesh, cfg.data, order), theta


def _cost_half(problem, theta):
    """d_s J_h with u frozen: the tensors of a fresh problem that holds the
    solved u and a zero adjoint, paired with theta at the nodes."""
    fresh = type(problem)(problem.mesh, *problem.params)
    fresh.u = problem.u
    if isinstance(problem, ParabolicProblem):
        fresh.p = TimeSeriesField(fresh.space, np.zeros_like(problem.u.values), problem.data.t0)
    else:
        zero = ScalarField(fresh.space, np.zeros(fresh.dof_count))
        fresh._tensor_adjoint = lambda: zero
    return fresh._build_tensors().pair(fresh.nodal(theta)).total


@pytest.mark.parametrize("name, order", CASES, ids=[f"{n}-p{o}" for n, o in CASES])
def test_derivative_is_cost_half_plus_material_pairing(name, order):
    """dJ - (cost half) = <B, udot> to 1e-12 of max(|dJ|, |<B, udot>|),
    and dJ scaled by 1 + 1e-6 misses the same bound."""
    problem, theta = _shipped(name, order)
    dJ = problem.derivative(theta)
    frozen = _cost_half(problem, theta)
    material = problem.duality_pair(theta)[1]

    def gap(value):
        return abs(value - frozen - material) / max(abs(value), abs(material))

    assert gap(dJ) <= BOUND, (dJ, frozen, material)
    assert gap(SCALE * dJ) > BOUND, (dJ, frozen, material)
