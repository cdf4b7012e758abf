"""A re-solve row holds only what it returns.

The first FD row of a refine-6 Robin validate, the state re-solved on the
mesh moved by 0.04 theta, stays within a memory bound above what the
solved reference keeps; and after a duality check a problem keeps no theta
samples, only the (udot, ell) that they gave.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from shapegrad import shape_assembly
from shapegrad.data_catalog import parse_scalar
from shapegrad.elliptic_problems import RobinData, RobinProblem
from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk
from shapegrad.validation import duality_check

from conftest import HOLDALL, bump_theta
from test_material_rank import MATERIAL_CASES


def test_robin_r6_resolved_row_memory():
    """With u solved and theta's nodal values taken, ``resolved(theta, 0.04)``
    peaks (tracemalloc) at no more than 0.9 times 13.0 MiB, its peak while
    the Jacobian built the unread source b and the P1 stiffness and the
    quadrature points formed full-size temporaries; it read 10.5 MiB
    without them, when this was written."""
    data = RobinData(M=np.diag([2.0, 1.0]), beta=parse_scalar("const 1"),
                     f=parse_scalar("const 1"), g=parse_scalar("const 0"))
    problem = RobinProblem(gen_disk((0.0, 0.0), 1.0, 6), data)
    theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=HOLDALL)
    problem.u, problem.nodal(theta)
    tracemalloc.start()
    try:
        problem.resolved(theta, 0.04)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.9 * 13.0 * 2 ** 20, peak


@pytest.mark.parametrize("case", MATERIAL_CASES, ids=lambda c: c.__name__.strip("_"))
def test_duality_check_keeps_no_theta_samples(case, disk3, monkeypatch):
    """The material solve builds theta's samples once and drops them with
    its return."""
    problem, _ = case(disk3, 1)
    built = []
    build = shape_assembly.theta_samples

    def recording(space, nodal):
        samples = build(space, nodal)
        built.append(weakref.ref(samples))
        return samples

    monkeypatch.setattr(shape_assembly, "theta_samples", recording)
    duality_check(problem, bump_theta())
    assert len(built) == 1
    assert built[0]() is None
