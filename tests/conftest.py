"""Shared fixtures: meshes and the reference velocity-field collection."""

import numpy as np
import pytest

from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk, gen_rectangle

# Hold-all for the unit disk: its plateau [-1.05, 1.05]^2 covers the disk,
# so the cutoff's factor is exactly 1.0 on the mesh while the fields still
# vanish on the box.
HOLDALL = np.array([[-1.5, -1.5], [1.5, 1.5]])

THETA_SPECS = [
    ("constant", (0.4, -0.3)),
    ("linear", (0.3, -0.2, 0.1, -0.4, 0.05, 0.1)),
    ("rotation", (0.7, 0.1, -0.2)),
    ("bump", (0.5, 0.3, -0.2, 0.1, 0.9)),
    ("tensor_bump", (0.4, -0.5, 0.0, 0.1, 0.8, 1.0)),
    # the coefficients the prop5/prop6 manufactured configs ship
    ("poly2", (0.3, -0.2, 0.1, 0.15, -0.1, 0.2, 0.05, -0.15, 0.1, 0.2, -0.05, 0.1)),
]


def catalog_thetas(box=HOLDALL):
    return [make_field(name, params, support_box=box) for name, params in THETA_SPECS]


def bump_theta(box=HOLDALL, amp=(0.5, 0.3)):
    return make_field("bump", (amp[0], amp[1], -0.2, 0.1, 0.9), support_box=box)


@pytest.fixture(scope="session")
def disk3():
    return gen_disk((0.0, 0.0), 1.0, 3)


@pytest.fixture(scope="session")
def disk4():
    return gen_disk((0.0, 0.0), 1.0, 4)


@pytest.fixture(scope="session")
def disk5():
    return gen_disk((0.0, 0.0), 1.0, 5)


@pytest.fixture(scope="session")
def rect_unit():
    return gen_rectangle(0.0, 0.0, 1.0, 1.0, 12, 12)
