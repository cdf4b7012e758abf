"""Shape derivative of a time-dependent tracking cost.

Implicit-Euler heat-type problem on the unit square with a time-decaying
source and an anisotropic, spatially varying diffusion matrix.  Two cost
flavors share the state: j1 integrates the misfit over all time steps, j2
only looks at the final time.  The adjoint runs backwards reusing the same
factorized step matrix, and the assembled derivative picks up an extra
breakdown term ("dt_pairing") from differentiating the time-difference
quadrature, and the interpolated initial value contributes the nodal
"ic_pairing" term; both are terms of the problem's ShapeGradient, so
tensors() is the whole derivative -- everything else is the familiar S0/S1
contraction.
"""

import numpy as np

from shapegrad.data_catalog import parse_scalar, time_matrix, time_scalar
from shapegrad.flow import make_field
from shapegrad.mesh import gen_rectangle
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem
from shapegrad.validation import duality_check, fd_shape_check

HOLDALL = np.array([[-1.5, -1.5], [1.5, 1.5]])

data = ParabolicData(
    M=time_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3"),
    f=time_scalar("sine2 1.5 1 1", "decay 0.4"),
    g=parse_scalar("linear 0.2 0.3 -0.1"),
    u_d=time_scalar("poly2 0.1 0.2 -0.1 0.3 0 0.15"),
    t0=1.0, nt=16)
mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 16, 16)
theta = make_field("bump", (1.0, 0.5, 0.5, 0.0, 0.45), support_box=HOLDALL)

for which in ("j1", "j2"):
    problem = ParabolicProblem(mesh, data, which=which)
    print(f"--- {problem.name}: {problem.dof_count} spatial dofs x "
          f"{data.nt} steps, cost {problem.cost():.8e}")

    bd = problem.breakdown(theta)
    print(f"dJ = {bd.total:+.10e}, terms:")
    for name, value in bd.terms.items():
        print(f"  {name:<11} {value:+.10e}")

    rep = duality_check(problem, theta)
    print(f"duality rel gap {rep.rel_gap:.2e}")

    table = fd_shape_check(problem, theta, (0.04, 0.02, 0.01))
    for row in table.rows:
        order = f"{row.order:.3f}" if np.isfinite(row.order) else "  -  "
        print(f"  s {row.s:<6.3f} central error {row.error:.2e}  "
              f"forward error {row.forward_error:.2e}  order {order}")
    print()
