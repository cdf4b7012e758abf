"""Closed-form cross-checks of the tensor assembly.

Two manufactured examples with analytic state and adjoint: a tracking-type
functional and a Hessian-squared functional whose derivative needs the
third-order tensor slot (contracted against D^2 theta).  For both, the
grouped tensor representation must reproduce the un-grouped derivative
display to machine precision -- same quadrature, same fields, just a
different bracketing of the integrand.  There is nothing to re-solve here,
which makes this the sharpest available test of the assembly itself.
"""

import numpy as np

from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk
from shapegrad.shape_assembly import ManufacturedProblem
from shapegrad.validation import fd_shape_check

HOLDALL = np.array([[-1.5, -1.5], [1.5, 1.5]])

THETAS = [
    ("constant", (0.4, -0.3)),
    ("linear", (0.3, -0.2, 0.1, -0.4, 0.05, 0.1)),
    ("rotation", (0.7, 0.1, -0.2)),
    ("bump", (0.5, 0.3, -0.2, 0.1, 0.9)),
    ("tensor_bump", (0.4, -0.5, 0.0, 0.1, 0.8, 1.0)),
]

mesh = gen_disk((0.0, 0.0), 1.0, 4)
for variant in ("prop5", "prop6"):
    problem = ManufacturedProblem(mesh, variant=variant)
    print(f"--- {problem.name}")
    for name, params in THETAS:
        theta = make_field(name, params, support_box=HOLDALL)
        gap = problem.dual_form_gap(theta)
        print(f"  theta = {name:<12} dJ {problem.derivative(theta):+.10e}  "
              f"tensor-vs-raw gap {gap:.2e}")

# The tracking example's FD rows are the problem on meshes transported node
# by node, carrying the state's values at the reference quadrature points
# as a finite-element state carries its dofs.  Nothing is re-solved, so its
# FD checks the geometric part of dJ against theta's nodal interpolant alone.
prop5 = ManufacturedProblem(mesh, variant="prop5")
theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=HOLDALL)
table = fd_shape_check(prop5, theta, (0.02, 0.01, 0.005))
print("\ntransport-cost FD (tracking example):")
for row in table.rows:
    order = f"{row.order:.3f}" if np.isfinite(row.order) else "  -  "
    print(f"  s {row.s:<6.3f} error {row.error:.2e}  order {order}")
print(f"observed order {table.observed_order():.3f}")
