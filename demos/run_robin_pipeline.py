"""Full elliptic pipeline on one example: Robin problem on the disk.

The chain is: solve the state, solve the adjoint, assemble the distributed
shape tensors, contract them with a velocity field, and then distrust the
whole thing and check it three independent ways -- duality of the material
derivative against the adjoint, a Taylor remainder for the material
derivative itself, and finite differences of re-solved costs on transported
meshes.
"""

import numpy as np

from shapegrad.data_catalog import parse_scalar
from shapegrad.elliptic_problems import RobinData, RobinProblem
from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk
from shapegrad.validation import (duality_check, fd_shape_check,
                                  material_taylor_check)

HOLDALL = np.array([[-1.5, -1.5], [1.5, 1.5]])

# -div(M grad u) = f in the disk, M grad u . n + beta u = g on the boundary;
# cost is the Dirichlet energy 1/2 int |grad u|^2.
data = RobinData(M=np.diag([2.0, 1.0]), beta=parse_scalar("const 1"),
                 f=parse_scalar("const 1"), g=parse_scalar("const 0"))
mesh = gen_disk((0.0, 0.0), 1.0, 5)
problem = RobinProblem(mesh, data)
print(f"{problem.dof_count} dofs, cost J = {problem.cost():.10e}")

theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8), support_box=HOLDALL)
bd = problem.breakdown(theta)
print(f"\nassembled dJ = {bd.total:+.10e}, split by tensor slot:")
for name, value in bd.terms.items():
    print(f"  {name:<10} {value:+.10e}")

# Check 1: <L(u), p> must equal <B(u), udot>.  This is exact at the
# discrete level (the adjoint matrix is the transpose), so the gap is
# solver roundoff, many orders below the 1e-9 gate.
rep = duality_check(problem, theta)
print(f"\nduality: lhs {rep.lhs:+.6e}  rhs {rep.rhs:+.6e}  "
      f"rel gap {rep.rel_gap:.2e}")

# Check 2: pull the state solved on the transported mesh back by node
# correspondence; u^s - u - s*udot should shrink at second order.
ttable = material_taylor_check(problem, theta, (0.16, 0.08, 0.04))
print("\nmaterial Taylor remainders:")
for row in ttable.rows:
    order = f"{row.order:.3f}" if np.isfinite(row.order) else "  -  "
    print(f"  s {row.s:<6.3f} remainder {row.remainder:.3e}  order {order}")

# Check 3: central differences of re-solved costs.
table = fd_shape_check(problem, theta, (0.04, 0.02, 0.01))
print("\nfinite differences of the re-solved cost:")
for row in table.rows:
    order = f"{row.order:.3f}" if np.isfinite(row.order) else "  -  "
    print(f"  s {row.s:<6.3f} quotient {row.central:+.10e}  "
          f"error {row.error:.2e}  order {order}")
print(f"relative gap at the smallest step: {table.rel_gap:.2e}")
