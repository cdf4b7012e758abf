"""
Independent derivative oracles and convergence studies.

Everything here checks an assembled shape derivative against quantities a
skeptic can compute without trusting the assembly: finite-difference
quotients of costs re-solved on transported meshes, Taylor remainders of
pulled-back states, and the discrete duality pairing.  Reductions are
deterministic (fixed element order, direct solver), so identical inputs
reproduce tables bit for bit.
"""

import numpy as np

from .fem_core import FeSpace
from .flow import FlowDegeneracyError, transport_mesh
from .shape_assembly import (ShapeProblem, ShapeTensors, cost_transport_derivative,
                             cost_transport_value)


def estimate_order(errors):
    """Least-squares slope of log(error) against log(step).

    ``errors`` is a sequence of (step, error) pairs; at least three rows
    with strictly positive entries are required.
    """
    rows = [(float(s), float(e)) for s, e in errors]
    if len(rows) < 3:
        raise ValueError(f"order estimate needs at least 3 rows, got {len(rows)}")
    if any(s <= 0.0 or e <= 0.0 for s, e in rows):
        raise ValueError("order estimate needs positive steps and errors")
    ls = np.log([s for s, _ in rows])
    le = np.log([e for _, e in rows])
    return float(np.polyfit(ls, le, 1)[0])


def _pair_order(s_prev, e_prev, s, e):
    if e_prev <= 0.0 or e <= 0.0 or s_prev <= s or s <= 0.0:
        return np.nan
    return float(np.log(e_prev / e) / np.log(s_prev / s))


class FdRow:
    """One finite-difference row; ``flagged`` marks a degenerate transport."""

    def __init__(self, s, j_plus=np.nan, j_minus=np.nan, central=np.nan,
                 error=np.nan, order=np.nan, forward=np.nan,
                 forward_error=np.nan, flagged=False, note=""):
        self.s = float(s)
        self.j_plus = float(j_plus)
        self.j_minus = float(j_minus)
        self.central = float(central)
        self.error = float(error)
        self.order = float(order)
        self.forward = float(forward)
        self.forward_error = float(forward_error)
        self.flagged = bool(flagged)
        self.note = note


def _extrapolate_to_zero(s, q):
    """Neville extrapolation of central quotients q(s) = dJ + c2 s^2 + ... ,
    polynomial in s^2, to s = 0."""
    x = np.asarray(s, dtype=float) ** 2
    T = [list(np.asarray(q, dtype=float))]
    n = len(x)
    for level in range(1, n):
        prev = T[-1]
        cur = []
        for i in range(n - level):
            num = x[i] * prev[i + 1] - x[i + level] * prev[i]
            cur.append(num / (x[i] - x[i + level]))
        T.append(cur)
    return float(T[-1][0])


class _StudyTable:
    """Rows of a convergence study in decreasing s; flagged rows are degenerate.

    A subclass names the row's error (``_error``) and the ``scale`` that
    makes it relative; each clean row gets its order against the previous one.
    """

    scale = 1.0

    def __init__(self, metadata, rows):
        self.metadata = dict(metadata)
        self.rows = list(rows)
        clean = self.clean_rows()
        for prev, row in zip(clean, clean[1:]):
            row.order = _pair_order(prev.s, self._error(prev), row.s, self._error(row))

    def clean_rows(self):
        return [r for r in self.rows if not r.flagged]

    def errors(self):
        return [self._error(r) for r in self.clean_rows()]

    def orders(self):
        return np.array([r.order for r in self.clean_rows()[1:]])

    def observed_order(self):
        return estimate_order(zip([r.s for r in self.clean_rows()], self.errors()))


class FdTable(_StudyTable):
    """Central/forward FD quotients of a cost against the assembled dJ."""

    def __init__(self, metadata, dJ, rows, extrapolated=np.nan):
        super().__init__(metadata, rows)
        self.dJ = float(dJ)
        self.extrapolated = float(extrapolated)

    @property
    def extrapolated_error(self):
        return abs(self.extrapolated - self.dJ)

    @property
    def scale(self):
        return 1.0 + abs(self.dJ)

    @staticmethod
    def _error(row):
        return row.error


def _mesh_id(mesh):
    return f"{mesh.n_nodes}n{mesh.n_triangles}t"


def step_sizes(s_list):
    """The step sizes of a study as floats; they must be finite, positive and
    strictly decreasing, as the rows' pair orders and the Neville
    extrapolation (which divides by s_i^2 - s_j^2) assume."""
    s = [float(a) for a in s_list]
    if not s or not all(0.0 < a < np.inf for a in s) or any(a <= b for a, b in zip(s, s[1:])):
        raise ValueError("studies need positive step sizes in strictly decreasing "
                         f"order, got {' '.join(map(str, s))}")
    return s


def _build_fd_table(dJ, j0, evaluate, s_list, metadata):
    """Shared FD-row construction: ``evaluate(s)`` returns the cost at s
    and may raise FlowDegeneracyError, which flags the row."""
    s_list = step_sizes(s_list)
    rows = []
    for s in s_list:
        try:
            jp = evaluate(+s)
            jm = evaluate(-s)
        except FlowDegeneracyError as exc:
            rows.append(FdRow(s, flagged=True, note=str(exc)))
            continue
        central = (jp - jm) / (2.0 * s)
        forward = (jp - j0) / s
        rows.append(FdRow(s, jp, jm, central, abs(central - dJ),
                          forward=forward, forward_error=abs(forward - dJ)))
    clean = [r for r in rows if not r.flagged]
    extrapolated = np.nan
    if len(clean) >= 2:
        extrapolated = _extrapolate_to_zero([r.s for r in clean],
                                            [r.central for r in clean])
    return FdTable(metadata, dJ, rows, extrapolated)


def fd_shape_check(problem, theta, s_list, steps=32):
    """Transport the mesh by +-s, re-solve, and difference the costs.

    A transport that inverts a triangle flags the row instead of failing
    the whole study.  The table also carries a Neville extrapolation of
    the clean central quotients to s = 0 (exact for quotients smooth in
    s, which the interpolation-consistent assembly guarantees).
    """
    def evaluate(s):
        return problem.rebuilt(transport_mesh(theta, s, problem.mesh, steps=steps)).cost()

    meta = {"problem": problem.name, "theta": theta.name,
            "mesh": _mesh_id(problem.mesh), "dofs": problem.dof_count,
            "target": "dJ"}
    return _build_fd_table(problem.derivative(theta), problem.cost(),
                           evaluate, s_list, meta)


def fd_transport_check(problem, theta, s_list, steps=32):
    """FD check of the frozen-composition cost transport derivative of a
    manufactured ``problem``.

    The quadrature points themselves are advected (the state factor is
    held at its reference composition), so this validates the geometric
    part d/ds of int F(T_s(x), u(x)) xi(s) on its own.
    """
    fields, space = problem.fields, problem.space
    dJ = cost_transport_derivative(fields, space, theta)

    def evaluate(s):
        return cost_transport_value(fields, space, theta, s, steps=steps)

    meta = {"problem": problem.name, "theta": theta.name,
            "mesh": _mesh_id(problem.mesh), "dofs": problem.dof_count,
            "target": "transport_cost"}
    return _build_fd_table(dJ, evaluate(0.0), evaluate, s_list, meta)


class TaylorRow:
    def __init__(self, s, remainder, order=np.nan, flagged=False, note=""):
        self.s = float(s)
        self.remainder = float(remainder)
        self.order = float(order)
        self.flagged = bool(flagged)
        self.note = note


class TaylorTable(_StudyTable):
    @staticmethod
    def _error(row):
        return row.remainder


def material_taylor_check(problem, theta, s_list, steps=32):
    """Taylor remainder of the pulled-back state against s * udot.

    The pullback is the node correspondence of the transported mesh: dof k
    of the transported solve is compared at dof k of the reference mesh.
    """
    s_list = step_sizes(s_list)
    u0 = problem.u.coefficients
    udot = problem.material(theta).coefficients
    rows = []
    for s in s_list:
        try:
            us = problem.rebuilt(transport_mesh(theta, s, problem.mesh, steps=steps)).u.coefficients
        except FlowDegeneracyError as exc:
            rows.append(TaylorRow(s, np.nan, flagged=True, note=str(exc)))
            continue
        rows.append(TaylorRow(s, problem.state_norm(us - u0 - s * udot)))
    meta = {"problem": problem.name, "theta": theta.name,
            "mesh": _mesh_id(problem.mesh), "dofs": problem.dof_count}
    return TaylorTable(meta, rows)


class DualityReport:
    """The two sides of <L(u), p> = <B(u), udot> and their gap."""

    def __init__(self, lhs, rhs):
        self.lhs = float(lhs)
        self.rhs = float(rhs)

    @property
    def abs_gap(self):
        return abs(self.lhs - self.rhs)

    @property
    def rel_gap(self):
        return self.abs_gap / (1.0 + abs(self.lhs))


def duality_check(problem, theta):
    return DualityReport(*problem.duality_pair(theta))


class AreaProblem(ShapeProblem):
    """Pure-geometry cost J = |Omega|: dJ = int div(theta).

    No PDE is involved; this is the gating check for the transport and
    assembly plumbing (the derivative is assembled through the same
    tensor path as the PDE problems, with S1 = I).
    """

    name = "area"
    has_state = False

    def __init__(self, mesh, order=1):
        super().__init__(mesh, order)
        self.space = FeSpace(mesh, order=order)

    def cost(self):
        return float(np.sum(self.space.qweights))

    def _build_tensors(self):
        eye = np.broadcast_to(np.eye(2), self.space.qweights.shape + (2, 2)).copy()
        return ShapeTensors(self.space, S1=eye)
