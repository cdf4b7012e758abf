"""
Independent derivative oracles and convergence studies.

Everything here checks an assembled shape derivative against quantities a
skeptic can compute without trusting the assembly: finite-difference
quotients of the problem's ``resolved`` costs, the same problem on meshes
moved by T_s = id + s theta (``flow.transport_mesh``; for the manufactured
problems with the state frozen at its reference values), Taylor remainders
of pulled-back states, and the discrete duality pairing.  Reductions are
deterministic (fixed element order; direct solves on the reference mesh,
and on a transported mesh a direct solve or, for a stationary problem,
each linear or Newton step by GMRES with a fixed stop on the reference's
factors), so identical inputs reproduce tables bit for bit.  One re-solve
serves every check that needs the same (theta, s) row.
"""

import numpy as np

from .fem_core import FeSpace
from .flow import FlowDegeneracyError
from .shape_assembly import ShapeGradient, ShapeProblem, jacobian_gradient


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
    makes it relative; each clean row gets its order against the previous
    one.  ``observed_order`` is the study's one order verdict (the CLI's
    ``fd_order`` and ``taylor_order``): inf when every clean error is at
    rounding, <= 1e-13 * ``scale``; else the least-squares slope over three
    or more clean rows (NaN if an error is 0); else the smallest pair order,
    NaN when there is none.
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
        errs = self.errors()
        if errs and max(errs) <= 1e-13 * self.scale:
            return np.inf
        if len(errs) >= 3:
            try:
                return estimate_order(zip([r.s for r in self.clean_rows()], errs))
            except ValueError:
                return np.nan
        orders = self.orders()
        return float(orders.min()) if len(orders) else np.nan


class FdTable(_StudyTable):
    """Central/forward FD quotients of a cost against the assembled dJ, and
    their Neville extrapolation to s = 0 (NaN with fewer than 2 clean rows)."""

    def __init__(self, metadata, dJ, rows):
        super().__init__(metadata, rows)
        self.dJ = float(dJ)
        clean = self.clean_rows()
        self.extrapolated = np.nan if len(clean) < 2 else _extrapolate_to_zero(
            [r.s for r in clean], [r.central for r in clean])

    @property
    def extrapolated_error(self):
        return abs(self.extrapolated - self.dJ)

    @property
    def rel_gap(self):
        """The smallest clean step's error over ``scale``; NaN with no clean row."""
        errs = self.errors()
        return errs[-1] / self.scale if errs else np.nan

    @property
    def scale(self):
        return 1.0 + abs(self.dJ)

    @staticmethod
    def _error(row):
        return row.error


def _metadata(problem, theta, **extra):
    """A study table's metadata: the problem, theta and mesh, then ``extra``."""
    mesh = problem.mesh
    return {"problem": problem.name, "theta": theta.name,
            "mesh": f"{mesh.n_nodes}n{mesh.n_triangles}t", "dofs": problem.dof_count, **extra}


def step_sizes(s_list):
    """The step sizes of a study as floats; they must be finite, positive and
    strictly decreasing, as the rows' pair orders and the Neville
    extrapolation (which divides by s_i^2 - s_j^2) assume."""
    s = [float(a) for a in s_list]
    if not s or not all(0.0 < a < np.inf for a in s) or any(a <= b for a, b in zip(s, s[1:])):
        raise ValueError("studies need positive step sizes in strictly decreasing "
                         f"order, got {' '.join(map(str, s))}")
    return s


def fd_shape_check(problem, theta, s_list):
    """Difference the problem's ``resolved`` costs at +-s against its
    ``fd_value``, labelled ``fd_target`` in the table's metadata.

    The re-solves, the same problem on ``transport_mesh(theta, s, mesh)``,
    are shared with a Taylor check of the same theta.  A transport that
    inverts a triangle (``FlowDegeneracyError``) flags the row instead of
    failing the whole study.  The table also carries a Neville
    extrapolation of the clean central quotients to s = 0 (exact for
    quotients smooth in s, which the interpolation-consistent assembly
    guarantees).
    """
    s_list = step_sizes(s_list)
    dJ, j0 = problem.fd_value(theta), problem.cost()
    rows = []
    for s in s_list:
        try:
            jp = problem.resolved(theta, +s)[0]
            jm = problem.resolved(theta, -s)[0]
        except FlowDegeneracyError as exc:
            rows.append(FdRow(s, flagged=True, note=str(exc)))
            continue
        central = (jp - jm) / (2.0 * s)
        forward = (jp - j0) / s
        rows.append(FdRow(s, jp, jm, central, abs(central - dJ),
                          forward=forward, forward_error=abs(forward - dJ)))
    return FdTable(_metadata(problem, theta, target=problem.fd_target), dJ, rows)


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


def material_taylor_check(problem, theta, s_list):
    """Taylor remainder of the pulled-back state against s * udot.

    The pullback is the node correspondence of the transported mesh: dof k
    of the transported solve (a ``resolved`` row, shared with an FD check of
    the same theta) is compared at dof k of the reference mesh.
    """
    s_list = step_sizes(s_list)
    u0 = problem.u.coefficients
    udot = problem.material(theta).coefficients
    rows = []
    for s in s_list:
        try:
            us = problem.resolved(theta, s, state=True)[1]
        except FlowDegeneracyError as exc:
            rows.append(TaylorRow(s, np.nan, flagged=True, note=str(exc)))
            continue
        rows.append(TaylorRow(s, problem.state_norm(us - u0 - s * udot)))
    return TaylorTable(_metadata(problem, theta), rows)


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
    nodal-gradient path as the PDE problems, with S1 = I, whose sum over an
    element is its area times I).
    """

    name = "area"
    has_state = False

    def __init__(self, mesh, order=1):
        super().__init__(mesh, order)
        self.space = FeSpace(mesh, order=order)

    def cost(self):
        return float(np.sum(self.space.qweights))

    def _build_tensors(self):
        area = self.space.qweights.sum(axis=1)
        return ShapeGradient(S1=jacobian_gradient(self.space, area[:, None, None] * np.eye(2)))
