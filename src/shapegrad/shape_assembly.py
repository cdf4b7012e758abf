"""
Volume/boundary shape-derivative assembly from tensor representations,
and the one Lagrangian kernel every PDE problem derives its tensors from.

A shape derivative is given by the tensors S0 (vector), S1 (matrix), S2
(third order) plus boundary tensors S0_G, S1_G, and evaluated against a
velocity field theta as

    dJ(theta) = int S0.theta + S1 : Dtheta + S2 ::: D2theta
              + int_G S0_G.theta + S1_G : Dtheta

(a tangential pairing S1_G : D_G theta is the full one of S1_G (I - n x n)).
Every problem but the manufactured ones pairs with theta's vertex
interpolant, at P1 and P2 alike: theta at the mesh nodes interpolated with
the piecewise-affine geometry map.  Dtheta is constant on an element, and
on a boundary edge it is the owning element's, so the edge's tangential
pairing is its stretch rate.  This matches, exactly, the s-derivative of
any quantity assembled on the transported mesh whose nodes move with
theta, which is what makes the finite-difference validation quotients
converge cleanly to the assembled value.  The interpolant has no second
derivative, so there is no S2 term, and dJ is a linear form in theta's
nodal values:

    dJ(theta) = sum_n g_n . theta(x_n),

a ``ShapeGradient`` with one (N, 2) nodal gradient g per term.  The nodal
gradients are ``fem_core``'s P1 assemblies: a term paired with theta at
the points (S0, S0_G) is loaded against the points' barycentric weights
(``fem_core.assemble_vertex_load``); one paired with Dtheta (S1, S1_G) is
summed over each element's (edge's) points and contracted with the
barycentric gradients of the element (the edge's owner)
(``fem_core.assemble_vertex_grad_load``).  No per-point tensor is formed:
the kernel forms these sums.

So theta enters the interpolated pipeline once, as its values at the
nodes (``ShapeProblem.nodal``): dJ pairs them, ``theta_samples`` builds
the material samples from them, and ``flow.transport_mesh`` moves the mesh
by s times them.  The manufactured problems pair per-point
``ShapeTensors`` with ``analytic_samples``, theta, Dtheta and D2theta from
the field's closures at the quadrature points, in ``assemble_dJ``.

``ThetaSamples`` holds theta and Dtheta at the volume and edge quadrature
points, and D2theta or None, and derives from Dtheta ``vol_div`` = tr
Dtheta and ``edge_divg`` = tr Dtheta - (Dtheta n) . n, which the material
right-hand sides read.  The vertex interpolant's Dtheta is stored at the
rank it has, with a point axis of length 1: one matrix per element and, on
an edge, its owner's, as ``FeSpace.grads`` stores the P1 gradients.  The
rates built from it broadcast that axis against their other factors, so a
constant A gives one flux rate per element.

One Lagrangian kernel
---------------------
Every PDE here has a flux linear in grad u, a = A(x, u) grad u, and a
source b(x, u), so its Lagrangian density at a quadrature point is

    G = F + A : T + p_b b

with the cost part F(x, u, grad u), the pairing matrix T (T = grad p x
grad u and p_b = p for a stationary problem; time sums of the snapshots
for the parabolic one).  With the partials F_x, F_gu (d/d grad u), b_x and
DA[i, j, k] = d A_ij / d x_k, ``lagrangian_tensors`` gives the nodal
gradients of

    S0 = F_x + DA : T + p_b b_x,       (DA : T)_k = DA_ijk T_ij,
    S1 = G I - T^T A - T A^T - grad u x F_gu,

and the material right-hand side L(u) psi, the s-derivative of the
transported p-linear part with p replaced by psi, is

    int R grad u . grad psi + (b div theta + b_x . theta) psi,
    R = div theta A - Dtheta A - A Dtheta^T + DA theta

(``flux_rate`` and ``source_rate``).  A partial that is zero is None.
The distributed form follows Laurain and Sturm, ESAIM: M2AN 50(4), 2016,
and the Lagrangian of Sturm, SIAM J. Control Optim. 53(4), 2015.
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import fem_core as fem
from . import tensor_calc as tc
from .data_catalog import parse_scalar
from .fem_core import FeSpace
from .flow import transport_mesh


class ThetaSamples:
    """Velocity samples at the volume and boundary quadrature points of a
    space, and the divergences derived from Dtheta (see module docstring)."""

    def __init__(self, space, vol_val, vol_jac, vol_hess, edge_val, edge_jac):
        self.vol_val = vol_val          # (M, nq, 2)
        self.vol_jac = vol_jac          # (M, nq, 2, 2); interpolated (M, 1, 2, 2)
        self.vol_hess = vol_hess        # (M, nq, 2, 2, 2) or None
        self.edge_val = edge_val        # (B, nqe, 2)
        self.edge_jac = edge_jac        # (B, nqe, 2, 2); interpolated (B, 1, 2, 2)
        # vol_div (M, nq) and edge_divg (B, nqe), or (M, 1) and (B, 1) interpolated
        self.vol_div = np.einsum('mqii->mq', vol_jac)
        n = space.edge_normal
        jn = np.einsum('bqij,bj->bqi', edge_jac, n)
        self.edge_divg = np.einsum('bqii->bq', edge_jac) - np.einsum('bqi,bi->bq', jn, n)


def theta_samples(space, nodal):
    """The samples of theta's vertex interpolant on the quadrature skeleton
    of ``space``, from theta's values ``nodal`` (N, 2) at the mesh nodes (see
    the module docstring): Dtheta is one matrix per element, ``vol_jac``
    (M, 1, 2, 2), and ``edge_jac`` is the owner's, (B, 1, 2, 2), so
    ``vol_div`` and ``edge_divg`` are (M, 1) and (B, 1); theta itself is
    interpolated at every point.

    Both volume sets run over the element axis, with the corner values
    gathered as (2, 3, M): ``fem_core.corner_interpolate`` for theta, and
    Dtheta_ij = D_i0 invJ_0j + D_i1 invJ_1j, then ``+= 0.0``, for the edge
    vectors D_ia = theta_i(x_{a+1}) - theta_i(x_0): the bits of the einsums
    'qk,mkd->mqd' and 'mia,mja->mij' over trailing axes, in about a quarter
    of the time.
    """
    mesh = space.mesh
    tv = np.take(nodal.T, mesh.triangles.T, axis=1)      # (2, 3, M)
    vol_val = fem.corner_interpolate(tv, space.vertex_basis)
    D = tv[:, 1:] - tv[:, :1]                            # D[i, a] (M,)
    invJT = space.invJT
    jac = np.empty(invJT.shape)
    t = np.empty(len(jac))
    for i in range(2):
        for j in range(2):
            np.multiply(D[i, 0], invJT[:, j, 0], out=jac[:, i, j])
            np.multiply(D[i, 1], invJT[:, j, 1], out=t)
            jac[:, i, j] += t
    jac += 0.0
    vol_jac = jac[:, None]

    be = mesh.boundary_edges
    ta = nodal[be[:, 0]]
    tb = nodal[be[:, 1]]
    ends = space.vertex_edge_basis                       # [1 - t, t]
    edge_val = ta[:, None, :] * ends[None, :, 0, None] + tb[:, None, :] * ends[None, :, 1, None]
    # the owning triangle's Dtheta: along the edge it gives the nodal rate
    return ThetaSamples(space, vol_val, vol_jac, None, edge_val, vol_jac[space.edge_owner])


def analytic_samples(space, theta):
    """theta, Dtheta and D2theta from the field's closures at every volume
    and edge quadrature point of ``space``."""
    return ThetaSamples(space, theta.eval(space.qpoints), theta.jac(space.qpoints),
                        theta.hess(space.qpoints), theta.eval(space.edge_qpoints),
                        theta.jac(space.edge_qpoints))


def material_tensor_rate(M, samples):
    """s-derivative at 0 of the transported diffusion tensor xi DT^-1 M DT^-T.

    Pointwise ``div(theta) M - Dtheta M - M Dtheta^T`` at the volume
    quadrature points; ``M`` is a constant (2, 2) matrix or an array of
    per-point values that broadcasts against ``samples.vol_jac``.  The rate
    has the broadcast shape of the two: with an interpolated Dtheta, one
    per element (point axis of length 1), a constant M gives one rate per
    element and a per-point M one per point.
    """
    J = samples.vol_jac
    return samples.vol_div[..., None, None] * M \
        - tc.matmul2(J, M) - tc.matmul2(M, np.swapaxes(J, -1, -2))


def _sum(*terms):
    """Sum of the terms that are not None, left to right."""
    terms = [t for t in terms if t is not None]
    return sum(terms[1:], terms[0])


def flux_rate(A, DA, samples):
    """s-derivative at 0 of the transported flux matrix xi DT^-1 A(T_s) DT^-T:
    R = div(theta) A - Dtheta A - A Dtheta^T + DA theta."""
    R = material_tensor_rate(A, samples)
    return R if DA is None else R + tc.matvec3(DA, samples.vol_val)


def source_rate(b, b_x, samples):
    """s-derivative at 0 of the transported source xi b(T_s): b div(theta) + b_x . theta."""
    return b * samples.vol_div + tc.inner(b_x, samples.vol_val)


def lagrangian_tensors(space, T, A, DA, p_b, b, b_x, F, F_x, F_gu=None, grad_u=None):
    """Nodal gradients (g_S0, g_S1) of the volume tensors of the density
    G = F + A : T + p_b b, S0 = F_x + DA : T + p_b b_x and
    S1 = G I - T^T A - T A^T - grad u x F_gu (see the module docstring).

    Every argument is given at the volume quadrature points, with a point
    axis of length nq or of length 1 for a factor constant on each element
    (at P1: grad u, T and a cost of grad u alone); ``A`` may also be a
    constant (2, 2) matrix, and a partial that is zero is None.  S1 pairs
    with the element's Dtheta, so only its weighted sum over each element's
    points is formed, entry by entry: an element-constant factor multiplies
    the point sum of the other.  S0 pairs with theta at the points; it is
    formed one coordinate at a time and loaded against the barycentric
    weights.  The nodal gradients are ``fem_core``'s P1 assemblies
    (``assemble_vertex_load``, ``assemble_vertex_grad_load``).  The
    contractions are written out over the two coordinates.
    """
    w = space.qweights
    area = w.sum(axis=1)

    def wsum(X):
        """sum_q w_q X_q on each element."""
        return area * X[:, 0] if X.shape[1] == 1 else (w * X).sum(axis=1)

    def wprod(X, Y):
        """sum_q w_q X_q Y_q on each element, an element-constant factor taken out."""
        if X.shape[1] == 1:
            return X[:, 0] * wsum(Y)
        if Y.shape[1] == 1:
            return wsum(X) * Y[:, 0]
        return wsum(X * Y)

    A = np.asarray(A)
    if A.ndim == 2:
        A = A[None, None]
    G = wsum(F) + wprod(p_b, b)
    for i in range(2):
        for j in range(2):
            G += wprod(A[..., i, j], T[..., i, j])
    S1 = np.empty((len(w), 2, 2))
    for i in range(2):
        for j in range(2):
            s = -(wprod(T[..., 0, i], A[..., 0, j]) + wprod(T[..., 1, i], A[..., 1, j])
                  + wprod(T[..., i, 0], A[..., j, 0]) + wprod(T[..., i, 1], A[..., j, 1]))
            if F_gu is not None:
                s -= wprod(grad_u[..., i], F_gu[..., j])
            S1[:, i, j] = s + G if i == j else s

    def S0(i):
        """Coordinate i of S0 at the points."""
        DAT = None if DA is None else \
            DA[..., 0, 0, i] * T[..., 0, 0] + DA[..., 0, 1, i] * T[..., 0, 1] \
            + DA[..., 1, 0, i] * T[..., 1, 0] + DA[..., 1, 1, i] * T[..., 1, 1]
        return _sum(None if F_x is None else F_x[..., i],
                    None if b_x is None else p_b * b_x[..., i], DAT)

    g0 = None
    if not (F_x is None and b_x is None and DA is None):
        # one coordinate alive at a time
        g0 = fem.assemble_vertex_load(space, (S0(i) for i in range(2)))
    return g0, fem.assemble_vertex_grad_load(space, S1)


class ShapeGradient:
    """A shape derivative paired with the vertex interpolant of theta, as
    one (N, 2) nodal gradient per term: dJ(theta) = sum_n g_n . theta(x_n).

    The terms are S0, S1, S0_gamma, S1_gamma and any ``more`` (the parabolic
    ``dt_pairing`` and ``ic_pairing``); a None term contributes zero, and S2
    is always None, as the interpolant has no second derivative.  S0,
    S0_gamma and ``ic_pairing`` pair with theta.  Every other term pairs
    with Dtheta, so its g sums to zero over the nodes and it pairs with
    theta - theta(x_r) instead, the same number, at the node x_r of smallest
    |theta|_1: a translation then pairs to exactly zero, and the shift adds
    at most eps sum|g| min|theta| of rounding (none for a theta that is zero
    at some node).
    """

    def __init__(self, S0=None, S1=None, S0_gamma=None, S1_gamma=None, **more):
        self.terms = {"S0": S0, "S1": S1, "S2": None, "S0_gamma": S0_gamma,
                      "S1_gamma": S1_gamma, **more}

    def pair(self, nodal):
        """The ``AssembledDerivative`` of theta given by its values at the
        mesh nodes, each term g . theta(nodes)."""
        shifted = nodal - nodal[np.argmin(np.abs(nodal).sum(axis=1))]
        return AssembledDerivative({
            name: 0.0 if g is None
            else fem.dot(g, nodal if name in ("S0", "S0_gamma", "ic_pairing") else shifted)
            for name, g in self.terms.items()})


class ShapeTensors:
    """Quadrature-point values of a distributed shape derivative, paired with
    analytic theta samples by ``assemble_dJ``.

    Any of the tensors may be None (a missing term contributes zero).
    S1_G is contracted with the full Jacobian Dtheta; a tangential pairing
    S1_G : D_G theta is the full one of S1_G (I - n x n).
    """

    def __init__(self, space, S0=None, S1=None, S2=None, S0_gamma=None, S1_gamma=None):
        self.space = space
        self.S0 = S0
        self.S1 = S1
        self.S2 = S2
        self.S0_gamma = S0_gamma
        self.S1_gamma = S1_gamma


class AssembledDerivative:
    """Total shape derivative with its per-tensor breakdown."""

    def __init__(self, terms):
        self.terms = dict(terms)
        self.total = float(sum(self.terms.values()))

    def __repr__(self):
        return f"AssembledDerivative(total={self.total!r})"


def assemble_dJ(tensors, samples):
    """Evaluate a tensor-represented shape derivative against a velocity
    given by its ``theta_samples`` on ``tensors.space``; returns an
    ``AssembledDerivative``."""
    space = tensors.space
    w = space.qweights
    terms = {}
    terms["S0"] = 0.0 if tensors.S0 is None else \
        float(np.sum(w * np.einsum('mqd,mqd->mq', tensors.S0, samples.vol_val)))
    terms["S1"] = 0.0 if tensors.S1 is None else \
        float(np.sum(w * tc.double_dot(tensors.S1, samples.vol_jac)))
    if tensors.S2 is None or samples.vol_hess is None:
        terms["S2"] = 0.0
    else:
        terms["S2"] = float(np.sum(w * tc.triple_dot(tensors.S2, samples.vol_hess)))
    we = space.edge_qweights
    terms["S0_gamma"] = 0.0 if tensors.S0_gamma is None else \
        float(np.sum(we * np.einsum('bqd,bqd->bq', tensors.S0_gamma, samples.edge_val)))
    terms["S1_gamma"] = 0.0 if tensors.S1_gamma is None else \
        float(np.sum(we * tc.double_dot(tensors.S1_gamma, samples.edge_jac)))
    return AssembledDerivative(terms)


# -------------------------------------------------------------------- protocol

class ShapeProblem:
    """One cost functional on one mesh: the protocol every problem implements.

    A subclass hands its constructor arguments after the mesh to
    ``ShapeProblem.__init__``, so re-solving on a transported mesh is the
    same problem on new nodes (``rebuilt``), which carries its root as
    ``reference``.  Its constructor checks input and sets ``space``, solving
    nothing; its products are computed on first use, a rebuilt problem's
    too: ``cost()``, ``_build_tensors()`` and, with a state, the state
    ``u``, the adjoint ``p``, the cost gradient ``B`` = d_u J and
    ``_material(theta)`` -> (udot, ell), ell = d_s E for the discrete
    state equation E(u) = 0.  With A = d_u E, A udot = -ell and A^T p = -B,
    so the base class's ``duality_pair`` <ell, p> = <B, udot> holds for
    every problem (both sides are -<A udot, p>).  ``_build_tensors()`` is
    the whole derivative, a ``ShapeGradient``, which ``breakdown`` pairs
    with theta at the mesh nodes; only the manufactured problems override
    ``breakdown`` and ``theta_vanishes``, which read their own
    once-per-theta ``analytic_samples``.

    What a problem computes from a theta it computes once, for the last
    theta object seen (another object, equal or not, starts afresh): the
    read-only ``nodal`` values, the one evaluation of theta that
    ``breakdown``, the material samples, the transport and the CLI read;
    the one ``_material`` solve that ``material`` and ``duality_pair``
    share; and the transported re-solves of ``resolved``, which the FD and
    Taylor checks share.  The memo keeps only what a later oracle reads:
    ``_material`` builds ``theta_samples`` of the nodal values itself, and
    they die with that one solve.

    Capability flags name the oracles a problem supports: ``fd_target``
    labels the limit ``fd_value(theta)`` of the FD quotients of the
    ``resolved`` costs, ``"dJ"`` (the derivative) or ``"transport_cost"``
    (the manufactured frozen-state cost's), and None means no FD table;
    ``has_state``: u and p exist, so the CLI's ``solve`` writes them and
    the Taylor remainder of ``material`` and the pairing ``duality_pair``
    are checked; ``dual_form`` selects ``dual_form_gap``.
    """

    name = None
    fd_target = "dJ"
    has_state = True
    dual_form = False
    reference = None
    _start = None

    def __init__(self, mesh, *params):
        self.mesh = mesh
        self.params = params

    def rebuilt(self, mesh_s, theta=None, s=0.0):
        """The same problem, with the same data and order, on ``mesh_s``, with
        the root as ``reference``.  ``theta`` and ``s`` given to the root say
        that ``mesh_s`` is its mesh moved by s theta: the new ``_start``."""
        new = type(self)(mesh_s, *self.params)
        new.reference = self.reference or self
        if theta is not None and self.reference is None:
            new._start = (theta, s)
        return new

    @property
    def dof_count(self):
        return self.space.dof_count

    @cached_property
    def _tensors(self):
        return self._build_tensors()

    def tensors(self):
        return self._tensors

    def _memo(self, theta):
        """The per-theta memo of the last theta object seen."""
        memo = self.__dict__.get("_theta_memo")
        if memo is None or memo.theta is not theta:
            memo = self._theta_memo = SimpleNamespace(theta=theta, nodal=None, material=None,
                                                      resolved={})
        return memo

    def nodal(self, theta):
        """theta at the mesh nodes, (N, 2) and read-only, once per theta."""
        memo = self._memo(theta)
        if memo.nodal is None:
            memo.nodal = theta.eval(self.mesh.nodes)
            memo.nodal.flags.writeable = False
        return memo.nodal

    def theta_vanishes(self, theta):
        """Whether every sample of theta is zero: the vertex interpolant's
        are exactly when the nodal values are, so none is built."""
        return not self.nodal(theta).any()

    def breakdown(self, theta):
        """The ``ShapeGradient`` of ``tensors()`` paired with theta at the nodes."""
        return self.tensors().pair(self.nodal(theta))

    def derivative(self, theta):
        return self.breakdown(theta).total

    def fd_value(self, theta):
        """The limit of the FD quotients of the ``resolved`` costs."""
        return self.derivative(theta)

    def _material_of(self, theta):
        """``_material(theta)``, solved once per theta."""
        memo = self._memo(theta)
        if memo.material is None:
            memo.material = self._material(theta)
        return memo.material

    def material(self, theta):
        """The material derivative udot of the state: A udot = -ell."""
        return self._material_of(theta)[0]

    def duality_pair(self, theta):
        """(<ell, p>, <B, udot>) over all state dofs."""
        udot, ell = self._material_of(theta)
        return (fem.dot(np.ravel(ell), self.p.coefficients),
                fem.dot(np.ravel(self.B), udot.coefficients))

    def resolved(self, theta, s, state=False):
        """(cost, state coefficients) of the problem rebuilt on the mesh
        moved by s times the ``nodal`` values, solved once per (theta, s).
        The memo keeps no problem or space, only the cost and the state
        coefficients of the rows a Taylor check reads: those that ``state``
        asks for, and, when the state is one vector, every s > 0 row, so
        that an FD check solves them for the Taylor check too; otherwise
        the state is None, and a row asked for its state later is solved
        again.  A degenerate transport raises ``FlowDegeneracyError`` each
        time and is not kept."""
        rows, key = self._memo(theta).resolved, float(s)
        row = rows.get(key)
        if row is None or state and row[1] is None:
            problem = self.rebuilt(transport_mesh(self.nodal(theta), s, self.mesh), theta, s)
            u = problem.u.coefficients if self.has_state else None
            keep = u is not None and (state or s > 0 and u.size == self.dof_count)
            row = rows[key] = (problem.cost(), u if keep else None)
        return row

    def state_norm(self, vec):
        return fem.l2_norm(self.space, vec)


# ---------------------------------------------------------------- manufactured

class ManufacturedFields:
    """Closed-form state/adjoint/data fields for assembly-level checks.

    The adjoint of both functionals is p = -2u, so ``p``, ``grad_p`` and
    ``hess_p`` are -2 times the state's closures.  ``h`` and ``f`` are scalar
    catalog entries, exposed as ``h``, ``grad_h`` and ``f``, ``grad_f``
    (None unless given: only the higher-order functional has f).  Closures
    are vectorized over ``(..., 2)`` points; ``F``, ``dF_dx`` also take ``r``.
    """

    def __init__(self, name, u, grad_u, hess_u, h, F, dF_dx, f=None):
        self.name = name
        self.u = u
        self.grad_u = grad_u
        self.hess_u = hess_u
        self.p = lambda P: -2.0 * u(P)
        self.grad_p = lambda P: -2.0 * grad_u(P)
        self.hess_p = lambda P: -2.0 * hess_u(P)
        self.h = h.value
        self.grad_h = h.grad
        self.F = F
        self.dF_dx = dF_dx
        self.f = None if f is None else f.value
        self.grad_f = None if f is None else f.grad


def make_manufactured(name="disk"):
    """Built-in manufactured catalogs on the unit disk.

    ``disk``
        u = (1 - |x|^2)/4 (so -lap u = 1), p = -2u, quadratic h, and the
        tracking-type cost density F(x, r) = (r - x1)^2.
    ``disk-higher``
        u = (1 - |x|^2)(1 + x1/2)/4 with f = -lap u = 1 + x1; p = -2u, h = 0.
        Used for the Hessian-squared functional, where F is not involved.
    """
    if name == "disk":
        def u(P):
            return 0.25 * (1.0 - P[..., 0] ** 2 - P[..., 1] ** 2)

        def grad_u(P):
            return -0.5 * P

        def hess_u(P):
            return np.broadcast_to(-0.5 * np.eye(2), P.shape[:-1] + (2, 2)).copy()

        def F(P, r):
            return (r - P[..., 0]) ** 2

        def dF_dx(P, r):
            out = np.zeros(P.shape)
            out[..., 0] = -2.0 * (r - P[..., 0])
            return out

        return ManufacturedFields("disk", u, grad_u, hess_u,
                                  parse_scalar("poly2 0.3 0.2 -0.1 0.15 0.1 -0.05"), F, dF_dx)

    if name == "disk-higher":
        def u(P):
            x, y = P[..., 0], P[..., 1]
            return 0.25 * (1.0 - x * x - y * y) * (1.0 + 0.5 * x)

        def grad_u(P):
            x, y = P[..., 0], P[..., 1]
            A = 1.0 - x * x - y * y
            B = 1.0 + 0.5 * x
            return np.stack([0.25 * (-2.0 * x * B + 0.5 * A), -0.5 * y * B], axis=-1)

        def hess_u(P):
            x, y = P[..., 0], P[..., 1]
            B = 1.0 + 0.5 * x
            H = np.empty(P.shape[:-1] + (2, 2))
            H[..., 0, 0] = -0.5 * (B + x)
            H[..., 0, 1] = H[..., 1, 0] = -0.25 * y
            H[..., 1, 1] = -0.5 * B
            return H

        return ManufacturedFields("disk-higher", u, grad_u, hess_u, parse_scalar("const 0"),
                                  F=lambda P, r: np.zeros(P.shape[:-1]),
                                  dF_dx=lambda P, r: np.zeros(P.shape),
                                  f=parse_scalar("linear 1 1 0"))

    raise ValueError(f"unknown manufactured catalog {name!r}")


def _eye_like(P):
    return np.broadcast_to(np.eye(2), P.shape[:-1] + (2, 2))


def prop5_tensors(fields, space):
    """Distributed tensors of the tracking-type cost with adjoint data (h, p).

    Volume:  S0 = dF/dx(x, u) + (lap p - p) grad h
             S1 = 2 (u - h) D2p + [h (lap p - p) - u lap p + F] I
             S2 = (u - h) grad p x I
    Boundary:
             S0_G = -(dp/dn) grad h,   S1_G = -h (dp/dn) (I - 2 n x n)
    """
    P = space.qpoints
    u = fields.u(P)
    h = fields.h(P)
    gh = fields.grad_h(P)
    pv = fields.p(P)
    gp = fields.grad_p(P)
    Hp = fields.hess_p(P)
    lap_p = np.einsum('mqii->mq', Hp)
    S0 = fields.dF_dx(P, u) + (lap_p - pv)[..., None] * gh
    S1 = 2.0 * (u - h)[..., None, None] * Hp \
        + (h * (lap_p - pv) - u * lap_p + fields.F(P, u))[..., None, None] * _eye_like(P)
    S2 = (u - h)[..., None, None, None] * tc.outer_vm(gp, _eye_like(P))

    Pe = space.edge_qpoints
    n = space.edge_normal[:, None, :]
    dnp = np.einsum('bqd,bqd->bq', fields.grad_p(Pe), np.broadcast_to(n, Pe.shape))
    he = fields.h(Pe)
    S0g = -dnp[..., None] * fields.grad_h(Pe)
    nn = np.einsum('bi,bj->bij', space.edge_normal, space.edge_normal)[:, None]
    S1g = -(he * dnp)[..., None, None] * (_eye_like(Pe) - 2.0 * nn)
    return ShapeTensors(space, S0=S0, S1=S1, S2=S2, S0_gamma=S0g, S1_gamma=S1g)


def prop5_raw_dJ(fields, space, theta):
    """Term-by-term evaluation of the same derivative without tensorization."""
    P = space.qpoints
    w = space.qweights
    th = theta.eval(P)
    J = theta.jac(P)
    H3 = theta.hess(P)
    div = J[..., 0, 0] + J[..., 1, 1]
    u = fields.u(P)
    h = fields.h(P)
    gh = fields.grad_h(P)
    pv = fields.p(P)
    gp = fields.grad_p(P)
    Hp = fields.hess_p(P)
    lap_p = np.einsum('mqii->mq', Hp)
    lap_rate = tc.transported_laplacian_rate(gp, Hp, J, H3)
    vol = (h - u) * lap_rate - u * lap_p * div \
        + (lap_p - pv) * (np.einsum('mqd,mqd->mq', gh, th) + h * div) \
        + np.einsum('mqd,mqd->mq', fields.dF_dx(P, u), th) + fields.F(P, u) * div
    total = float(np.sum(w * vol))

    Pe = space.edge_qpoints
    we = space.edge_qweights
    the = theta.eval(Pe)
    Je = theta.jac(Pe)
    nrm = np.broadcast_to(space.edge_normal[:, None, :], Pe.shape)
    dnp = np.einsum('bqd,bqd->bq', fields.grad_p(Pe), nrm)
    he = fields.h(Pe)
    ndn = np.einsum('bqi,bqij,bqj->bq', nrm, Je, nrm)
    divg = (Je[..., 0, 0] + Je[..., 1, 1]) - ndn
    bnd = -(dnp * np.einsum('bqd,bqd->bq', fields.grad_h(Pe), the)
            + he * dnp * (divg - ndn))
    return total + float(np.sum(we * bnd))


def prop6_tensors(fields, space):
    """Distributed tensors of the Hessian-squared functional.

    S0 = -p grad f,  S1 = 2 p D2u - 2 (D2u)^2 + 0.5 |D2u|^2 I,
    S2 = -grad u x D2u + p grad u x I;  no boundary tensors.
    """
    P = space.qpoints
    pv = fields.p(P)
    gu = fields.grad_u(P)
    Hu = fields.hess_u(P)
    Hu2 = np.einsum('mqij,mqjk->mqik', Hu, Hu)
    normH2 = tc.double_dot(Hu, Hu)
    S0 = -pv[..., None] * fields.grad_f(P)
    S1 = 2.0 * pv[..., None, None] * Hu - 2.0 * Hu2 \
        + 0.5 * normH2[..., None, None] * _eye_like(P)
    S2 = -tc.outer_vm(gu, Hu) + pv[..., None, None, None] * tc.outer_vm(gu, _eye_like(P))
    return ShapeTensors(space, S0=S0, S1=S1, S2=S2)


def prop6_raw_dJ(fields, space, theta):
    """Un-tensorized evaluation of the Hessian-squared derivative.

    Keeps the two transport terms -p lap(u) div and -p f div explicit;
    with f = -lap u they cancel pointwise, which the tensor form exploits.
    """
    P = space.qpoints
    w = space.qweights
    th = theta.eval(P)
    J = theta.jac(P)
    H3 = theta.hess(P)
    div = J[..., 0, 0] + J[..., 1, 1]
    pv = fields.p(P)
    gu = fields.grad_u(P)
    Hu = fields.hess_u(P)
    lap_u = np.einsum('mqii->mq', Hu)
    fv = fields.f(P)
    gf = fields.grad_f(P)
    lap_rate = tc.transported_laplacian_rate(gu, Hu, J, H3)
    hess_rate = tc.transported_hessian_rate(gu, Hu, J, H3)
    vol = -pv * lap_rate \
        - pv * lap_u * div - pv * fv * div \
        - pv * np.einsum('mqd,mqd->mq', gf, th) \
        + tc.double_dot(hess_rate, Hu) + 0.5 * tc.double_dot(Hu, Hu) * div
    return float(np.sum(w * vol))


def cost_transport_derivative(fields, space, samples):
    """The s-derivative at 0 of the frozen-state cost on node-transported
    meshes, sum_q w_q(s) F(x_q(s), u_q) with u_q the state at the reference
    quadrature points: int dF/dx(x, u) . theta + F(x, u) div theta, with
    theta and div theta the ``vol_val`` and ``vol_div`` of ``samples``.
    With interpolated samples it is the exact derivative of that sum (see
    ``theta_samples``), and ``vol_div``, one value per element with a point
    axis of length 1, is broadcast against F at the points.
    """
    P = space.qpoints
    u = fields.u(P)
    return float(np.sum(space.qweights * (
        np.einsum('mqd,mqd->mq', fields.dF_dx(P, u), samples.vol_val)
        + fields.F(P, u) * samples.vol_div)))


# variant -> (catalog, tensor form, raw form, FD target); the Hessian-squared
# variant carries no tracking density F, so it has no FD table
_MANUFACTURED = {"prop5": ("disk", prop5_tensors, prop5_raw_dJ, "transport_cost"),
                 "prop6": ("disk-higher", prop6_tensors, prop6_raw_dJ, None)}


class ManufacturedProblem(ShapeProblem):
    """Closed-form fields wired into the problem protocol.

    The state and adjoint are analytic, so there is nothing to solve:
    ``derivative`` evaluates the tensor representation against
    ``analytic_samples``, built once per theta (``_analytic``) for it and
    the zero check, and ``raw_derivative`` the un-grouped display.  The
    state is carried as a finite-element one is by its dofs: a ``rebuilt``
    problem reads its ``reference``'s state values at the quadrature points,
    ``_uq``, so a ``resolved`` cost is the cost with the state frozen,
    sum_q w_q(s) F(x_q(s), u_q) on the transported mesh, and the FD limit
    ``fd_value`` is its exact s-derivative, ``cost_transport_derivative``
    with the ``theta_samples`` of the nodal values.  This FD table checks
    the geometric part of dJ on its own.
    """

    has_state = False
    dual_form = True

    def __init__(self, mesh, variant="prop5", order=1):
        if variant not in _MANUFACTURED:
            raise ValueError(f"unknown manufactured variant {variant!r}")
        super().__init__(mesh, variant, order)
        self.name = f"{variant}_manufactured"
        catalog, self._tensor_form, self._raw_form, self.fd_target = _MANUFACTURED[variant]
        self.space = FeSpace(mesh, order=order)
        self.fields = make_manufactured(catalog)

    @cached_property
    def _uq(self):
        """The state at the quadrature points; a rebuilt problem's is its root's."""
        if self.reference is not None:
            return self.reference._uq
        return self.fields.u(self.space.qpoints)

    def cost(self):
        return float(np.sum(self.space.qweights * self.fields.F(self.space.qpoints, self._uq)))

    def fd_value(self, theta):
        return cost_transport_derivative(self.fields, self.space,
                                         theta_samples(self.space, self.nodal(theta)))

    def _build_tensors(self):
        return self._tensor_form(self.fields, self.space)

    def _analytic(self, theta):
        """``analytic_samples`` of theta, once per theta."""
        memo = self._memo(theta)
        if "analytic" not in vars(memo):
            memo.analytic = analytic_samples(self.space, theta)
        return memo.analytic

    def theta_vanishes(self, theta):
        return not any(map(np.any, vars(self._analytic(theta)).values()))

    def breakdown(self, theta):
        """The per-point tensors paired with the analytic samples of theta."""
        return assemble_dJ(self.tensors(), self._analytic(theta))

    def raw_derivative(self, theta):
        return self._raw_form(self.fields, self.space, theta)

    def dual_form_gap(self, theta):
        """|tensorized - raw| relative to the raw magnitude."""
        raw = self.raw_derivative(theta)
        return abs(self.derivative(theta) - raw) / (1.0 + abs(raw))
