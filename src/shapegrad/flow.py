"""
Velocity fields and the mesh transport T_s = id + s theta.

A velocity field theta comes with hand-coded Jacobian and second
derivatives.  A mesh is transported by moving its nodes by the
perturbation of the identity T_s = id + s theta, DT_s = I + s Dtheta:
``transport_mesh`` adds s times theta's values at the nodes, which a
problem evaluates once for every s (``ShapeProblem.nodal``).  The shape
derivative dJ(Omega)(theta) depends on the family T_s only through its
s-derivative theta at s = 0, which the flow of theta shares (Delfour and
Zolesio, *Shapes and Geometries*, 2nd ed., SIAM 2011).  The pullback
factors of T_s and their s-derivatives at s = 0 are

    xi(s) = det DT_s                      xi'(0) = div(theta)
    xi(s) DT_s^-1 Q DT_s^-T               div(theta) Q - Dtheta Q - Q Dtheta^T
    xi_G(s) = |det DT_s| |DT_s^-T n|      div_G(theta) = div(theta) - (Dtheta n) . n

The derivatives are computed where dJ is assembled, at the quadrature
points: ``shape_assembly.material_tensor_rate`` gives the matrix rate and
``shape_assembly.ThetaSamples`` derives the divergences (``vol_div``,
``edge_divg``) from Dtheta, the same way for the interpolated and the
analytic samples.

Catalog fields are optionally multiplied by a C^2 cutoff that vanishes
with two derivatives on the faces of a support box, so all fields can be
made compactly supported without losing analytic derivatives.  Its ramps
occupy a ``RAMP`` fraction of each box extent.

The values of the bumps and of the cutoff, and so the nodal values that
every interpolated dJ, sample and transported mesh reads, keep the bits
of the broadcast and ``einsum`` forms
(``tests/flow_references.py`` keeps those): a confined field's value is its
base value times the cutoff's value at every point, multiplied in one
component at a time, and a bump's value is the ``einsum`` outer product of
its profile with the amplitude.  The Jacobian and Hessian of a confined
field keep the cutoff's derivatives.  The poly2 value and Jacobian are
written one component at a time, with no ``np.stack`` and no ``einsum``.
They sum their terms left to right, an order of their own, so each entry
differs from the einsum form by at most a few eps of the sum of its
terms' magnitudes; a Jacobian entry that is zero is +0.0.
"""

import numpy as np

from .mesh import InvertedTriangleError, MeshValidationError


class FlowDegeneracyError(Exception):
    """Raised when a transported mesh folds over or leaves its hold-all."""


class VectorFieldSpec:
    """Velocity field with analytic derivatives.

    Parameters
    ----------
    name : str
    eval, jac, hess : callables
        Vectorized over leading axes: ``eval(P)`` maps ``(..., 2)`` to
        ``(..., 2)``; ``jac`` returns ``(..., 2, 2)`` with
        ``jac[i, j] = d theta_i / d x_j``; ``hess`` returns
        ``(..., 2, 2, 2)`` with ``hess[i, j, k] = d2 theta_i / dx_j dx_k``.
    support_box : (2, 2) float array or None
        ``[[xlo, ylo], [xhi, yhi]]``; ``None`` means unbounded support.
    """

    def __init__(self, name, eval, jac, hess, support_box=None):
        self.name = name
        self.eval = eval
        self.jac = jac
        self.hess = hess
        self.support_box = None if support_box is None else np.asarray(support_box, dtype=float)

    def __repr__(self):
        return f"VectorFieldSpec({self.name!r})"


def transport_mesh(nodal, s, mesh):
    """Move every node of ``mesh`` by T_s = id + s theta, given theta's
    values ``nodal`` (N, 2) at the nodes: the new nodes are
    ``mesh.nodes + s * nodal``.  Connectivity and hold-all are kept.

    Raises
    ------
    FlowDegeneracyError
        If the moved nodes fail a check of ``Mesh.with_nodes``: a triangle
        of non-positive signed area (the message reports the first one),
        or a node that is not finite or leaves the hold-all box.
    """
    try:
        return mesh.with_nodes(mesh.nodes + s * nodal)
    except InvertedTriangleError as exc:
        raise FlowDegeneracyError(
            f"transport inverts triangle {exc.index} (signed area {exc.area:.3e}) at s={s}") from None
    except MeshValidationError as exc:
        raise FlowDegeneracyError(f"transported mesh fails '{exc}' at s={s}") from None


# ------------------------------------------------------------------- catalog

#: the fraction of each support-box extent that each of the cutoff's two
#: ramps occupies; the plateau between them is the middle 1 - 2 RAMP
RAMP = 0.15


def _smoothstep(t):
    # C^2 quintic ramp: value/slope/curvature vanish at t=0, value 1 with
    # zero slope/curvature at t=1; at the clipped ends it gives exactly 0
    # (-0.0 at t = -0.0) and 1
    r = np.clip(t, 0.0, 1.0)
    return r ** 3 * (10.0 - 15.0 * r + 6.0 * r * r)


def _smoothstep_d1(t):
    tc = np.clip(t, 0.0, 1.0)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 30.0 * tc ** 2 * (1.0 - tc) ** 2, 0.0)


def _smoothstep_d2(t):
    tc = np.clip(t, 0.0, 1.0)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 60.0 * tc * (1.0 - tc) * (1.0 - 2.0 * tc), 0.0)


def _axis_cutoff(x, lo, hi, w):
    """Per-axis C^2 plateau factor and its two derivatives."""
    tl = (x - lo) / w
    tr = (hi - x) / w
    gl, gr = _smoothstep(tl), _smoothstep(tr)
    dl, dr = _smoothstep_d1(tl) / w, -_smoothstep_d1(tr) / w
    sl, sr = _smoothstep_d2(tl) / w ** 2, _smoothstep_d2(tr) / w ** 2
    g = gl * gr
    dg = dl * gr + gl * dr
    d2g = sl * gr + 2.0 * dl * dr + gl * sr
    return g, dg, d2g


def _axis_value(x, lo, hi, w):
    """The value of :func:`_axis_cutoff` alone, by the same expression."""
    return _smoothstep((x - lo) / w) * _smoothstep((hi - x) / w)


def _apply_cutoff(val, jac, hess, box):
    """The cutoff's value, Jacobian and Hessian of the base field (val, jac,
    hess)."""
    lo, hi = np.asarray(box, dtype=float)
    w = RAMP * (hi - lo)

    def rho(P):
        gx, dgx, d2gx = _axis_cutoff(P[..., 0], lo[0], hi[0], w[0])
        gy, dgy, d2gy = _axis_cutoff(P[..., 1], lo[1], hi[1], w[1])
        val = gx * gy
        grad = np.stack([dgx * gy, gx * dgy], axis=-1)
        hess = np.empty(P.shape[:-1] + (2, 2))
        hess[..., 0, 0] = d2gx * gy
        hess[..., 0, 1] = hess[..., 1, 0] = dgx * dgy
        hess[..., 1, 1] = gx * d2gy
        return val, grad, hess

    def v(P):
        # the nodal values call only this: skip the cutoff's derivatives
        out = val(P)
        r = (_axis_value(P[..., 0], lo[0], hi[0], w[0])
             * _axis_value(P[..., 1], lo[1], hi[1], w[1]))
        out[..., 0] *= r
        out[..., 1] *= r
        return out

    def j(P):
        r, dr, _ = rho(P)
        return (jac(P) * r[..., None, None]
                + np.einsum('...i,...j->...ij', val(P), dr))

    def h(P):
        r, dr, d2r = rho(P)
        base_v, base_j, base_h = val(P), jac(P), hess(P)
        out = base_h * r[..., None, None, None]
        out += np.einsum('...ij,...k->...ijk', base_j, dr)
        out += np.einsum('...ik,...j->...ijk', base_j, dr)
        out += np.einsum('...i,...jk->...ijk', base_v, d2r)
        return out

    return v, j, h


def _zeros_like_field(P, rank):
    return np.zeros(P.shape[:-1] + (2,) * rank)


def _const_field(c):
    c = np.asarray(c, dtype=float)

    def val(P):
        return np.broadcast_to(c, P.shape[:-1] + (2,)).copy()

    return val, lambda P: _zeros_like_field(P, 2), lambda P: _zeros_like_field(P, 3)


def _linear_field(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def val(P):
        return np.einsum('ij,...j->...i', A, P) + b

    def jac(P):
        return np.broadcast_to(A, P.shape[:-1] + (2, 2)).copy()

    return val, jac, lambda P: _zeros_like_field(P, 3)


def _poly2_field(C):
    # C has shape (2, 6): coefficients of 1, x, y, x^2, x*y, y^2 per component
    C = np.asarray(C, dtype=float).reshape(2, 6)

    def val(P):
        x, y = P[..., 0], P[..., 1]
        xx, xy, yy = x * x, x * y, y * y
        out = np.empty(P.shape)
        for i, c in enumerate(C):
            out[..., i] = c[0] + c[1] * x + c[2] * y + c[3] * xx + c[4] * xy + c[5] * yy
        return out

    def jac(P):
        x, y = P[..., 0], P[..., 1]
        out = np.empty(P.shape[:-1] + (2, 2))
        for i, c in enumerate(C):
            out[..., i, 0] = c[1] + (2.0 * c[3]) * x + c[4] * y
            out[..., i, 1] = c[2] + c[4] * x + (2.0 * c[5]) * y
        out += 0.0
        return out

    def hess(P):
        out = np.zeros(P.shape[:-1] + (2, 2, 2))
        out[..., 0, 0] = 2 * C[:, 3]
        out[..., 0, 1] = out[..., 1, 0] = C[:, 4]
        out[..., 1, 1] = 2 * C[:, 5]
        return out

    return val, jac, hess


def _bump_field(a, c, r):
    if not r > 0.0:
        raise ValueError(f"field 'bump': radius must be positive, got {r}")
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)

    def radial(P):
        dx = (P[..., 0] - c[0]) / r
        dy = (P[..., 1] - c[1]) / r
        u = dx * dx + dy * dy
        inside = u < 1.0
        return inside, np.where(inside, 1.0 - u, 0.0)

    def parts(P):
        inside, om = radial(P)
        w = om ** 3
        wp = np.where(inside, -3.0 * om ** 2, 0.0)
        wpp = np.where(inside, 6.0 * om, 0.0)
        du = 2.0 * (P - c) / r ** 2
        return w, wp, wpp, du

    def val(P):
        _, om = radial(P)
        return np.einsum('...,i->...i', om ** 3, a)

    def jac(P):
        _, wp, _, du = parts(P)
        return np.einsum('i,...j->...ij', a, wp[..., None] * du)

    def hess(P):
        _, wp, wpp, du = parts(P)
        quad = np.einsum('...,...j,...k->...jk', wpp, du, du)
        lin = (2.0 / r ** 2) * wp[..., None, None] * np.eye(2)
        return np.einsum('i,...jk->...ijk', a, quad + lin)

    return val, jac, hess


def _tensor_bump_field(a, c, w):
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    w = np.asarray(w, dtype=float)
    if not np.all(w > 0.0):
        raise ValueError(f"field 'tensor_bump': widths must be positive, got {w[0]} {w[1]}")

    def axis_value(t):
        inside = np.abs(t) < 1.0
        om = np.where(inside, 1.0 - t * t, 0.0)
        return inside, om, om ** 3

    def axis(t, wk):
        inside, om, B = axis_value(t)
        Bp = np.where(inside, -6.0 * t * om ** 2, 0.0) / wk
        Bpp = np.where(inside, -6.0 * om ** 2 + 24.0 * t * t * om, 0.0) / wk ** 2
        return B, Bp, Bpp

    def parts(P):
        return (axis((P[..., 0] - c[0]) / w[0], w[0]),
                axis((P[..., 1] - c[1]) / w[1], w[1]))

    def val(P):
        _, _, bx = axis_value((P[..., 0] - c[0]) / w[0])
        _, _, by = axis_value((P[..., 1] - c[1]) / w[1])
        return np.einsum('...,i->...i', bx * by, a)

    def jac(P):
        (bx, dbx, _), (by, dby, _) = parts(P)
        g = np.stack([dbx * by, bx * dby], axis=-1)
        return np.einsum('i,...j->...ij', a, g)

    def hess(P):
        (bx, dbx, d2bx), (by, dby, d2by) = parts(P)
        H = np.empty(P.shape[:-1] + (2, 2))
        H[..., 0, 0] = d2bx * by
        H[..., 0, 1] = H[..., 1, 0] = dbx * dby
        H[..., 1, 1] = bx * d2by
        return np.einsum('i,...jk->...ijk', a, H)

    return val, jac, hess


#: catalog name -> (builder, number of parameters); a builder returns the
#: value, Jacobian and Hessian callables
FIELD_CATALOG = {
    "zero": (lambda p: _const_field((0.0, 0.0)), 0),
    "constant": (lambda p: _const_field(p), 2),
    "linear": (lambda p: _linear_field([[p[0], p[1]], [p[2], p[3]]], [p[4], p[5]]), 6),
    "rotation": (lambda p: _linear_field([[0.0, -p[0]], [p[0], 0.0]],
                                         [p[0] * p[2], -p[0] * p[1]]), 3),
    "poly2": (lambda p: _poly2_field(p), 12),
    "bump": (lambda p: _bump_field(p[:2], p[2:4], p[4]), 5),
    "tensor_bump": (lambda p: _tensor_bump_field(p[:2], p[2:4], p[4:6]), 6),
}


def make_field(name, params=(), support_box=None):
    """Build a catalog field, optionally confined to ``support_box``.

    The cutoff multiplies the base field by a C^2 plateau function whose
    ramps occupy a ``RAMP`` fraction of each box extent, so the result
    vanishes with two derivatives on the box faces.  The parameters must be
    finite, a ``bump`` radius and the ``tensor_bump`` widths positive and
    the box finite with hi > lo on both axes (else ValueError): each of
    these would otherwise give a theta that is NaN or zero everywhere.

    Parameters
    ----------
    name : str
        One of ``zero, constant, linear, rotation, poly2, bump, tensor_bump``.
    params : sequence of float
        Catalog-specific parameters (see ``FIELD_CATALOG``); for
        ``rotation`` they are ``(omega, cx, cy)``.
    """
    try:
        builder, nparams = FIELD_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; known: {sorted(FIELD_CATALOG)}") from None
    params = tuple(float(v) for v in params)
    if len(params) != nparams:
        raise ValueError(f"field {name!r} takes {nparams} parameters, got {len(params)}")
    if not np.all(np.isfinite(params)):
        raise ValueError(f"field {name!r}: parameters must be finite, "
                         f"got {' '.join(map(str, params))}")
    val, jac, hess = builder(np.asarray(params))
    if support_box is not None:
        lo, hi = np.asarray(support_box, dtype=float)
        if not (np.all(np.isfinite(support_box)) and np.all(hi > lo)):
            raise ValueError(f"support box needs finite hi > lo on both axes, "
                             f"got lo {lo}, hi {hi}")
        val, jac, hess = _apply_cutoff(val, jac, hess, support_box)
    return VectorFieldSpec(name, val, jac, hess, support_box=support_box)
