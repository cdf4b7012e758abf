"""
Flow maps of autonomous velocity fields and their first-order expansions.

A velocity field theta comes with hand-coded Jacobian, divergence and
second derivatives; positions and the volume ratio xi(s) = det DT_s are
integrated with classical RK4, xi by Liouville's formula
d/ds xi = div(theta)(T_s) xi, a scalar ODE in place of the 2x2
variational equation d/ds DT_s = Dtheta(T_s) DT_s.  The pullback
factors of the flow map T_s and their s-derivatives at s = 0 are

    xi(s) = det DT_s                      xi'(0) = div(theta)
    xi(s) DT_s^-1 Q DT_s^-T               div(theta) Q - Dtheta Q - Q Dtheta^T
    xi_G(s) = |det DT_s| |DT_s^-T n|      div_G(theta) = div(theta) - (Dtheta n) . n

The derivatives are computed where dJ is assembled, at the quadrature
points: ``shape_assembly.material_tensor_rate`` gives the matrix rate and
``shape_assembly.ThetaSamples`` derives the divergences (``vol_div``,
``edge_divg``) from Dtheta, the same way for both sampling modes.

Catalog fields are optionally multiplied by a C^2 cutoff that vanishes
with two derivatives on the faces of a support box, so all fields can be
made compactly supported without losing analytic derivatives.

RK4 transport of a mesh evaluates only the value of a field, 128 times
per mesh at the default 32 steps, so the values of the bumps and of the
cutoff are written one component at a time, with the bits of the
broadcast and ``einsum`` forms they replace (``tests/flow_references.py``
keeps those): each entry comes from the same floating-point operations in
the same order, and the outer product with the amplitude adds +0.0 as
``einsum`` did by summing onto +0.0.  A ``bump`` or ``tensor_bump``
reports the box outside which its value is +0.0 (c -+ r, c -+ w); when
that box, widened by a few ulps, lies on the cutoff's plateau, the
confined field's value is the base value itself, with no cutoff at all:
the factor is exactly 1.0 wherever the base value is not zero and +0.0
times a factor in [0, 1] is +0.0 elsewhere (except at a coordinate -0.0 on
a box face at +0.0, where the factor is -0.0 and the wrapped value -0.0).
The Jacobian and Hessian keep the cutoff, whose -0.0 entries they carry.

``validation.fd_transport_check`` (the frozen-composition cost of the
manufactured problems, which ship poly2) carries xi too, 128 value and
128 divergence evaluations per advect, so the poly2 value, Jacobian and
divergence are written one component at a time as well, with no
``np.stack`` and no ``einsum``.  They sum their terms left to right, an
order of their own, so each entry differs from the einsum form by at most
a few eps of the sum of its terms' magnitudes; a Jacobian entry that is
zero is +0.0, and the divergence keeps the bits of the Jacobian's trace.
"""

import numpy as np

from .mesh import InvertedTriangleError


class FlowDegeneracyError(Exception):
    """Raised when a flow map folds over (non-positive volume ratio det DT_s)."""


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
    div : callable or None
        ``div(P)`` returns ``(...)``, the divergence with the bits of
        ``jac[..., 0, 0] + jac[..., 1, 1]``; ``None`` takes that trace.
    """

    def __init__(self, name, eval, jac, hess, support_box=None, div=None):
        self.name = name
        self.eval = eval
        self.jac = jac
        self.hess = hess
        self.div = _trace_of(jac) if div is None else div
        self.support_box = None if support_box is None else np.asarray(support_box, dtype=float)

    def __repr__(self):
        return f"VectorFieldSpec({self.name!r})"


def _trace_of(jac):
    def div(P):
        J = jac(P)
        return J[..., 0, 0] + J[..., 1, 1]
    return div


def advect_batch(theta, s, x0, steps=32, want_xi=True):
    """RK4-transport many points, and their volume ratios xi = det DT_s, at once.

    xi obeys Liouville's formula d/ds xi = div(theta)(T_s) xi and is
    integrated by the same RK4 stages as the positions: stage i takes
    div(theta) at the stage's point times xi + c_i h k_{i-1}.

    Points where theta vanishes at the start are exact fixed points of every
    RK4 stage (each stage evaluates theta where the previous one left the
    point), so only the others are integrated.  With xi a point is fixed
    only if div(theta) vanishes there too; its xi stays 1.  Compactly
    supported fields leave many mesh nodes fixed.

    Parameters
    ----------
    theta : VectorFieldSpec
    s : float
        Final pseudo-time; may be negative.
    x0 : (n, 2) array
    steps : int
        Number of uniform RK4 steps.

    Returns
    -------
    (X, xi) : positions (n, 2) and volume ratios (n,); ``xi`` is None when
    ``want_xi`` is false.

    Raises
    ------
    FlowDegeneracyError
        If some xi reaches zero or below after a step: the discrete flow
        folds over there.
    """
    if steps < 1:
        raise ValueError("advect_batch: steps must be >= 1")
    X = np.array(x0, dtype=float)
    xi = np.ones(X.shape[:-1]) if want_xi else None
    if s == 0.0:
        return X, xi
    moving = (theta.eval(X) != 0.0).any(axis=-1)
    if want_xi:
        moving |= theta.div(X) != 0.0
    if moving.all():
        return _rk4(theta, s / steps, steps, X, xi)
    if not moving.any():
        return X, xi
    idx = np.nonzero(moving)[0]
    Xm, xim = _rk4(theta, s / steps, steps, X[idx], None if xi is None else xi[idx])
    X[idx] = Xm
    if xi is not None:
        xi[idx] = xim
    return X, xi


def _rk4(theta, h, steps, X, xi):
    def rhs(Xc, xic):
        v = theta.eval(Xc)
        if xic is None:
            return v, None
        return v, theta.div(Xc) * xic

    for _ in range(steps):
        k1x, k1 = rhs(X, xi)
        k2x, k2 = rhs(X + 0.5 * h * k1x, None if xi is None else xi + 0.5 * h * k1)
        k3x, k3 = rhs(X + 0.5 * h * k2x, None if xi is None else xi + 0.5 * h * k2)
        k4x, k4 = rhs(X + h * k3x, None if xi is None else xi + h * k3)
        X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        if xi is not None:
            xi = xi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if (xi <= 0.0).any():
                i = int(np.nonzero(xi <= 0.0)[0][0])
                raise FlowDegeneracyError(
                    f"flow volume ratio {xi[i]:.3e} <= 0 during advection")
    return X, xi


def transport_mesh(theta, s, mesh, steps=32):
    """Advect every node of ``mesh``; connectivity and hold-all are kept.

    Raises
    ------
    FlowDegeneracyError
        If any transported triangle has non-positive signed area (the
        message reports the first offending triangle index).  The areas
        are those ``Mesh.with_nodes`` computes for its orientation check.
    """
    X, _ = advect_batch(theta, s, mesh.nodes, steps=steps, want_xi=False)
    try:
        return mesh.with_nodes(X)
    except InvertedTriangleError as exc:
        raise FlowDegeneracyError(
            f"transport inverts triangle {exc.index} (signed area {exc.area:.3e}) at s={s}") from None


# ------------------------------------------------------------------- catalog

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


def _on_plateau(xmin, xmax, lo, hi, w):
    """Whether every x in [xmin, xmax] has (x - lo) / w >= 1 and
    (hi - x) / w >= 1, the plateau where the smoothstep clips to exactly 1.0.
    Rounding is monotone, so the smallest fl(fl(x - lo) / w) is the one at
    xmin and the smallest fl(fl(hi - x) / w) the one at xmax: the test on
    the extremes is the test at every point.  A NaN extreme fails it."""
    return (xmin - lo) / w >= 1.0 and (hi - xmax) / w >= 1.0


def _axis_value(x, lo, hi, w):
    """The value of :func:`_axis_cutoff` alone, by the same expression."""
    return _smoothstep((x - lo) / w) * _smoothstep((hi - x) / w)


def _cutoff(box, ramp):
    """Value-only evaluator and (value, gradient, Hessian) evaluator of the
    cutoff, and the test whether a box [lo, hi] lies on its plateau."""
    lo, hi = np.asarray(box, dtype=float)
    w = ramp * (hi - lo)

    def value(P):
        return (_axis_value(P[..., 0], lo[0], hi[0], w[0])
                * _axis_value(P[..., 1], lo[1], hi[1], w[1]))

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

    def covers(support):
        return all(_on_plateau(support[0][k], support[1][k], lo[k], hi[k], w[k])
                   for k in range(2))

    return value, rho, covers


def _apply_cutoff(val, jac, hess, box, ramp, support=None):
    """The cutoff's value, Jacobian and Hessian of the base field (val, jac,
    hess).  ``support`` is a box [lo, hi] outside which ``val`` is +0.0, or
    None; the value is ``val`` itself when that box lies on the plateau."""
    value, rho, covers = _cutoff(box, ramp)

    def v(P):
        # RK4 transport calls only this: skip the cutoff's derivatives
        out = val(P)
        r = value(P)
        out[..., 0] *= r
        out[..., 1] *= r
        return out

    if support is not None:
        # widened by a few ulps: a value that is not zero lies strictly
        # inside the exact support, which ``support`` may round inward
        margin = 8.0 * np.finfo(float).eps * (np.abs(support[0]) + np.abs(support[1]))
        if covers((support[0] - margin, support[1] + margin)):
            v = val

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


def _times_vector(f, a):
    """The outer product f a of point values and a constant 2-vector.  The
    ``+= 0.0`` turns -0.0 into +0.0, as the einsum this replaced did by
    summing onto +0.0: a zero f times a negative component."""
    out = np.empty(f.shape + (2,))
    out[..., 0] = f * a[0]
    out[..., 1] = f * a[1]
    out += 0.0
    return out


def _zeros_like_field(P, rank):
    return np.zeros(P.shape[:-1] + (2,) * rank)


def _const_field(c):
    c = np.asarray(c, dtype=float)

    def val(P):
        return np.broadcast_to(c, P.shape[:-1] + (2,)).copy()

    return val, lambda P: _zeros_like_field(P, 2), lambda P: _zeros_like_field(P, 3), None, None


def _linear_field(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def val(P):
        return np.einsum('ij,...j->...i', A, P) + b

    def jac(P):
        return np.broadcast_to(A, P.shape[:-1] + (2, 2)).copy()

    return val, jac, lambda P: _zeros_like_field(P, 3), None, None


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

    def div(P):
        # jac's diagonal, summed before the += 0.0 that jac applies to each
        # entry: the same bits, -0.0 + -0.0 included
        x, y = P[..., 0], P[..., 1]
        c0, c1 = C
        out = (c0[1] + (2.0 * c0[3]) * x + c0[4] * y) + (c1[2] + c1[4] * x + (2.0 * c1[5]) * y)
        out += 0.0
        return out

    def hess(P):
        out = np.zeros(P.shape[:-1] + (2, 2, 2))
        out[..., 0, 0] = 2 * C[:, 3]
        out[..., 0, 1] = out[..., 1, 0] = C[:, 4]
        out[..., 1, 1] = 2 * C[:, 5]
        return out

    return val, jac, hess, div, None


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
        return _times_vector(om ** 3, a)

    def jac(P):
        _, wp, _, du = parts(P)
        return np.einsum('i,...j->...ij', a, wp[..., None] * du)

    def hess(P):
        _, wp, wpp, du = parts(P)
        quad = np.einsum('...,...j,...k->...jk', wpp, du, du)
        lin = (2.0 / r ** 2) * wp[..., None, None] * np.eye(2)
        return np.einsum('i,...jk->...ijk', a, quad + lin)

    return val, jac, hess, None, np.array([c - r, c + r])


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
        return _times_vector(bx * by, a)

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

    return val, jac, hess, None, np.array([c - w, c + w])


#: catalog name -> (builder, number of parameters); a builder returns the
#: value, Jacobian, Hessian and divergence callables, the divergence None
#: where the trace of the Jacobian serves, and the box [lo, hi] outside which
#: the value is +0.0 (the bumps' c -+ r and c -+ w), or None
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


def make_field(name, params=(), support_box=None, ramp=0.15):
    """Build a catalog field, optionally confined to ``support_box``.

    The cutoff multiplies the base field by a C^2 plateau function whose
    ramps occupy a ``ramp`` fraction of each box extent, so the result
    vanishes with two derivatives on the box faces.  The parameters must be
    finite, a ``bump`` radius and the ``tensor_bump`` widths positive, the
    box finite with hi > lo on both axes and ``ramp`` finite and positive
    (else ValueError): each of these would otherwise give a theta that is
    NaN or zero everywhere.

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
    val, jac, hess, div, support = builder(np.asarray(params))
    if support_box is not None:
        lo, hi = np.asarray(support_box, dtype=float)
        if not (np.all(np.isfinite(support_box)) and np.all(hi > lo)):
            raise ValueError(f"support box needs finite hi > lo on both axes, "
                             f"got lo {lo}, hi {hi}")
        if not (np.isfinite(ramp) and ramp > 0.0):
            raise ValueError(f"ramp must be finite and positive, got {ramp}")
        val, jac, hess = _apply_cutoff(val, jac, hess, support_box, ramp, support)
        div = None
    return VectorFieldSpec(name, val, jac, hess, support_box=support_box, div=div)
