"""
Named coefficient data with analytic derivatives.

Every problem coefficient (sources, boundary data, diffusion matrices,
nonlinear reaction laws) is carried as a small object bundling vectorized
evaluation closures with the analytic derivatives the shape-derivative
tensors need.  Entries are constructed from ``name param...`` strings so
configuration files can name them; see the ``*_CATALOG`` dicts.

Conventions: spatial points are arrays of shape (..., 2); scalar values
come back with shape (...), gradients with (..., 2).  Matrix data returns
(..., 2, 2) values and a spatial-derivative tensor of shape (..., 2, 2, 2)
with ``D[..., i, j, k] = d M_ij / d x_k``.
"""

import numpy as np


class ScalarData:
    """Scalar coefficient with an analytic gradient."""

    def __init__(self, name, value, grad):
        self.name = name
        self.value = value
        self.grad = grad


class MatrixData:
    """Symmetric matrix coefficient with its spatial derivative tensor."""

    def __init__(self, name, value, dspace):
        self.name = name
        self.value = value
        self.dspace = dspace

    def constant(self):
        """The (2, 2) value if the entry is spatially constant, else None."""
        probe = np.array([[0.1, 0.2], [-0.3, 0.4]])
        vals = self.value(probe)
        if np.array_equal(vals[0], vals[1]) and not np.any(self.dspace(probe)):
            return vals[0].copy()
        return None


class RFunctionData:
    """Coefficient c(x, r) of a semilinear law, with d/dr and grad_x."""

    def __init__(self, name, value, dr, dx):
        self.name = name
        self.value = value      # (P, r) -> (...)
        self.dr = dr            # (P, r) -> (...)
        self.dx = dx            # (P, r) -> (..., 2)


class TimeProfile:
    """Separable time factor a(t), applied to spatial data."""

    def __init__(self, name, value, time_dependent):
        self.name = name
        self.value = value
        self.time_dependent = time_dependent


class TimeScalarData:
    """Scalar coefficient a(t) * s(x) with spatial gradient."""

    def __init__(self, spatial, profile):
        self.spatial = spatial
        self.profile = profile

    def value(self, t, P):
        return self.profile.value(t) * self.spatial.value(P)

    def grad(self, t, P):
        return self.profile.value(t) * self.spatial.grad(P)


class TimeMatrixData:
    """Matrix coefficient a(t) * M(x); ``spatial.dspace`` is DM(x)."""

    def __init__(self, spatial, profile):
        self.spatial = spatial
        self.profile = profile
        self.time_dependent = profile.time_dependent

    def value(self, t, P):
        return self.profile.value(t) * self.spatial.value(P)


# ----------------------------------------------------------------- scalar laws

def _sc_const(c):
    def value(P):
        return np.full(P.shape[:-1], c)

    def grad(P):
        return np.zeros(P.shape)

    return value, grad


def _sc_linear(c, a, b):
    def value(P):
        return c + a * P[..., 0] + b * P[..., 1]

    def grad(P):
        out = np.empty(P.shape)
        out[..., 0] = a
        out[..., 1] = b
        return out

    return value, grad


def _sc_poly2(c0, c1, c2, c3, c4, c5):
    def value(P):
        x, y = P[..., 0], P[..., 1]
        return c0 + c1 * x + c2 * y + c3 * x * x + c4 * x * y + c5 * y * y

    def grad(P):
        x, y = P[..., 0], P[..., 1]
        return np.stack([c1 + 2 * c3 * x + c4 * y,
                         c2 + c4 * x + 2 * c5 * y], axis=-1)

    return value, grad


def _sc_sine2(a, kx, ky):
    wx, wy = kx * np.pi, ky * np.pi

    def value(P):
        return a * np.sin(wx * P[..., 0]) * np.sin(wy * P[..., 1])

    def grad(P):
        x, y = P[..., 0], P[..., 1]
        return np.stack([a * wx * np.cos(wx * x) * np.sin(wy * y),
                         a * wy * np.sin(wx * x) * np.cos(wy * y)], axis=-1)

    return value, grad


def _sc_gauss(a, cx, cy, w):
    if w <= 0:
        raise ValueError("gauss data entry needs a positive width")

    def value(P):
        dx = P[..., 0] - cx
        dy = P[..., 1] - cy
        return a * np.exp(-(dx * dx + dy * dy) / (2 * w * w))

    def grad(P):
        dx = P[..., 0] - cx
        dy = P[..., 1] - cy
        v = a * np.exp(-(dx * dx + dy * dy) / (2 * w * w))
        return np.stack([-v * dx / (w * w), -v * dy / (w * w)], axis=-1)

    return value, grad


SCALAR_CATALOG = {
    "const": (_sc_const, 1),
    "linear": (_sc_linear, 3),
    "poly2": (_sc_poly2, 6),
    "sine2": (_sc_sine2, 3),
    "gauss": (_sc_gauss, 4),
}


# ----------------------------------------------------------------- matrix laws

def _sym(m11, m12, m22):
    return np.array([[m11, m12], [m12, m22]])


def _mat_const(m11, m12, m22):
    M0 = _sym(m11, m12, m22)

    def value(P):
        return np.broadcast_to(M0, P.shape[:-1] + (2, 2)).copy()

    def dspace(P):
        return np.zeros(P.shape[:-1] + (2, 2, 2))

    return value, dspace


def _mat_affine(m11, m12, m22, a11, a12, a22, b11, b12, b22):
    M0 = _sym(m11, m12, m22)
    A = _sym(a11, a12, a22)
    B = _sym(b11, b12, b22)

    def value(P):
        x = P[..., 0, None, None]
        y = P[..., 1, None, None]
        return M0 + x * A + y * B

    def dspace(P):
        out = np.empty(P.shape[:-1] + (2, 2, 2))
        out[..., 0] = A
        out[..., 1] = B
        return out

    return value, dspace


MATRIX_CATALOG = {
    "const_mat": (_mat_const, 3),
    "affine_mat": (_mat_affine, 9),
}


# ----------------------------------------------------- semilinear (x, r) laws

def _rf_const(c):
    def value(P, r):
        return np.full(np.shape(r), c)

    def dr(P, r):
        return np.zeros(np.shape(r))

    def dx(P, r):
        return np.zeros(P.shape)

    return value, dr, dx


def _rf_affine(a, b):
    """a r + b sin(x1): the default reaction law."""

    def value(P, r):
        return a * r + b * np.sin(P[..., 0])

    def dr(P, r):
        return np.full(np.shape(r), a)

    def dx(P, r):
        out = np.zeros(P.shape)
        out[..., 0] = b * np.cos(P[..., 0])
        return out

    return value, dr, dx


def _rf_saturating():
    """2 + r / sqrt(1 + r^2): bounded in [1, 3] with derivative (1+r^2)^(-3/2)."""

    def value(P, r):
        return 2.0 + r / np.sqrt(1.0 + r * r)

    def dr(P, r):
        return (1.0 + r * r) ** -1.5

    def dx(P, r):
        return np.zeros(P.shape)

    return value, dr, dx


def _rf_saturating_sine(amp):
    """2 + amp sin(x1) + r / sqrt(1 + r^2): adds a spatial drift to the law."""

    def value(P, r):
        return 2.0 + amp * np.sin(P[..., 0]) + r / np.sqrt(1.0 + r * r)

    def dr(P, r):
        return (1.0 + r * r) ** -1.5

    def dx(P, r):
        out = np.zeros(P.shape)
        out[..., 0] = amp * np.cos(P[..., 0])
        return out

    return value, dr, dx


RFUNC_CATALOG = {
    "const_r": (_rf_const, 1),
    "affine_r": (_rf_affine, 2),
    "saturating": (_rf_saturating, 0),
    "saturating_sine": (_rf_saturating_sine, 1),
}


# --------------------------------------------------------------- time profiles

def _tp_const():
    return (lambda t: 1.0), False


def _tp_decay(lam):
    return (lambda t: np.exp(-lam * t)), lam != 0.0


def _tp_ramp(alpha):
    return (lambda t: 1.0 + alpha * t), alpha != 0.0


PROFILE_CATALOG = {
    "const": (_tp_const, 0),
    "decay": (_tp_decay, 1),
    "ramp": (_tp_ramp, 1),
}


# -------------------------------------------------------------------- parsing

def _parse(spec, catalog, kind, cls):
    parts = str(spec).split()
    if not parts:
        raise ValueError(f"empty {kind} data entry")
    name = parts[0]
    if name not in catalog:
        raise ValueError(f"unknown {kind} data entry {name!r}; known: {sorted(catalog)}")
    builder, nparams = catalog[name]
    raw = parts[1:]
    if len(raw) != nparams:
        raise ValueError(f"{kind} entry {name!r} takes {nparams} parameters, got {len(raw)}")
    try:
        params = [float(p) for p in raw]
    except ValueError as exc:
        raise ValueError(f"{kind} entry {name!r}: bad parameter in {raw}") from exc
    return cls(name, *builder(*params))


def parse_scalar(spec):
    """Build a :class:`ScalarData` from a string like ``"linear 1 2 -0.5"``."""
    return _parse(spec, SCALAR_CATALOG, "scalar", ScalarData)


def parse_matrix(spec):
    """Build a :class:`MatrixData` from a string like ``"const_mat 2 0 1"``."""
    return _parse(spec, MATRIX_CATALOG, "matrix", MatrixData)


def parse_rfunction(spec):
    """Build an :class:`RFunctionData` from a string like ``"affine_r 1 0.1"``."""
    return _parse(spec, RFUNC_CATALOG, "reaction", RFunctionData)


def parse_profile(spec):
    """Build a :class:`TimeProfile` from a string like ``"decay 0.5"``."""
    return _parse(spec, PROFILE_CATALOG, "time-profile", TimeProfile)


def time_scalar(spatial_spec, profile_spec="const"):
    return TimeScalarData(parse_scalar(spatial_spec), parse_profile(profile_spec))


def time_matrix(spatial_spec, profile_spec="const"):
    return TimeMatrixData(parse_matrix(spatial_spec), parse_profile(profile_spec))


# ----------------------------------------------------------------- validation

_SPD_TOL = 1e-10  # the asymmetry check_spd forgives and its eigenvalue floor


def box_lattice(points, n):
    """The n x n lattice over the bounding box of ``points``, (n*n, 2)."""
    P = np.asarray(points, dtype=float)
    (x0, y0), (x1, y1) = P.min(axis=0), P.max(axis=0)
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


def check_spd(matdata, points, times):
    """Verify a time-matrix entry is symmetric positive definite on the
    17 x 17 ``box_lattice`` of ``points`` at each time; raise ValueError
    naming the failure otherwise."""
    P = box_lattice(points, 17)
    for t in times:
        M = matdata.value(t, P)
        if np.abs(M - np.swapaxes(M, -1, -2)).max() > _SPD_TOL:
            raise ValueError("matrix coefficient is not symmetric on the sampled box")
        ev = np.linalg.eigvalsh(M)
        if ev.min() <= _SPD_TOL:
            raise ValueError(
                f"matrix coefficient is not positive definite: min eigenvalue {ev.min():.3e} at t={t}")


def check_positive(scalardata, pts):
    """Verify a scalar entry is strictly positive at the given points."""
    v = scalardata.value(pts)
    if v.min() <= 0.0:
        raise ValueError(f"coefficient {scalardata.name!r} is not positive: min {v.min():.3e}")
