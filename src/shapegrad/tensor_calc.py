"""
Small dense tensor algebra used by the shape-derivative assembly.

All operations act on numpy arrays whose trailing axes hold the tensor
indices: vectors ``(..., d)``, matrices ``(..., d, d)`` and third-order
tensors ``(..., d, d, d)`` with ``d`` in {2, 3}.  Leading axes broadcast,
so a single call can evaluate an identity at every quadrature point of a
mesh.  The index convention for third-order tensors is ``S[i, j, k]``;
for a Hessian of a vector field ``theta`` this means
``S[i, j, k] = d^2 theta_i / (dx_j dx_k)``.

Everything here is a pure function of its inputs.
"""

import numpy as np

#: absolute floor used when turning relative tolerances into absolute ones
_SYM_TOL = 1e-12


def _chk(a, rank, name):
    """Validate trailing tensor axes of ``a`` and return it as float ndarray."""
    a = np.asarray(a, dtype=float)
    if a.ndim < rank:
        raise ValueError(f"{name}: expected at least {rank} trailing axes, got shape {a.shape}")
    dims = a.shape[a.ndim - rank:]
    d = dims[0]
    if d not in (2, 3):
        raise ValueError(f"{name}: tensor dimension must be 2 or 3, got {d}")
    if any(di != d for di in dims):
        raise ValueError(f"{name}: trailing axes must be cubical, got {dims}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: non-finite entries")
    return a


def _same_d(*pairs):
    ds = {p[0].shape[-1] for p in pairs}
    if len(ds) != 1:
        raise ValueError("mixed tensor dimensions: " + ", ".join(f"{p[1]}={p[0].shape[-1]}" for p in pairs))


def double_dot(A, B):
    """Frobenius pairing A : B = A_ij B_ij.

    Parameters
    ----------
    A, B : ndarray, shape (..., d, d)

    Returns
    -------
    ndarray, shape (...)
    """
    A = _chk(A, 2, "A")
    B = _chk(B, 2, "B")
    _same_d((A, "A"), (B, "B"))
    return np.einsum('...ij,...ij->...', A, B)


def triple_dot(S, T):
    """Triple contraction S ∴ T = S_ijk T_ijk.

    Parameters
    ----------
    S, T : ndarray, shape (..., d, d, d)

    Returns
    -------
    ndarray, shape (...)
    """
    S = _chk(S, 3, "S")
    T = _chk(T, 3, "T")
    _same_d((S, "S"), (T, "T"))
    return np.einsum('...ijk,...ijk->...', S, T)


def transpose3(S):
    """Cyclic transpose of a third-order tensor, T_ijk = S_kij.

    This is the transposition for which ``a . apply3(S, b, c)`` equals
    ``b . apply3(transpose3(S), c, a)``; applying it three times gives
    back ``S`` exactly.
    """
    S = _chk(S, 3, "S")
    return np.einsum('...kij->...ijk', S).copy()


def apply3(S, b, c):
    """Contract a third-order tensor with two vectors: (S b c)_i = S_ijk b_j c_k.

    Parameters
    ----------
    S : ndarray, shape (..., d, d, d)
    b, c : ndarray, shape (..., d)

    Returns
    -------
    ndarray, shape (..., d)
    """
    S = _chk(S, 3, "S")
    b = _chk(b, 1, "b")
    c = _chk(c, 1, "c")
    _same_d((S, "S"), (b, "b"), (c, "c"))
    return np.einsum('...ijk,...j,...k->...i', S, b, c)


def matvec3(S, c):
    """Contract the last slot of a third-order tensor: (S c)_ij = S_ijk c_k.

    Satisfies ``apply3(S, b, c) == matvec3(S, c) @ b`` (contraction over j).
    """
    S = _chk(S, 3, "S")
    c = _chk(c, 1, "c")
    _same_d((S, "S"), (c, "c"))
    return np.einsum('...ijk,...k->...ij', S, c)


def inner(a, b):
    """Inner product a . b = a_i b_i over the last axis.  No input checks,
    since the problems call it on every quadrature point."""
    return np.einsum('...i,...i->...', a, b)


def outer(a, b):
    """Outer product (a ⊗ b)_ij = a_i b_j."""
    a = _chk(a, 1, "a")
    b = _chk(b, 1, "b")
    _same_d((a, "a"), (b, "b"))
    return np.einsum('...i,...j->...ij', a, b)


def outer_vm(a, T):
    """Vector-matrix outer product [a ⊗ T]_ijk = a_i T_jk."""
    a = _chk(a, 1, "a")
    T = _chk(T, 2, "T")
    _same_d((a, "a"), (T, "T"))
    return np.einsum('...i,...jk->...ijk', a, T)


def matmul2(A, B):
    """Stacked 2x2 products A @ B, term by term: the bits of the einsum
    ``'...ij,...jk->...ik'`` (sums start from +0.0), several times faster.

    Leading axes broadcast; no input checks, since the transported-tensor
    rates call it on every quadrature point.
    """
    out = np.empty(np.broadcast_shapes(A.shape, B.shape))
    for i in range(2):
        for k in range(2):
            out[..., i, k] = A[..., i, 0] * B[..., 0, k] + A[..., i, 1] * B[..., 1, k]
    out += 0.0
    return out


def _require_symmetric(H, name):
    gap = np.abs(H - np.swapaxes(H, -1, -2)).max()
    scale = max(1.0, float(np.abs(H).max()))
    if gap > _SYM_TOL * scale:
        raise ValueError(f"{name}: not symmetric (max asymmetry {gap:.3e}, scale {scale:.3e})")


def transported_hessian_rate(psi_grad, psi_hess, theta_jac, theta_hess):
    """s-derivative at s = 0 of the pulled-back Hessian of a fixed scalar field.

    For a scalar field psi transported by the flow of ``theta``, the Hessian
    of the pullback evolves, at s = 0 and frozen spatial point, with rate

        -Dtheta^T D2psi - D2psi Dtheta - (D2theta)^T grad(psi)

    where the last contraction is ``M_jk = sum_i d2theta_i/dx_j dx_k * dpsi/dx_i``,
    evaluated via :func:`transpose3` followed by :func:`matvec3`.

    Parameters
    ----------
    psi_grad : ndarray, shape (..., d)
    psi_hess : ndarray, shape (..., d, d)
        Must be symmetric to 1e-12 (relative); a Hessian is.
    theta_jac : ndarray, shape (..., d, d)
        Jacobian Dtheta, convention ``theta_jac[i, j] = dtheta_i/dx_j``.
    theta_hess : ndarray, shape (..., d, d, d)
        Second derivatives, ``theta_hess[i, j, k] = d2 theta_i/(dx_j dx_k)``.

    Returns
    -------
    ndarray, shape (..., d, d)
    """
    g = _chk(psi_grad, 1, "psi_grad")
    H = _chk(psi_hess, 2, "psi_hess")
    J = _chk(theta_jac, 2, "theta_jac")
    T = _chk(theta_hess, 3, "theta_hess")
    _same_d((g, "psi_grad"), (H, "psi_hess"), (J, "theta_jac"), (T, "theta_hess"))
    _require_symmetric(H, "psi_hess")
    JtH = np.einsum('...ji,...jk->...ik', J, H)       # Dtheta^T D2psi
    HJ = np.einsum('...ij,...jk->...ik', H, J)        # D2psi Dtheta
    third = matvec3(transpose3(T), g)                 # (D2theta)^T grad(psi)
    return -JtH - HJ - third


def transported_laplacian_rate(psi_grad, psi_hess, theta_jac, theta_hess):
    """Trace of :func:`transported_hessian_rate`; equals -2 D2psi : Dtheta - lap(theta) . grad(psi).

    Both expressions are evaluated and cross-checked to 1e-12 before the
    closed form is returned.
    """
    rate = transported_hessian_rate(psi_grad, psi_hess, theta_jac, theta_hess)
    tr = np.einsum('...ii->...', rate)
    H = np.asarray(psi_hess, dtype=float)
    J = np.asarray(theta_jac, dtype=float)
    T = np.asarray(theta_hess, dtype=float)
    g = np.asarray(psi_grad, dtype=float)
    lap_theta = np.einsum('...ijj->...i', T)
    closed = -2.0 * np.einsum('...ij,...ij->...', H, J) - np.einsum('...i,...i->...', lap_theta, g)
    scale = max(1.0, float(np.abs(tr).max()) if np.size(tr) else 1.0)
    if np.abs(tr - closed).max() > _SYM_TOL * scale:
        raise AssertionError("transported_laplacian_rate: trace and closed form disagree")
    return closed
