import numpy as np
import pytest

from shapegrad import tensor_calc as tc

TOL = 1e-12


def _rel(err, scale):
    return err <= TOL * max(1.0, scale)


def _rand(rng, shape):
    return rng.uniform(-2.0, 2.0, size=shape)


# ---------------------------------------------------------------- fixed values

def test_double_dot_identity_matrices():
    I = np.eye(2)
    assert tc.double_dot(I, I) == 2.0
    assert tc.double_dot(np.eye(3), np.eye(3)) == 3.0


def test_double_dot_rank_one_example():
    # (a x b) : (c x d) = (a.c)(b.d) = 17 * 53 = 901
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    c = np.array([5.0, 6.0])
    d = np.array([7.0, 8.0])
    val = tc.double_dot(tc.outer(a, b), tc.outer(c, d))
    assert abs(val - 901.0) <= TOL * 901.0


def test_transpose3_digit_example():
    # S_ijk = 100 i + 10 j + k with 1-based indices; T_121 = S_112 = 112
    S = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                S[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    T = tc.transpose3(S)
    assert T[0, 1, 0] == 112.0
    # brute-force check of the full relabeling
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert T[i, j, k] == S[k, i, j]


def test_apply3_single_entry():
    S = np.zeros((2, 2, 2))
    S[0, 1, 0] = 5.0
    b = np.array([0.0, 2.0])
    c = np.array([3.0, 0.0])
    out = tc.apply3(S, b, c)
    assert np.array_equal(out, np.array([30.0, 0.0]))


def test_matvec3_consistency_with_apply3():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        S = _rand(rng, (d, d, d))
        b = _rand(rng, (d,))
        c = _rand(rng, (d,))
        via_mat = tc.matvec3(S, c) @ b
        direct = tc.apply3(S, b, c)
        assert np.allclose(via_mat, direct, rtol=0, atol=TOL * max(1.0, abs(direct).max()))


# ------------------------------------------------------------- bulk invariants

@pytest.mark.parametrize("d", [2, 3])
def test_transpose_duality_bulk(d):
    # a . (S b c) == b . (S^T c a), 1000 instances at once
    rng = np.random.default_rng(100 + d)
    n = 1000
    S = _rand(rng, (n, d, d, d))
    a = _rand(rng, (n, d))
    b = _rand(rng, (n, d))
    c = _rand(rng, (n, d))
    lhs = np.einsum('ni,ni->n', a, tc.apply3(S, b, c))
    rhs = np.einsum('ni,ni->n', b, tc.apply3(tc.transpose3(S), c, a))
    scale = np.maximum(1.0, np.abs(lhs))
    assert (np.abs(lhs - rhs) <= TOL * scale).all()


@pytest.mark.parametrize("d", [2, 3])
def test_triple_transpose_is_identity(d):
    rng = np.random.default_rng(200 + d)
    S = _rand(rng, (1000, d, d, d))
    T = tc.transpose3(tc.transpose3(tc.transpose3(S)))
    assert np.array_equal(S, T)


@pytest.mark.parametrize("d", [2, 3])
def test_matrix_vector_identities_bulk(d):
    rng = np.random.default_rng(300 + d)
    n = 1000
    S = _rand(rng, (n, d, d))
    U = _rand(rng, (n, d, d))
    T = _rand(rng, (n, d, d))
    a = _rand(rng, (n, d))
    b = _rand(rng, (n, d))
    c = _rand(rng, (n, d))
    e = _rand(rng, (n, d))
    St = np.swapaxes(S, -1, -2)

    def close(x, y):
        return (np.abs(x - y) <= TOL * np.maximum(1.0, np.abs(x))).all()

    # S : (a x b) = a . (S b) = (S^T a) . b = S^T : (b x a)
    lhs = tc.double_dot(S, tc.outer(a, b))
    assert close(lhs, np.einsum('ni,ni->n', a, np.einsum('nij,nj->ni', S, b)))
    assert close(lhs, np.einsum('ni,ni->n', np.einsum('nij,nj->ni', St, a), b))
    assert close(lhs, tc.double_dot(St, tc.outer(b, a)))
    # S (a x b) = (S a) x b  and  (a x b) S = a x (S^T b)
    assert close(np.einsum('nij,njk->nik', S, tc.outer(a, b)),
                 tc.outer(np.einsum('nij,nj->ni', S, a), b))
    assert close(np.einsum('nij,njk->nik', tc.outer(a, b), S),
                 tc.outer(a, np.einsum('nij,nj->ni', St, b)))
    # (a x b) c = (c . b) a
    assert close(np.einsum('nij,nj->ni', tc.outer(a, b), c),
                 np.einsum('n,ni->ni', np.einsum('ni,ni->n', c, b), a))
    # (a x b):(c x e) = (a.c)(b.e) = (c x b):(a x e) = c . (a x e) b
    v1 = tc.double_dot(tc.outer(a, b), tc.outer(c, e))
    assert close(v1, np.einsum('ni,ni->n', a, c) * np.einsum('ni,ni->n', b, e))
    assert close(v1, tc.double_dot(tc.outer(c, b), tc.outer(a, e)))
    assert close(v1, np.einsum('ni,ni->n', c, np.einsum('nij,nj->ni', tc.outer(a, e), b)))
    # (S T) : U = T : (S^T U)
    assert close(tc.double_dot(np.einsum('nij,njk->nik', S, T), U),
                 tc.double_dot(T, np.einsum('nij,njk->nik', St, U)))


@pytest.mark.parametrize("d", [2, 3])
def test_third_order_outer_identity_bulk(d):
    # (S^T a) : T == S ::: (a x T)
    rng = np.random.default_rng(400 + d)
    n = 1000
    S = _rand(rng, (n, d, d, d))
    a = _rand(rng, (n, d))
    T = _rand(rng, (n, d, d))
    lhs = tc.double_dot(tc.matvec3(tc.transpose3(S), a), T)
    rhs = tc.triple_dot(S, tc.outer_vm(a, T))
    assert (np.abs(lhs - rhs) <= TOL * np.maximum(1.0, np.abs(lhs))).all()


def test_triple_dot_brute_force():
    rng = np.random.default_rng(5)
    S = _rand(rng, (3, 3, 3))
    T = _rand(rng, (3, 3, 3))
    acc = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                acc += S[i, j, k] * T[i, j, k]
    assert abs(tc.triple_dot(S, T) - acc) <= TOL * max(1.0, abs(acc))


# -------------------------------------------------- transported-Hessian rates

def test_matmul2_matches_einsum_bit_for_bit():
    rng = np.random.default_rng(8)
    A = _rand(rng, (40, 3, 2, 2))
    B = _rand(rng, (40, 3, 2, 2))
    # zero and negative-zero entries: the einsum sums onto +0.0
    A[::5] = 0.0
    B[::7] = -0.0
    A[1, :, :, 0] = -0.0
    for a, b in ((A, B), (A, B[0, 0]), (B[3, 1], A)):
        want = np.einsum('...ij,...jk->...ik', a, b)
        assert tc.matmul2(a, b).tobytes() == want.tobytes()


def test_hessian_rate_constant_field_is_zero():
    g = np.array([1.0, 2.0])
    H = np.array([[3.0, 1.0], [1.0, 2.0]])
    out = tc.transported_hessian_rate(g, H, np.zeros((2, 2)), np.zeros((2, 2, 2)))
    assert np.array_equal(out, np.zeros((2, 2)))


def test_laplacian_rate_identity_jacobian():
    # Dtheta = I, D2theta = 0  ->  rate = -2 tr(D2psi)
    g = np.array([0.3, -0.1])
    H = np.array([[2.0, 0.5], [0.5, -1.0]])
    out = tc.transported_laplacian_rate(g, H, np.eye(2), np.zeros((2, 2, 2)))
    assert abs(out - (-2.0 * np.trace(H))) <= TOL * max(1.0, abs(out))


def test_hessian_rate_against_flow_map_differences():
    # psi = x1^2, theta = (x2^2, 0): the flow map and its inverse are exact,
    #   T_s(x) = (x1 + s x2^2, x2),   T_s^{-1}(y) = (y1 - s y2^2, y2),
    # so the Hessian of psi o T_s^{-1} at T_s(x0) can be differenced in s.
    x0 = np.array([1.0, 1.0])

    def pulled_hessian(s):
        y0 = np.array([x0[0] + s * x0[1] ** 2, x0[1]])
        h = 1e-4

        def v(y):
            return (y[0] - s * y[1] ** 2) ** 2

        H = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei = np.eye(2)[i] * h
                ej = np.eye(2)[j] * h
                H[i, j] = (v(y0 + ei + ej) - v(y0 + ei - ej)
                           - v(y0 - ei + ej) + v(y0 - ei - ej)) / (4 * h * h)
        return H

    ds = 1e-3
    fd_rate = (pulled_hessian(ds) - pulled_hessian(-ds)) / (2 * ds)

    g = np.array([2.0 * x0[0], 0.0])
    H = np.array([[2.0, 0.0], [0.0, 0.0]])
    J = np.array([[0.0, 2.0 * x0[1]], [0.0, 0.0]])
    T3 = np.zeros((2, 2, 2))
    T3[0, 1, 1] = 2.0
    exact = tc.transported_hessian_rate(g, H, J, T3)
    assert np.array_equal(exact, np.array([[0.0, -4.0], [-4.0, -4.0]]))
    assert np.abs(fd_rate - exact).max() < 1e-5


def test_laplacian_rate_matches_hessian_trace_bulk():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        n = 200
        g = _rand(rng, (n, d))
        H = _rand(rng, (n, d, d))
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        J = _rand(rng, (n, d, d))
        T = _rand(rng, (n, d, d, d))
        rate = tc.transported_hessian_rate(g, H, J, T)
        lap = tc.transported_laplacian_rate(g, H, J, T)
        tr = np.einsum('nii->n', rate)
        assert (np.abs(lap - tr) <= TOL * np.maximum(1.0, np.abs(tr))).all()


# ------------------------------------------------------------------ bad input

def test_asymmetric_hessian_rejected():
    g = np.zeros(2)
    H = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        tc.transported_hessian_rate(g, H, np.eye(2), np.zeros((2, 2, 2)))


def test_non_finite_rejected():
    A = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        tc.double_dot(A, np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        tc.apply3(np.full((2, 2, 2), np.inf), np.zeros(2), np.zeros(2))


def test_dimension_checks():
    with pytest.raises(ValueError):
        tc.double_dot(np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        tc.outer(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        tc.triple_dot(np.zeros((2, 2, 2)), np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        tc.double_dot(np.zeros((2, 3)), np.zeros((2, 3)))
