"""Parabolic model problem: marches, adjoints, duality, tensors, FD checks.

The adjoint is checked against an independent time-reversal oracle (a
reversed-coefficient forward march assembled with raw calls in the test),
and the block operator against its own transpose on random vectors.  The
Gram-accumulated tensors, as nodal gradients, and the batched material
right-hand sides are checked against per-step reference loops kept in this
file, their tensors reduced to the nodes.
"""

import tracemalloc

import numpy as np
import pytest

from shapegrad import fem_core as fem
from shapegrad import tensor_calc as tc
from shapegrad.data_catalog import (TimeProfile, TimeScalarData, parse_scalar,
                                    time_matrix, time_scalar)
from shapegrad.fem_core import FeSpace, SolverError
from shapegrad.flow import make_field
from shapegrad.mesh import gen_rectangle
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem, initial_rate
from shapegrad.shape_assembly import material_tensor_rate
from shapegrad.validation import fd_shape_check

from conftest import (HOLDALL, bump_theta, catalog_thetas, dof_velocities, field_qgrads,
                      interpolated_samples, transported)
from elliptic_references import eliminate_dirichlet
from nodal_references import reduce_to_nodes
from parabolic_references import (ParabolicOperator, material_loop, parabolic_partial_cost,
                                   shape_tensors_per_step, state_loop)


def _data(nt=12, t0=1.0, m_profile="const", f_spec=("sine2 1.5 1 1", "decay 0.4"),
          g_spec="linear 0.2 0.3 -0.1", ud_spec=("poly2 0.1 0.2 -0.1 0.3 0 0.15", "const")):
    M = time_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3", m_profile)
    return ParabolicData(M=M, f=time_scalar(*f_spec), g=parse_scalar(g_spec),
                         u_d=time_scalar(*ud_spec), t0=t0, nt=nt)


class _FrozenUd:
    """Time-scalar data that replays the recorded quadrature snapshots of a
    problem's state: not separable, so a problem tracks it only through
    ``_track_per_step``."""

    def __init__(self, prob, shift=None, eps=0.0):
        self._q = {k: fem.field_qvalues(prob.u.field(k)) for k in range(prob.data.nt + 1)}
        self._nt = prob.data.nt
        self._t0 = prob.data.t0
        self._shift = shift
        self._eps = eps

    def _step(self, t):
        return int(round(t * self._nt / self._t0))

    def value(self, t, P):
        base = self._q[self._step(t)]
        if self._shift is None:
            return base
        return base + self._eps * self._shift(P)

    def grad(self, t, P):
        return np.zeros(P.shape)


def _track_per_step(prob, u_d):
    """Make ``prob`` read u_d(t_k, .) and its gradient at the quadrature
    points from ``u_d.value(t_k, P)`` and ``u_d.grad(t_k, P)`` at every step,
    the evaluation ``_u_d_steps`` gave an entry that is not separable before
    ``ParabolicData`` refused one."""
    P = prob.space.qpoints
    prob._u_d_steps = lambda part: lambda k: getattr(u_d, part)(prob.times[k], P)


# ----------------------------------------------------------------- state march

def test_zero_data_zero_state(rect_unit):
    data = _data(f_spec=("const 0", "const"), g_spec="const 0")
    u = ParabolicProblem(rect_unit, data).u
    assert np.abs(u.values).max() == 0.0


def test_data_validation(rect_unit):
    with pytest.raises(ValueError, match="time steps"):
        _data(nt=0)
    with pytest.raises(ValueError, match="final time"):
        _data(t0=0.0)
    bad = ParabolicData(M=time_matrix("const_mat 1 2 1"), f=time_scalar("const 0"),
                        g=parse_scalar("const 0"), u_d=time_scalar("const 0"))
    with pytest.raises(ValueError, match="positive definite"):
        ParabolicProblem(rect_unit, bad)


def test_data_outside_separable_contract():
    """M and f must be a(t)*s(x) entries; a bare spatial entry is refused."""
    good = dict(M=time_matrix("const_mat 1 0 1"), f=time_scalar("const 1"),
                g=parse_scalar("const 0"), u_d=time_scalar("const 0"))
    for slot, bad in (("M", parse_scalar("const 1")), ("f", parse_scalar("const 1")),
                      ("f", time_matrix("const_mat 1 0 1"))):
        with pytest.raises(ValueError, match="TimeMatrixData and f a TimeScalarData"):
            ParabolicData(**dict(good, **{slot: bad}))


def test_tracked_field_outside_separable_contract():
    """u_d must be an a(t)*s(x) entry too: a time-scalar look-alike that
    replays snapshots, or a bare spatial entry, is refused by name."""
    good = dict(M=time_matrix("const_mat 1 0 1"), f=time_scalar("const 1"),
                g=parse_scalar("const 0"), u_d=time_scalar("const 0"))
    prob = ParabolicProblem(gen_rectangle(0.0, 0.0, 1.0, 1.0, 2, 2), ParabolicData(**good))
    for bad in (_FrozenUd(prob), parse_scalar("const 0")):
        refusal = f"u_d must be a TimeScalarData, got {type(bad).__name__}"
        with pytest.raises(ValueError, match=refusal):
            ParabolicData(**dict(good, u_d=bad))


def test_solver_failure_names_time_step(rect_unit):
    data = _data(nt=6)
    poisoned = TimeProfile("poisoned", lambda t: np.nan if t > 0.4 else 0.0, True)
    data.f = TimeScalarData(parse_scalar("const 1"), poisoned)
    with pytest.raises(SolverError, match="time step"):
        ParabolicProblem(rect_unit, data).u


def test_manufactured_dt_order():
    """u* = e^-t sin(pi x) sin(pi y) on the unit square: order ~ 1 in dt."""
    amp = 2.0 * np.pi ** 2 - 1.0
    mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 32, 32)
    errs = []
    for nt in (2, 4, 8):
        data = _data(nt=nt, m_profile="const", f_spec=(f"sine2 {amp!r} 1 1", "decay 1"),
                     g_spec="sine2 1 1 1")
        data.M = time_matrix("const_mat 1 0 1")
        prob = ParabolicProblem(mesh, data)
        u = prob.u
        space = u.space
        P = space.qpoints
        exact = lambda t: np.exp(-t) * np.sin(np.pi * P[..., 0]) * np.sin(np.pi * P[..., 1])
        dt = data.t0 / nt
        acc = 0.0
        for k in range(1, nt + 1):
            d = fem.field_qvalues(u.field(k)) - exact(prob.times[k])
            acc += dt * float(np.sum(space.qweights * d * d))
        errs.append(np.sqrt(acc))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 0.8 and orders.max() < 1.25, (errs, orders)


def test_steady_state_monotone_decay(rect_unit):
    """Static data: iterates approach the elliptic solution in energy norm."""
    data = _data(nt=30, t0=2.0, f_spec=("sine2 1.5 1 1", "const"), g_spec="sine2 1 2 1")
    u = ParabolicProblem(rect_unit, data).u
    space = u.space
    K = fem.assemble_diffusion_values(space, data.M.value(0.0, space.qpoints))
    F = fem.assemble_load_values(space, data.f.value(0.0, space.qpoints))
    bd = space.boundary_dofs()
    A2, b2 = eliminate_dirichlet(K, F, bd, 0.0)
    u_inf = fem.Factorized(A2).solve(b2)
    en = []
    for k in range(data.nt + 1):
        e = u.values[k] - u_inf
        en.append(float(e @ (K @ e)))
    en = np.sqrt(np.array(en))
    assert np.all(np.diff(en) <= 1e-13 * en[0])
    assert en[-1] < 1e-3 * en[0]


def test_stability_across_dt_orders(rect_unit):
    """f = 0: the L2 norm of the iterates never grows, for dt across 1e2."""
    for nt in (4, 40, 400):
        data = _data(nt=nt, f_spec=("const 0", "const"), g_spec="sine2 1 1 1")
        u = ParabolicProblem(rect_unit, data).u
        norms = np.array([fem.l2_norm(u.space, u.values[k]) for k in range(nt + 1)])
        assert np.all(np.diff(norms) <= 1e-12 * norms[0])


# -------------------------------------------------------------------- adjoints

def test_adjoint_zero_when_ud_matches(rect_unit):
    data = _data(nt=8)
    prob = ParabolicProblem(rect_unit, data, which="j1")
    frozen = _FrozenUd(prob)
    _track_per_step(prob, frozen)
    p1 = prob.p
    prob2 = ParabolicProblem(rect_unit, data, which="j2")
    _track_per_step(prob2, frozen)
    p2 = prob2.p
    assert np.abs(p1.values).max() == 0.0
    assert np.abs(p2.values).max() == 0.0
    assert prob.cost() == 0.0


def test_adjoint_slot_zero_is_p1(rect_unit):
    data = _data(nt=8)
    p = ParabolicProblem(rect_unit, data, which="j1").p
    assert np.array_equal(p.values[0], p.values[1])
    assert np.abs(p.values).max() > 0.0


def test_unknown_cost_flavor(rect_unit):
    data = _data(nt=4)
    with pytest.raises(ValueError, match="unknown parabolic cost"):
        ParabolicProblem(rect_unit, data, which="j3")


def test_time_reversal_oracle(rect_unit):
    """Backward march == reversed-coefficient forward march, independently
    assembled here step by step (time-dependent diffusion matrix)."""
    data = _data(nt=9, m_profile="ramp 0.6")
    prob = ParabolicProblem(rect_unit, data, which="j1")
    u, p = prob.u, prob.p

    space = FeSpace(rect_unit, order=1)
    Mu = fem.assemble_mass_values(space, np.ones(space.qweights.shape))
    bd = space.boundary_dofs()
    dt = data.t0 / data.nt
    times = np.linspace(0.0, data.t0, data.nt + 1)
    B = {}
    for k in range(1, data.nt + 1):
        d = fem.field_qvalues(u.field(k)) - data.u_d.value(times[k], space.qpoints)
        B[k] = dt * fem.assemble_load_values(space, d)
    v = np.zeros(space.dof_count)
    vhat = {0: v}
    for j in range(1, data.nt + 1):
        k = data.nt + 1 - j
        K = fem.assemble_diffusion_values(space, data.M.value(times[k], space.qpoints))
        A2, b2 = eliminate_dirichlet(Mu + dt * K, Mu @ v - B[k], bd, 0.0)
        v = fem.Factorized(A2).solve(b2)
        vhat[j] = v
    scale = np.abs(p.values).max()
    for k in range(1, data.nt + 1):
        gap = np.abs(p.values[k] - vhat[data.nt + 1 - k]).max()
        assert gap <= 1e-10 * (1.0 + scale), (k, gap)


def test_block_operator_transposition(rect_unit):
    """<A V, W> == <V, A^T W> on random block vectors, to 1e-12 relative."""
    data = _data(nt=7, m_profile="ramp 0.4")
    op = ParabolicOperator(rect_unit, data)
    rng = np.random.default_rng(7)
    n = op.space.dof_count
    for _ in range(5):
        V = rng.standard_normal((data.nt + 1, n))
        W = rng.standard_normal((data.nt + 1, n))
        a = float(np.sum(op.forward(V) * W))
        b = float(np.sum(V * op.adjoint(W)))
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


@pytest.mark.parametrize("m_profile, factorizations", [("ramp 0.5", 7), ("const", 1)])
def test_step_factorizations_shared_by_every_march(rect_unit, monkeypatch, m_profile,
                                                    factorizations):
    """A time-dependent M gives each of the nt step matrices one
    factorization, a constant profile one for all steps; the adjoint,
    material and duality marches reuse them."""
    data = _data(nt=7, m_profile=m_profile)
    count = [0]
    init = fem.Factorized.__init__

    def counting_init(self, A):
        count[0] += 1
        init(self, A)

    monkeypatch.setattr(fem.Factorized, "__init__", counting_init)
    prob = ParabolicProblem(rect_unit, data, which="j1")
    prob.u
    assert count[0] == factorizations
    theta = bump_theta()
    prob.p
    prob.material(theta)
    prob.duality_pair(theta)
    assert count[0] == factorizations


# ------------------------------------------------------- material and duality

def test_material_zero_theta(rect_unit):
    theta = make_field("constant", (0.0, 0.0))
    prob = ParabolicProblem(rect_unit, _data(nt=6), which="j1")
    udot = prob.material(theta)
    assert np.abs(udot.values).max() == 0.0


def test_dof_velocities_p2_midpoints(rect_unit):
    theta = bump_theta()
    space = FeSpace(rect_unit, order=2)
    n = rect_unit.n_nodes
    nodal = theta.eval(rect_unit.nodes)
    vel = dof_velocities(space, nodal)
    assert np.array_equal(vel[:n], nodal)
    for idx, (a, b) in enumerate(space.mesh.topology.edges):
        assert np.allclose(vel[n + idx], 0.5 * (nodal[a] + nodal[b]))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("m_profile", ["const", "ramp 0.5"])
def test_march_reproduces_state_and_material_loops(rect_unit, order, m_profile):
    """The one forward march gives the state and material snapshots of
    their own loops to the bit, and the material rows ell solve the block
    scheme, A udot = -ell, with the initial-condition row ell_0 = -M_u udot_0."""
    data = _data(nt=7, m_profile=m_profile, g_spec="sine2 1 1 1")
    prob = ParabolicProblem(rect_unit, data, which="j1", order=order)
    assert prob.u.values.tobytes() == state_loop(prob).tobytes()
    op = ParabolicOperator(rect_unit, data, order=order)
    for theta in catalog_thetas():
        udot, ell = prob._material(theta)
        assert udot.values.tobytes() == material_loop(prob, theta, ell).tobytes(), theta.name
        assert ell[0].tobytes() == (-(prob.Mu @ udot.values[0])).tobytes(), theta.name
        if np.abs(ell).max() > 0.0:
            assert _rel(op.forward(udot.values), -ell) < 1e-12, theta.name


@pytest.mark.parametrize("which", ["j1", "j2"])
def test_duality(rect_unit, which):
    prob = ParabolicProblem(rect_unit, _data(nt=10), which=which)
    for theta in catalog_thetas():
        lhs, rhs = prob.duality_pair(theta)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs)), (theta.name, lhs, rhs)


@pytest.mark.parametrize("which", ["j1", "j2"])
def test_tensor_total_matches_duality_path(rect_unit, which):
    """Tensor contraction + dt pairing == <L, p> + frozen-state transport."""
    prob = ParabolicProblem(rect_unit, _data(nt=10), which=which)
    for theta in catalog_thetas():
        bd = prob.breakdown(theta)
        samples = interpolated_samples(prob.space, theta)
        lhs, _ = prob.duality_pair(theta)
        partial = parabolic_partial_cost(prob, samples)
        assert abs(bd.total - (lhs + partial)) <= 1e-11 * (1.0 + abs(bd.total)), theta.name


def test_tensors_zero_for_zero_data(rect_unit):
    data = _data(f_spec=("const 0", "const"), g_spec="const 0",
                 ud_spec=("const 0", "const"), nt=5)
    prob = ParabolicProblem(rect_unit, data, which="j1")
    terms = prob.tensors().terms
    assert np.abs(terms["S0"]).max() == 0.0
    assert np.abs(terms["S1"]).max() == 0.0
    assert np.abs(terms["dt_pairing"]).max() == 0.0
    assert prob.derivative(bump_theta()) == 0.0


def test_tensor_structure_volume_only(rect_unit):
    prob = ParabolicProblem(rect_unit, _data(nt=4), which="j1")
    t = prob.tensors().terms
    assert t["S2"] is None and t["S0_gamma"] is None and t["S1_gamma"] is None
    assert "dt_pairing" in prob.breakdown(bump_theta()).terms


def test_constant_M_tensor_oracle(rect_unit):
    """Spatially constant M: the module's accumulated tensors must equal a
    from-scratch evaluation of the formulas with no DM contribution, both
    reduced to nodal gradients."""
    data = _data(nt=6)
    data.M = time_matrix("const_mat 2 0.3 1.5")
    prob = ParabolicProblem(rect_unit, data, which="j1")
    terms = prob.tensors().terms
    space = prob.space
    P = space.qpoints
    dt = data.t0 / data.nt
    times = prob.times
    Mmat = np.array([[2.0, 0.3], [0.3, 1.5]])
    I2 = np.eye(2)

    S0 = np.zeros(P.shape)
    S1 = np.zeros(P.shape[:-1] + (2, 2))
    dtp = np.zeros(P.shape[:-1])
    for k in range(1, data.nt + 1):
        t = times[k]
        gu = field_qgrads(prob.u.field(k))
        gp = field_qgrads(prob.p.field(k))
        pv = fem.field_qvalues(prob.p.field(k))
        uv = fem.field_qvalues(prob.u.field(k))
        um = fem.field_qvalues(prob.u.field(k - 1))
        d = uv - data.u_d.value(t, P)
        fv = data.f.value(t, P)
        Mgu = gu @ Mmat.T
        Mgp = gp @ Mmat
        scal = np.sum(Mgu * gp, axis=-1) - pv * fv
        S0 += dt * (-pv[..., None] * data.f.grad(t, P) - d[..., None] * data.u_d.grad(t, P))
        S1 += dt * (-np.einsum('...i,...j->...ij', gp, Mgu)
                    - np.einsum('...i,...j->...ij', gu, Mgp)
                    + (scal + 0.5 * d * d)[..., None, None] * I2)
        dtp += pv * (uv - um)
    ref = reduce_to_nodes(space, S0=S0, S1=S1, dt_density=dtp)
    assert np.abs(terms["S0"] - ref["S0"]).max() < 1e-13
    assert np.abs(terms["S1"] - ref["S1"]).max() < 1e-13
    assert np.abs(terms["dt_pairing"] - ref["dt_pairing"]).max() < 1e-13


# Per-step reference loops: the tensor and material marches as they were
# before the Gram accumulation and the batched right-hand sides, evaluating
# M(t_k, .) and f(t_k, .) pointwise at every step.  The reference S0 still
# carries the analytic initial-condition slot -q grad g, which the module
# now reports at the dofs as ``ic_pairing``.

def _reference_misfits(problem):
    data, series = problem.data, problem.u
    P = series.space.qpoints
    out = {}
    if problem.which == "j1":
        for k in range(1, data.nt + 1):
            out[k] = fem.field_qvalues(series.field(k)) - data.u_d.value(problem.times[k], P)
    else:
        out[data.nt] = fem.field_qvalues(series.field(data.nt)) \
            - data.u_d.value(data.t0, P)
    return out


def _reference_tensors(problem):
    data, series, adjoint, which = problem.data, problem.u, problem.p, problem.which
    space = series.space
    P = space.qpoints
    M, nq = space.qweights.shape
    dt = data.t0 / data.nt
    times = problem.times
    d = _reference_misfits(problem)

    qv = fem.field_qvalues(adjoint.field(0))
    S0 = np.zeros((M, nq, 2))
    S0 -= qv[..., None] * data.g.grad(P)
    S1 = np.zeros((M, nq, 2, 2))
    dtp = np.zeros((M, nq))
    for k in range(1, data.nt + 1):
        t = times[k]
        uk = series.field(k)
        pk = adjoint.field(k)
        gu = field_qgrads(uk)
        gp = field_qgrads(pk)
        pv = fem.field_qvalues(pk)
        Mk = data.M.value(t, P)
        DM = data.M.profile.value(t) * data.M.spatial.dspace(P)
        fv = data.f.value(t, P)
        Mgu = np.einsum('mqij,mqj->mqi', Mk, gu)
        Mtgp = np.einsum('mqji,mqj->mqi', Mk, gp)
        S0 += dt * (tc.apply3(tc.transpose3(tc.transpose3(DM)), gp, gu)
                    - pv[..., None] * data.f.grad(t, P))
        scal = np.einsum('...i,...i->...', Mgu, gp) - pv * fv
        S1 += dt * (-np.einsum('...i,...j->...ij', gp, Mgu)
                    - np.einsum('...i,...j->...ij', gu, Mtgp)
                    + scal[..., None, None] * np.eye(2))
        uq = fem.field_qvalues(uk)
        um = fem.field_qvalues(series.field(k - 1))
        dtp += pv * (uq - um)
    for k, dk in d.items():
        scale = dt if which == "j1" else 1.0
        t = times[k] if which == "j1" else data.t0
        S0 -= scale * dk[..., None] * data.u_d.grad(t, P)
        S1 += scale * (0.5 * dk * dk)[..., None, None] * np.eye(2)
    return S0, S1, dtp


def _reference_material(data, series, theta, problem):
    space = problem.space
    samples = interpolated_samples(space, theta)
    P = space.qpoints
    dt = problem.dt
    Mdot = fem.assemble_mass_values(space, samples.vol_div)
    ell = np.zeros_like(series.values)
    vals = np.empty_like(series.values)
    vals[0] = initial_rate(space, data, theta.eval(space.mesh.nodes))
    udot = vals[0]
    for k in range(1, data.nt + 1):
        t = problem.times[k]
        uk = series.field(k)
        gu = field_qgrads(uk)
        Mk = data.M.value(t, P)
        rate = material_tensor_rate(Mk, samples) \
            + tc.matvec3(data.M.profile.value(t) * data.M.spatial.dspace(P), samples.vol_val)
        W = np.einsum('mqij,mqj->mqi', rate, gu)
        fdot = data.f.value(t, P) * samples.vol_div \
            + np.einsum('...i,...i->...', data.f.grad(t, P), samples.vol_val)
        lk = Mdot @ (series.values[k] - series.values[k - 1]) \
            + dt * fem.assemble_grad_load_values(space, W) \
            - dt * fem.assemble_load_values(space, fdot)
        ell[k] = problem.keep * lk
        b = problem.keep * (problem.Mu @ udot) - ell[k]
        udot = problem.step(k, b)
        vals[k] = udot
    return vals, ell


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("which", ["j1", "j2"])
def test_misfits_match_per_step_evaluation_bit_for_bit(rect_unit, which):
    """cost() and B scale u_d's spatial part, evaluated once, by a(t_k): the
    bits of evaluating u_d(t_k, .) at every step."""
    data = _data(nt=7, ud_spec=("poly2 0.1 0.2 -0.1 0.3 0 0.15", "decay 0.3"))
    prob = ParabolicProblem(rect_unit, data, which=which)
    w = prob.space.qweights
    scale = prob.dt if which == "j1" else 1.0
    misfits = _reference_misfits(prob)
    cost = float(sum(scale * 0.5 * np.sum(w * dk * dk) for dk in misfits.values()))
    B = np.zeros_like(prob.u.values)
    for k, dk in misfits.items():
        B[k] = scale * fem.assemble_load_values(prob.space, dk)
    assert np.float64(prob.cost()).tobytes() == np.float64(cost).tobytes()
    assert prob.B.tobytes() == B.tobytes()


@pytest.mark.parametrize("which", ["j1", "j2"])
def test_ud_split_matches_per_step_evaluation_bit_for_bit(rect_unit, which):
    """u_d(t_k, .) and its gradient, and the tensors built from them, have
    the bits of a per-step evaluation: the separable u_d's spatial parts are
    evaluated once and scaled by a(t_k)."""
    data = _data(nt=7, ud_spec=("poly2 0.1 0.2 -0.1 0.3 0 0.15", "decay 0.3"))
    prob = ParabolicProblem(rect_unit, data, which=which)
    P = prob.space.qpoints
    split = prob._build_tensors()
    for part in ("value", "grad"):
        at_step = prob._u_d_steps(part)
        for k in range(1, data.nt + 1):
            want = getattr(data.u_d, part)(prob.times[k], P)
            assert at_step(k).tobytes() == want.tobytes(), (part, k)
    _track_per_step(prob, data.u_d)
    per_step = prob._build_tensors()
    assert split.terms["S0"].tobytes() == per_step.terms["S0"].tobytes()
    assert split.terms["S1"].tobytes() == per_step.terms["S1"].tobytes()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("m_profile", ["ramp 0.5", "decay 0.7"])
@pytest.mark.parametrize("which", ["j1", "j2"])
def test_gram_tensors_and_batched_material_match_per_step_loops(rect_unit, order,
                                                                m_profile, which):
    data = _data(nt=7, m_profile=m_profile, f_spec=("sine2 1.5 1 1", "decay 0.4"),
                 g_spec="sine2 1 1 1", ud_spec=("poly2 0.1 0.2 -0.1 0.3 0 0.15", "decay 0.3"))
    prob = ParabolicProblem(rect_unit, data, which=which, order=order)
    terms = prob._build_tensors().terms
    S0, S1, dtp = _reference_tensors(prob)
    P = prob.space.qpoints
    S0_ic = -fem.field_qvalues(prob.p.field(0))[..., None] * data.g.grad(P)
    ref = reduce_to_nodes(prob.space, S0=S0, S1=S1, dt_density=dtp)
    ic = reduce_to_nodes(prob.space, S0=S0_ic)["S0"]
    assert _rel(terms["S0"] + ic, ref["S0"]) < 1e-12
    assert _rel(terms["S1"], ref["S1"]) < 1e-12
    assert _rel(terms["dt_pairing"], ref["dt_pairing"]) < 1e-12

    theta = bump_theta()
    udot, ell = prob._material(theta)
    vals, ell_ref = _reference_material(data, prob.u, theta, prob)
    assert _rel(ell[1:], ell_ref[1:]) < 1e-12
    assert _rel(udot.values, vals) < 1e-12

    ic = prob.breakdown(theta).terms["ic_pairing"]
    ic_ref = -float((prob.Mu @ prob.p.values[0])
                    @ initial_rate(prob.space, data, theta.eval(prob.mesh.nodes)))
    assert abs(ic - ic_ref) <= 1e-12 * abs(ic_ref)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("m_profile", ["const", "ramp 0.5"])
@pytest.mark.parametrize("which", ["j1", "j2"])
def test_block_time_sums_match_per_step_sums(rect_unit, order, m_profile, which):
    """The Gram matrices, p_b and the tracking term summed over blocks of
    steps are the per-step sums up to the order of the additions; nt = 10
    ends on a partial block."""
    data = _data(nt=10, m_profile=m_profile, g_spec="sine2 1 1 1",
                 ud_spec=("poly2 0.1 0.2 -0.1 0.3 0 0.15", "decay 0.3"))
    prob = ParabolicProblem(rect_unit, data, which=which, order=order)
    terms = prob._build_tensors().terms
    S0, S1, dtp = shape_tensors_per_step(prob)
    ref = reduce_to_nodes(prob.space, S0=S0, S1=S1, dt_density=dtp)
    for name in ("S0", "S1", "dt_pairing"):
        assert _rel(terms[name], ref[name]) < 1e-12, name


@pytest.mark.parametrize("which", ["j1", "j2"])
def test_shape_tensor_memory_flat_in_steps(which):
    """The tensors keep one step's fields alive at a time: peak traced
    memory at nt = 64 stays within 1.1x of the nt = 8 peak."""
    mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 24, 24)
    peaks = {}
    for nt in (8, 64):
        prob = ParabolicProblem(mesh, _data(nt=nt), which=which)
        p = prob.p  # the adjoint marches on first use, outside the traced window
        tracemalloc.start()
        try:
            prob._build_tensors()
            peaks[nt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 1.1 * peaks[8], peaks


def test_cost_quadratic_in_ud_perturbation(rect_unit):
    """J1 with u_d = u + eps w is exactly quadratic in eps."""
    data = _data(nt=8)
    prob = ParabolicProblem(rect_unit, data, which="j1")
    shift = lambda P: np.sin(P[..., 0] + 2.0 * P[..., 1])
    costs = {}
    for eps in (1e-3, 2e-3):
        _track_per_step(prob, _FrozenUd(prob, shift=shift, eps=eps))
        costs[eps] = prob.cost()
    assert costs[1e-3] > 0.0
    assert abs(costs[2e-3] / costs[1e-3] - 4.0) < 1e-10


# --------------------------------------------------------- finite differences

def _fd_orders(prob, theta, mesh, s_list):
    dJ = prob.derivative(theta)
    j0 = prob.cost()
    central, forward = [], []
    for s in s_list:
        jp = prob.rebuilt(transported(theta, +s, mesh)).cost()
        jm = prob.rebuilt(transported(theta, -s, mesh)).cost()
        central.append(abs((jp - jm) / (2.0 * s) - dJ))
        forward.append(abs((jp - j0) / s - dJ))
    scale = 1.0 + abs(dJ)
    c_ord = np.log2(np.array(central[:-1]) / np.array(central[1:]))
    f_ord = np.log2(np.array(forward[:-1]) / np.array(forward[1:]))
    return dJ, np.array(central) / scale, c_ord, f_ord


def test_fd_shape_derivative_j1():
    mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 10, 10)
    prob = ParabolicProblem(mesh, _data(nt=10), which="j1")
    dJ, rel, c_ord, f_ord = _fd_orders(prob, bump_theta(), mesh, (0.04, 0.02, 0.01))
    assert c_ord.min() > 1.85, (rel, c_ord)
    assert f_ord.min() > 0.9, f_ord
    assert rel[-1] < 1e-5, rel


def test_fd_shape_derivative_j2():
    mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 10, 10)
    prob = ParabolicProblem(mesh, _data(nt=10), which="j2")
    dJ, rel, c_ord, _ = _fd_orders(prob, bump_theta(), mesh, (0.04, 0.02, 0.01))
    assert c_ord.min() > 1.85, (rel, c_ord)
    assert rel[-1] < 1e-5, rel


@pytest.mark.parametrize("which", ["j1", "j2"])
@pytest.mark.parametrize("g_spec", ["sine2 1 1 1", "gauss 1 0.4 0.6 0.3"])
def test_fd_exact_for_non_affine_initial_data(which, g_spec):
    """The nodal ic_pairing term makes dJ consistent with I_h(g) for any g."""
    mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 12, 12)
    prob = ParabolicProblem(mesh, _data(nt=16, g_spec=g_spec), which=which)
    theta = make_field("bump", (1.0, 0.5, 0.5, 0.0, 0.45), support_box=HOLDALL)
    table = fd_shape_check(prob, theta, (0.04, 0.02, 0.01))
    assert table.observed_order() >= 1.9, [r.error for r in table.rows]
    assert table.extrapolated_error <= 1e-9, table.extrapolated_error
