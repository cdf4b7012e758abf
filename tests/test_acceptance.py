"""Release gate: one test per acceptance criterion, tolerances stated inline.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test also asserts its runtime budget, so a pass means
both the numbers and the performance envelope hold.
"""

import glob
import json
import os
import time

import numpy as np
import pytest

import shapegrad.fem_core as fem
import shapegrad.tensor_calc as tc
from shapegrad.cli import main as cli_main
from shapegrad.data_catalog import parse_matrix, parse_rfunction, parse_scalar, \
    time_matrix, time_scalar
from shapegrad.elliptic_problems import (DirichletEnergyData,
                                         DirichletEnergyProblem,
                                         QuasilinearData, QuasilinearProblem,
                                         RobinData, RobinProblem,
                                         dirichlet_energy_boundary_dJ)
from shapegrad.flow import make_field
from shapegrad.mesh import gen_disk, gen_rectangle
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem
from shapegrad.shape_assembly import (ManufacturedProblem, material_tensor_rate,
                                      theta_samples)
from shapegrad.validation import (AreaProblem, duality_check, estimate_order,
                                  fd_shape_check, material_taylor_check)

from conftest import HOLDALL, catalog_thetas
from flow_references import pullback_quotients
from parabolic_references import ParabolicOperator

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "demos", "configs")


class _Budget:
    """Context manager asserting a wall-clock budget on exit."""

    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, \
                f"{self.label}: {self.elapsed:.2f}s exceeds {self.seconds}s budget"
        return False


def _rand(rng, shape):
    return rng.standard_normal(shape)


def _rel_ok(lhs, rhs, tol):
    scale = np.maximum(1.0, np.abs(lhs))
    return (np.abs(lhs - rhs) <= tol * scale).all()


# --------------------------------------------------------------- criterion 1

def test_criterion_1_tensor_identities():
    """Contraction/transpose identity battery: 1000 random instances per
    identity, d in {2, 3}, 1e-12 relative, under 1 second."""
    TOL = 1e-12
    with _Budget(1.0, "criterion 1"):
        for d in (2, 3):
            rng = np.random.default_rng(1000 + d)
            n = 1000
            S3 = _rand(rng, (n, d, d, d))
            S = _rand(rng, (n, d, d))
            T = _rand(rng, (n, d, d))
            U = _rand(rng, (n, d, d))
            a, b, c, e = (_rand(rng, (n, d)) for _ in range(4))
            St = np.swapaxes(S, -1, -2)
            mm = lambda X, Y: np.einsum('nij,njk->nik', X, Y)
            mv = lambda X, y: np.einsum('nij,nj->ni', X, y)
            dot = lambda x, y: np.einsum('ni,ni->n', x, y)

            # transpose duality  a . (S b c) = b . (S^T c a)
            assert _rel_ok(dot(a, tc.apply3(S3, b, c)),
                           dot(b, tc.apply3(tc.transpose3(S3), c, a)), TOL)
            # triple transpose is the identity (exact)
            assert np.array_equal(
                tc.transpose3(tc.transpose3(tc.transpose3(S3))), S3)
            # S : (a x b) = a . (S b) = (S^T a) . b = S^T : (b x a)
            lhs = tc.double_dot(S, tc.outer(a, b))
            assert _rel_ok(lhs, dot(a, mv(S, b)), TOL)
            assert _rel_ok(lhs, dot(mv(St, a), b), TOL)
            assert _rel_ok(lhs, tc.double_dot(St, tc.outer(b, a)), TOL)
            # S (a x b) = (S a) x b ; (a x b) S = a x (S^T b) ; (a x b) c = (c.b) a
            assert _rel_ok(mm(S, tc.outer(a, b)), tc.outer(mv(S, a), b), TOL)
            assert _rel_ok(mm(tc.outer(a, b), S), tc.outer(a, mv(St, b)), TOL)
            assert _rel_ok(mv(tc.outer(a, b), c),
                           dot(c, b)[:, None] * a, TOL)
            # (a x b):(c x e) = (a.c)(b.e) = (c x b):(a x e)
            v = tc.double_dot(tc.outer(a, b), tc.outer(c, e))
            assert _rel_ok(v, dot(a, c) * dot(b, e), TOL)
            assert _rel_ok(v, tc.double_dot(tc.outer(c, b), tc.outer(a, e)), TOL)
            # (S T) : U = T : (S^T U)
            assert _rel_ok(tc.double_dot(mm(S, T), U),
                           tc.double_dot(T, mm(St, U)), TOL)
            # (S3^T a) : T = S3 ::: (a x T)
            assert _rel_ok(tc.double_dot(tc.matvec3(tc.transpose3(S3), a), T),
                           tc.triple_dot(S3, tc.outer_vm(a, T)), TOL)
    print("criterion 1 PASS: tensor identity battery at 1e-12")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_transport_derivative():
    """The rates dJ is assembled from, at the 576 volume and 72 edge
    quadrature points of a disk reaching into the hold-all cutoff ramp,
    x 5 catalog fields: ``material_tensor_rate`` and the analytic
    ``vol_div``/``edge_divg`` against centered FD (s = 1e-4) of
    xi DT^-1 Q DT^-T, xi = det DT and |det DT| |DT^-T n| with
    DT_s = I + s Dtheta.  Tolerance 1e-6 relative, under 5 seconds."""
    TOL = 1e-6
    s = 1e-4
    with _Budget(5.0, "criterion 2"):
        rng = np.random.default_rng(42)
        space = fem.FeSpace(gen_disk((0.0, 0.0), 1.2, 2), order=1)
        for theta in catalog_thetas():
            B = _rand(rng, (2, 2))
            Q = B @ B.T + 2.0 * np.eye(2)
            samples = theta_samples(space, theta, "analytic")
            rate = material_tensor_rate(Q, samples)
            fd_rate, fd_xi, fd_xi_g = pullback_quotients(theta, space, Q, s)
            scale = np.maximum(1.0, np.abs(rate).max(axis=(-2, -1)))
            assert (np.abs(fd_rate - rate).max(axis=(-2, -1)) <= TOL * scale).all(), theta.name
            assert _rel_ok(samples.vol_div, fd_xi, TOL), theta.name
            assert _rel_ok(samples.edge_divg, fd_xi_g, TOL), theta.name
    print("criterion 2 PASS: transport-derivative suite at 1e-6")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_area_gate():
    """J = |Omega| on the refined disk: FD order >= 1.9 over
    s in {0.02, 0.01, 0.005} and extrapolated gap <= 1e-10, under 5 s."""
    with _Budget(5.0, "criterion 3"):
        mesh = gen_disk((0.0, 0.0), 1.0, 5)  # max edge ~ 0.045
        problem = AreaProblem(mesh)
        theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8),
                           support_box=HOLDALL)
        table = fd_shape_check(problem, theta, (0.02, 0.01, 0.005))
        assert table.observed_order() >= 1.9
        assert table.extrapolated_error <= 1e-10
    print(f"criterion 3 PASS: area gate order {table.observed_order():.2f}, "
          f"extrapolated gap {table.extrapolated_error:.1e}")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_robin_suite():
    """Robin problem: constant-state exactness, then duality/FD/Taylor on
    the disk with f = 1, g = 0, beta = 1, M = diag(2, 1) at ~1e4 dofs.
    Budget 30 seconds."""
    M = np.diag([2.0, 1.0])
    with _Budget(30.0, "criterion 4"):
        const = RobinData(M=M, beta=parse_scalar("const 1"),
                          f=parse_scalar("const 0"), g=parse_scalar("const 1"))
        small = RobinProblem(gen_disk((0.0, 0.0), 1.0, 4), const)
        assert np.abs(small.u.coefficients - 1.0).max() <= 1e-10
        for theta in catalog_thetas():
            assert abs(small.derivative(theta)) <= 1e-10

        data = RobinData(M=M, beta=parse_scalar("const 1"),
                         f=parse_scalar("const 1"), g=parse_scalar("const 0"))
        mesh = gen_disk((0.0, 0.0), 1.0, 6)
        problem = RobinProblem(mesh, data)
        assert problem.dof_count >= 10_000
        theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8),
                           support_box=HOLDALL)
        assert duality_check(problem, theta).rel_gap <= 1e-9
        table = fd_shape_check(problem, theta, (0.04, 0.02, 0.01))
        assert table.observed_order() >= 1.9
        rel = table.clean_rows()[-1].error / (1.0 + abs(table.dJ))
        assert rel <= 1e-5
        ttable = material_taylor_check(problem, theta, (0.16, 0.08, 0.04))
        assert ttable.observed_order() >= 1.9
    print(f"criterion 4 PASS: robin at {problem.dof_count} dofs, FD order "
          f"{table.observed_order():.2f}, Taylor order {ttable.observed_order():.2f}")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_quasilinear_suite():
    """Quasilinear catalog example: Newton <= 8 iterations to 1e-11,
    duality <= 1e-9, FD order >= 1.9 with relative gap <= 1e-4.
    Budget 60 seconds."""
    with _Budget(60.0, "criterion 5"):
        data = QuasilinearData(m=parse_rfunction("saturating"),
                               f=parse_rfunction("affine_r 1 0.1"),
                               g=parse_scalar("const 2"),
                               u_d=parse_scalar("linear 0 1 0"))
        mesh = gen_disk((0.0, 0.0), 1.0, 5)
        problem = QuasilinearProblem(mesh, data)
        problem.u
        iters = len(problem.newton_history) - 1
        assert iters <= 8
        assert problem.newton_history[-1] <= 1e-11 * problem.newton_history[0]
        theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8),
                           support_box=HOLDALL)
        assert duality_check(problem, theta).rel_gap <= 1e-9
        table = fd_shape_check(problem, theta, (0.04, 0.02, 0.01))
        assert table.observed_order() >= 1.9
        rel = table.clean_rows()[-1].error / (1.0 + abs(table.dJ))
        assert rel <= 1e-4
    print(f"criterion 5 PASS: Newton {iters} iterations, FD order "
          f"{table.observed_order():.2f}")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_parabolic_suite():
    """Parabolic pipeline at nt = 64, ~5e3 spatial dofs: exact block
    transposition, J1/J2 duality <= 1e-9, FD orders (forward >= 0.9,
    central >= 1.9), and dt-convergence ~ 1 on a manufactured solution.
    Budget 120 seconds."""
    with _Budget(120.0, "criterion 6"):
        mesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 48, 48)
        data = ParabolicData(
            M=time_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3"),
            f=time_scalar("sine2 1.5 1 1", "decay 0.4"),
            g=parse_scalar("linear 0.2 0.3 -0.1"),
            u_d=time_scalar("poly2 0.1 0.2 -0.1 0.3 0 0.15"),
            t0=1.0, nt=64)

        op = ParabolicOperator(mesh, data)
        rng = np.random.default_rng(7)
        ndof = fem.FeSpace(mesh, order=1).dof_count
        assert ndof >= 4500
        for _ in range(3):
            V = rng.standard_normal((data.nt + 1, ndof))
            W = rng.standard_normal((data.nt + 1, ndof))
            lhs = float(np.sum(op.forward(V) * W))
            rhs = float(np.sum(V * op.adjoint(W)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

        theta = make_field("bump", (1.0, 0.5, 0.5, 0.0, 0.45),
                           support_box=HOLDALL)
        orders = {}
        for which in ("j1", "j2"):
            problem = ParabolicProblem(mesh, data, which=which)
            assert duality_check(problem, theta).rel_gap <= 1e-9
            # the forward quotient carries an opposite-sign s^2 term, so its
            # first-order decay only shows at the smaller steps
            table = fd_shape_check(problem, theta, (0.02, 0.01, 0.005))
            central = table.observed_order()
            forward = estimate_order([(r.s, r.forward_error)
                                      for r in table.clean_rows()])
            assert central >= 1.9
            assert forward >= 0.9
            orders[which] = (central, forward)

        # manufactured u = exp(-t) sin(pi x) sin(pi y): L2(L2) error ~ dt
        amp = 2.0 * np.pi ** 2 - 1.0
        mdata = {nt: ParabolicData(M=time_matrix("const_mat 1 0 1"),
                                   f=time_scalar(f"sine2 {amp!r} 1 1", "decay 1"),
                                   g=parse_scalar("sine2 1 1 1"),
                                   u_d=time_scalar("const 0"),
                                   t0=1.0, nt=nt)
                 for nt in (2, 4, 8)}
        cmesh = gen_rectangle(0.0, 0.0, 1.0, 1.0, 32, 32)
        space = fem.FeSpace(cmesh, order=1)
        X = space.qpoints
        errs = []
        for nt, d in mdata.items():
            series = ParabolicProblem(cmesh, d).u
            dt = d.t0 / nt
            acc = 0.0
            for k in range(nt + 1):
                exact = np.exp(-k * dt) * np.sin(np.pi * X[..., 0]) \
                    * np.sin(np.pi * X[..., 1])
                diff = fem.field_qvalues(series.field(k)) - exact
                acc += dt * float(np.sum(space.qweights * diff * diff))
            errs.append((1.0 / nt, np.sqrt(acc)))
        dt_order = estimate_order(errs)
        assert 0.8 <= dt_order <= 1.25
    print(f"criterion 6 PASS: duality/FD orders {orders}, dt order {dt_order:.2f}")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_dirichlet_energy_suite():
    """Dirichlet-energy example: p = -2u to 1e-10, volume vs boundary
    derivative converging under refinement at order >= 0.9, and the FD
    check at criterion-4 tolerances."""
    with _Budget(30.0, "criterion 7"):
        data = DirichletEnergyData(f=parse_scalar("const 1"))
        theta = make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8),
                           support_box=HOLDALL)
        gaps = []
        for level in (3, 4, 5):
            problem = DirichletEnergyProblem(gen_disk((0.0, 0.0), 1.0, level), data)
            assert np.abs(problem.p.coefficients
                          + 2.0 * problem.u.coefficients).max() <= 1e-10
            samples = theta_samples(problem.space, theta, "interpolated")
            dJ_boundary = dirichlet_energy_boundary_dJ(data, problem.u, samples)
            gaps.append((0.5 ** level, abs(problem.derivative(theta) - dJ_boundary)))
        hadamard_order = estimate_order(gaps)
        assert hadamard_order >= 0.9

        problem = DirichletEnergyProblem(gen_disk((0.0, 0.0), 1.0, 5), data)
        assert duality_check(problem, theta).rel_gap <= 1e-9
        table = fd_shape_check(problem, theta, (0.04, 0.02, 0.01))
        assert table.observed_order() >= 1.9
        rel = table.clean_rows()[-1].error / (1.0 + abs(table.dJ))
        assert rel <= 1e-5
        ttable = material_taylor_check(problem, theta, (0.16, 0.08, 0.04))
        assert ttable.observed_order() >= 1.9
    print(f"criterion 7 PASS: volume/boundary order {hadamard_order:.2f}, "
          f"FD order {table.observed_order():.2f}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_manufactured_propositions():
    """Tensorized assembly equals the raw derivative displays to 1e-12
    relative for all catalog fields (including nonzero second derivatives),
    and the cost-transport derivative matches flow FD at order >= 1.9.
    Budget 10 seconds."""
    with _Budget(10.0, "criterion 8"):
        mesh = gen_disk((0.0, 0.0), 1.0, 4)
        thetas = catalog_thetas()
        probe = np.array([[0.31, -0.22]])
        assert any(np.abs(t.hess(probe)).max() > 0 for t in thetas)
        for variant in ("prop5", "prop6"):
            problem = ManufacturedProblem(mesh, variant=variant)
            for theta in thetas:
                assert problem.dual_form_gap(theta) <= 1e-12
        prop5 = ManufacturedProblem(mesh, variant="prop5")
        table = fd_shape_check(prop5,
                               make_field("bump", (1.0, 0.4, 0.2, -0.1, 0.8),
                                          support_box=HOLDALL),
                               (0.02, 0.01, 0.005))
        assert table.observed_order() >= 1.9
    print(f"criterion 8 PASS: dual-form gaps at 1e-12, transport FD order "
          f"{table.observed_order():.2f}")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_shipped_configs_deterministic(tmp_path):
    """Every shipped config, run twice through the CLI, produces
    byte-identical CSV/JSON reports (timing sidecars excluded)."""
    configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    assert configs, f"no shipped configs under {CONFIG_DIR}"
    for cfg in configs:
        stem = os.path.splitext(os.path.basename(cfg))[0]
        outa = tmp_path / f"{stem}-a"
        outb = tmp_path / f"{stem}-b"
        for out in (outa, outb):
            assert cli_main(["derive", "--config", cfg, "--out", str(out)]) == 0, \
                f"shipped config {stem} failed"
        names = sorted(os.path.basename(p)
                       for p in glob.glob(str(outa / "*"))
                       if not p.endswith("-timings.json"))
        assert names, f"config {stem} wrote no reports"
        for name in names:
            assert (outa / name).read_bytes() == (outb / name).read_bytes(), \
                f"{stem}: {name} differs between runs"
    print(f"criterion 9 PASS: {len(configs)} shipped configs byte-stable")
