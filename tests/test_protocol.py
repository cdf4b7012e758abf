"""The problem protocol, for every problem the CLI knows: each is built
from its shipped config at a tiny size, re-solving is the same problem on
new nodes, a re-solve does only the state solve's factorizations and solves
(a linear one none: it runs GMRES on the reference's factors), the
capability flags are exactly the checks the CLI writes, and the one duality
pair of the protocol is each stateful problem's pair as first written."""

import configparser
import glob
import json
import os

import numpy as np
import pytest

from shapegrad import cli, elliptic_problems, fem_core, parabolic_problem, shape_assembly
from shapegrad.flow import transport_mesh
from shapegrad.shape_assembly import ShapeGradient, ShapeTensors

import elliptic_references
import parabolic_references

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")
# config keys that set the problem size, and their values at the tiny size
TINY = {("mesh", "refine"): "2", ("mesh", "nx"): "6", ("mesh", "ny"): "6",
        ("data", "nt"): "4"}
# (factorizations, checked solves, at most this many triangular solve pairs)
# of one re-solve of the linear problems at s = 0.01: GMRES on the
# reference's factors, which factorizes and check-solves nothing, and
# applies them k + 2 times for k iterations, for its start LU^-1 b, once per
# iteration and for the final LU^-1 (V y) (6 iterations here, 7 on the
# refine-6 disk)
STATE_SOLVES = {"robin": (0, 0, 10), "dirichlet_energy": (0, 0, 10), "area": (0, 0, 0)}
STATEFUL = ["robin", "quasilinear", "dirichlet_energy", "parabolic_j1", "parabolic_j2"]


def _tiny_config(tmp_path, name):
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(path)
        if cp.get("run", "problem") == name:
            break
    else:
        pytest.fail(f"no shipped config for problem {name!r}")
    for (section, key), value in TINY.items():
        if cp.has_option(section, key):
            cp.set(section, key, value)
    out = tmp_path / f"{name}.cfg"
    with open(out, "w") as fh:
        cp.write(fh)
    return str(out)


def _count_solves(monkeypatch):
    """Count ``Factorized`` constructions, checked solves (transposed ones
    included) and triangular solve pairs (each checked solve's one and each
    preconditioner application) from here on."""
    counts = {"factor": 0, "solve": 0, "apply": 0}
    init = fem_core.Factorized.__init__

    def counting_init(self, A):
        counts["factor"] += 1
        init(self, A)

    def counting(key, solve):
        def counting_solve(self, *args):
            counts[key] += 1
            return solve(self, *args)
        return counting_solve

    monkeypatch.setattr(fem_core.Factorized, "__init__", counting_init)
    for key, name in (("solve", "solve"), ("solve", "solve_transposed"), ("apply", "_apply")):
        monkeypatch.setattr(fem_core.Factorized, name,
                            counting(key, getattr(fem_core.Factorized, name)))
    return counts


@pytest.mark.parametrize("name", cli.PROBLEMS)
def test_problem_protocol(name, tmp_path, monkeypatch):
    path = _tiny_config(tmp_path, name)
    cfg = cli.RunConfig(path)
    problem = cli.build_problem(cfg, cli.build_mesh(cfg))
    theta = cli.build_theta(cfg, required=True)

    # the same problem on the same nodes reproduces the cost and the state
    assert problem.rebuilt(problem.mesh).cost() == problem.cost()
    if problem.has_state:
        assert np.array_equal(problem.rebuilt(problem.mesh).u.coefficients,
                              problem.u.coefficients)

    # a problem's tensors are of the one type of its theta mode
    kind = ShapeGradient if problem.theta_mode == "interpolated" else ShapeTensors
    assert isinstance(problem.tensors(), kind)

    # a re-solve on a transported mesh does the state solve and nothing more:
    # the adjoint and its factorizations are lazy
    if problem.fd_target == "dJ":
        mesh_s = transport_mesh(theta, 0.01, problem.mesh)
        if name == "quasilinear":  # one Jacobian factorization per Newton step
            history = problem.rebuilt(mesh_s).newton_history
            expected = (len(history) - 1,) * 3
        elif name.startswith("parabolic"):
            # the shipped M is time-independent: one factorization, nt steps
            expected = (1, problem.data.nt, problem.data.nt)
        else:
            expected = STATE_SOLVES[name]
        counts = _count_solves(monkeypatch)
        problem.rebuilt(mesh_s).cost()
        assert (counts["factor"], counts["solve"]) == expected[:2], counts
        assert counts["apply"] <= expected[2], counts
        monkeypatch.undo()

    # the capability flags are the checks the CLI writes
    fd_keys = set()
    if problem.fd_target is not None:
        fd_keys = {"fd_order", "fd_rel_gap"}
        if cfg.get("validation", "extrapolated_max") is not None:
            fd_keys.add("fd_extrapolated")
    shared = fd_keys | {key for key, flag in (("duality_rel_gap", problem.has_state),
                                              ("dual_form_gap", problem.dual_form)) if flag}
    taylor = {"taylor_order"} if problem.has_state else set()
    for command, kind, expected in (("derive", "report", shared),
                                    ("validate", "validate", shared | taylor)):
        out = tmp_path / command
        assert cli.main([command, "--config", path, "--out", str(out)]) in (
            cli.EXIT_OK, cli.EXIT_VALIDATION)
        report = json.loads((out / f"{problem.name}-{kind}.json").read_text())
        assert set(report["checks"]) == expected
        assert ("fd" in report) == (problem.fd_target is not None)
        if problem.fd_target is not None:
            assert report["fd"]["metadata"]["target"] == problem.fd_target
        assert (out / f"{problem.name}-fd.csv").exists() == (problem.fd_target is not None)
        assert (out / f"{problem.name}-taylor.csv").exists() == (
            command == "validate" and problem.has_state)
    out = tmp_path / "solve"
    rc = cli.main(["solve", "--config", path, "--out", str(out)])
    assert rc == (cli.EXIT_OK if problem.has_state else cli.EXIT_CONFIG)
    assert (out / f"{problem.name}-p.field").exists() == problem.has_state


@pytest.mark.parametrize("name", STATEFUL)
def test_constructor_solves_nothing(name, tmp_path, monkeypatch):
    """A constructor checks its input and discretizes: it factorizes and
    solves nothing and runs no Newton or time step.  The state is solved
    on first use."""
    cfg = cli.RunConfig(_tiny_config(tmp_path, name))
    mesh = cli.build_mesh(cfg)
    counts = _count_solves(monkeypatch)
    steps = []
    for cls, method in ((elliptic_problems._EllipticProblem, "residual"),
                        (parabolic_problem.ParabolicProblem, "step")):
        def counting(self, *args, _original=getattr(cls, method)):
            steps.append(args)
            return _original(self, *args)
        monkeypatch.setattr(cls, method, counting)
    problem = cli.build_problem(cfg, mesh)
    assert counts == {"factor": 0, "solve": 0, "apply": 0} and steps == []
    assert "u" not in vars(problem)
    problem.u
    assert counts["factor"] >= 1 and steps


@pytest.mark.parametrize("name", STATEFUL)
def test_duality_pair_is_the_pair_as_first_written(name, tmp_path):
    """<ell, p> and <B, udot> over all state dofs against the problem's own
    pair as first written: the stationary one (keep L and keep B) to the
    bit, the parabolic one (its initial-condition term apart from the step
    slots) to 1e-15 relative, the rounding of the regrouped sums."""
    cfg = cli.RunConfig(_tiny_config(tmp_path, name))
    problem = cli.build_problem(cfg, cli.build_mesh(cfg))
    theta = cli.build_theta(cfg, required=True)
    assert problem.has_state
    pair = problem.duality_pair(theta)
    if name.startswith("parabolic"):
        ref = parabolic_references.duality_pair(problem, theta)
        for got, want in zip(pair, ref):
            assert abs(got - want) <= 1e-15 * abs(want), (pair, ref)
    else:
        ref = elliptic_references.duality_pair(problem, theta)
        assert np.array(pair).tobytes() == np.array(ref).tobytes(), (pair, ref)


@pytest.mark.parametrize("config", ["robin-disk.cfg", "parabolic-j1-square.cfg"])
def test_validate_solves_the_material_derivative_once(config, tmp_path, monkeypatch):
    """The Taylor remainder and the duality pair of one ``validate`` share
    one material solve of the shipped config's theta."""
    path = os.path.join(CONFIG_DIR, config)
    cfg = cli.RunConfig(path)
    cls = type(cli.build_problem(cfg, cli.build_mesh(cfg)))
    material = cls._material
    thetas = []

    def counting_material(self, theta):
        thetas.append(theta)
        return material(self, theta)

    monkeypatch.setattr(cls, "_material", counting_material)
    rc = cli.main(["validate", "--config", path, "--out", str(tmp_path / "out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    assert len(thetas) == 1


@pytest.mark.parametrize("config, transports", [("robin-disk.cfg", 8),
                                                ("parabolic-j1-square.cfg", 9),
                                                ("prop5-manufactured.cfg", 6)])
def test_validate_samples_theta_once_and_shares_resolves(config, transports, tmp_path,
                                                          monkeypatch):
    """One ``validate`` with the default step lists samples its theta once
    per mode (the material right-hand side reads the interpolated set, while
    the CLI's zero check and the breakdown read theta at the nodes; prop5's
    analytic set serves its zero check and dJ, its interpolated set the FD
    target) and transports the mesh
    once per s: FD at +-0.04, +-0.02, +-0.01 and Taylor at 0.16, 0.08,
    0.04 share the +0.04 re-solve, 8 transports in place of 9.  The
    parabolic FD rows keep no state series, so its Taylor check solves
    +0.04 again; prop5 has no Taylor check."""
    samples, moved = [], []
    theta_samples, transport = shape_assembly.theta_samples, shape_assembly.transport_mesh

    def counting_samples(space, theta, mode="interpolated"):
        samples.append(mode)
        return theta_samples(space, theta, mode)

    def counting_transport(theta, s, mesh):
        moved.append(s)
        return transport(theta, s, mesh)

    monkeypatch.setattr(shape_assembly, "theta_samples", counting_samples)
    monkeypatch.setattr(shape_assembly, "transport_mesh", counting_transport)
    rc = cli.main(["validate", "--config", os.path.join(CONFIG_DIR, config),
                   "--out", str(tmp_path / "out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    modes = ["analytic", "interpolated"] if config.startswith("prop5") else ["interpolated"]
    assert sorted(samples) == modes
    assert len(moved) == transports, moved
