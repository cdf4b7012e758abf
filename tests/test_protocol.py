"""The problem protocol, for every problem the CLI knows: each is built
from its shipped config at a tiny size, re-solving is the same problem on
new nodes, a re-solve does only the state solve's factorizations and solves,
the capability flags are exactly the checks the CLI writes, and the one
duality pair of the protocol is each stateful problem's pair as first
written."""

import configparser
import glob
import json
import os

import numpy as np
import pytest

from shapegrad import cli, fem_core
from shapegrad.elliptic_problems import quasilinear_solve
from shapegrad.flow import transport_mesh

import elliptic_references
import parabolic_references

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")
# config keys that set the problem size, and their values at the tiny size
TINY = {("mesh", "refine"): "2", ("mesh", "nx"): "6", ("mesh", "ny"): "6",
        ("data", "nt"): "4"}
# (factorizations, solves) of one state solve of the linear problems
STATE_SOLVES = {"robin": (1, 1), "dirichlet_energy": (1, 1), "area": (0, 0)}


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
    """Count ``Factorized`` constructions and solves, transposed ones
    included, from here on."""
    counts = {"factor": 0, "solve": 0}
    init = fem_core.Factorized.__init__

    def counting_init(self, A):
        counts["factor"] += 1
        init(self, A)

    def counting(solve):
        def counting_solve(self, b):
            counts["solve"] += 1
            return solve(self, b)
        return counting_solve

    monkeypatch.setattr(fem_core.Factorized, "__init__", counting_init)
    for name in ("solve", "solve_transposed"):
        monkeypatch.setattr(fem_core.Factorized, name,
                            counting(getattr(fem_core.Factorized, name)))
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

    # a re-solve on a transported mesh does the state solve and nothing more:
    # the adjoint and its factorizations are lazy
    if problem.fd_cost == "resolve":
        mesh_s = transport_mesh(theta, 0.01, problem.mesh)
        if name == "quasilinear":  # one Jacobian factorization per Newton step
            _, history = quasilinear_solve(mesh_s, problem.data)
            expected = (len(history) - 1,) * 2
        elif name.startswith("parabolic"):
            # the shipped M is time-independent: one factorization, nt steps
            expected = (1, problem.data.nt)
        else:
            expected = STATE_SOLVES[name]
        counts = _count_solves(monkeypatch)
        problem.rebuilt(mesh_s).cost()
        assert (counts["factor"], counts["solve"]) == expected
        monkeypatch.undo()

    # the capability flags are the checks the CLI writes
    fd_keys = set()
    if problem.fd_cost is not None:
        fd_keys = {"fd_order", "fd_rel_gap"}
        if cfg.has("validation", "extrapolated_max"):
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
        assert ("fd" in report) == (problem.fd_cost is not None)
        assert (out / f"{problem.name}-fd.csv").exists() == (problem.fd_cost is not None)
        assert (out / f"{problem.name}-taylor.csv").exists() == (
            command == "validate" and problem.has_state)
    out = tmp_path / "solve"
    rc = cli.main(["solve", "--config", path, "--out", str(out)])
    assert rc == (cli.EXIT_OK if problem.has_state else cli.EXIT_CONFIG)
    assert (out / f"{problem.name}-p.field").exists() == problem.has_state


@pytest.mark.parametrize("name", ["robin", "quasilinear", "dirichlet_energy",
                                  "parabolic_j1", "parabolic_j2"])
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
