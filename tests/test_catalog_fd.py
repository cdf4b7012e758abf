"""Every catalog entry in every data slot of every problem: the assembled
derivative must match FD quotients of re-solved costs, so each density
partial the entry reaches is checked; an entry outside a problem's
assumptions must raise its named error instead."""

import numpy as np
import pytest

from shapegrad.data_catalog import (MATRIX_CATALOG, PROFILE_CATALOG, RFUNC_CATALOG,
                                    SCALAR_CATALOG, parse_matrix, parse_profile,
                                    parse_rfunction, parse_scalar, time_matrix, time_scalar)
from shapegrad.elliptic_problems import (DirichletEnergyData, DirichletEnergyProblem,
                                         QuasilinearData, QuasilinearProblem,
                                         RobinData, RobinProblem)
from shapegrad.flow import make_field
from shapegrad.parabolic_problem import ParabolicData, ParabolicProblem
from shapegrad.validation import fd_shape_check

from conftest import HOLDALL, bump_theta

S_LIST = (0.04, 0.02, 0.01)

# one entry per catalog name, each varying in space (or in r) where it can
SCALARS = {"const": "const 1.3",
           "linear": "linear 1.5 0.2 -0.1",
           "poly2": "poly2 1 0.2 -0.3 0.5 0.1 -0.2",
           "sine2": "sine2 0.7 1 0.5",
           "gauss": "gauss 1.5 0.3 -0.2 0.6"}
RFUNCTIONS = {"const_r": "const_r 2",
              "affine_r": "affine_r 1 0.1",
              "saturating": "saturating",
              "saturating_sine": "saturating_sine 0.25"}
MATRICES = {"const_mat": "const_mat 2 0.3 1.5",
            "affine_mat": "affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3"}
PROFILES = {"const": "const", "decay": "decay 0.4", "ramp": "ramp 0.5"}
assert set(SCALARS) == set(SCALAR_CATALOG) and set(RFUNCTIONS) == set(RFUNC_CATALOG)
assert set(MATRICES) == set(MATRIX_CATALOG) and set(PROFILES) == set(PROFILE_CATALOG)


def _robin(mesh, slot, spec):
    data = dict(beta="const 1", f="const 1", g="const 0")
    data[slot] = spec
    return RobinProblem(mesh, RobinData(M=np.array([[2.0, 0.3], [0.3, 1.0]]),
                                        **{k: parse_scalar(v) for k, v in data.items()}))


def _quasilinear(mesh, slot, spec):
    data = dict(m=parse_rfunction("saturating"), f=parse_rfunction("affine_r 1 0.1"),
                g=parse_scalar("const 2"), u_d=parse_scalar("linear 0 1 0"))
    data[slot] = parse_rfunction(spec) if slot in ("m", "f") else parse_scalar(spec)
    # the envelope of saturating_sine 0.25: m >= 0.755 and m <= 3.25
    return QuasilinearProblem(mesh, QuasilinearData(**data, c1=0.7, c3=3.5))


def _dirichlet(mesh, slot, spec):
    return DirichletEnergyProblem(mesh, DirichletEnergyData(f=parse_scalar(spec)))


# inputs outside a problem's assumptions, and the error they must raise
REJECTED = {("robin", "beta", "sine2"): "not positive",
            ("quasilinear", "m", "const_r"): "quasilinear bound violated",
            ("quasilinear", "f", "const_r"): "quasilinear bound violated",
            ("quasilinear", "m", "affine_r"): "quasilinear bound violated"}

PROBLEMS = {"robin": _robin, "quasilinear": _quasilinear, "dirichlet_energy": _dirichlet}
# every data slot of every problem, with the catalog its entries come from
SLOTS = {("robin", "beta"): SCALARS, ("robin", "f"): SCALARS, ("robin", "g"): SCALARS,
         ("quasilinear", "g"): SCALARS, ("quasilinear", "u_d"): SCALARS,
         ("quasilinear", "m"): RFUNCTIONS, ("quasilinear", "f"): RFUNCTIONS,
         ("dirichlet_energy", "f"): SCALARS}
CASES = [(problem, slot, name) for (problem, slot), entries in SLOTS.items() for name in entries]


@pytest.mark.parametrize("problem,slot,name", CASES)
def test_catalog_entry_fd(problem, slot, name, disk3):
    spec = SLOTS[problem, slot][name]
    build = PROBLEMS[problem]
    if (problem, slot, name) in REJECTED:
        with pytest.raises(ValueError, match=REJECTED[problem, slot, name]):
            build(disk3, slot, spec)
        return
    _assert_fd_matches(fd_shape_check(build(disk3, slot, spec), bump_theta(), S_LIST))


def _assert_fd_matches(table):
    assert table.observed_order() >= 1.9
    # relative as in fd_rel_gap and the duality gap: a missing or wrong
    # partial moves dJ by far more than this
    assert table.extrapolated_error <= 1e-9 * (1.0 + abs(table.dJ))


# the parabolic slots: M takes every matrix entry and f every scalar entry,
# each with every time profile; g and u_d take every scalar entry
PARABOLIC_CASES = ([("M", m, t) for m in MATRICES for t in PROFILES]
                   + [("f", f, t) for f in SCALARS for t in PROFILES]
                   + [("g", g, None) for g in SCALARS]
                   + [("u_d", u, "decay") for u in SCALARS])


def _parabolic_data(slot, name, profile):
    data = dict(M=time_matrix(MATRICES["affine_mat"], PROFILES["ramp"]),
                f=time_scalar("sine2 1.5 1 1", PROFILES["decay"]),
                g=parse_scalar("linear 0.2 0.3 -0.1"),
                u_d=time_scalar("poly2 0.1 0.2 -0.1 0.3 0 0.15", PROFILES["decay"]))
    if slot == "M":
        data["M"] = time_matrix(MATRICES[name], PROFILES[profile])
    elif slot == "g":
        data["g"] = parse_scalar(SCALARS[name])
    else:
        data[slot] = time_scalar(SCALARS[name], PROFILES[profile])
    return ParabolicData(**data, t0=1.0, nt=8)


@pytest.mark.parametrize("which", ["j1", "j2"])
@pytest.mark.parametrize("slot,name,profile", PARABOLIC_CASES)
def test_parabolic_catalog_entry_fd(slot, name, profile, which, rect_unit):
    problem = ParabolicProblem(rect_unit, _parabolic_data(slot, name, profile), which=which)
    theta = make_field("bump", (1.0, 0.5, 0.5, 0.0, 0.45), support_box=HOLDALL)
    _assert_fd_matches(fd_shape_check(problem, theta, S_LIST))


@pytest.mark.parametrize("parse,spec", [(parse_scalar, "const nan"),
                                        (parse_matrix, "const_mat 1 0 inf"),
                                        (parse_rfunction, "affine_r nan 0"),
                                        (parse_profile, "decay -inf")])
def test_non_finite_parameters_are_refused(parse, spec):
    """A NaN or infinite parameter would reach the solver (Robin with
    ``f = const nan`` reported a singular system): each catalog refuses it."""
    with pytest.raises(ValueError, match=f"{spec.split()[0]!r}: parameters must be finite"):
        parse(spec)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_constant_matrix_derivative_is_a_read_only_view(name):
    """Both matrix entries have a constant DM: ``dspace`` shows its one
    (2, 2, 2) value at every point, and a write into that view raises."""
    P = np.random.default_rng(7).standard_normal((4, 3, 2))
    D = parse_matrix(MATRICES[name]).dspace(P)
    assert D.shape == (4, 3, 2, 2, 2)
    assert np.array_equal(D, np.broadcast_to(D[0, 0], D.shape))
    with pytest.raises(ValueError, match="read-only"):
        D[0, 0, 0, 0, 0] = 1.0
