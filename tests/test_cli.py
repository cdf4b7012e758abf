"""End-to-end checks of the command-line interface and its exit codes."""

import ast
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from shapegrad import cli, fem_core
from shapegrad.cli import main
from shapegrad.fem_core import FeSpace, ScalarField
from shapegrad.mesh import gen_disk, load_mesh
from shapegrad.parabolic_problem import TimeSeriesField
from shapegrad.reports import FieldFormatError, load_field, save_field

ROBIN_CFG = """
[run]
problem = robin

[mesh]
kind = disk
refine = 4

[data]
M = const_mat 2 0 1
beta = const 1
f = const 1
g = const 0

[theta]
field = bump 1.0 0.4 0.2 -0.1 0.8

[validation]
s_list = 0.04 0.02 0.01
"""


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ mesh

def test_mesh_disk_roundtrip(tmp_path):
    out = tmp_path / "d.mesh"
    assert main(["mesh", "--disk", "--refine", "2", "-o", str(out)]) == 0
    mesh = load_mesh(str(out))
    assert mesh.n_nodes == 61 and mesh.n_triangles == 96


def test_mesh_rect_roundtrip(tmp_path):
    out = tmp_path / "r.mesh"
    assert main(["mesh", "--rect", "0", "0", "2", "1",
                 "--nx", "8", "--ny", "4", "-o", str(out)]) == 0
    mesh = load_mesh(str(out))
    assert mesh.n_nodes == 77 and mesh.n_triangles == 128


def test_mesh_requires_exactly_one_generator(tmp_path):
    out = tmp_path / "x.mesh"
    assert main(["mesh", "--disk", "--rect", "0", "0", "1", "1",
                 "-o", str(out)]) == 2
    assert main(["mesh", "-o", str(out)]) == 2
    assert not out.exists()


def test_mesh_disk_needs_refine(tmp_path):
    out = tmp_path / "x.mesh"
    assert main(["mesh", "--disk", "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--refine", "-1"], ["--refine", "2", "--radius", "0"],
                                  ["--refine", "2", "--radius", "nan"]])
def test_mesh_disk_outside_the_generator_exits_2(tmp_path, capsys, argv):
    """The generator's refusal of its input, a ValueError or a mesh that
    fails validation, is a config error, not a traceback."""
    out = tmp_path / "x.mesh"
    assert main(["mesh", "--disk", *argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: mesh: ")
    assert not out.exists()


def test_unwritable_mesh_file_exits_2(tmp_path, monkeypatch, capsys):
    """A target directory that is missing is refused before the mesh is built."""
    out = tmp_path / "missing" / "x.mesh"

    def no_mesh(*args):
        raise AssertionError("mesh built")

    monkeypatch.setattr(cli, "gen_disk", no_mesh)
    assert main(["mesh", "--disk", "--refine", "8", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: output: cannot write {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["solve", "derive", "validate"])
def test_unwritable_output_dir_exits_2_before_any_study(tmp_path, monkeypatch, capsys, command):
    """An ``--out`` that is a file is a config error, found before the mesh
    is built, so before any study runs and before the state solve writes
    its fields."""
    path = _cfg(tmp_path, ROBIN_CFG.replace("refine = 4", "refine = 2"))
    out = tmp_path / "taken"
    out.write_text("a file\n")
    studies = []

    def no_mesh(*args):
        raise AssertionError("mesh built")

    monkeypatch.setattr(cli, "gen_disk", no_mesh)
    monkeypatch.setattr(cli, "fd_shape_check", lambda *args: studies.append(args))
    monkeypatch.setattr(cli, "material_taylor_check", lambda *args, **kw: studies.append(args))
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: output: cannot write {out}: ")
    assert studies == [] and out.read_text() == "a file\n"


def test_clockwise_mesh_file_exits_2(tmp_path, capsys):
    mesh = tmp_path / "cw.mesh"
    mesh.write_text("shapegrad-mesh v1\nnodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n"
                    "boundary 3\n0 2 1\n2 1 1\n1 0 1\n")
    path = _cfg(tmp_path, ROBIN_CFG.replace("kind = disk\nrefine = 4", f"file = {mesh}"))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: mesh: positive triangle orientation: triangle 0")


# ------------------------------------------------------------- usage errors

def test_unknown_subcommand_exits_2(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_missing_config_flag_exits_2():
    assert main(["derive"]) == 2


def test_removed_threads_flag_exits_2(tmp_path, capsys):
    path = _cfg(tmp_path, ROBIN_CFG)
    assert main(["derive", "--config", path, "--threads", "2",
                 "--out", str(tmp_path / "out")]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_not_found_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_malformed_config_exits_2(tmp_path):
    path = _cfg(tmp_path, "problem = robin\n")  # no section header
    assert main(["solve", "--config", path]) == 2


def test_unknown_problem_exits_2(tmp_path):
    path = _cfg(tmp_path, "[run]\nproblem = resistor\n[mesh]\nkind = disk\nrefine = 2\n")
    assert main(["solve", "--config", path]) == 2


@pytest.mark.parametrize("text,named", [
    (ROBIN_CFG.replace("[validation]\n", "[validation]\nfd_rel_mx = 1e-30\n"),
     "[validation] fd_rel_mx"),
    (ROBIN_CFG + "[mesh_]\nrefine = 9\n", "[mesh_]"),
    (ROBIN_CFG.replace("beta =", "bta ="), "[data] bta"),
    (ROBIN_CFG.replace("[data]\n", "[data]\nnt = 16\n"), "[data] nt"),   # a parabolic key
    ("[DEFAULT]\nrefine = 3\n" + ROBIN_CFG, "[DEFAULT]"),
])
@pytest.mark.parametrize("command", ["solve", "derive", "validate"])
def test_unknown_config_key_or_section_exits_2(tmp_path, monkeypatch, capsys, command, text, named):
    """A misspelt key or section would leave its default in force: it is a
    config error, reported before any mesh is built."""
    def no_mesh(cfg):
        raise AssertionError("mesh built")

    monkeypatch.setattr(cli, "build_mesh", no_mesh)
    path = _cfg(tmp_path, text)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_config_file_has_only_known_keys():
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("demos/configs/*.cfg")) + sorted(root.glob("tests/configs/*.cfg"))
    assert len(paths) >= 9
    for path in paths:
        cli.RunConfig(str(path))


def test_known_keys_are_the_keys_the_commands_read():
    """The schema holds exactly the (section, key) pairs that cli.py reads
    through ``get``, ``need`` and ``given``, in configparser's lower case."""
    read = set()
    for node in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text())):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("cfg", "self") and func.attr in ("get", "need", "given")
                and all(isinstance(a, ast.Constant) for a in node.args)):
            section, *keys = (a.value for a in node.args)
            read |= {(section, key) for key in keys}
    known = {(s, k) for s, keys in cli.SCHEMA.items() for k in keys}
    known |= {("data", k) for keys in cli.DATA.values() for k in keys}
    assert read == known


def test_invalid_log_level_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHAPEGRAD_LOG", "chatty")
    path = _cfg(tmp_path, ROBIN_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "SHAPEGRAD_LOG" in capsys.readouterr().err


# ----------------------------------------------------------------- solve

def test_solve_writes_fields_and_roundtrips(tmp_path):
    mesh_file = tmp_path / "d.mesh"
    assert main(["mesh", "--disk", "--refine", "3", "-o", str(mesh_file)]) == 0
    cfg = ROBIN_CFG.replace("kind = disk\nrefine = 4",
                            f"file = {mesh_file}")
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    mesh = load_mesh(str(mesh_file))
    space = FeSpace(mesh, order=1)
    u = load_field(str(out / "robin-u.field"), space)
    p = load_field(str(out / "robin-p.field"), space)
    udot = load_field(str(out / "robin-udot.field"), space)
    for field in (u, p, udot):
        assert field.coefficients.shape == (space.dof_count,)
        assert np.all(np.isfinite(field.coefficients))


@pytest.mark.parametrize("section, value", [
    ("", None), ("coefficients", None), ("coefficients x", None), ("series 2", None),
    ("series 2 x 1.0", None), ("series 0 {n} 0.0", ""), (None, "nan"),
    ("series 1 {n} nan", None), ("series 1 {n} 0.0", "inf")])
def test_load_field_refuses_a_malformed_section(tmp_path, section, value):
    """A field file whose section header is empty, short, not numeric or
    sizes no snapshot, or whose coefficients or series start time are not
    finite, is refused with a FieldFormatError: not accepted, and not an
    IndexError or a plain ValueError."""
    space = FeSpace(gen_disk((0.0, 0.0), 1.0, 1), order=1)
    path = tmp_path / "u.field"
    save_field(str(path), ScalarField(space, np.ones(space.dof_count)))
    lines = path.read_text().splitlines()
    assert load_field(str(path), space).coefficients.shape == (space.dof_count,)
    if section is not None:
        lines[3] = section.format(n=space.dof_count)
    if value == "":  # no coefficient lines at all
        del lines[4:]
    elif value is not None:
        lines[4] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError):
        load_field(str(path), space)


def test_solve_dirichlet_adjoint_is_minus_two_u(tmp_path):
    cfg = """
[run]
problem = dirichlet_energy

[mesh]
kind = disk
refine = 3

[data]
f = sine2 1 1 1
"""
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    mesh_line = (out / "dirichlet_energy-u.field").read_text().splitlines()[2]
    assert mesh_line.startswith("mesh ")
    from shapegrad.mesh import gen_disk
    space = FeSpace(gen_disk((0.0, 0.0), 1.0, 3), order=1)
    u = load_field(str(out / "dirichlet_energy-u.field"), space)
    p = load_field(str(out / "dirichlet_energy-p.field"), space)
    assert np.abs(p.coefficients + 2.0 * u.coefficients).max() <= 1e-10


def test_solve_parabolic_writes_series(tmp_path):
    cfg = """
[run]
problem = parabolic_j1

[mesh]
kind = rect
bounds = 0 0 1 1
nx = 6
ny = 6

[data]
M = const_mat 1 0 1
f = sine2 1 1 1
g = linear 0.2 0.3 -0.1
u_d = const 0
nt = 4
"""
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    from shapegrad.mesh import gen_rectangle
    space = FeSpace(gen_rectangle(0, 0, 1, 1, 6, 6), order=1)
    u = load_field(str(out / "parabolic_j1-u.field"), space)
    assert isinstance(u, TimeSeriesField)
    assert u.values.shape == (5, space.dof_count)


def test_solve_area_has_no_state(tmp_path):
    cfg = "[run]\nproblem = area\n[mesh]\nkind = disk\nrefine = 2\n"
    path = _cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("config", ["area-disk", "prop5-manufactured", "prop6-manufactured"])
def test_solve_without_state_exits_2_before_the_mesh(tmp_path, monkeypatch, capsys, config):
    """A problem without a state is refused from its class, before the mesh
    generator runs and before the output directory is made."""
    def no_mesh(*args):
        raise AssertionError("mesh built")

    monkeypatch.setattr(cli, "gen_disk", no_mesh)
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "configs" / f"{config}.cfg"
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    problem = cli.RunConfig(str(path)).get("run", "problem")
    assert capsys.readouterr().err == (f"config error: problem {problem!r} "
                                       "has no state to solve\n")
    assert not out.exists()


def test_quasilinear_bound_violation_names_bound(tmp_path, capsys):
    cfg = """
[run]
problem = quasilinear

[mesh]
kind = disk
refine = 2

[data]
m = const_r 0.5
f = affine_r 1 0
g = const 0
u_d = const 0
"""
    path = _cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "c1" in capsys.readouterr().err


def test_singular_system_exits_3(tmp_path, capsys):
    cfg = ROBIN_CFG.replace("beta = const 1", "beta = const 1e-300")
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 3
    assert "solver error" in capsys.readouterr().err
    assert not (out / "robin-u.field").exists()


# ---------------------------------------------------------------- derive

def test_derive_runs_are_byte_identical(tmp_path):
    path = _cfg(tmp_path, ROBIN_CFG)
    outa, outb = tmp_path / "a", tmp_path / "b"
    assert main(["derive", "--config", path, "--out", str(outa)]) == 0
    assert main(["derive", "--config", path, "--out", str(outb)]) == 0
    for name in ("robin-report.json", "robin-fd.csv"):
        assert (outa / name).read_bytes() == (outb / name).read_bytes()


def test_derive_report_content(tmp_path):
    import json
    path = _cfg(tmp_path, ROBIN_CFG)
    out = tmp_path / "out"
    assert main(["derive", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "robin-report.json").read_text())
    assert report["schema"] == "shapegrad-report/1"
    assert report["problem"] == "robin"
    assert report["passed"] is True
    assert set(report["checks"]) == {"fd_order", "fd_rel_gap", "duality_rel_gap"}
    assert report["fd"]["metadata"]["target"] == "dJ"
    assert "dt_pairing" not in report["terms"]
    csv_bytes = (out / "robin-fd.csv").read_bytes()
    assert csv_bytes.count(b"\r\n") == csv_bytes.count(b"\n")
    assert b",ok," in csv_bytes


def test_derive_tight_tolerance_exits_4(tmp_path):
    cfg = ROBIN_CFG.replace("s_list = 0.04 0.02 0.01",
                            "s_list = 0.4 0.2\nfd_rel_max = 1e-12")
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["derive", "--config", path, "--out", str(out)]) == 4
    csv_text = (out / "robin-fd.csv").read_text()
    assert ",fail," in csv_text


def test_derive_increasing_s_list_exits_2(tmp_path):
    cfg = ROBIN_CFG.replace("s_list = 0.04 0.02 0.01", "s_list = 0.01 0.02")
    path = _cfg(tmp_path, cfg)
    assert main(["derive", "--config", path, "--out", str(tmp_path / "out")]) == 2


def test_derive_needs_theta(tmp_path):
    cfg = ROBIN_CFG.replace("[theta]\nfield = bump 1.0 0.4 0.2 -0.1 0.8\n", "")
    path = _cfg(tmp_path, cfg)
    assert main(["derive", "--config", path, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("theta,key", [
    ("field =", "field"),
    ("field = bump 1.0 0.4 0.2 -0.1 0.8\nsupport = 1 1 0 0", "support"),
    # a theta that would be NaN, infinite or zero everywhere: before these
    # were refused, validate reported "all checks passed" on area-disk
    ("field = bump 1.0 0.4 0.2 -0.1 nan", "finite"),
    ("field = bump 1.0 0.4 0.2 -0.1 -0.5", "radius"),
    ("field = tensor_bump 1.0 0.4 0.2 -0.1 0 0.5", "widths"),
    ("field = poly2 0.3 -0.2 0.1 inf -0.1 0.2 0.05 -0.15 0.1 0.2 -0.05 0.1", "finite")])
def test_derive_theta_outside_assumptions_exits_2(tmp_path, capsys, theta, key):
    cfg = ROBIN_CFG.replace("refine = 4", "refine = 2").replace(
        "field = bump 1.0 0.4 0.2 -0.1 0.8", theta)
    path = _cfg(tmp_path, cfg)
    assert main(["derive", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [theta] ") and key in err, err


AREA_CFG = """
[run]
problem = area

[mesh]
kind = disk
refine = 2

[theta]
field = bump 1.0 0.4 5.0 5.0 0.3
"""


@pytest.mark.parametrize("command", ["derive", "validate"])
@pytest.mark.parametrize("problem", ["area", "robin"])
def test_theta_zero_on_the_mesh_exits_2(tmp_path, capsys, command, problem):
    """A bump centred at (5, 5) with radius 0.3 is zero on the unit disk:
    its checks would pass vacuously (dJ = 0, no order), so it is refused."""
    cfg = AREA_CFG if problem == "area" else ROBIN_CFG.replace("refine = 4", "refine = 2") \
        .replace("field = bump 1.0 0.4 0.2 -0.1 0.8", "field = bump 1.0 0.4 5.0 5.0 0.3")
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [theta] field 'bump' is zero on the whole mesh"), err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["derive", "validate"])
def test_theta_zero_at_every_node_exits_2_with_an_fd_table(tmp_path, capsys, command):
    """A bump of radius 0.02 at a triangle's centroid on the refine-4 disk
    is zero at every node but not at the triangle's quadrature points: the
    analytic dJ is not zero, but the FD rows would all be the reference
    mesh (order inf, gap 0), so prop5 refuses it; prop6 has no FD table."""
    mesh = gen_disk((0.0, 0.0), 1.0, 4)
    centroid = mesh.nodes[mesh.triangles[100]].mean(axis=0)
    assert np.hypot(*(mesh.nodes - centroid).T).min() > 0.02
    field = f"field = bump 1.0 0.4 {float(centroid[0])!r} {float(centroid[1])!r} 0.02"
    cfg = (pathlib.Path(__file__).parent.parent / "demos" / "configs"
           / "prop5-manufactured.cfg").read_text()
    cfg = "\n".join(field if line.startswith("field =") else line for line in cfg.splitlines())
    out = tmp_path / "out"
    assert main([command, "--config", _cfg(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [theta] field 'bump' is zero at every mesh node"), err
    assert not out.exists() or not any(out.iterdir())
    prop6 = cfg.replace("problem = prop5_manufactured", "problem = prop6_manufactured")
    assert main([command, "--config", _cfg(tmp_path, prop6, "prop6.cfg"), "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["derive", "validate"])
def test_affine_theta_on_area_is_not_vacuous(tmp_path, command):
    """An affine theta moves the domain; its FD quotients are exact, so the
    order check is machine-exact, and the run passes."""
    cfg = AREA_CFG.replace("field = bump 1.0 0.4 5.0 5.0 0.3",
                           "field = linear 0.3 -0.2 0.1 -0.4 0.05 0.1")
    path = _cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_derive_area_gate(tmp_path):
    cfg = """
[run]
problem = area

[mesh]
kind = disk
refine = 5

[theta]
field = bump 1.0 0.4 0.2 -0.1 0.8

[validation]
s_list = 0.02 0.01 0.005
extrapolated_max = 1e-10
"""
    path = _cfg(tmp_path, cfg)
    assert main(["derive", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_derive_manufactured_without_tracking_density(tmp_path):
    import json
    cfg = """
[run]
problem = prop6_manufactured

[mesh]
kind = disk
refine = 3

[theta]
field = poly2 0.3 -0.2 0.1 0.15 -0.1 0.2 0.05 -0.15 0.1 0.2 -0.05 0.1
"""
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["derive", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "prop6_manufactured-report.json").read_text())
    assert "fd" not in report
    assert report["checks"]["dual_form_gap"]["pass"] is True


# -------------------------------------------------------------- validate

def test_validate_full_suite(tmp_path):
    import json
    path = _cfg(tmp_path, ROBIN_CFG)
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "robin-validate.json").read_text())
    assert set(report["checks"]) == {"fd_order", "fd_rel_gap", "taylor_order",
                                     "duality_rel_gap"}
    assert (out / "robin-taylor.csv").exists()
    assert (out / "robin-fd.csv").exists()


@pytest.mark.parametrize("command,phases", [
    ("derive", {"build", "solve", "assemble", "fd"}),
    ("validate", {"build", "solve", "fd", "taylor"})])
def test_timings_sidecar_records_each_phase(tmp_path, command, phases):
    """Mesh and problem construction is the ``build`` phase and the state
    solve the ``solve`` phase; the sidecar holds one non-negative number of
    seconds per phase that ran."""
    import json
    path = _cfg(tmp_path, ROBIN_CFG.replace("refine = 4", "refine = 3"))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) in (0, 4)
    timings = json.loads((out / "robin-timings.json").read_text())
    assert timings["command"] == command
    assert set(timings["seconds"]) == phases
    assert all(isinstance(v, float) and v >= 0.0 for v in timings["seconds"].values())


@pytest.mark.parametrize("key,value", [
    ("s_list", "0.04 0.04 0.01"), ("s_list", "0.04 0 0.01"), ("s_list", "0.04 nan 0.01"),
    ("taylor_s_list", "0.16 -0.08 0.04"), ("taylor_s_list", "0.16 0.08 0"),
    ("taylor_s_list", "0.04 0.08 0.16")])
def test_validate_bad_validation_inputs_exit_2(tmp_path, capsys, key, value):
    """A [validation] input outside its domain is a config error that names
    its key, raised before any study runs, not a traceback (exit 1) or a
    failed check (exit 4)."""
    cfg = ROBIN_CFG.replace("refine = 4", "refine = 2")
    if key == "s_list":
        cfg = cfg.replace("s_list = 0.04 0.02 0.01", f"s_list = {value}")
    else:
        cfg += f"{key} = {value}\n"
    path = _cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [validation] {key} "), err
    assert not (out / "robin-fd.csv").exists()


GATE_KEYS = ("fd_order_min", "fd_rel_max", "extrapolated_max", "taylor_order_min",
             "duality_rel_max", "dual_form_max")
VALIDATION = "[validation]\n"
DISK = "kind = disk\nrefine = 2"


PARABOLIC_CFG = """
[run]
problem = parabolic_j1

[mesh]
kind = rect
nx = 4
ny = 4

[data]
M = const_mat 1 0 1
f = const 1
g = const 0
u_d = const 0
t0 = 1.0
nt = 4

[theta]
field = bump 1.0 0.5 0.5 0.0 0.45
"""


def _on(base, *params):
    """The ``old,new,named`` params as ``base,old,new,named`` ones."""
    return [pytest.param(base, *p.values, id=p.id) for p in params]


@pytest.mark.parametrize("base,old,new,named", _on(
    ROBIN_CFG.replace("refine = 4", "refine = 2"),
    # the retired transport knob: T_s = id + s theta has no step count
    pytest.param(VALIDATION, VALIDATION + "steps = 32\n", "unknown key [validation] steps ",
                 id="steps"),
    # the retired cutoff knob: every ramp is the fraction flow.RAMP
    pytest.param("[theta]\n", "[theta]\nramp = 0.15\n", "unknown key [theta] ramp ", id="ramp"),
    pytest.param("0.2 -0.1 0.8", "5.0 5.0 0.3", "[theta] field 'bump' is zero", id="theta"),
    *(pytest.param(VALIDATION, VALIDATION + f"{key} = {value}\n", f"[validation] {key} ",
                   id=f"{key}-{value}") for key in GATE_KEYS for value in ("abc", "inf")),
    pytest.param(DISK, DISK + "\ncenter = 0 0 1", "[mesh] center ", id="center-length"),
    pytest.param(DISK, DISK + "\ncenter = inf 0", "[mesh] center ", id="center-inf"),
    pytest.param(DISK, DISK + "\nradius = nan", "[mesh] radius ", id="radius-nan"),
    pytest.param(DISK, "kind = rect\nnx = 2\nny = 2\nbounds = 0 0 1", "[mesh] bounds ",
                 id="bounds-length"),
    pytest.param(DISK, "kind = rect\nnx = 2\nny = 2\nbounds = 0 0 nan 1", "[mesh] bounds ",
                 id="bounds-nan"),
    pytest.param("[theta]\n", "[theta]\nsupport = -1 -1 1\n", "[theta] support ",
                 id="support-length"),
    pytest.param("f = const 1", "f = cnst 1", "[data] f ", id="data-unknown"),
    pytest.param("f = const 1", "f = const nan", "[data] f ", id="data-nan"),
    pytest.param("beta = const 1", "beta = const nan", "[data] beta ", id="data-beta-nan"),
    pytest.param("field = bump", "field = bmup", "[theta] unknown field 'bmup'",
                 id="theta-unknown"),
    pytest.param("-0.1 0.8", "-0.1 nan", "[theta] field ", id="theta-nan"),
    # the data classes' own checks, and robin's constant M, need no mesh
    pytest.param("const_mat 2 0 1", "const_mat 1 2 1",
                 "[data] Robin diffusion matrix must be positive definite", id="robin-m-indefinite"),
    pytest.param("const_mat 2 0 1", "affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3",
                 "[data] robin needs a spatially constant M", id="robin-m-not-constant")) + _on(
    PARABOLIC_CFG,
    pytest.param("nt = 4", "nt = 0", "[data] parabolic data needs nt >= 1", id="parabolic-nt-0"),
    pytest.param("t0 = 1.0", "t0 = 0", "[data] parabolic data needs a positive final time",
                 id="parabolic-t0-0")))
def test_config_errors_are_found_before_the_state_solve(tmp_path, monkeypatch, capsys,
                                                         base, old, new, named):
    """A config error exits 2 naming its key before the state is solved: the
    constructor solves nothing and the ``solve`` phase comes after every
    config check, so no factorization runs.  Only the check of a theta that
    is zero on the mesh needs the mesh; every other error is found before
    ``build_mesh`` runs, when the file is read or theta is built."""
    assert old in base
    factored, init = [], fem_core.Factorized.__init__
    monkeypatch.setattr(fem_core.Factorized, "__init__",
                        lambda self, A: factored.append(A) or init(self, A))
    meshes, build_mesh = [], cli.build_mesh
    monkeypatch.setattr(cli, "build_mesh", lambda cfg: meshes.append(cfg) or build_mesh(cfg))
    path = _cfg(tmp_path, base.replace(old, new))
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}"), err
    assert factored == []
    assert len(meshes) == ("is zero" in named)


def test_schema_defaults_parse():
    """Each default is config text that its own key's parser accepts."""
    for keys in (*cli.SCHEMA.values(), *cli.DATA.values()):
        for parse, default in keys.values():
            if default is not None:
                parse(default)


# ------------------------------------------------------------ entry point

def test_module_entry_point(tmp_path):
    out = tmp_path / "d.mesh"
    proc = subprocess.run([sys.executable, "-m", "shapegrad.cli", "mesh",
                           "--disk", "--refine", "1", "-o", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "nodes" in proc.stdout
    assert out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "shapegrad" in capsys.readouterr().out
