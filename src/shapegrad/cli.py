"""
Command-line front end: mesh generation, solves, derivative reports, and
validation sweeps driven by INI-style config files.

Exit codes are a stable contract: 0 pass, 2 configuration or usage error,
3 numerical solve failure, 4 validation failure.  All data functions come
from the named catalogs; there is no expression language.
"""

import argparse
import configparser
import logging
import os
import sys
import tempfile
import time

import numpy as np

from .elliptic_problems import (DirichletEnergyData, DirichletEnergyProblem,
                                QuasilinearData, QuasilinearProblem, RobinData,
                                RobinProblem)
from .data_catalog import (TimeMatrixData, TimeScalarData, parse_matrix, parse_profile,
                           parse_rfunction, parse_scalar)
from .fem_core import SolverError
from .flow import make_field
from .mesh import (MeshFormatError, MeshValidationError, gen_disk, gen_rectangle, load_mesh,
                   save_mesh)
from .parabolic_problem import ParabolicData, ParabolicProblem
from .reports import (FD_CSV_HEADER, TAYLOR_CSV_HEADER, fd_csv_rows,
                      fd_table_json, mesh_hash, save_field, taylor_csv_rows,
                      taylor_table_json, write_csv, write_json)
from .shape_assembly import ManufacturedProblem
from .validation import (AreaProblem, duality_check, fd_shape_check, material_taylor_check,
                         step_sizes)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

log = logging.getLogger("shapegrad")


class ConfigError(ValueError):
    pass


def _setup_logging():
    level = os.environ.get("SHAPEGRAD_LOG", "error").strip().lower()
    table = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in table:
        raise ConfigError(
            f"SHAPEGRAD_LOG must be one of error, info, debug; got {level!r}")
    logging.basicConfig(level=table[level],
                        format="%(name)s %(levelname)s: %(message)s")
    log.setLevel(table[level])


# -------------------------------------------------------------- configuration
# A parser returns the typed value of a value's text, or raises ValueError.

def _number(raw):
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _integer(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError("expected an integer") from None


def _numbers(count):
    def parse(raw):
        values = [_number(p) for p in raw.split()]
        if len(values) != count:
            raise ValueError(f"expected {count} numbers, got {len(values)}")
        return values
    return parse


def _step_list(raw):
    return step_sizes([_number(p) for p in raw.split()])


def _one_of(*choices):
    def parse(raw):
        for choice in choices:
            if raw == str(choice):
                return choice
        raise ValueError(f"must be one of {', '.join(map(str, choices))}")
    return parse


def _text(raw):
    if not raw:
        raise ValueError("empty value")
    return raw


def _field(raw):
    """``name param...``: the arguments of ``make_field``."""
    name, *params = _text(raw).split()
    return name, [_number(p) for p in params]


#: problem -> [data] key -> (parser, default as config text); c1, c2, c3,
#: r_check, t0 and nt default in the data class (``RunConfig.given``)
DATA = {
    "robin": {"m": (parse_matrix, "const_mat 1 0 1"), "beta": (parse_scalar, "const 1"),
              "f": (parse_scalar, None), "g": (parse_scalar, None)},
    "quasilinear": {"m": (parse_rfunction, None), "f": (parse_rfunction, None),
                    "g": (parse_scalar, None), "u_d": (parse_scalar, None),
                    "c1": (_number, None), "c2": (_number, None), "c3": (_number, None),
                    "r_check": (_number, None)},
    "dirichlet_energy": {"f": (parse_scalar, None)},
    **dict.fromkeys(("parabolic_j1", "parabolic_j2"), {
        "m": (parse_matrix, None), "m_profile": (parse_profile, "const"),
        "f": (parse_scalar, None), "f_profile": (parse_profile, "const"),
        "u_d": (parse_scalar, None), "ud_profile": (parse_profile, "const"),
        "g": (parse_scalar, None), "t0": (_number, None), "nt": (_integer, None)}),
    **dict.fromkeys(("prop5_manufactured", "prop6_manufactured", "area"), {}),
}
PROBLEMS = tuple(DATA)
#: section -> key -> (parser, default as config text, or None), in
#: configparser's lower case; [data] is per problem (``DATA``)
SCHEMA = {
    "run": {"problem": (_one_of(*PROBLEMS), None), "order": (_one_of(1, 2), "1")},
    "mesh": {"file": (_text, None), "kind": (_one_of("disk", "rect"), None),
             "center": (_numbers(2), "0 0"), "radius": (_number, "1"), "refine": (_integer, None),
             "bounds": (_numbers(4), "0 0 1 1"), "nx": (_integer, None), "ny": (_integer, None)},
    "theta": {"field": (_field, None), "support": (_numbers(4), None)},
    "validation": {"s_list": (_step_list, "0.04 0.02 0.01"),
                   "taylor_s_list": (_step_list, "0.16 0.08 0.04"),
                   "fd_order_min": (_number, "1.9"), "fd_rel_max": (_number, "1e-5"),
                   "extrapolated_max": (_number, None), "taylor_order_min": (_number, "1.9"),
                   "duality_rel_max": (_number, "1e-9"), "dual_form_max": (_number, "1e-12")},
    "output": {"dir": (_text, "out")},
}


class RunConfig:
    """An INI config file, checked whole when it is read: each section and
    key must be in ``SCHEMA`` (``[data]``: in ``DATA`` of the file's
    problem), and each value the file sets is parsed by its key's parser,
    or ConfigError names ``[section] key``; ``data`` is the problem's data.
    ``get`` returns a key's value, else its default, else None; ``need``
    raises ConfigError for None."""

    def __init__(self, path):
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        # no default section: a [DEFAULT] would hand its keys to every
        # section, so it is a section like any other, and unknown
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="\0")
        try:
            with open(path, "r") as fh:
                cp.read_file(fh, source=path)
            self._text = {s: dict(cp.items(s)) for s in cp.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        self.path = path
        self._values = {}
        # [data] is checked for a known problem only; [run] is parsed first
        schema = dict(SCHEMA, data=DATA.get(self._text.get("run", {}).get("problem")))
        for section in self._text:
            if section not in schema:
                raise ConfigError(f"unknown section [{section}] in {path}; "
                                  f"known: {', '.join(sorted(schema))}")
        for section, keys in schema.items():
            if keys is None:
                continue
            text = self._text.get(section, {})
            for key in text:
                if key not in keys:
                    raise ConfigError(f"unknown key [{section}] {key} in {path}; known: "
                                      f"{', '.join(sorted(keys)) or 'none'}")
            for key, (parse, default) in keys.items():
                raw = text.get(key, default)
                if raw is not None:
                    try:
                        self._values[section, key] = parse(raw)
                    except ValueError as exc:
                        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
        self.data = _problem_data(self)

    def get(self, section, key):
        return self._values.get((section, key))

    def need(self, section, key):
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing [{section}] {key} in {self.path}")
        return value

    def given(self, section, *keys):
        """The ``keys`` that have a value, by name: one without a default only if set."""
        return {key: self._values[section, key] for key in keys if (section, key) in self._values}

    def echo(self):
        """The file's values as written, for the reports."""
        return {s: dict(keys) for s, keys in self._text.items()}


def _make_mesh(make, *args):
    """``make(*args)``: a mesh generator's or reader's refusal is a config error."""
    try:
        return make(*args)
    except (OSError, MeshFormatError, MeshValidationError, ValueError) as exc:
        raise ConfigError(f"mesh: {exc}") from exc


def build_mesh(cfg):
    if cfg.get("mesh", "file") is not None:
        return _make_mesh(load_mesh, cfg.get("mesh", "file"))
    if cfg.need("mesh", "kind") == "disk":
        return _make_mesh(gen_disk, cfg.get("mesh", "center"), cfg.get("mesh", "radius"),
                          cfg.need("mesh", "refine"))
    return _make_mesh(gen_rectangle, *cfg.get("mesh", "bounds"), cfg.need("mesh", "nx"),
                      cfg.need("mesh", "ny"))


def build_theta(cfg, required=False):
    if not required and cfg.get("theta", "field") is None:
        return None
    support = cfg.get("theta", "support")
    try:
        return make_field(*cfg.need("theta", "field"),
                          support_box=None if support is None else np.reshape(support, (2, 2)))
    except ValueError as exc:
        raise ConfigError(f"[theta] {exc}") from exc


def _problem_data(cfg):
    """The problem's data object, composed from ``[data]`` when the file is
    read, before any mesh is built; None for a problem without data.  The
    data classes' own checks are config errors that name ``[data]``."""
    name = cfg.get("run", "problem")
    try:
        if name == "robin":
            M = cfg.get("data", "m").constant()
            if M is None:
                raise ValueError("robin needs a spatially constant M entry")
            return RobinData(M=M, beta=cfg.get("data", "beta"), f=cfg.need("data", "f"),
                             g=cfg.need("data", "g"))
        if name == "quasilinear":
            return QuasilinearData(
                m=cfg.need("data", "m"), f=cfg.need("data", "f"),
                g=cfg.need("data", "g"), u_d=cfg.need("data", "u_d"),
                **cfg.given("data", "c1", "c2", "c3", "r_check"))
        if name == "dirichlet_energy":
            return DirichletEnergyData(f=cfg.need("data", "f"))
        if name in ("parabolic_j1", "parabolic_j2"):
            return ParabolicData(
                M=TimeMatrixData(cfg.need("data", "m"), cfg.get("data", "m_profile")),
                f=TimeScalarData(cfg.need("data", "f"), cfg.get("data", "f_profile")),
                u_d=TimeScalarData(cfg.need("data", "u_d"), cfg.get("data", "ud_profile")),
                g=cfg.need("data", "g"), **cfg.given("data", "t0", "nt"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[data] {exc}") from exc


#: problem -> its class, whose capability flags hold before any mesh is built
PROBLEM_CLASSES = {
    "robin": RobinProblem, "quasilinear": QuasilinearProblem,
    "dirichlet_energy": DirichletEnergyProblem,
    "parabolic_j1": ParabolicProblem, "parabolic_j2": ParabolicProblem,
    "prop5_manufactured": ManufacturedProblem, "prop6_manufactured": ManufacturedProblem,
    "area": AreaProblem,
}


def build_problem(cfg, mesh):
    name = cfg.need("run", "problem")
    cls, order = PROBLEM_CLASSES[name], cfg.get("run", "order")
    try:
        if cls is ParabolicProblem:
            return cls(mesh, cfg.data, which=name[-2:], order=order)
        if cls is ManufacturedProblem:
            return cls(mesh, variant=name.split("_")[0], order=order)
        if cls is AreaProblem:
            return cls(mesh, order=order)
        return cls(mesh, cfg.data, order=order)
    except ValueError as exc:
        # coefficient bounds checked on the mesh: config errors
        raise ConfigError(str(exc)) from exc


# ------------------------------------------------------------------- commands

def cmd_mesh(args):
    if args.disk == (args.rect is not None):
        raise ConfigError("mesh: give exactly one of --disk or --rect")
    # refuse a target that cannot be written before the mesh is built
    _output(args.out_file, _probe_directory, args.out_file)
    if args.disk:
        if args.refine is None:
            raise ConfigError("mesh --disk needs --refine")
        mesh = _make_mesh(gen_disk, args.center, args.radius, args.refine)
    else:
        if args.nx is None or args.ny is None:
            raise ConfigError("mesh --rect needs --nx and --ny")
        mesh = _make_mesh(gen_rectangle, *args.rect, args.nx, args.ny)
    _output(args.out_file, save_mesh, mesh, args.out_file)
    print(f"wrote {args.out_file}: {mesh.n_nodes} nodes, "
          f"{mesh.n_triangles} triangles, hash {mesh_hash(mesh)}")
    return EXIT_OK


def _output(path, write, *args, **kwargs):
    """``write(*args, **kwargs)``: a ``path`` it cannot write is a config error."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path}: {exc.strerror or exc}") from exc


def _probe_directory(path):
    """Create and delete a file in ``path``'s directory, as ``save_mesh``
    creates its temporary file there: OSError if it cannot."""
    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
        pass


def _outdir(args, cfg):
    out = args.out or cfg.get("output", "dir")
    _output(out, os.makedirs, out, exist_ok=True)
    return out


def cmd_solve(args):
    cfg = RunConfig(args.config)
    # refused before the mesh is built: the flag is the class's
    name = cfg.need("run", "problem")
    if not PROBLEM_CLASSES[name].has_state:
        raise ConfigError(f"problem {name!r} has no state to solve")
    theta = build_theta(cfg)
    out = _outdir(args, cfg)
    problem = build_problem(cfg, build_mesh(cfg))
    written = []
    for tag, field in (("u", problem.u), ("p", problem.p)):
        path = os.path.join(out, f"{problem.name}-{tag}.field")
        save_field(path, field)
        written.append(path)
    if theta is not None:
        path = os.path.join(out, f"{problem.name}-udot.field")
        save_field(path, problem.material(theta))
        written.append(path)
    print(f"{problem.name}: {problem.dof_count} dofs, cost {problem.cost()!r}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _check(value, limit, op):
    ok = bool(value >= limit) if op == ">=" else bool(value <= limit)
    return {"value": None if not np.isfinite(value) else float(value),
            "limit": float(limit), "op": op, "pass": ok}


def _report_base(cfg, problem, theta):
    return {
        "schema": "shapegrad-report/1",
        "problem": problem.name,
        "mesh": {"nodes": problem.mesh.n_nodes, "triangles": problem.mesh.n_triangles,
                 "hash": mesh_hash(problem.mesh)},
        "dofs": problem.dof_count,
        "theta": {"name": theta.name,
                  "support": None if theta.support_box is None
                  else [list(map(float, r)) for r in theta.support_box]},
        "config": cfg.echo(),
    }


def _print_checks(checks):
    for name, c in checks.items():
        verdict = "PASS" if c["pass"] else "FAIL"
        value = "n/a" if c["value"] is None else f"{c['value']:.3e}"
        print(f"{verdict} {name}: value {value} vs limit {c['op']} {c['limit']:.3e}")


def _timed(timings, phase, run):
    """``run()``, with its seconds recorded as ``timings[phase]``."""
    t0 = time.perf_counter()
    result = run()
    timings[phase] = time.perf_counter() - t0
    return result


def cmd_check(args):
    """``derive`` and ``validate``: one pipeline, whose oracles are the ones
    the problem's capability flags name.  ``derive`` adds the assembled
    derivative, ``validate`` the Taylor check of the material derivative.

    The timings sidecar holds the seconds of each phase: ``build`` (mesh
    and problem construction), ``solve`` (the state, after every config
    check), ``assemble`` (derive's breakdown), ``fd`` (a problem with an FD
    table) and ``taylor`` (validate).  The adjoint is solved on first use, in
    ``assemble`` or ``fd``.
    """
    cfg = RunConfig(args.config)
    theta = build_theta(cfg, required=True)
    out = _outdir(args, cfg)
    timings = {}
    problem = _timed(timings, "build", lambda: build_problem(cfg, build_mesh(cfg)))
    moves = problem.nodal(theta).any()
    # a theta whose every sample is zero would pass every check with dJ = 0
    if problem.theta_vanishes(theta):
        raise ConfigError(f"[theta] field {theta.name!r} is zero on the whole mesh")
    # an FD row moves the mesh nodes only: a theta zero at all of them
    # leaves every row on the reference mesh, a pass with dJ unchecked
    if problem.fd_target and not moves:
        raise ConfigError(f"[theta] field {theta.name!r} is zero at every mesh node, "
                          "so its FD table would not move the mesh")
    derive = args.command == "derive"
    report = _report_base(cfg, problem, theta)
    report["command"] = args.command
    checks = {}
    if problem.has_state:
        _timed(timings, "solve", lambda: problem.u)

    if derive:
        bd = _timed(timings, "assemble", lambda: problem.breakdown(theta))
        report["cost"] = problem.cost()
        report["dJ"] = bd.total
        report["terms"] = {k: float(v) for k, v in bd.terms.items()}

    table = None
    if problem.fd_target:
        table = _timed(timings, "fd", lambda: fd_shape_check(
            problem, theta, cfg.get("validation", "s_list")))
        report["fd"] = fd_table_json(table)
        checks["fd_order"] = _check(table.observed_order(),
                                    cfg.get("validation", "fd_order_min"), ">=")
        checks["fd_rel_gap"] = _check(table.rel_gap, cfg.get("validation", "fd_rel_max"), "<=")
        if cfg.get("validation", "extrapolated_max") is not None:
            checks["fd_extrapolated"] = _check(
                table.extrapolated_error, cfg.get("validation", "extrapolated_max"), "<=")

    ttable = None
    if not derive and problem.has_state:
        ttable = _timed(timings, "taylor", lambda: material_taylor_check(
            problem, theta, cfg.get("validation", "taylor_s_list")))
        report["taylor"] = taylor_table_json(ttable)
        checks["taylor_order"] = _check(
            ttable.observed_order(), cfg.get("validation", "taylor_order_min"), ">=")

    if problem.has_state:
        rep = duality_check(problem, theta)
        report["duality"] = {"lhs": rep.lhs, "rhs": rep.rhs,
                             "abs_gap": rep.abs_gap, "rel_gap": rep.rel_gap}
        checks["duality_rel_gap"] = _check(rep.rel_gap, cfg.get("validation", "duality_rel_max"),
                                           "<=")

    if problem.dual_form:
        gap = problem.dual_form_gap(theta)
        report["dual_form_gap"] = gap
        checks["dual_form_gap"] = _check(gap, cfg.get("validation", "dual_form_max"), "<=")

    report["checks"] = checks
    report["passed"] = all(c["pass"] for c in checks.values())

    kind = "report" if derive else "validate"
    write_json(os.path.join(out, f"{problem.name}-{kind}.json"), report)
    if table is not None:
        write_csv(os.path.join(out, f"{problem.name}-fd.csv"), FD_CSV_HEADER,
                  fd_csv_rows(table, cfg.get("validation", "fd_rel_max")))
    if ttable is not None:
        write_csv(os.path.join(out, f"{problem.name}-taylor.csv"),
                  TAYLOR_CSV_HEADER, taylor_csv_rows(ttable))
    write_json(os.path.join(out, f"{problem.name}-timings.json"),
               {"command": args.command, "seconds": timings})
    if derive:
        print(f"{problem.name}: dJ = {bd.total!r}")
    _print_checks(checks)
    if not derive:
        print(f"{problem.name}: {'all checks passed' if report['passed'] else 'checks FAILED'}")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


# ----------------------------------------------------------------------- main

def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--out", help="output directory (overrides [output] dir)")

    p = argparse.ArgumentParser(prog="shapegrad",
                                description="distributed shape derivatives on triangular meshes")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", parents=[common], help="generate a mesh file")
    pm.add_argument("--disk", action="store_true")
    pm.add_argument("--rect", nargs=4, type=float, metavar=("X0", "Y0", "X1", "Y1"))
    pm.add_argument("--center", nargs=2, type=float, default=[0.0, 0.0])
    pm.add_argument("--radius", type=float, default=1.0)
    pm.add_argument("--refine", type=int)
    pm.add_argument("--nx", type=int)
    pm.add_argument("--ny", type=int)
    pm.add_argument("-o", "--out-file", required=True)
    pm.set_defaults(func=cmd_mesh)

    for name, func, blurb in (("solve", cmd_solve, "solve state and adjoint, write field files"),
                              ("derive", cmd_check, "assemble dJ and run the FD check"),
                              ("validate", cmd_check, "run the full validation suite")):
        sp = sub.add_parser(name, parents=[common], help=blurb)
        sp.set_defaults(func=func)
    return p


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _setup_logging()
        if args.command != "mesh" and not args.config:
            raise ConfigError(f"{args.command} needs --config PATH")
        log.info("command %s starting", args.command)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
