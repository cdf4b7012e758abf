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
import time

import numpy as np

from .elliptic_problems import (DirichletEnergyData, DirichletEnergyProblem,
                                QuasilinearData, QuasilinearProblem, RobinData,
                                RobinProblem)
from .data_catalog import parse_matrix, parse_rfunction, parse_scalar, \
    time_matrix, time_scalar
from .fem_core import SolverError
from .flow import make_field
from .mesh import MeshFormatError, gen_disk, gen_rectangle, load_mesh, save_mesh
from .parabolic_problem import ParabolicData, ParabolicProblem
from .reports import (FD_CSV_HEADER, TAYLOR_CSV_HEADER, fd_csv_rows,
                      fd_table_json, mesh_hash, save_field, taylor_csv_rows,
                      taylor_table_json, write_csv, write_json)
from .shape_assembly import ManufacturedProblem
from .validation import (AreaProblem, duality_check, fd_shape_check,
                         fd_transport_check, material_taylor_check, step_sizes)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

_PARABOLIC_DATA = {"m", "m_profile", "f", "f_profile", "g", "u_d", "ud_profile", "t0", "nt"}
#: problem -> the [data] keys ``build_problem`` reads for it
DATA_KEYS = {
    "robin": {"m", "beta", "f", "g"},
    "quasilinear": {"m", "f", "g", "u_d", "c1", "c2", "c3", "r_check"},
    "dirichlet_energy": {"f"},
    "parabolic_j1": _PARABOLIC_DATA,
    "parabolic_j2": _PARABOLIC_DATA,
    "prop5_manufactured": set(),
    "prop6_manufactured": set(),
    "area": set(),
}
PROBLEMS = tuple(DATA_KEYS)
#: section -> the keys the commands read, as configparser stores them, in
#: lower case; [data] is per problem (``DATA_KEYS``)
SECTION_KEYS = {
    "run": {"problem", "order"},
    "mesh": {"file", "kind", "center", "radius", "refine", "bounds", "nx", "ny"},
    "theta": {"field", "support", "ramp"},
    "validation": {"steps", "s_list", "taylor_s_list", "fd_order_min", "fd_rel_max",
                   "extrapolated_max", "taylor_order_min", "duality_rel_max", "dual_form_max"},
    "output": {"dir"},
}

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

class RunConfig:
    """Typed view of an INI config file; every getter raises ConfigError
    with the section/key it was reading."""

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
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        self.path = path
        self._cp = cp
        self._check_keys()

    def get(self, section, key, default=None):
        if not self._cp.has_option(section, key):
            if default is None:
                raise ConfigError(f"missing [{section}] {key} in {self.path}")
            return default
        return self._cp.get(section, key).strip()

    def get_float(self, section, key, default=None):
        raw = self.get(section, key, default)
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None

    def get_int(self, section, key, default=None):
        raw = self.get(section, key, default)
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None

    def get_floats(self, section, key, default=None):
        raw = self.get(section, key, default)
        try:
            vals = [float(p) for p in str(raw).split()]
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected numbers, got {raw!r}") from None
        if not vals:
            raise ConfigError(f"[{section}] {key}: empty value")
        return vals

    def has(self, section, key=None):
        if key is None:
            return self._cp.has_section(section)
        return self._cp.has_option(section, key)

    def echo(self):
        return {s: dict(self._cp.items(s)) for s in self._cp.sections()}

    def _check_keys(self):
        """Raise ConfigError on the first section or key that no command
        reads: a misspelt one would otherwise leave its default in force
        unnoticed.  An unknown problem is left to ``build_problem``."""
        known = dict(SECTION_KEYS, data=DATA_KEYS.get(self.get("run", "problem", "?")))
        for section in self._cp.sections():
            if section not in known:
                raise ConfigError(f"unknown section [{section}] in {self.path}; "
                                  f"known: {', '.join(sorted(known))}")
            if known[section] is None:
                continue
            for key in self._cp.options(section):
                if key not in known[section]:
                    raise ConfigError(f"unknown key [{section}] {key} in {self.path}; known: "
                                      f"{', '.join(sorted(known[section])) or 'none'}")


def build_mesh(cfg):
    if cfg.has("mesh", "file"):
        path = cfg.get("mesh", "file")
        try:
            return load_mesh(path)
        except (OSError, MeshFormatError, ValueError) as exc:
            raise ConfigError(f"cannot load mesh {path}: {exc}") from exc
    kind = cfg.get("mesh", "kind")
    try:
        if kind == "disk":
            cx, cy = cfg.get_floats("mesh", "center", "0 0")
            return gen_disk((cx, cy), cfg.get_float("mesh", "radius", "1"),
                            cfg.get_int("mesh", "refine"))
        if kind == "rect":
            x0, y0, x1, y1 = cfg.get_floats("mesh", "bounds", "0 0 1 1")
            return gen_rectangle(x0, y0, x1, y1, cfg.get_int("mesh", "nx"),
                                 cfg.get_int("mesh", "ny"))
    except ValueError as exc:
        raise ConfigError(f"mesh generation failed: {exc}") from exc
    raise ConfigError(f"[mesh] kind must be disk or rect, got {kind!r}")


def build_theta(cfg, required=False):
    if not cfg.has("theta", "field"):
        if required:
            raise ConfigError("this command needs a [theta] field entry")
        return None
    parts = cfg.get("theta", "field").split()
    if not parts:
        raise ConfigError("[theta] field: empty value")
    name, raw = parts[0], parts[1:]
    try:
        params = [float(p) for p in raw]
    except ValueError:
        raise ConfigError(f"[theta] field: bad parameter in {raw}") from None
    support = None
    if cfg.has("theta", "support"):
        vals = cfg.get_floats("theta", "support")
        if len(vals) != 4:
            raise ConfigError("[theta] support: expected 'x0 y0 x1 y1'")
        support = np.array(vals, dtype=float).reshape(2, 2)
    ramp = cfg.get_float("theta", "ramp", "0.15")
    try:
        return make_field(name, params, support_box=support, ramp=ramp)
    except ValueError as exc:
        raise ConfigError(f"[theta] {exc}") from exc


def build_problem(cfg, mesh):
    name = cfg.get("run", "problem")
    if name not in PROBLEMS:
        raise ConfigError(f"[run] problem must be one of {', '.join(PROBLEMS)}; got {name!r}")
    order = cfg.get_int("run", "order", "1")
    if order not in (1, 2):
        raise ConfigError(f"[run] order must be 1 or 2, got {order}")
    try:
        if name == "robin":
            md = parse_matrix(cfg.get("data", "M", "const_mat 1 0 1"))
            M = md.constant()
            if M is None:
                raise ConfigError("robin needs a spatially constant [data] M entry")
            data = RobinData(M=M, beta=parse_scalar(cfg.get("data", "beta", "const 1")),
                             f=parse_scalar(cfg.get("data", "f")),
                             g=parse_scalar(cfg.get("data", "g")))
            return RobinProblem(mesh, data, order=order)
        if name == "quasilinear":
            data = QuasilinearData(
                m=parse_rfunction(cfg.get("data", "m")),
                f=parse_rfunction(cfg.get("data", "f")),
                g=parse_scalar(cfg.get("data", "g")),
                u_d=parse_scalar(cfg.get("data", "u_d")),
                c1=cfg.get_float("data", "c1", "1.0"),
                c2=cfg.get_float("data", "c2", "9e-4"),
                c3=cfg.get_float("data", "c3", "3.0"),
                r_check=cfg.get_float("data", "r_check", "10.0"))
            return QuasilinearProblem(mesh, data, order=order)
        if name == "dirichlet_energy":
            data = DirichletEnergyData(f=parse_scalar(cfg.get("data", "f")))
            return DirichletEnergyProblem(mesh, data, order=order)
        if name in ("parabolic_j1", "parabolic_j2"):
            data = ParabolicData(
                M=time_matrix(cfg.get("data", "M"), cfg.get("data", "M_profile", "const")),
                f=time_scalar(cfg.get("data", "f"), cfg.get("data", "f_profile", "const")),
                g=parse_scalar(cfg.get("data", "g")),
                u_d=time_scalar(cfg.get("data", "u_d"),
                                cfg.get("data", "ud_profile", "const")),
                t0=cfg.get_float("data", "t0", "1.0"),
                nt=cfg.get_int("data", "nt", "64"))
            return ParabolicProblem(mesh, data, which=name[-2:], order=order)
        if name in ("prop5_manufactured", "prop6_manufactured"):
            return ManufacturedProblem(mesh, variant=name.split("_")[0], order=order)
        return AreaProblem(mesh, order=order)
    except ConfigError:
        raise
    except ValueError as exc:
        # catalog names, parameter counts, coefficient bounds: config errors
        raise ConfigError(str(exc)) from exc


# ------------------------------------------------------------------- commands

def cmd_mesh(args):
    if args.disk == (args.rect is not None):
        raise ConfigError("mesh: give exactly one of --disk or --rect")
    if args.disk:
        if args.refine is None:
            raise ConfigError("mesh --disk needs --refine")
        mesh = gen_disk(tuple(args.center), args.radius, args.refine)
    else:
        if args.nx is None or args.ny is None:
            raise ConfigError("mesh --rect needs --nx and --ny")
        x0, y0, x1, y1 = args.rect
        try:
            mesh = gen_rectangle(x0, y0, x1, y1, args.nx, args.ny)
        except ValueError as exc:
            raise ConfigError(f"mesh generation failed: {exc}") from exc
    save_mesh(mesh, args.out_file)
    print(f"wrote {args.out_file}: {mesh.n_nodes} nodes, "
          f"{mesh.n_triangles} triangles, hash {mesh_hash(mesh)}")
    return EXIT_OK


def _outdir(args, cfg):
    out = args.out or (cfg.get("output", "dir", "out") if cfg.has("output") else "out")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_solve(args):
    cfg = RunConfig(args.config)
    mesh = build_mesh(cfg)
    problem = build_problem(cfg, mesh)
    if not problem.has_state:
        raise ConfigError(f"problem {problem.name!r} has no state to solve")
    out = _outdir(args, cfg)
    theta = build_theta(cfg)
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


def _order_value(table):
    errs = table.errors()
    if errs and max(errs) <= 1e-13 * table.scale:
        return float("inf")  # machine-exact: order check is vacuous
    try:
        if len(errs) >= 3:
            return table.observed_order()
        orders = table.orders()
        return float(orders.min()) if len(orders) else float("nan")
    except ValueError:
        return float("nan")


def _check(value, limit, op):
    ok = bool(value >= limit) if op == ">=" else bool(value <= limit)
    return {"value": None if not np.isfinite(value) else float(value),
            "limit": float(limit), "op": op, "pass": ok}


def _smallest_s_rel(table):
    errs = table.errors()
    return errs[-1] / table.scale if errs else float("nan")


def _fd_checks(cfg, table):
    checks = {
        "fd_order": _check(_order_value(table), cfg.get_float("validation", "fd_order_min", "1.9"), ">="),
        "fd_rel_gap": _check(_smallest_s_rel(table), cfg.get_float("validation", "fd_rel_max", "1e-5"), "<="),
    }
    if cfg.has("validation", "extrapolated_max"):
        checks["fd_extrapolated"] = _check(
            table.extrapolated_error, cfg.get_float("validation", "extrapolated_max"), "<=")
    return checks


def _step_sizes(cfg, key, default):
    """[validation] ``key``: step sizes s, positive and strictly decreasing."""
    s = cfg.get_floats("validation", key, default)
    try:
        return step_sizes(s)
    except ValueError:
        raise ConfigError(f"[validation] {key} must be positive and strictly decreasing, "
                          f"got {' '.join(map(str, s))}") from None


def _run_fd(problem, theta, s_list, steps):
    if problem.fd_cost == "transport":
        return fd_transport_check(problem, theta, s_list, steps=steps)
    if problem.fd_cost == "resolve":
        return fd_shape_check(problem, theta, s_list, steps=steps)
    return None


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
    check), ``assemble`` (derive's breakdown), ``fd`` and ``taylor``
    (validate).  The adjoint is solved on first use, in ``assemble`` or ``fd``.
    """
    cfg = RunConfig(args.config)
    timings = {}
    problem = _timed(timings, "build", lambda: build_problem(cfg, build_mesh(cfg)))
    theta = build_theta(cfg, required=True)
    # a theta whose every sample is zero would pass every check with dJ = 0
    if not any(map(np.any, vars(problem.samples(theta)).values())):
        raise ConfigError(f"[theta] field {theta.name!r} is zero on the whole mesh")
    out = _outdir(args, cfg)
    derive = args.command == "derive"
    report = _report_base(cfg, problem, theta)
    report["command"] = args.command
    checks = {}
    steps = cfg.get_int("validation", "steps", "32")
    if steps < 1:
        raise ConfigError(f"[validation] steps must be at least 1, got {steps}")
    s_list = _step_sizes(cfg, "s_list", "0.04 0.02 0.01")
    taylor = not derive and problem.has_state
    ts = _step_sizes(cfg, "taylor_s_list", "0.16 0.08 0.04") if taylor else None
    if problem.has_state:
        _timed(timings, "solve", lambda: problem.u)

    if derive:
        bd = _timed(timings, "assemble", lambda: problem.breakdown(theta))
        report["cost"] = problem.cost()
        report["dJ"] = bd.total
        report["terms"] = {k: float(v) for k, v in bd.terms.items()}

    table = _timed(timings, "fd", lambda: _run_fd(problem, theta, s_list, steps))
    if table is not None:
        report["fd"] = fd_table_json(table)
        checks.update(_fd_checks(cfg, table))

    ttable = None
    if taylor:
        ttable = _timed(timings, "taylor",
                        lambda: material_taylor_check(problem, theta, ts, steps=steps))
        report["taylor"] = taylor_table_json(ttable)
        checks["taylor_order"] = _check(
            _order_value(ttable),
            cfg.get_float("validation", "taylor_order_min", "1.9"), ">=")

    if problem.has_state:
        rep = duality_check(problem, theta)
        report["duality"] = {"lhs": rep.lhs, "rhs": rep.rhs,
                             "abs_gap": rep.abs_gap, "rel_gap": rep.rel_gap}
        checks["duality_rel_gap"] = _check(
            rep.rel_gap, cfg.get_float("validation", "duality_rel_max", "1e-9"), "<=")

    if problem.dual_form:
        gap = problem.dual_form_gap(theta)
        report["dual_form_gap"] = gap
        checks["dual_form_gap"] = _check(
            gap, cfg.get_float("validation", "dual_form_max", "1e-12"), "<=")

    report["checks"] = checks
    report["passed"] = all(c["pass"] for c in checks.values())

    kind = "report" if derive else "validate"
    write_json(os.path.join(out, f"{problem.name}-{kind}.json"), report)
    if table is not None:
        rel_max = cfg.get_float("validation", "fd_rel_max", "1e-5")
        write_csv(os.path.join(out, f"{problem.name}-fd.csv"), FD_CSV_HEADER,
                  fd_csv_rows(table, rel_max))
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
