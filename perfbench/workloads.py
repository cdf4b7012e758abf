"""The benchmark's workloads: inputs built from a seed, one pass at a time.

Each workload is a closed loop with one client: ``run_pass`` issues the
operations of one pass one after another, each after the previous one
has returned, and gates every result against its acceptance thresholds.
Library calls go through module attributes (``sg_mesh.gen_disk``), so the
tracer's wrappers see them.

The seed moves only the centre of the bump velocity field, inside a small
box around the acceptance-suite centre (``ROBIN_BOX``, ``PARABOLIC_BOX``),
for the two API workloads, and only the invocation order for ``configs``.
Problem sizes are fixed.
"""

import configparser
import contextlib
import functools
import glob
import io
import json
import math
import os
import random
import shutil
import time

import numpy as np

from shapegrad import cli as sg_cli
from shapegrad import data_catalog as sg_data
from shapegrad import elliptic_problems as sg_elliptic
from shapegrad import flow as sg_flow
from shapegrad import mesh as sg_mesh
from shapegrad import parabolic_problem as sg_parabolic
from shapegrad import validation as sg_validation

# hold-all box of the unit disk and the unit square used by the acceptance
# suites: the cutoff plateau covers the domain
HOLDALL = np.array([[-1.5, -1.5], [1.5, 1.5]])
# Seeded offsets of the bump centre.  The parabolic centre sits on the
# boundary y = 0 and moves only into the domain: moved below it, the
# forward FD quotient of criterion 6 leaves its first-order regime at
# s = 0.02/0.01/0.005 (forward order 0.40 at offset (-0.04, -0.04)).
ROBIN_BOX = ((-0.04, 0.04), (-0.04, 0.04))
PARABOLIC_BOX = ((-0.04, 0.04), (0.0, 0.04))

# acceptance thresholds (criteria 4 and 6)
DUALITY_MAX = 1e-9
FD_ORDER_MIN = 1.9
FD_REL_MAX = 1e-5
TAYLOR_ORDER_MIN = 1.9
FORWARD_ORDER_MIN = 0.9


class Operation:
    """Outcome of one gated operation."""

    def __init__(self, name):
        self.name = name
        self.seconds = 0.0
        self.failures = []
        # a wrong result: an exception, a derivative outside its gates, or a
        # CLI output that disagrees with itself or with pass 0.  A CLI gate
        # failure the CLI itself reports (exit code 4) fails the operation
        # without being a wrong output.
        self.wrong = False

    @property
    def ok(self):
        return not self.failures

    def gate(self, label, value, limit, op):
        passed = value >= limit if op == ">=" else value <= limit
        if not (math.isfinite(value) and passed):
            self.failures.append(f"{label} {value!r} not {op} {limit!r}")
            self.wrong = True

    def error(self, exc):
        self.failures.append(f"raised {type(exc).__name__}: {exc}")
        self.wrong = True


class PassResult:
    def __init__(self):
        self.ops = []
        self.dJ_s = 0.0


@contextlib.contextmanager
def _operation(result, name, tracer):
    """Run one operation's body; an exception fails it, not the pass."""
    op = Operation(name)
    result.ops.append(op)
    if tracer is not None:
        tracer.op = name
    t0 = time.perf_counter()
    try:
        yield op
    except Exception as exc:  # boundary: record and keep the pass running
        op.error(exc)
    finally:
        op.seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = ""


def _jittered_bump(rng, amp, centre, radius, box):
    """Bump field with its centre moved by a seeded offset inside ``box``,
    given as ((dx_lo, dx_hi), (dy_lo, dy_hi))."""
    cx, cy = (c + rng.uniform(lo, hi) for c, (lo, hi) in zip(centre, box))
    return sg_flow.make_field("bump", (*amp, cx, cy, radius), support_box=HOLDALL)


def _rel_gap(table):
    return table.clean_rows()[-1].error / (1.0 + abs(table.dJ))


# ----------------------------------------------------------------- robin_r6

class RobinSuite:
    """Criterion-4 large suite: Robin on the refined disk, all oracles."""

    name = "robin_r6"
    min_passes = 1
    FD_S = (0.04, 0.02, 0.01)
    TAYLOR_S = (0.16, 0.08, 0.04)

    def __init__(self, seed, size, workdir):
        rng = random.Random(seed)
        self.refine, self.min_dofs = (6, 10_000) if size == "full" else (3, 1)
        self.data = sg_elliptic.RobinData(
            M=np.diag([2.0, 1.0]), beta=sg_data.parse_scalar("const 1"),
            f=sg_data.parse_scalar("const 1"), g=sg_data.parse_scalar("const 0"))
        self.theta = _jittered_bump(rng, (1.0, 0.4), (0.2, -0.1), 0.8, ROBIN_BOX)

    def run_pass(self, tracer=None):
        res = PassResult()
        problem = None
        with _operation(res, "derive", tracer) as op:
            t0 = time.perf_counter()
            mesh = sg_mesh.gen_disk((0.0, 0.0), 1.0, self.refine)
            problem = sg_elliptic.RobinProblem(mesh, self.data)
            dJ = problem.breakdown(self.theta).total
            res.dJ_s = time.perf_counter() - t0
            op.gate("dofs", problem.dof_count, self.min_dofs, ">=")
            op.gate("dJ finite", abs(dJ), 0.0, ">=")
        for name in ("duality", "fd", "taylor"):
            with _operation(res, name, tracer) as op:
                if problem is None:
                    op.failures.append("no problem: derive failed")
                    continue
                if name == "duality":
                    rep = sg_validation.duality_check(problem, self.theta)
                    op.gate("duality rel_gap", rep.rel_gap, DUALITY_MAX, "<=")
                elif name == "fd":
                    table = sg_validation.fd_shape_check(problem, self.theta, self.FD_S)
                    op.gate("fd order", table.observed_order(), FD_ORDER_MIN, ">=")
                    op.gate("fd rel gap", _rel_gap(table), FD_REL_MAX, "<=")
                else:
                    ttable = sg_validation.material_taylor_check(
                        problem, self.theta, self.TAYLOR_S)
                    op.gate("taylor order", ttable.observed_order(),
                            TAYLOR_ORDER_MIN, ">=")
        return res


# ------------------------------------------------------------- parabolic_48

class ParabolicSuite:
    """Criterion-6 derivative suite: j1 and j2 on the 48x48 rectangle."""

    name = "parabolic_48"
    min_passes = 1
    FD_S = (0.02, 0.01, 0.005)

    def __init__(self, seed, size, workdir):
        rng = random.Random(seed)
        self.n, nt, self.min_dofs = (48, 64, 4500) if size == "full" else (8, 8, 1)
        self.data = sg_parabolic.ParabolicData(
            M=sg_data.time_matrix("affine_mat 2 0.3 1.5 0.3 0.1 0.2 -0.2 0.05 0.3"),
            f=sg_data.time_scalar("sine2 1.5 1 1", "decay 0.4"),
            g=sg_data.parse_scalar("linear 0.2 0.3 -0.1"),
            u_d=sg_data.time_scalar("poly2 0.1 0.2 -0.1 0.3 0 0.15"),
            t0=1.0, nt=nt)
        self.theta = _jittered_bump(rng, (1.0, 0.5), (0.5, 0.0), 0.45, PARABOLIC_BOX)

    def run_pass(self, tracer=None):
        res = PassResult()
        mesh = None
        for which in ("j1", "j2"):
            problem = None
            with _operation(res, f"{which}.derive", tracer) as op:
                t0 = time.perf_counter()
                if mesh is None:  # both flavors share one mesh, as in criterion 6
                    mesh = sg_mesh.gen_rectangle(0.0, 0.0, 1.0, 1.0, self.n, self.n)
                problem = sg_parabolic.ParabolicProblem(mesh, self.data, which=which)
                dJ = problem.breakdown(self.theta).total
                res.dJ_s += time.perf_counter() - t0
                op.gate("dofs", problem.dof_count, self.min_dofs, ">=")
                op.gate("dJ finite", abs(dJ), 0.0, ">=")
            for name in ("duality", "fd"):
                with _operation(res, f"{which}.{name}", tracer) as op:
                    if problem is None:
                        op.failures.append("no problem: derive failed")
                        continue
                    if name == "duality":
                        rep = sg_validation.duality_check(problem, self.theta)
                        op.gate("duality rel_gap", rep.rel_gap, DUALITY_MAX, "<=")
                        continue
                    table = sg_validation.fd_shape_check(problem, self.theta, self.FD_S)
                    forward = sg_validation.estimate_order(
                        [(r.s, r.forward_error) for r in table.clean_rows()])
                    op.gate("central order", table.observed_order(), FD_ORDER_MIN, ">=")
                    op.gate("forward order", forward, FORWARD_ORDER_MIN, ">=")
        return res


# ------------------------------------------------------------------ configs

# config keys that set the problem size, and their values at the tiny size
TINY_KEYS = {("mesh", "refine"): "2", ("mesh", "nx"): "6", ("mesh", "ny"): "6",
             ("data", "nt"): "4"}


def _report_files(outdir):
    """Bytes of every report the CLI wrote, timing sidecars excluded."""
    out = {}
    for path in sorted(glob.glob(os.path.join(outdir, "*"))):
        if not path.endswith("-timings.json"):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = fh.read()
    return out


def _check_verdicts(op, rc, reports):
    """The exit code and the report's verdict must agree with its own checks.

    A gate the CLI reports as failed, with exit code 4, is a failed
    operation whose output is nevertheless truthful; anything else that
    disagrees is a wrong output.
    """
    report = None
    for name, blob in reports.items():
        if name.endswith("-report.json") or name.endswith("-validate.json"):
            report = json.loads(blob)
    if report is None:
        op.failures.append("no report written")
        op.wrong = True
        return
    for label, c in report["checks"].items():
        value = math.nan if c["value"] is None else c["value"]
        passed = value >= c["limit"] if c["op"] == ">=" else value <= c["limit"]
        passed = bool(passed and math.isfinite(value)) or (
            c["value"] is None and c["pass"])  # the CLI's "machine-exact" order
        if passed != c["pass"]:
            op.failures.append(f"check {label} verdict {c['pass']} disagrees with "
                               f"{c['value']!r} {c['op']} {c['limit']!r}")
            op.wrong = True
        elif not passed:
            op.failures.append(f"{label} {c['value']!r} not {c['op']} {c['limit']!r}")
    expected = sg_cli.EXIT_OK if report["passed"] else sg_cli.EXIT_VALIDATION
    if rc != expected:
        op.failures.append(f"exit code {rc}, report implies {expected}")
        op.wrong = True


class ConfigSuite:
    """Every shipped config through ``shapegrad.cli.main``, derive and validate.

    Each invocation writes to its own directory under the workload's work
    directory.  Every pass compares the report bytes with the first
    pass's (criterion 9).  A pass takes about 10 s, within which machine
    speed varies by about a tenth, so a run takes the median of three.
    """

    name = "configs"
    min_passes = 3
    COMMANDS = ("derive", "validate")

    def __init__(self, seed, size, workdir):
        root = os.path.dirname(os.path.dirname(os.path.abspath(sg_cli.__file__)))
        cfg_dir = os.path.join(os.path.dirname(root), "demos", "configs")
        configs = sorted(glob.glob(os.path.join(cfg_dir, "*.cfg")))
        if not configs:
            raise FileNotFoundError(f"no shipped configs under {cfg_dir}")
        self.workdir = workdir
        if size != "full":
            configs = [self._tiny_copy(path) for path in configs]
        self.invocations = [(path, cmd) for path in configs for cmd in self.COMMANDS]
        random.Random(seed).shuffle(self.invocations)
        self.reference = {}
        self.passes = 0

    def _tiny_copy(self, path):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(path)
        for (section, key), value in TINY_KEYS.items():
            if cp.has_option(section, key):
                cp.set(section, key, value)
        out = os.path.join(self.workdir, "tiny-" + os.path.basename(path))
        with open(out, "w") as fh:
            cp.write(fh)
        return out

    def run_pass(self, tracer=None):
        res = PassResult()
        passdir = os.path.join(self.workdir, f"pass-{self.passes}")
        self.passes += 1
        originals = (sg_cli.build_mesh, sg_cli.build_problem)
        try:
            for path, cmd in self.invocations:
                stem = os.path.splitext(os.path.basename(path))[0]
                key = f"{stem}.{cmd}"
                outdir = os.path.join(passdir, key)
                with _operation(res, key, tracer) as op:
                    acc = [0.0]
                    if cmd == "derive":
                        sg_cli.build_mesh = _stopwatch(originals[0], acc)
                        sg_cli.build_problem = _stopwatch(originals[1], acc)
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()) as err:
                        rc = sg_cli.main([cmd, "--config", path, "--out", outdir])
                    sg_cli.build_mesh, sg_cli.build_problem = originals
                    if rc not in (sg_cli.EXIT_OK, sg_cli.EXIT_VALIDATION):
                        op.failures.append(f"exit code {rc}: {err.getvalue().strip()}")
                        op.wrong = True
                        continue
                    reports = _report_files(outdir)
                    if cmd == "derive":
                        # mesh and problem construction (state and adjoint
                        # solves), plus derive's own timing of the breakdown
                        res.dJ_s += acc[0] + _assemble_seconds(outdir)
                    _check_verdicts(op, rc, reports)
                    ref = self.reference.setdefault(key, reports)
                    if reports != ref:
                        differing = sorted(n for n in set(ref) | set(reports)
                                           if ref.get(n) != reports.get(n))
                        op.failures.append(f"report bytes differ from pass 0: {differing}")
                        op.wrong = True
        finally:
            sg_cli.build_mesh, sg_cli.build_problem = originals
            shutil.rmtree(passdir, ignore_errors=True)
        return res


def _stopwatch(fn, acc):
    """``fn`` adding its wall time to ``acc[0]``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += time.perf_counter() - t0
    return wrapper


def _assemble_seconds(outdir):
    """derive's own timing of the dJ breakdown, from its timings sidecar."""
    total = 0.0
    for path in glob.glob(os.path.join(outdir, "*-timings.json")):
        with open(path, "rb") as fh:
            total += json.load(fh)["seconds"]["assemble"]
    return total


WORKLOADS = {cls.name: cls for cls in (RobinSuite, ParabolicSuite, ConfigSuite)}
