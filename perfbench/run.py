"""shapegrad benchmark: how long a user waits for a verified shape derivative.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload robin_r6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see ``workloads.py``): ``robin_r6``, ``parabolic_48`` and
``configs``.  Each runs in this one process, with the BLAS/OpenMP thread
variables set to the number of usable cores, as a closed loop with one
client: passes over the workload's operation list, one after another,
until ``--seconds`` have elapsed and at least the workload's minimum
number of passes has run.

With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` one untraced pass is followed by traced passes, and the
per-layer metrics (self time and counts per pass, medians over the
traced passes) are reported, with the tracing overhead as traced minus
untraced ``pass_s``.  Spans are written to ``perfbench/out/``.

Every line but the last is for people: the run environment, failed
operations, and every metric by name with its unit, including those
that are not part of the result line.  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "work")
OUT = os.path.join(ROOT, "perfbench", "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = {"full": 5, "tiny": 1}

END_TO_END = {"setup_s": "s", "pass_s": "s", "dJ_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# per-layer metrics in the result line: self times of layers every
# workload enters, and exact counts per pass
PER_LAYER = {
    "mesh.generate_s": "s", "mesh.with_nodes_s": "s", "mesh.with_nodes.calls": "count",
    "fem_core.space_s": "s", "fem_core.space.calls": "count",
    "fem_core.assemble_s": "s", "fem_core.assemble.calls": "count",
    "fem_core.factor_s": "s", "fem_core.factor.calls": "count",
    "fem_core.factor.n_max": "count", "fem_core.factor.fill": "count",
    "fem_core.trisolve_s": "s", "fem_core.trisolve.calls": "count",
    "flow.transport_s": "s", "flow.transport.calls": "count",
    "flow.advect_s": "s", "flow.advect.calls": "count",
    "shape_assembly.theta_samples_s": "s", "shape_assembly.assemble_dJ_s": "s",
    "validation.fd_s": "s", "validation.duality_s": "s",
    "validation.fd.rows": "count", "validation.fd.flagged": "count",
    "validation.taylor.rows": "count", "validation.taylor.flagged": "count",
    "elliptic_problems.newton_iters": "count", "reports.bytes": "count",
    "trace.pass_s": "s", "trace.overhead_s": "s",
}

# self times of layers only some workloads enter: printed on the detail
# lines, not in the result line, because a layer a workload never enters
# reads 0 s on every run
WORKLOAD_LAYERS = ("elliptic_problems.build", "elliptic_problems.tensors",
                   "parabolic_problem.march", "parabolic_problem.adjoint",
                   "parabolic_problem.tensors", "parabolic_problem.material",
                   "validation.taylor", "cli.invoke", "reports.write")


def _nproc():
    return len(os.sched_getaffinity(0))


def _prepare_process():
    """Pin thread counts and put the checkout's sources first on the path.

    Runs before numpy is imported, so the thread variables take effect.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(_nproc())
    if not os.path.isfile(os.path.join(SRC, "shapegrad", "__init__.py")):
        sys.exit(f"perfbench: no shapegrad sources under {SRC}")
    sys.path.insert(0, SRC)


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("robin_r6", "parabolic_48", "configs"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smallest meshes, for the self-check")
    p.add_argument("--self-check", action="store_true",
                   help="run every workload at the tiny size and check the output")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


# ------------------------------------------------------------------ environment

def _git_commit():
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "shapegrad")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _environment(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "nproc": _nproc(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(),
            "source_sha256": _source_digest()}


# ----------------------------------------------------------------- measurement

def _setup_seconds(args):
    """Wall time from starting a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        samples.append(ready)
    return samples


def _percentile_line(name, samples):
    """Highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"{name}.p{p:g}", q[int(round(p * 10)) - 1]
    return None


def _run_passes(workload, seconds, tracer):
    """Closed loop of passes; with a tracer, one untraced pass comes first."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        done = len(untraced) + len(traced)
        enough = time.perf_counter() - start >= seconds and done >= workload.min_passes
        if enough and (tracer is None or traced):
            break
        use_tracer = tracer is not None and done > 0
        if use_tracer:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = workload.run_pass(tracer if use_tracer else None)
        finally:
            res_s = time.perf_counter() - t0
            if use_tracer:
                tracer.uninstall()
        res.pass_s = res_s
        if use_tracer:
            res.self_s, res.calls = tracer.layer_summary()
            res.counts = dict(tracer.counts)
            res.spans = tracer.spans
            res.root_s = sum(e - s for _, s, e, parent, _ in tracer.spans if parent < 0)
            traced.append(res)
        else:
            untraced.append(res)
    return untraced, traced


def _per_layer(untraced, traced):
    """Medians over traced passes, plus the detail-only layer times."""
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def count(fn):  # a count that some traced pass actually made
        return statistics.median_low(fn(r) for r in traced)

    out = {}
    for name in PER_LAYER:
        if name == "trace.pass_s":
            out[name] = med(lambda r: r.pass_s)
        elif name == "trace.overhead_s":
            out[name] = med(lambda r: r.pass_s) - statistics.median(
                r.pass_s for r in untraced)
        elif name.endswith("_s"):
            layer = name[:-2]
            out[name] = med(lambda r: r.self_s.get(layer, 0.0))
        elif name.endswith(".calls"):
            layer = name[:-len(".calls")]
            out[name] = count(lambda r: r.calls.get(layer, 0))
        else:
            out[name] = count(lambda r: r.counts.get(name, 0))
    detail = {layer + "_s": med(lambda r: r.self_s.get(layer, 0.0))
              for layer in WORKLOAD_LAYERS}
    detail["trace.bookkeeping_s"] = med(lambda r: r.self_s.get("trace.bookkeeping", 0.0))
    detail["unwrapped_s"] = med(lambda r: r.pass_s - r.root_s)
    detail["trace.spans"] = count(lambda r: len(r.spans))
    return out, detail


def _write_spans(args, traced):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "passes": [r.spans for r in traced]}, fh)
    return os.path.relpath(path, ROOT)


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def run(args):
    from workloads import WORKLOADS
    from spans import Tracer

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, args.size, workdir)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else _setup_seconds(args)
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        tracer = Tracer() if args.trace else None
        untraced, traced = _run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(_environment(args)))
    ops = [(i, op) for i, r in enumerate(untraced + traced) for op in r.ops]
    for i, op in ops:
        if not op.ok:
            print(f"failed pass {i} {op.name}: {'; '.join(op.failures)}")
    attempted = len(ops)
    failed = sum(1 for _, op in ops if not op.ok)
    correct = not any(op.wrong for _, op in ops)

    info = {"passes": (len(untraced), "count"), "traced_passes": (len(traced), "count"),
            "fail_ratio": (failed / attempted, "ratio")}
    if args.trace:
        metrics, detail = _per_layer(untraced, traced)
        units = PER_LAYER
        info.update({k: (v, "count" if k == "trace.spans" else "s")
                     for k, v in detail.items()})
        info["spans_file"] = (_write_spans(args, traced), "path")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(r.pass_s for r in untraced),
            "dJ_s": statistics.median(r.dJ_s for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
        info["setup_samples"] = (len(setup), "count")
        tail = _percentile_line("pass_s", [r.pass_s for r in untraced])
        if tail is not None:
            info[tail[0]] = (tail[1], "s")
    for name, value in metrics.items():
        print(f"metric {name} {_fmt(value)} {units[name]}")
    by_op = {}
    for _, op in ops:
        by_op.setdefault(op.name, []).append(op.seconds)
    for name, secs in by_op.items():
        info[f"op.{name}_s"] = (statistics.median(secs), "s")
    for name, (value, unit) in info.items():
        print(f"info {name} {_fmt(value)} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def self_check():
    """Every workload at the tiny size, one pass each way: every metric named
    in BENCHMARK.json must be present with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert expect[0] == END_TO_END, "end_to_end in BENCHMARK.json differs from run.py"
    assert expect[1] == PER_LAYER, "per_layer in BENCHMARK.json differs from run.py"
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", "1", "--seconds", "0", "--trace", str(trace),
                   "--size", "tiny"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, f"{w['name']} trace {trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expect[trace], f"{w['name']} trace {trace}: {got}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print(f"self-check {w['name']} trace {trace}: "
                  f"{len(got)} metrics, {time.perf_counter() - t0:.1f} s")
    print("self-check passed")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    _prepare_process()
    if args.self_check:
        return self_check()
    if args.workload is None:
        _parser().error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
