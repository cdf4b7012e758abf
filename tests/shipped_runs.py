"""Run every shipped config through ``derive`` and ``validate``, and every
test config through ``validate``, and keep what a run leaves behind, for a
byte-for-byte comparison of two checkouts.

    python tests/shipped_runs.py OUTDIR

For each ``demos/configs/*.cfg`` and each command, and for each
``tests/configs/*.cfg`` with ``validate``, ``python -m shapegrad.cli
COMMAND --config CFG --out OUTDIR/<cfg>-<command>`` runs in a subprocess
with ``OPENBLAS_NUM_THREADS=1`` and this checkout's ``src`` on
``PYTHONPATH``: 27 runs today, 8 shipped configs times 2 commands and 11
test configs.  Its stdout, stderr and exit code are stored next to the
reports (``stdout.txt``, ``stderr.txt``, ``exit.txt``); the timing
sidecars (``*-timings.json``), the only output that varies from run to
run, are deleted.  The test configs run at larger sizes:
``robin-r8-memory.cfg`` (refine 8) takes about 15 s and 690 MB,
``quasilinear-r7-memory.cfg`` (refine 7) about 14 s and 470 MB, and
``parabolic-ramp-memory.cfg`` (48 x 48, nt = 64, a ramp M) about 9 s and
550 MB.

Run it in this checkout and in a base checkout, each with its own copy of
this script, then compare the two output trees::

    python tests/shipped_runs.py OUTDIR --against BASE_OUTDIR

runs nothing: it lists every file that is in only one of the two trees or
whose bytes differ.  A difference is allowed only if
``tests/declared_drift.txt`` declares it, one ``path  reason`` line per
file (path relative to the output tree, e.g.
``robin-disk-derive/robin-report.json``).  A run folder that exists only
in OUTDIR is a new run: it is listed and allowed.  The comparison exits 1
on a difference that is not declared and on a declared path that does not
differ, else 0.

Standard library only; pytest does not collect it (no ``test_`` prefix).
"""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECLARED_DRIFT = os.path.join(ROOT, "tests", "declared_drift.txt")
#: config folder -> the commands each of its configs runs
RUNS = {os.path.join("demos", "configs"): ("derive", "validate"),
        os.path.join("tests", "configs"): ("validate",)}


def run_all(outdir):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    for folder, commands in RUNS.items():
        for cfg in sorted(glob.glob(os.path.join(ROOT, folder, "*.cfg"))):
            stem = os.path.splitext(os.path.basename(cfg))[0]
            for command in commands:
                out = os.path.join(outdir, f"{stem}-{command}")
                os.makedirs(out, exist_ok=True)
                run = subprocess.run([sys.executable, "-m", "shapegrad.cli", command,
                                      "--config", cfg, "--out", out],
                                     cwd=ROOT, env=env, capture_output=True, text=True)
                for name, text in (("stdout.txt", run.stdout), ("stderr.txt", run.stderr),
                                   ("exit.txt", f"{run.returncode}\n")):
                    with open(os.path.join(out, name), "w") as fh:
                        fh.write(text)
                for sidecar in glob.glob(os.path.join(out, "*-timings.json")):
                    os.remove(sidecar)
                print(f"{stem} {command}: exit {run.returncode}")


def _files(top):
    return {os.path.relpath(os.path.join(folder, name), top)
            for folder, _, names in os.walk(top) for name in names}


def declared_drift(path=DECLARED_DRIFT):
    """The declared differences, ``{path: reason}``, from ``path  reason``
    lines; blank lines are skipped, and a line without a reason is refused."""
    declared = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            name, _, reason = line.strip().partition(" ")
            if not name:
                continue
            if not reason.strip():
                raise ValueError(f"{path}:{number}: expected 'path  reason', got {name!r}")
            declared[name] = reason.strip()
    return declared


def compare(outdir, other, declared):
    """The paths at fault in ``outdir`` against the base tree ``other``:
    each differing file that ``declared`` does not name, then each declared
    file that does not differ.  Prints every new run of ``outdir``, every
    difference, every fault and a summary line."""
    ours, theirs = _files(outdir), _files(other)
    new_runs = {p.split(os.sep)[0] for p in ours} - {p.split(os.sep)[0] for p in theirs}
    differing = [(path, f"only in {outdir}") for path in ours - theirs
                 if path.split(os.sep)[0] not in new_runs]
    differing += [(path, f"only in {other}") for path in theirs - ours]
    for path in ours & theirs:
        with open(os.path.join(outdir, path), "rb") as a, open(os.path.join(other, path), "rb") as b:
            if a.read() != b.read():
                differing.append((path, "bytes differ"))
    for run in sorted(new_runs):
        print(f"{run}: new run, only in {outdir}")
    failures = []
    for path, why in sorted(differing):
        if path in declared:
            print(f"{path}: {why}, declared: {declared[path]}")
        else:
            print(f"FAIL {path}: {why}")
            failures.append(path)
    for path in sorted(set(declared) - {path for path, _ in differing}):
        print(f"FAIL {path}: declared, but does not differ")
        failures.append(path)
    print(f"{len(differing)} differing, {len(failures)} not as declared, "
          f"{len(ours & theirs)} files compared, {len(new_runs)} new runs")
    return failures


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[1] == "--against":
        for tree in (args[0], args[2]):
            if not os.path.isdir(tree):
                sys.exit(f"{tree}: not a directory")
        failures = compare(os.path.abspath(args[0]), os.path.abspath(args[2]), declared_drift())
        sys.exit(1 if failures else 0)
    if len(args) != 1:
        sys.exit("usage: python tests/shipped_runs.py OUTDIR [--against BASE_OUTDIR]")
    run_all(os.path.abspath(args[0]))
