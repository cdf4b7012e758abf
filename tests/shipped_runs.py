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

Run it in two checkouts, then compare the two output trees::

    python tests/shipped_runs.py OUTDIR --against OTHER

runs nothing: it lists every file that is in only one of the two trees or
whose bytes differ, and exits 1 if there is any, 0 if the trees are
identical.

Standard library only; pytest does not collect it (no ``test_`` prefix).
"""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def compare(outdir, other):
    """The relative paths that differ between two output trees, each with
    the reason, sorted; prints them and a summary line."""
    ours, theirs = _files(outdir), _files(other)
    differing = [(path, f"only in {outdir}") for path in ours - theirs]
    differing += [(path, f"only in {other}") for path in theirs - ours]
    for path in ours & theirs:
        with open(os.path.join(outdir, path), "rb") as a, open(os.path.join(other, path), "rb") as b:
            if a.read() != b.read():
                differing.append((path, "bytes differ"))
    differing.sort()
    for path, why in differing:
        print(f"{path}: {why}")
    print(f"{len(differing)} differing, {len(ours & theirs)} files compared")
    return differing


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[1] == "--against":
        for tree in (args[0], args[2]):
            if not os.path.isdir(tree):
                sys.exit(f"{tree}: not a directory")
        sys.exit(1 if compare(os.path.abspath(args[0]), os.path.abspath(args[2])) else 0)
    if len(args) != 1:
        sys.exit("usage: python tests/shipped_runs.py OUTDIR [--against OTHER]")
    run_all(os.path.abspath(args[0]))
