"""Run every shipped config through ``derive`` and ``validate``, and every
test config through ``validate``, and keep what a run leaves behind, for a
byte-for-byte comparison of two checkouts.

    python tests/shipped_runs.py OUTDIR

For each ``demos/configs/*.cfg`` and each command, and for each
``tests/configs/*.cfg`` with ``validate``, ``python -m shapegrad.cli
COMMAND --config CFG --out OUTDIR/<cfg>-<command>`` runs in a subprocess
with ``OPENBLAS_NUM_THREADS=1`` and this checkout's ``src`` on
``PYTHONPATH``.  Its stdout, stderr and exit code are stored next to the
reports (``stdout.txt``, ``stderr.txt``, ``exit.txt``); the timing
sidecars (``*-timings.json``), the only output that varies from run to
run, are deleted.  Run it in two checkouts and compare with ``diff -r``.  The
test configs run at larger sizes: ``robin-r8-memory.cfg`` (refine 8) takes
about 15 s and 690 MB.

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/shipped_runs.py OUTDIR")
    run_all(os.path.abspath(sys.argv[1]))
