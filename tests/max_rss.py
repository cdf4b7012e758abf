"""Run one CLI command in a child process and gate its peak memory.

    python tests/max_rss.py COMMAND CONFIG OUTDIR

``python -m shapegrad.cli COMMAND --config CONFIG --out OUTDIR`` runs with
``OPENBLAS_NUM_THREADS=1`` and this checkout's ``src`` on ``PYTHONPATH``.
Its wall time and maximum resident set size (``ru_maxrss`` of the child, in
MB of 1024 KiB) are printed.  The script exits with the command's code when
that is not 0, and with 1 when the child's maximum RSS exceeds
``LIMIT_MB``, the 1 GB that a refine-8 run must stay within.

Standard library only; pytest does not collect it (no ``test_`` prefix).
"""

import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT_MB = 1000.0


def main(command, config, outdir):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "shapegrad.cli", command,
                           "--config", config, "--out", outdir], env=env).returncode
    wall = time.perf_counter() - start
    # the one child this process waited for
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"{command} {config}: exit {code}, {wall:.1f} s wall, "
          f"max RSS {rss:.0f} MB (limit {LIMIT_MB:.0f} MB)")
    if code:
        return code
    return 1 if rss > LIMIT_MB else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: python tests/max_rss.py COMMAND CONFIG OUTDIR")
    sys.exit(main(*sys.argv[1:]))
