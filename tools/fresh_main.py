"""Time one ``marcsim.cli.main(argv)`` call in a fresh interpreter.

The timing tools share this: a fresh interpreter, with one BLAS thread,
imports ``marcsim.cli`` and ``marcsim.harness`` from a checkout's ``src``,
runs a setup statement and then times the ``main(argv)`` call alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ONE_BLAS_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS")}

CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from marcsim import cli, harness
exec(sys.argv[2])
t = time.perf_counter()
code = cli.main(sys.argv[3:])
print(time.perf_counter() - t)
sys.exit(code)
"""


def time_main(src: Path, argv: list[str], setup: str = "") -> float:
    """The wall of one main(argv) call, in ms, in a fresh interpreter that
    imports marcsim from src and runs setup (say, to set a harness constant)
    first; CalledProcessError if the command fails."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(src), setup, *argv],
                         env={**os.environ, **ONE_BLAS_THREAD}, capture_output=True, text=True,
                         check=True)
    return 1e3 * float(out.stdout.split()[-1])
