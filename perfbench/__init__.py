"""perfbench — the repository's benchmark.

Six named workloads, end-to-end metrics on two clocks (host and
simulated), and a per-layer trace recorded strictly from outside the
program.  ``perfbench/run.py`` runs one workload and prints one JSON
result line (the contract in ``BENCHMARK.json``); ``python -m perfbench``
runs the whole suite.  See ``perfbench/README.md``.
"""

import os
import sys

#: Directory of this package and of the checkout that holds it.
PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(PACKAGE_DIR)
#: Where results, span files and telemetry archives go (git-ignored).
OUT_DIR = os.path.join(PACKAGE_DIR, "out")


def ensure_repro_importable() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    The benchmark measures the program in the checkout it sits in, never
    an installed copy.  A checkout without ``src/repro`` is left alone so
    the import error surfaces to the caller.
    """
    source = os.path.join(ROOT_DIR, "src")
    if os.path.isdir(os.path.join(source, "repro")) and source not in sys.path:
        sys.path.insert(0, source)
