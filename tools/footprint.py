#!/usr/bin/env python3
"""Peak RSS, wall time and scipy modules of one ``repro run``, in a fresh process.

    python3 tools/footprint.py [--queries 6]

A child interpreter runs ``repro run --scheme bohr --queries N --json FILE``
through ``repro.cli.main`` (FILE in a temporary directory) and reports the
``scipy*`` modules it left in ``sys.modules``; this process times the child
and reads its peak RSS from ``getrusage(RUSAGE_CHILDREN)`` (Linux: KiB).

Exit status is non-zero when the run fails or ``scipy.optimize`` was
imported: LP solving loads scipy's HiGHS binding from its own file, so the
package init of ``scipy.optimize`` has no reason to run.  Standard library
only; writes nothing outside the temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
names = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"exit": code, "scipy_modules": names}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=6)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="footprint-") as scratch:
        run = ["run", "--scheme", "bohr", "--queries", str(args.queries),
               "--json", os.path.join(scratch, "results.json")]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", CHILD, *run],
            cwd=ROOT, env=env, capture_output=True, text=True, check=False,
        )
        wall = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        print(f"footprint: no report from the child (exit {done.returncode})")
        return 1
    names = report["scipy_modules"]
    print(
        f"footprint: repro {' '.join(run[:-2])}: peak RSS {peak_mib:.1f} MiB, "
        f"wall {wall:.2f} s, {len(names)} scipy modules"
    )
    if done.returncode or report["exit"]:
        sys.stderr.write(done.stderr)
        print(f"footprint: the run failed (exit {report['exit']})")
        return 1
    if "scipy.optimize" in names:
        print("footprint: scipy.optimize was imported; LP solving should load "
              "only scipy.optimize._highspy._core")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
