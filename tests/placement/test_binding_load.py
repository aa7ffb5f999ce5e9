"""The HiGHS binding's footprint and its coexistence with ``scipy.optimize``.

``solve_lp`` loads scipy's HiGHS extension from its own file so that
``scipy.optimize``'s package init never runs.  What that leaves in
``sys.modules`` only shows in an interpreter that has imported nothing
else, so each check runs in a fresh subprocess.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: A 3-site, 2-dataset data-movement LP, built by the test tree's
#: row-by-row assembly.
PROGRAM = """
import sys

from repro.placement.model import PlacementProblem
from repro.placement.solver import _highs_core, solve_lp
from repro.wan.presets import uniform_sites
from tests.placement.reference_lp import reference_data_program, reference_scipy_solve

problem = PlacementProblem(
    topology=uniform_sites(3),
    input_bytes={"d0": {"site-0": 4e9, "site-1": 1e9}, "d1": {"site-1": 2e9, "site-2": 6e9}},
    reduction_ratio={"d0": 0.4, "d1": 0.7},
    similarity={"d0": {"site-0": 0.3, "site-1": 0.5}, "d1": {"site-2": 0.2}},
    lag_seconds=20.0,
)
program = reference_data_program(problem, {"site-0": 0.5, "site-1": 0.3, "site-2": 0.2})
BINDING = "scipy.optimize._highspy._core"
"""


def run_fresh(script: str) -> None:
    """Run ``PROGRAM`` then ``script`` in a new interpreter; fail on its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM + script],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False, timeout=120,
    )
    if done.returncode:
        pytest.fail(f"fresh interpreter exited {done.returncode}:\n{done.stderr}")


def test_a_solve_loads_the_binding_without_scipy_optimize_and_linprog_still_agrees():
    run_fresh("""
solution = solve_lp(program, backend="scipy")
assert "scipy.optimize" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
core = sys.modules[BINDING]
assert core.__name__ == BINDING and core.__spec__.name == BINDING

from scipy.optimize import linprog  # runs the package init after the fact

x, objective = reference_scipy_solve(program)
assert sys.modules[BINDING] is core
assert x.tobytes() == solution.x.tobytes(), (x, solution.x)
assert objective == solution.objective, (objective, solution.objective)
again = solve_lp(program, backend="scipy")
assert again.x.tobytes() == solution.x.tobytes()
""")


def test_a_binding_scipy_optimize_already_imported_is_reused():
    run_fresh("""
import scipy.optimize
import scipy.optimize._highspy._core as scipys

assert _highs_core() is scipys
assert solve_lp(program, backend="scipy").objective == reference_scipy_solve(program)[1]
""")
