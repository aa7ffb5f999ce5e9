"""Non-finite LP input fails loudly, by name, on both backends.

Before the check scipy raised a bare ``ValueError``; the simplex answered
a ``nan`` in ``a_ub`` with "infeasible" and a ``nan`` in ``b_ub`` with an
*optimal* point (``min x0+x1, -x0 <= nan, -x1 <= -1`` gave ``[0, 1]``).
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.placement.solver import LinearProgram, solve_lp

BACKENDS = ["scipy", "simplex", "auto"]
#: field -> index of the entry to poison -> how the message names it.
ENTRIES = {
    "c": ((1,), "c[1] (variable 'x1')"),
    "a_ub": ((1, 0), "a_ub[1, 0] (variable 'x0')"),
    "b_ub": ((1,), "b_ub[1]"),
    "a_eq": ((0, 1), "a_eq[0, 1] (variable 'x1')"),
    "b_eq": ((0,), "b_eq[0]"),
}


def program(**overrides) -> LinearProgram:
    fields = dict(
        c=np.array([1.0, 1.0]),
        a_ub=np.array([[-1.0, 0.0], [0.0, -1.0]]),
        b_ub=np.array([0.0, -1.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([3.0]),
        variable_names=["x0", "x1"],
    )
    fields.update(overrides)
    return LinearProgram(**fields)


def test_the_clean_program_solves_on_every_backend():
    for backend in BACKENDS:
        assert solve_lp(program(), backend=backend).objective == pytest.approx(3.0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", sorted(ENTRIES))
def test_non_finite_input_is_a_solver_error_naming_the_entry(field, bad, backend):
    index, named = ENTRIES[field]
    poisoned = program()
    getattr(poisoned, field)[index] = bad
    with pytest.raises(SolverError) as raised:
        solve_lp(poisoned, backend=backend)
    assert str(raised.value) == f"LP input must be finite: {named} is {bad}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_first_offending_entry_is_named_and_names_are_optional(backend):
    a_ub = np.array([[-1.0, 0.0], [np.nan, np.inf]])
    with pytest.raises(SolverError, match=r"a_ub\[1, 0\] is nan$"):
        solve_lp(program(a_ub=a_ub, variable_names=[]), backend=backend)


#: override -> the shapes the message names.  Before the check scipy
#: raised a bare ``ValueError`` and the simplex, given ``a_ub`` without
#: ``b_ub``, returned ``[0, 0]``.
SHAPES = {
    "a_ub-columns": (
        dict(a_ub=np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])),
        "a_ub (2, 3), b_ub (2,), c (2,)",
    ),
    "b_ub-rows": (dict(b_ub=np.array([0.0, -1.0, 5.0])), "a_ub (2, 2), b_ub (3,), c (2,)"),
    "b_ub-2d": (dict(b_ub=np.array([[0.0], [-1.0]])), "a_ub (2, 2), b_ub (2, 1), c (2,)"),
    "a_ub-1d": (dict(a_ub=np.array([-1.0, 0.0])), "a_ub (2,), b_ub (2,), c (2,)"),
    "a_ub-alone": (dict(b_ub=None), "a_ub (2, 2), b_ub None, c (2,)"),
    "b_ub-alone": (dict(a_ub=None), "a_ub None, b_ub (2,), c (2,)"),
    "a_eq-columns": (dict(a_eq=np.array([[1.0]])), "a_eq (1, 1), b_eq (1,), c (2,)"),
    "b_eq-rows": (dict(b_eq=np.array([3.0, 3.0])), "a_eq (1, 2), b_eq (2,), c (2,)"),
    "a_eq-alone": (dict(b_eq=None), "a_eq (1, 2), b_eq None, c (2,)"),
    "b_eq-alone": (dict(a_eq=None), "a_eq None, b_eq (1,), c (2,)"),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(SHAPES))
def test_mismatched_shapes_are_a_solver_error_naming_them(case, backend):
    overrides, shapes = SHAPES[case]
    with pytest.raises(SolverError) as raised:
        solve_lp(program(**overrides), backend=backend)
    assert str(raised.value) == f"LP shapes do not match: {shapes}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_omitting_both_halves_of_a_constraint_block_is_fine(backend):
    solution = solve_lp(program(a_ub=None, b_ub=None), backend=backend)
    assert solution.objective == pytest.approx(3.0)

