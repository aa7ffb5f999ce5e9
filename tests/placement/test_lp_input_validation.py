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

