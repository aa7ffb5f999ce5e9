"""A module-level memo mutated from a function frame."""

#: R010 demo: module-level mutable container mutated from a function
#: frame below — the per-file rules never look at module state.
_MEMO = {}


def remember(key: str, value: float) -> float:
    _MEMO[key] = value
    return value
