"""Partition → executor assignment against the pass it used to always run.

``assign_partitions`` returns the round-robin deal without a similarity
pass when there are no more partitions than executors.  The property:
for any machine's partitions, forced or clustered, the executor groups
are the ones ``tests/engine/reference_assignment.py`` (key sets → DIMSUM
→ k-means → idle fill, unconditionally) produces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.assignment import assign_partitions
from repro.engine.rdd import RDDPartition
from repro.similarity.dimsum import DimsumConfig
from repro.types import Record
from tests.engine.reference_assignment import reference_assign

#: A small alphabet so partitions overlap, plus numeric and mixed values.
values = st.one_of(
    st.sampled_from(["a", "b", "c", "d"]), st.integers(min_value=0, max_value=3)
)
records = st.builds(
    Record,
    st.tuples(values, values),
    size_bytes=st.integers(min_value=1, max_value=1000),
)
machines = st.lists(st.lists(records, max_size=8), max_size=12).map(
    lambda chunks: [
        RDDPartition(partition_id=index, site="x", records=chunk)
        for index, chunk in enumerate(chunks)
    ]
)
configs = st.builds(
    DimsumConfig,
    gamma=st.sampled_from([0.5, 4.0, 1e9]),
    num_hashes=st.just(16),
    seed=st.integers(min_value=0, max_value=3),
    exact_below=st.sampled_from([0, 3, 64]),
)


def ids(groups):
    return [[partition.partition_id for partition in group] for group in groups]


@settings(max_examples=150, deadline=None)
@given(
    machines,
    st.integers(min_value=1, max_value=6),
    st.sampled_from([[0], [1], [1, 0]]),
    configs,
    st.integers(min_value=0, max_value=3),
)
def test_assignment_is_the_unconditional_similarity_pass(
    partitions, num_executors, key_indices, config, seed
):
    result = assign_partitions(
        partitions,
        num_executors,
        key_indices,
        similarity_aware=True,
        dimsum_config=config,
        seed=seed,
    )
    expected = reference_assign(partitions, num_executors, key_indices, config, seed)
    assert ids(result.executor_partitions) == ids(expected)
    assert result.num_partitions == len(partitions)
    if len(partitions) <= num_executors:
        assert result.overhead_seconds == 0.0
