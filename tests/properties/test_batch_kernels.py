"""The batch path's small kernels against the code they replaced, bit for bit.

``kmeans`` updates every centroid with one ``np.add.at`` fold and draws
its k-means++ picks as ``rng.choice`` draws them; ``combine`` folds its
bytes in a local; ``OLAPCube.from_records`` and ``project`` project
their keys in one batch and aggregate inline.  Each is held to the
oracle the test tree keeps (``tests/similarity/reference_kmeans.py``,
``tests/engine/reference_combiner.py``, ``tests/olap/reference_cube.py``;
DIMSUM's exact pairs are held to ``reference_dimsum.py`` by
``tests/similarity/test_columnar_parity.py``).  Data are drawn from small
alphabets with duplicate rows and signed zeros, so ties, merges and
empty k-means clusters occur; a numpy release that draws
``Generator.choice`` differently fails here first.
"""

import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.combiner import combine
from repro.olap.cube import OLAPCube
from repro.olap.operations import project
from repro.similarity.kmeans import kmeans
from repro.types import Record, Schema
from tests.engine.reference_combiner import reference_combine
from tests.olap.reference_cube import reference_from_records, reference_project
from tests.similarity.reference_kmeans import reference_kmeans

#: Five points, three clusters, seed 2: the first Lloyd step leaves a
#: cluster empty and the per-cluster loop re-seeds it.
RESEED = ([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 0.0]], 3, 2)

coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0 / 3.0, 0.5, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


def bits(value) -> tuple:
    """A number's type and exact float bits (``0.0`` and ``-0.0`` differ)."""
    return type(value), float(value).hex()


@st.composite
def kmeans_cases(draw):
    """``(rows, k, seed)``: 2–40 rows drawn from a few distinct ones."""
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=8))
    distinct = draw(st.integers(min_value=1, max_value=n))
    pool = draw(
        st.lists(
            st.lists(coordinates, min_size=d, max_size=d),
            min_size=distinct,
            max_size=distinct,
        )
    )
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=distinct - 1), min_size=n, max_size=n
        )
    )
    k = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return [pool[pick] for pick in picks], k, seed


@settings(max_examples=400, deadline=None)
@given(case=kmeans_cases())
@example(case=RESEED)
@example(case=([[1.0, 1.0]] * 3, 2, 0))  # all rows equal: seeding by rng.integers
def test_kmeans_is_the_per_cluster_loop(case):
    rows, k, seed = case
    result = kmeans(rows, k, seed=seed)
    expected = reference_kmeans(rows, k, seed=seed)
    assert result.labels == expected.labels
    assert result.iterations == expected.iterations
    assert bits(result.inertia) == bits(expected.inertia)
    assert result.centroids.shape == expected.centroids.shape
    assert result.centroids.tobytes() == expected.centroids.tobytes()


def test_the_pinned_example_reseeds_an_empty_cluster(monkeypatch):
    module = sys.modules[kmeans.__module__]
    update = module._update_per_cluster
    emptied = []

    def spy(matrix, centroids, distances, labels, points):
        counts = np.bincount(labels, minlength=centroids.shape[0])
        emptied.append(not counts.all())
        update(matrix, centroids, distances, labels, points)

    monkeypatch.setattr(module, "_update_per_cluster", spy)
    rows, k, seed = RESEED
    kmeans(rows, k, seed=seed)
    assert any(emptied)


records = st.builds(
    Record,
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=3),
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.5, 1e16, -1e16]),
            st.integers(min_value=-5, max_value=5),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
    ),
    size_bytes=st.one_of(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=0.5, max_value=1e5),
    ),
)
SCHEMA = Schema.of("site", "bucket", "value", kinds={"value": "numeric"})


@settings(max_examples=300, deadline=None)
@given(
    st.lists(records, max_size=60),
    st.sampled_from([[], [0], [1], [2], [1, 0], [0, 1, 2]]),
    st.one_of(st.sampled_from([1.0, 0.5, 1.0 / 3.0]), st.floats(0.001, 1.0)),
)
def test_combine_is_the_per_record_fold(batch, key_indices, ratio):
    result = combine(batch, key_indices, ratio)
    expected = reference_combine(batch, key_indices, ratio)
    assert [
        (key, record.key, record.merged_count, bits(record.size_bytes))
        for key, record in result.records.items()
    ] == [
        (key, record.key, record.merged_count, bits(record.size_bytes))
        for key, record in expected.records.items()
    ]
    assert bits(result.map_output_bytes) == bits(expected.map_output_bytes)
    assert result.map_output_records == expected.map_output_records == len(batch)


def cells(cube: OLAPCube) -> list:
    return [
        (coordinate, cell.count, bits(cell.size_bytes), bits(cell.measure_sum))
        for coordinate, cell in cube.cells.items()
    ]


dimension_lists = st.permutations(SCHEMA.names).flatmap(
    lambda names: st.integers(min_value=1, max_value=3).map(
        lambda size: list(names[:size])
    )
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(records, max_size=60),
    dimension_lists,
    st.sampled_from([None, "value"]),
    dimension_lists,
)
def test_cube_build_and_projection_are_the_per_cell_loops(
    batch, dimensions, measure, projection
):
    cube = OLAPCube.from_records(batch, SCHEMA, dimensions, measure=measure)
    expected = reference_from_records(batch, SCHEMA, dimensions, measure=measure)
    assert (cube.dimensions, cube.measure) == (expected.dimensions, expected.measure)
    assert cells(cube) == cells(expected)
    projection = [name for name in projection if name in dimensions] or dimensions
    assert cells(project(cube, projection)) == cells(
        reference_project(expected, projection)
    )
