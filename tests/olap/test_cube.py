"""OLAP cube construction and inspection tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CubeError, SchemaError
from repro.olap.cube import CellAggregate, OLAPCube
from repro.types import Record, Schema


SCHEMA = Schema.of("time", "region", "product", "sales", kinds={"sales": "numeric"})


def sample_records():
    rows = [
        ("2014", "asia", "A", 10.0),
        ("2014", "asia", "A", 5.0),
        ("2014", "eu", "A", 2.0),
        ("2013", "asia", "B", 7.0),
        ("2013", "eu", "B", 1.0),
        ("2012", "us", "C", 4.0),
    ]
    return [Record(values, size_bytes=100) for values in rows]


def sales_cube():
    return OLAPCube.from_records(
        sample_records(), SCHEMA, ["time", "region", "product"], measure="sales"
    )


class TestConstruction:
    def test_cells_aggregate_identical_coordinates(self):
        cube = sales_cube()
        assert cube.num_cells == 5
        cell = cube.cells[("2014", "asia", "A")]
        assert cell.count == 2
        assert cell.size_bytes == 200
        assert cell.measure_sum == 15.0

    def test_totals(self):
        cube = sales_cube()
        assert cube.total_count == 6
        assert cube.total_bytes == 600

    def test_no_dimensions_rejected(self):
        with pytest.raises(CubeError):
            OLAPCube(dimensions=())

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(CubeError):
            OLAPCube(dimensions=("a", "a"))

    def test_non_numeric_measure_rejected(self):
        schema = Schema.of("k", "v")
        with pytest.raises(CubeError):
            OLAPCube.from_records(
                [Record(("a", "not-a-number"))], schema, ["k"], measure="v"
            )

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_a_non_finite_record_size_never_reaches_a_cell(self, size):
        with pytest.raises(SchemaError, match=f"got {size!r}$"):
            OLAPCube.from_records(
                [Record(("2014", "asia", "A", 1.0), size_bytes=size)],
                SCHEMA, ["time"], measure="sales",
            )

    def test_insert_single(self):
        cube = OLAPCube(dimensions=("time",))
        cube.insert(Record(("2014", "asia", "A", 1.0)), SCHEMA)
        assert cube.total_count == 1

    def test_unknown_dimension(self):
        with pytest.raises(CubeError):
            sales_cube().dimension_index("flavor")


class TestInspection:
    def test_values_of(self):
        cube = sales_cube()
        assert cube.values_of("time") == ["2012", "2013", "2014"]
        assert cube.values_of("product") == ["A", "B", "C"]

    def test_cells_by_weight_ordering(self):
        ordered = sales_cube().cells_by_weight()
        counts = [cell.count for _, cell in ordered]
        assert counts == sorted(counts, reverse=True)
        assert ordered[0][0] == ("2014", "asia", "A")

    def test_cells_by_weight_deterministic_ties(self):
        first = [coord for coord, _ in sales_cube().cells_by_weight()]
        second = [coord for coord, _ in sales_cube().cells_by_weight()]
        assert first == second

    def test_iteration_and_len(self):
        cube = sales_cube()
        assert len(cube) == 5
        assert len(list(cube)) == 5
        assert len(cube.coordinates()) == 5


class TestMergeAndCopy:
    def test_merge_cube(self):
        left = sales_cube()
        right = sales_cube()
        left.merge_cube(right)
        assert left.total_count == 12
        assert left.num_cells == 5
        # right is untouched
        assert right.total_count == 6

    def test_merge_dimension_mismatch(self):
        cube = sales_cube()
        other = OLAPCube(dimensions=("time",))
        with pytest.raises(CubeError):
            cube.merge_cube(other)

    def test_copy_is_deep_for_cells(self):
        cube = sales_cube()
        clone = cube.copy()
        clone.cells[("2014", "asia", "A")].add(100)
        assert cube.cells[("2014", "asia", "A")].count == 2

    def test_cell_aggregate_merge(self):
        a = CellAggregate(1, 10, 2.0)
        a.merge(CellAggregate(2, 20, 3.0))
        assert (a.count, a.size_bytes, a.measure_sum) == (3, 30, 5.0)


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("xy")),
            min_size=1,
            max_size=50,
        )
    )
    def test_count_conservation(self, pairs):
        schema = Schema.of("k1", "k2")
        records = [Record(pair) for pair in pairs]
        cube = OLAPCube.from_records(records, schema, ["k1", "k2"])
        assert cube.total_count == len(pairs)
        assert cube.num_cells == len(set(pairs))
        assert cube.total_bytes == sum(record.size_bytes for record in records)
