"""Core data model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.types import (
    Attribute,
    DatasetCatalog,
    GeoDataset,
    Record,
    Schema,
    records_bytes,
)


def make_schema():
    return Schema.of("url", "score", "region", kinds={"score": "numeric"})


class TestAttribute:
    def test_valid(self):
        assert Attribute("url").kind == "categorical"

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            Attribute("x", "mysterious")

    def test_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")


class TestSchema:
    def test_of_shorthand(self):
        schema = make_schema()
        assert schema.names == ["url", "score", "region"]
        assert schema.attributes[1].kind == "numeric"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "a")

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema(())

    def test_index_and_contains(self):
        schema = make_schema()
        assert schema.index("score") == 1
        assert "region" in schema
        assert "missing" not in schema

    def test_index_missing(self):
        with pytest.raises(SchemaError):
            make_schema().index("missing")

    def test_indices(self):
        assert make_schema().indices(["region", "url"]) == [2, 0]

    def test_validate_record(self):
        schema = make_schema()
        schema.validate_record(Record(("a", 1, "us")))
        with pytest.raises(SchemaError):
            schema.validate_record(Record(("a", 1)))


class TestRecord:
    def test_key_projection(self):
        record = Record(("url-a", 3, "us"))
        assert record.key([0, 2]) == ("url-a", "us")

    def test_value_of(self):
        record = Record(("url-a", 3, "us"))
        assert record.value_of(make_schema(), "score") == 3

    def test_nonpositive_size_rejected(self):
        with pytest.raises(SchemaError):
            Record(("a",), size_bytes=0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), float("-inf"), -1, 0.0])
    def test_non_finite_or_nonpositive_size_is_named(self, size):
        with pytest.raises(SchemaError, match=rf"finite and > 0, got {size!r}$"):
            Record(("a",), size_bytes=size)

    def test_records_bytes(self):
        assert records_bytes([Record(("a",), 10), Record(("b",), 15)]) == 25


class TestGeoDataset:
    def make_dataset(self):
        dataset = GeoDataset("logs", make_schema())
        dataset.add_records(
            "tokyo",
            [Record(("a", 1, "jp"), 10), Record(("b", 2, "jp"), 10)],
        )
        dataset.add_records("oregon", [Record(("a", 1, "us"), 10)])
        return dataset

    def test_bytes_accounting(self):
        dataset = self.make_dataset()
        assert dataset.bytes_at("tokyo") == 20
        assert dataset.bytes_at("oregon") == 10
        assert dataset.total_bytes == 30
        assert dataset.total_records == 3
        assert dataset.bytes_by_site() == {"tokyo": 20, "oregon": 10}

    def test_empty_shard(self):
        assert self.make_dataset().shard("mars") == []
        assert self.make_dataset().bytes_at("mars") == 0

    def test_add_validates_schema(self):
        dataset = self.make_dataset()
        with pytest.raises(SchemaError):
            dataset.add_records("tokyo", [Record(("only-one",))])

    def test_move_records(self):
        dataset = self.make_dataset()
        moving = dataset.shard("tokyo")[:1]
        dataset.move_records("tokyo", "oregon", moving)
        assert len(dataset.shard("tokyo")) == 1
        assert len(dataset.shard("oregon")) == 2
        assert dataset.total_records == 3

    def test_move_records_not_present(self):
        dataset = self.make_dataset()
        foreign = [Record(("z", 9, "eu"), 10)]
        with pytest.raises(SchemaError):
            dataset.move_records("tokyo", "oregon", foreign)

    def test_move_duplicate_objects_rejected(self):
        dataset = self.make_dataset()
        record = dataset.shard("tokyo")[0]
        with pytest.raises(SchemaError):
            dataset.move_records("tokyo", "oregon", [record, record])

    def test_move_preserves_identity_with_equal_records(self):
        dataset = GeoDataset("dup", Schema.of("k"))
        twin_a, twin_b = Record(("same",), 10), Record(("same",), 10)
        dataset.add_records("x", [twin_a, twin_b])
        dataset.add_records("y", [])
        dataset.move_records("x", "y", [twin_a])
        assert len(dataset.shard("x")) == 1
        assert len(dataset.shard("y")) == 1

    def test_all_records(self):
        assert len(self.make_dataset().all_records()) == 3

    def test_empty_id_rejected(self):
        with pytest.raises(SchemaError):
            GeoDataset("", make_schema())

    @given(st.lists(st.integers(min_value=1, max_value=1000), max_size=30))
    def test_total_bytes_is_sum_of_shards(self, sizes):
        dataset = GeoDataset("d", Schema.of("k"))
        for index, size in enumerate(sizes):
            dataset.add_records(f"site-{index % 3}", [Record((index,), size)])
        assert dataset.total_bytes == sum(sizes)


class TestDatasetCatalog:
    def test_add_get(self):
        catalog = DatasetCatalog()
        dataset = GeoDataset("a", make_schema())
        catalog.add(dataset)
        assert catalog.get("a") is dataset
        assert "a" in catalog
        assert len(catalog) == 1

    def test_duplicate_rejected(self):
        catalog = DatasetCatalog()
        catalog.add(GeoDataset("a", make_schema()))
        with pytest.raises(SchemaError):
            catalog.add(GeoDataset("a", make_schema()))

    def test_unknown_rejected(self):
        with pytest.raises(SchemaError):
            DatasetCatalog().get("nope")

    def test_iteration(self):
        catalog = DatasetCatalog()
        catalog.add(GeoDataset("a", make_schema()))
        catalog.add(GeoDataset("b", make_schema()))
        assert [ds.dataset_id for ds in catalog] == ["a", "b"]
