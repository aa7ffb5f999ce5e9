"""PageRank and compiler tests."""

import math

import pytest

from repro.errors import QueryError
from repro.query.compiler import compile_query
from repro.query.pagerank import pagerank, pagerank_scores_from_records
from repro.query.spec import QueryClass, QuerySpec
from repro.types import Record, Schema

SCHEMA = Schema.of("url", "score", "region", kinds={"score": "numeric"})


class TestPagerank:
    def test_ranks_sum_to_one(self):
        ranks = pagerank([("a", "b"), ("b", "c"), ("c", "a")])
        assert math.isclose(sum(ranks.values()), 1.0, rel_tol=1e-6)

    def test_symmetric_cycle_uniform(self):
        ranks = pagerank([("a", "b"), ("b", "c"), ("c", "a")])
        assert ranks["a"] == pytest.approx(ranks["b"])
        assert ranks["b"] == pytest.approx(ranks["c"])

    def test_popular_node_ranks_higher(self):
        ranks = pagerank([("a", "hub"), ("b", "hub"), ("c", "hub"), ("hub", "a")])
        assert ranks["hub"] > ranks["b"]

    def test_dangling_nodes(self):
        ranks = pagerank([("a", "b")])  # b dangles
        assert math.isclose(sum(ranks.values()), 1.0, rel_tol=1e-6)
        assert ranks["b"] > ranks["a"]

    def test_empty(self):
        assert pagerank([]) == {}

    def test_validation(self):
        with pytest.raises(QueryError):
            pagerank([("a", "b")], damping=1.0)
        with pytest.raises(QueryError):
            pagerank([("a", "b")], iterations=0)


class TestPagerankScores:
    def test_sums_scores_per_url(self):
        records = [
            Record(("u1", 1.0, "asia")),
            Record(("u1", 2.0, "eu")),
            Record(("u2", 5.0, "us")),
        ]
        scores = pagerank_scores_from_records(records, SCHEMA)
        assert scores == {"u1": 3.0, "u2": 5.0}

    def test_non_numeric_score_rejected(self):
        records = [Record(("u1", "high", "asia"))]
        with pytest.raises(QueryError):
            pagerank_scores_from_records(records, SCHEMA)


class TestCompiler:
    def test_resolves_indices(self):
        spec = QuerySpec("logs", ("region", "url"))
        job = compile_query(spec, SCHEMA)
        assert job.key_indices == (2, 0)

    def test_ratio_is_the_specs_own(self):
        # The class default, unless the spec names its own R^a: the one
        # number both the engine's combiner and the placement LP read.
        for spec, ratio in (
            (QuerySpec("logs", ("url",), QueryClass.SCAN), 0.25),
            (QuerySpec("logs", ("url",)), 0.55),
            (QuerySpec("logs", ("url",), QueryClass.UDF, reduction_ratio=0.4), 0.4),
        ):
            assert spec.default_reduction_ratio() == ratio
            assert compile_query(spec, SCHEMA).reduction_ratio == ratio

    def test_unknown_attribute(self):
        with pytest.raises(QueryError):
            compile_query(QuerySpec("logs", ("flavor",)), SCHEMA)

    def test_unknown_filter_column(self):
        spec = QuerySpec("logs", ("url",), filters=(("flavor", "x"),))
        with pytest.raises(QueryError):
            compile_query(spec, SCHEMA)

    def test_reduce_tasks_forwarded(self):
        job = compile_query(QuerySpec("logs", ("url",)), SCHEMA, num_reduce_tasks=7)
        assert job.num_reduce_tasks == 7
