"""Query spec and SQL parser tests."""

import pytest

from repro.errors import QueryError
from repro.query.parser import parse_sql
from repro.query.spec import (
    QueryClass,
    QuerySpec,
    RecurringQuery,
    query_type_weights,
)


class TestQuerySpec:
    def test_query_type_is_sorted(self):
        spec = QuerySpec("logs", ("url", "date"))
        assert spec.query_type == ("date", "url")

    def test_default_ratio_by_class(self):
        scan = QuerySpec("d", ("a",), QueryClass.SCAN)
        udf = QuerySpec("d", ("a",), QueryClass.UDF)
        assert scan.default_reduction_ratio() < udf.default_reduction_ratio()

    def test_explicit_ratio_wins(self):
        spec = QuerySpec("d", ("a",), QueryClass.SCAN, reduction_ratio=0.7)
        assert spec.default_reduction_ratio() == 0.7

    def test_validation(self):
        with pytest.raises(QueryError):
            QuerySpec("", ("a",))
        with pytest.raises(QueryError):
            QuerySpec("d", ())
        with pytest.raises(QueryError):
            QuerySpec("d", ("a", "a"))
        with pytest.raises(QueryError):
            QuerySpec("d", ("a",), reduction_ratio=0.0)


class TestRecurringQuery:
    def test_execution_counting(self):
        query = RecurringQuery(QuerySpec("d", ("a",)))
        query.record_execution()
        query.record_execution()
        assert query.executions == 2

    def test_bad_interval(self):
        with pytest.raises(QueryError):
            RecurringQuery(QuerySpec("d", ("a",)), interval_seconds=0)

    def test_weights_paper_example(self):
        # §4.2: 500 queries, one type 100 of them -> weight 0.2.
        url_query = RecurringQuery(QuerySpec("d", ("url",)))
        url_query.executions = 100
        region_query = RecurringQuery(QuerySpec("d", ("region",)))
        region_query.executions = 400
        weights = query_type_weights([url_query, region_query])
        assert weights[("url",)] == pytest.approx(0.2)
        assert weights[("region",)] == pytest.approx(0.8)

    def test_weights_new_queries_count_once(self):
        queries = [
            RecurringQuery(QuerySpec("d", ("a",))),
            RecurringQuery(QuerySpec("d", ("b",))),
        ]
        weights = query_type_weights(queries)
        assert weights[("a",)] == 0.5

    def test_weights_empty_rejected(self):
        with pytest.raises(QueryError):
            query_type_weights([])


class TestParser:
    def test_aggregation(self):
        spec = parse_sql("SELECT url, SUM(score) FROM logs GROUP BY url")
        assert spec.dataset_id == "logs"
        assert spec.group_by == ("url",)
        assert spec.query_class == QueryClass.AGGREGATION
        assert spec.aggregates == ("SUM(score)",)

    def test_scan(self):
        spec = parse_sql("SELECT url, score FROM logs")
        assert spec.query_class == QueryClass.SCAN
        assert spec.group_by == ("url", "score")

    def test_udf(self):
        # The last UDF argument is the measure; keys are the rest.
        spec = parse_sql("SELECT pagerank(url, score) FROM logs")
        assert spec.query_class == QueryClass.UDF
        assert spec.group_by == ("url",)

    def test_udf_single_argument(self):
        spec = parse_sql("SELECT fingerprint(url) FROM logs")
        assert spec.group_by == ("url",)

    def test_udf_explicit_group_by_wins(self):
        spec = parse_sql("SELECT pagerank(url, score) FROM logs GROUP BY url, score")
        assert spec.group_by == ("url", "score")

    def test_where_filters(self):
        spec = parse_sql(
            "SELECT region, COUNT(url) FROM logs WHERE date = '2014-01-01' "
            "AND region = 'asia' GROUP BY region"
        )
        assert spec.filters == (("date", "2014-01-01"), ("region", "asia"))

    def test_case_insensitive_keywords(self):
        spec = parse_sql("select url, sum(score) from logs group by url")
        assert spec.group_by == ("url",)
        assert spec.query_class == QueryClass.AGGREGATION

    def test_multi_group_by(self):
        spec = parse_sql("SELECT a, b, SUM(c) FROM d GROUP BY a, b")
        assert spec.group_by == ("a", "b")

    def test_trailing_semicolon(self):
        assert parse_sql("SELECT a FROM d;").dataset_id == "d"

    def test_text_preserved(self):
        sql = "SELECT a FROM d"
        assert parse_sql(sql).text == sql

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_sql("DELETE FROM logs")

    def test_star_rejected(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT * FROM logs")

    def test_inequality_rejected(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT a FROM d WHERE a > 3")

    def test_sum_needs_one_column(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT SUM(a, b) FROM d GROUP BY a")

    def test_aggregate_only_without_group_by_rejected(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT SUM(a) FROM d")

    @pytest.mark.parametrize(
        "sql, item",
        [
            ("SELECT a, FROM d", "select list: 'a,'"),
            ("SELECT f(a,,b) FROM d", "'a,,b'"),
            ("SELECT a FROM d GROUP BY a,,b", "GROUP BY: 'a,,b'"),
            ("SELECT a FROM d GROUP BY a,", "GROUP BY: 'a,'"),
            ("SELECT a FROM d WHERE a = 'x", "\"a = 'x\""),
            ("SELECT a FROM d WHERE a = x'", "\"a = x'\""),
            ("SELECT a FROM d WHERE a = ", "'a ='"),
        ],
    )
    def test_malformed_items_rejected_by_name(self, sql, item):
        """A stray comma, an unbalanced quote or a missing value used to
        be dropped or read as something else; each is refused, naming
        the item."""
        with pytest.raises(QueryError) as error:
            parse_sql(sql)
        assert item in str(error.value)

    def test_empty_call_and_empty_string_stay_legal(self):
        spec = parse_sql("SELECT a, COUNT() FROM d WHERE b = '' AND c = x y GROUP BY a")
        assert spec.aggregates == ("COUNT()",)
        assert spec.filters == (("b", ""), ("c", "x y"))
