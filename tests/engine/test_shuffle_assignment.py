"""Shuffle routing and executor assignment tests."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import assignment as assignment_mod
from repro.engine.assignment import assign_partitions
from repro.engine.rdd import make_partitions
from repro.engine.shuffle import ReduceTaskMap, key_to_task
from repro.errors import EngineError
from repro.similarity.dimsum import DimsumConfig, dimsum_similarity_matrix
from repro.similarity.kmeans import kmeans
from repro.similarity.probes import largest_remainder_allocation
from repro.types import Record


class TestKeyToTask:
    def test_stable(self):
        assert key_to_task(("url-a",), 50) == key_to_task(("url-a",), 50)

    def test_in_range(self):
        for key in (("a",), ("b", 2), (3.5,)):
            assert 0 <= key_to_task(key, 7) < 7

    def test_spreads_keys(self):
        tasks = {key_to_task((f"key-{i}",), 100) for i in range(200)}
        assert len(tasks) > 50

    def test_bad_num_tasks(self):
        with pytest.raises(EngineError):
            key_to_task(("a",), 0)


class TestReduceTaskMap:
    def test_from_fractions_counts(self):
        task_map = ReduceTaskMap.from_fractions({"a": 0.75, "b": 0.25}, 100)
        counts = task_map.tasks_per_site()
        assert counts == {"a": 75, "b": 25}
        assert task_map.num_tasks == 100

    def test_fraction_at(self):
        task_map = ReduceTaskMap.from_fractions({"a": 0.5, "b": 0.5}, 10)
        assert task_map.fraction_at("a") == 0.5
        assert task_map.fraction_at("missing") == 0.0

    def test_zero_fraction_site_gets_nothing(self):
        task_map = ReduceTaskMap.from_fractions({"a": 1.0, "b": 0.0}, 10)
        assert task_map.tasks_per_site() == {"a": 10}

    def test_interleaving(self):
        task_map = ReduceTaskMap.from_fractions({"a": 0.5, "b": 0.5}, 4)
        assert task_map.task_sites == ["a", "b", "a", "b"]

    def test_all_zero_rejected(self):
        with pytest.raises(EngineError):
            ReduceTaskMap.from_fractions({"a": 0.0}, 10)

    def test_negative_rejected(self):
        with pytest.raises(EngineError):
            ReduceTaskMap.from_fractions({"a": 1.5, "b": -0.5}, 10)

    def test_site_of_key_routes_consistently(self):
        task_map = ReduceTaskMap.from_fractions({"a": 0.5, "b": 0.5}, 20)
        key = ("hello",)
        assert task_map.site_of_key(key) == task_map.site_of_key(key)

    def test_site_of_out_of_range(self):
        task_map = ReduceTaskMap.from_fractions({"a": 1.0}, 5)
        with pytest.raises(EngineError):
            task_map.site_of(5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fraction_names_its_site(self, value):
        # NaN used to deal every task to "b"; inf raised a bare ValueError.
        message = rf"reduce fraction of site 'a' must be finite, got {value}"
        with pytest.raises(EngineError, match=message):
            ReduceTaskMap.from_fractions({"a": value, "b": 1.0}, 8)

    @pytest.mark.parametrize("fractions", [
        {"a": 1e308, "b": 1e308},  # the total overflows
        {"a": 1e308, "b": 1.0},  # the total times the task count does
    ])
    def test_overflowing_total_is_an_engine_error(self, fractions):
        message = r"reduce fractions total .* is not finite"
        with pytest.raises(EngineError, match=message):
            ReduceTaskMap.from_fractions(fractions, 8)

    @settings(max_examples=300, deadline=None)
    @given(
        fractions=st.dictionaries(
            st.sampled_from("abcdef"),
            st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300)),
            min_size=1,
        ),
        num_tasks=st.integers(min_value=1, max_value=64),
    )
    def test_finite_fractions_deal_as_before(self, fractions, num_tasks):
        assume(any(frac > 0 for frac in fractions.values()))
        assume(sum(fractions.values()) * num_tasks < math.inf)
        task_map = ReduceTaskMap.from_fractions(fractions, num_tasks)
        assert task_map.task_sites == reference_deal(fractions, num_tasks)


def reference_deal(fractions, num_tasks):
    """``from_fractions``' deal as it was before non-finite input was
    checked: largest remainder, then one task per site per pass."""
    positive = {site: frac for site, frac in fractions.items() if frac > 0}
    counts = largest_remainder_allocation(positive, num_tasks)
    remaining = dict(counts)
    order = [site for site in fractions if counts.get(site, 0) > 0]
    task_sites = []
    while len(task_sites) < num_tasks:
        for site in order:
            if remaining.get(site, 0) > 0:
                task_sites.append(site)
                remaining[site] -= 1
    return task_sites[:num_tasks]


def partitions_with_key_groups():
    # Partitions 0,1 share keys "a*"; 2,3 share "b*"; so clustering should
    # pair them.
    def mk(keys, pid):
        return make_partitions(
            [Record((key,)) for key in keys], "x", 100, start_id=pid
        )[0]

    return [
        mk(["a1", "a2", "a3"], 0),
        mk(["a1", "a2", "a4"], 1),
        mk(["b1", "b2", "b3"], 2),
        mk(["b1", "b2", "b4"], 3),
    ]


class TestAssignPartitions:
    def test_round_robin_default(self):
        parts = partitions_with_key_groups()
        result = assign_partitions(parts, 2, [0], similarity_aware=False)
        assert result.method == "round-robin"
        assert result.num_partitions == 4
        assert result.overhead_seconds == 0.0
        assert [len(g) for g in result.executor_partitions] == [2, 2]

    def test_similarity_groups_similar_partitions(self):
        parts = partitions_with_key_groups()
        result = assign_partitions(
            parts,
            2,
            [0],
            similarity_aware=True,
            dimsum_config=DimsumConfig(gamma=1e9, exact_below=10**6),
        )
        assert result.method == "similarity"
        assert result.overhead_seconds > 0.0
        groups = [
            {p.partition_id for p in group} for group in result.executor_partitions
        ]
        assert {0, 1} in groups
        assert {2, 3} in groups

    def test_overhead_is_priced_from_the_work_of_the_pass(self):
        parts = partitions_with_key_groups()
        config = DimsumConfig(gamma=1e9, exact_below=10**6)
        key_sets = [p.key_set([0]) for p in parts]
        matrix, stats = dimsum_similarity_matrix(key_sets, config)
        iterations = kmeans(matrix, 2, seed=7).iterations
        result = assign_partitions(
            parts, 2, [0], similarity_aware=True, dimsum_config=config
        )
        assert stats.pairs_examined == 6
        assert result.overhead_seconds == (
            assignment_mod.PASS_SECONDS
            + assignment_mod.KEY_SECONDS * sum(map(len, key_sets))
            + assignment_mod.PAIR_SECONDS * 6
            + assignment_mod.DISTANCE_SECONDS * (4 * 2 * iterations)
        )

    def test_no_idle_executor_when_enough_partitions(self):
        parts = partitions_with_key_groups()
        result = assign_partitions(
            parts, 4, [0], similarity_aware=True,
            dimsum_config=DimsumConfig(gamma=1e9),
        )
        assert all(group for group in result.executor_partitions)

    def test_empty_partitions(self):
        result = assign_partitions([], 3, [0])
        assert result.method == "empty"
        assert result.num_partitions == 0

    def test_single_partition_skips_similarity(self):
        parts = partitions_with_key_groups()[:1]
        result = assign_partitions(parts, 2, [0], similarity_aware=True)
        assert result.method == "round-robin"

    def test_bad_executors(self):
        with pytest.raises(EngineError):
            assign_partitions(partitions_with_key_groups(), 0, [0])


class TestForcedAssignment:
    """No similarity pass where the partition count forces the answer."""

    @pytest.fixture
    def dimsum_calls(self, monkeypatch):
        calls = []
        real = assignment_mod.dimsum_similarity_matrix

        def spy(key_sets, config):
            calls.append(len(key_sets))
            return real(key_sets, config)

        monkeypatch.setattr(assignment_mod, "dimsum_similarity_matrix", spy)
        return calls

    @pytest.mark.parametrize("num_executors", [4, 5, 9])
    def test_no_pass_when_every_partition_gets_an_executor(
        self, dimsum_calls, monkeypatch, num_executors
    ):
        def boom(partition, key_indices):  # pragma: no cover - must not be hit
            raise AssertionError("forced assignment built a key set")

        monkeypatch.setattr(assignment_mod.RDDPartition, "key_set", boom)
        parts = partitions_with_key_groups()
        result = assign_partitions(parts, num_executors, [0], similarity_aware=True)
        assert dimsum_calls == []
        assert result.overhead_seconds == 0.0
        assert result.method == "round-robin"
        assert [
            [p.partition_id for p in group] for group in result.executor_partitions
        ] == [[0], [1], [2], [3]] + [[]] * (num_executors - 4)

    @pytest.mark.parametrize("num_executors", [1, 2, 3])
    def test_one_pass_when_partitions_outnumber_executors(
        self, dimsum_calls, num_executors
    ):
        parts = partitions_with_key_groups()
        result = assign_partitions(parts, num_executors, [0], similarity_aware=True)
        assert dimsum_calls == [4]
        assert result.method == "similarity"
        assert result.overhead_seconds > 0.0
        assert result.num_partitions == 4
        assert all(group for group in result.executor_partitions)
