"""Scalar/columnar parity: the batched engine hot paths are bit-identical.

The batched paths (one key projection, batched key routing) are held to
the per-record calls they replaced: same task routing, same float bits,
same planned transfers.  ``combine`` and the shuffle-volume fold each
have one implementation; a full job is held to a per-record oracle
written here.
"""

import random

import pytest

from repro.engine import shuffle as shuffle_mod
from repro.engine.combiner import combine
from repro.engine.job import MapReduceEngine
from repro.engine.rdd import make_partitions, round_robin
from repro.engine.shuffle import ReduceTaskMap, key_to_task, keys_to_tasks
from repro.engine.spec import MapReduceSpec
from repro.types import GeoDataset, Record, Schema, project_keys
from repro.wan.presets import uniform_sites
from repro.wan.transfer import Transfer, TransferScheduler

SCHEMA = Schema.of("url", "score", kinds={"score": "numeric"})

# Key pools of different skew: tiny (heavy collisions), zipf-ish, and
# wide (mostly distinct keys).
_POOLS = {
    "tiny": [f"k{i}" for i in range(3)],
    "skewed": [f"k{i}" for i in range(12) for _ in range(12 - i)],
    "wide": [f"k{i}" for i in range(500)],
}


def random_records(rng, pool, count):
    return [
        Record(
            (rng.choice(pool), rng.randint(0, 9)),
            size_bytes=rng.choice([1, 17, 1000, 99_999]) * rng.random(),
        )
        for _ in range(count)
    ]


class TestProjectKeys:
    """The batch key projection is ``Record.key`` applied per record."""

    RECORDS = [
        Record(("u1", 3, 0.5, "x")),
        Record(("u2", 3.0, 7, "")),
        Record((0, "3", -1.25, "x")),
        Record(("u1", 3, 0.5, "x")),
    ]

    @pytest.mark.parametrize("indices", [[], [0], [2, 0], (3, 1, 2), [1]])
    def test_matches_record_key(self, indices):
        projected = project_keys(self.RECORDS, indices)
        expected = [record.key(indices) for record in self.RECORDS]
        assert projected == expected
        for got, want in zip(projected, expected):
            assert type(got) is tuple
            # 3 == 3.0 as keys, so equality alone would hide a swapped type.
            assert [type(value) for value in got] == [type(value) for value in want]

    def test_accepts_any_iterable_and_no_records(self):
        assert project_keys(iter(self.RECORDS), [1]) == [(3,), (3.0,), ("3",), (3,)]
        assert project_keys([], [0, 1]) == []
        assert project_keys([], []) == []


class TestRoutingParity:
    def test_keys_to_tasks_matches_scalar_hash(self):
        rng = random.Random(7)
        keys = [
            rng.choice(
                [("url", rng.randint(0, 50)), (f"k{rng.randint(0, 200)}",)]
            )
            for _ in range(300)
        ]
        for num_tasks in (1, 3, 17, 128):
            batched = keys_to_tasks(keys, num_tasks)
            assert batched.tolist() == [
                key_to_task(key, num_tasks) for key in keys
            ]

    def test_empty_batch(self):
        assert keys_to_tasks([], 8).size == 0

    def test_routing_table_matches_site_of_key(self):
        fractions = {"a": 0.5, "b": 0.3, "c": 0.2}
        fresh = ReduceTaskMap.from_fractions(fractions, 40)
        batched = ReduceTaskMap.from_fractions(fractions, 40)
        keys = [(f"k{i}",) for i in range(200)]
        table = batched.routing_table(keys)
        assert set(table) == set(keys)
        for key in keys:
            assert table[key] == fresh.site_of_key(key)


class TestReduceTaskMapCaching:
    """Behavior pins for the memoized lookups (satellite c)."""

    def make(self):
        return ReduceTaskMap.from_fractions({"a": 0.6, "b": 0.4}, 10)

    def test_fraction_at_matches_counts(self):
        task_map = self.make()
        counted = {}
        for site in task_map.task_sites:
            counted[site] = counted.get(site, 0) + 1
        for site in ("a", "b", "never-assigned"):
            expected = counted.get(site, 0) / task_map.num_tasks
            assert task_map.fraction_at(site) == pytest.approx(expected)
            # Second lookup comes from the cache and agrees.
            assert task_map.fraction_at(site) == pytest.approx(expected)

    def test_tasks_per_site_returns_defensive_copy(self):
        task_map = self.make()
        first = task_map.tasks_per_site()
        first["a"] = 999_999
        assert task_map.tasks_per_site()["a"] != 999_999
        assert task_map.fraction_at("a") == pytest.approx(0.6)

    def test_site_of_key_memoized(self, monkeypatch):
        task_map = self.make()
        key = ("hot-key",)
        expected = task_map.site_of_key(key)

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("memoized lookup re-hashed the key")

        monkeypatch.setattr(shuffle_mod, "key_to_task", boom)
        assert task_map.site_of_key(key) == expected

    def test_routing_table_answers_memoized_keys_without_rehash(
        self, monkeypatch
    ):
        task_map = self.make()
        keys = [(f"k{i}",) for i in range(30)]
        first = task_map.routing_table(keys)

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("warm routing_table re-hashed keys")

        monkeypatch.setattr(shuffle_mod, "keys_to_tasks", boom)
        monkeypatch.setattr(shuffle_mod, "key_to_task", boom)
        assert task_map.routing_table(keys) == first
        for key in keys:
            assert task_map.site_of_key(key) == first[key]


class TestShufflePlanParity:
    """Full engine runs agree with a per-record oracle of the shuffle plan."""

    SPEC = MapReduceSpec.of([0], 0.5)
    PARTITION_RECORDS = 16

    def topology(self):
        return uniform_sites(
            3, uplink="2MB/s", machines=1, executors_per_machine=2
        )

    def dataset(self, seed, records_per_site):
        rng = random.Random(seed)
        dataset = GeoDataset("logs", SCHEMA)
        for index in range(3):
            dataset.add_records(
                f"site-{index}",
                random_records(rng, _POOLS["skewed"], records_per_site),
            )
        return dataset

    def run(self, dataset):
        engine = MapReduceEngine(
            self.topology(), partition_records=self.PARTITION_RECORDS
        )
        return engine.run(dataset, self.SPEC)

    def oracle(self, dataset):
        """The same job one record at a time.

        Every combined record is hashed to its task on its own and
        folded with ``volume[(src, dst)] += size``; the timeline is the
        module docstring's: flows start at the source's map finish, a
        site reduces what it received once its last inbound byte lands.
        Returns ``(qct, total intermediate bytes, flows)``.
        """
        topology = self.topology()
        sites = topology.site_names
        task_sites = ReduceTaskMap.from_fractions(
            {name: 1.0 / len(sites) for name in sites}, self.SPEC.num_reduce_tasks
        ).task_sites
        volume, map_finish, intermediate = {}, {}, []
        for src in sites:
            site = topology.site(src)
            partitions = make_partitions(
                dataset.shard(src), src, self.PARTITION_RECORDS
            )
            busiest, site_bytes = 0.0, []
            for group in round_robin(partitions, site.executors_per_machine):
                records = [r for partition in group for r in partition.records]
                if not records:
                    continue
                busiest = max(busiest, float(sum(r.size_bytes for r in records)))
                output = combine(
                    records, self.SPEC.key_indices, self.SPEC.reduction_ratio
                )
                site_bytes.append(output.total_bytes)
                for key, record in output.records.items():
                    dst = task_sites[key_to_task(key, len(task_sites))]
                    volume[(src, dst)] = (
                        volume.get((src, dst), 0.0) + record.size_bytes
                    )
            map_finish[src] = busiest / site.compute_bps
            intermediate.append(sum(site_bytes))
        transfers = [
            Transfer(src, dst, num_bytes, start_time=map_finish[src], tag="job-0")
            for (src, dst), num_bytes in sorted(volume.items())
        ]
        qct = 0.0
        results = TransferScheduler(topology).simulate(transfers)
        for name in sites:
            site = topology.site(name)
            inbound = [r for r in results if r.transfer.dst == name]
            start = max([map_finish[name]] + [r.finish_time for r in inbound])
            received = 0.0
            for result in inbound:
                received += result.transfer.num_bytes
            qct = max(qct, start + received / (site.compute_bps * site.executors))
        flows = [(t.src, t.dst, t.num_bytes) for t in transfers]
        return qct, sum(intermediate), flows

    @pytest.mark.parametrize("records_per_site", [0, 5, 60])
    def test_job_results_bit_identical(self, records_per_site):
        planned = self.run(self.dataset(3, records_per_site))
        qct, intermediate_bytes, flows = self.oracle(
            self.dataset(3, records_per_site)
        )
        assert planned.qct == qct  # lint: allow[R004]
        assert (
            planned.total_intermediate_bytes
            == intermediate_bytes  # lint: allow[R004]
        )
        planned_flows = [
            (t.transfer.src, t.transfer.dst, t.transfer.num_bytes)
            for t in planned.transfers
        ]
        assert planned_flows == flows
        if records_per_site >= 60:
            # The parity run must actually exercise cross-site shuffle,
            # with keys that recur across one site's executors.
            assert any(src != dst for src, dst, _bytes in flows)
            assert len(flows) == 9
