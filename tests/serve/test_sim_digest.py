"""``ServeReport.sim_digest`` is a pinned format, not just a stable one.

The digest below was computed by the earlier formatter, one
``_canonical`` call per float and two ``update`` calls per query, over
every status, every mix of unset admit/start/finish, ``-0.0``, a tiny
offset, a 1e300 finish and an integer WAN byte count.  A digest change
here is a format change, and moves every recorded serve and perfbench
digest with it.
"""

from repro.serve.scheduler import ServeConfig, ServedQuery, ServeReport

PINNED = "320b0a615e567afe41c45055dcbc5ef0e6819ba711857b087b53f9d3bc21350d"


def fixture_report(count: int = 49) -> ServeReport:
    queries = []
    for index in range(count):
        kind = index % 7
        arrival = index * 0.37 + (1e-300 if kind == 3 else 0.0)
        query = ServedQuery(
            index=index,
            tenant=f"tenant-{index % 3:02d}",
            dataset_id=f"ds{index % 5}",
            arrival=arrival,
        )
        if kind == 0:
            query.status = "shed"
        elif kind == 1:  # admitted, not started
            query.admit = arrival + 0.5
        elif kind == 2:  # running
            query.status = "executed"
            query.admit = arrival
            query.start = arrival + 1 / 3
        else:
            query.status = "cached" if kind == 4 else "executed"
            query.admit = arrival + (-0.0 if kind == 5 else 0.25)
            query.start = query.admit + 2.0**-40
            query.finish = query.start + (1e300 if kind == 6 else 7.0 / 3.0)
            query.wan_bytes = 0 if kind == 4 else 123456789.123456789 * index
        queries.append(query)
    return ServeReport(
        config=ServeConfig(),
        scheme="bohr",
        queries=queries,
        cache_hits=3,
        cache_misses=5,
        cache_evictions=1,
    )


def test_digest_is_the_pinned_one():
    assert fixture_report().sim_digest() == PINNED


def test_every_field_reaches_the_digest():
    base = fixture_report().sim_digest()
    for field, value in [
        ("index", 99), ("tenant", "tenant-09"), ("dataset_id", "ds9"),
        ("status", "shed"), ("arrival", 1.5), ("admit", 1.5),
        ("start", 1.5), ("finish", 1.5), ("wan_bytes", 1.5),
    ]:
        report = fixture_report()
        setattr(report.queries[6], field, value)  # a finished query
        assert report.sim_digest() != base, field
    report = fixture_report()
    report.cache_evictions += 1
    assert report.sim_digest() != base
