"""The per-flow records' contract: ``Transfer`` and ``TransferResult``.

Both are immutable tuples (a session builds one of each per flow, and a
frozen dataclass sets every field through ``object.__setattr__``).
What callers read of them is pinned here: fields and defaults, that no
field can be set, equality and hashing by fields, the dataclass-style
``repr``, and the derived figures of failed and zero-duration results.
"""

import math

import pytest

from repro.errors import TopologyError
from repro.wan.transfer import Transfer, TransferResult


def test_defaults():
    transfer = Transfer("a", "b", 10.0)
    assert (transfer.start_time, transfer.tag) == (0.0, "")
    result = TransferResult(transfer, 2.0)
    assert (result.failed, result.attempts) == (False, 1)


def test_keywords_and_positions_build_the_same_record():
    assert Transfer("a", "b", 10.0, 1.5, "q1") == Transfer(
        src="a", dst="b", num_bytes=10.0, start_time=1.5, tag="q1"
    )
    transfer = Transfer("a", "b", 10.0)
    assert TransferResult(transfer, 3.0, True, 2) == TransferResult(
        transfer=transfer, finish_time=3.0, failed=True, attempts=2
    )


@pytest.mark.parametrize(
    "name", ["src", "dst", "num_bytes", "start_time", "tag", "other"]
)
def test_a_transfer_cannot_be_assigned(name):
    transfer = Transfer("a", "b", 10.0)
    with pytest.raises(AttributeError):
        setattr(transfer, name, 1.0)


@pytest.mark.parametrize(
    "name", ["transfer", "finish_time", "failed", "attempts", "other"]
)
def test_a_result_cannot_be_assigned(name):
    result = TransferResult(Transfer("a", "b", 10.0), 2.0)
    with pytest.raises(AttributeError):
        setattr(result, name, 1.0)


def test_equal_fields_are_equal_records_with_equal_hashes():
    first = Transfer("a", "b", 10.0, 1.0, "q")
    second = Transfer("a", "b", 10.0, 1.0, "q")
    assert first == second and hash(first) == hash(second)
    assert first != Transfer("a", "b", 10.0, 1.0, "r")
    done = TransferResult(first, 4.0)
    assert done == TransferResult(second, 4.0)
    assert hash(done) == hash(TransferResult(second, 4.0))
    assert done != TransferResult(first, 4.0, failed=True)
    assert len({first, second, done, TransferResult(second, 4.0)}) == 2


def test_repr_is_the_dataclass_repr():
    transfer = Transfer("a", "b", 10.0, 1.5, "q1")
    assert repr(transfer) == (
        "Transfer(src='a', dst='b', num_bytes=10.0, start_time=1.5, tag='q1')"
    )
    assert repr(TransferResult(transfer, 4.0)) == (
        "TransferResult(transfer=Transfer(src='a', dst='b', num_bytes=10.0, "
        "start_time=1.5, tag='q1'), finish_time=4.0, failed=False, attempts=1)"
    )


def figures(result):
    return result.duration, result.delivered_bytes, result.throughput_bps


def test_derived_figures():
    transfer = Transfer("a", "b", 100.0, start_time=1.0)
    assert figures(TransferResult(transfer, 5.0)) == (4.0, 100.0, 25.0)
    failed = TransferResult(transfer, 3.0, failed=True, attempts=2)
    assert figures(failed) == (2.0, 0.0, 0.0)
    assert figures(TransferResult(transfer, 1.0)) == (0.0, 100.0, 0.0)
    assert figures(TransferResult(Transfer("a", "a", 0.0), 0.0)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("field, kwargs", [
    ("num_bytes", dict(num_bytes=-1.0)),
    ("num_bytes", dict(num_bytes=math.nan)),
    ("start_time", dict(num_bytes=1.0, start_time=-0.5)),
    ("start_time", dict(num_bytes=1.0, start_time=math.inf)),
])
def test_checks_run_whichever_way_a_transfer_is_built(field, kwargs):
    message = rf"^transfer a->b: {field} must be finite and >= 0, got "
    with pytest.raises(TopologyError, match=message):
        Transfer("a", "b", **kwargs)
    with pytest.raises(TopologyError, match=message):
        Transfer(src="a", dst="b", **kwargs)
