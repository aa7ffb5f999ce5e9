"""The WAN layer rejects non-finite input where it is constructed.

Unchecked, a NaN byte count, start time or propagation delay makes
``simulate`` loop forever, an infinite start time drops the flow from the
results, and a NaN or infinite link rate is never a bottleneck — a
plausible answer to a question nobody asked.  So each field fails at
construction with a ``TopologyError`` that names it (and the site or
transfer it belongs to).  ``stall_timeout_seconds`` is the one field
where ``inf`` is legal: it is the default, "park forever".
"""

import math

import pytest

from repro.errors import TopologyError
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import Transfer, TransferScheduler
from repro.wan.variability import BandwidthProfile

NAN = math.nan
INF = math.inf


def two_sites():
    return WanTopology.from_sites([Site("a", 100.0, 100.0), Site("b", 100.0, 100.0)])


@pytest.mark.parametrize("value", [NAN, INF])
def test_transfer_num_bytes(value):
    with pytest.raises(TopologyError, match=r"a->b: num_bytes must be finite"):
        Transfer("a", "b", value)


@pytest.mark.parametrize("value", [NAN, INF])
def test_transfer_start_time(value):
    with pytest.raises(TopologyError, match=r"a->b: start_time must be finite"):
        Transfer("a", "b", 1.0, start_time=value)


@pytest.mark.parametrize("value", [NAN, INF])
def test_scheduler_propagation_seconds(value):
    with pytest.raises(TopologyError, match="propagation_seconds must be finite"):
        TransferScheduler(two_sites(), propagation_seconds=value)


@pytest.mark.parametrize("value", [NAN, INF])
def test_scheduler_lan_bps(value):
    with pytest.raises(TopologyError, match="lan_bps must be finite"):
        TransferScheduler(two_sites(), lan_bps=value)


def test_scheduler_stall_timeout_seconds():
    with pytest.raises(TopologyError, match="stall_timeout_seconds must be > 0"):
        TransferScheduler(two_sites(), stall_timeout_seconds=NAN)
    # inf is the default, and stays legal.
    scheduler = TransferScheduler(two_sites(), stall_timeout_seconds=INF)
    [result] = scheduler.simulate([Transfer("a", "b", 100.0)])
    assert result.finish_time == 1.0


@pytest.mark.parametrize("field", ["uplink_bps", "downlink_bps", "compute_bps"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_site_rates(field, value):
    rates = dict(uplink_bps=100.0, downlink_bps=100.0, compute_bps=1e9)
    rates[field] = value
    with pytest.raises(TopologyError, match=f"{field} of site 'x' must be finite"):
        Site("x", **rates)


@pytest.mark.parametrize("value", [NAN, INF])
def test_profile_multiplier(value):
    with pytest.raises(TopologyError, match="epoch 1 multiplier must be finite"):
        BandwidthProfile.steps([(0.0, 1.0), (5.0, value)])
    with pytest.raises(TopologyError, match="epoch 0 multiplier must be finite"):
        BandwidthProfile.steps([(0.0, value)])


@pytest.mark.parametrize("value", [NAN, INF])
def test_profile_epoch_start(value):
    with pytest.raises(TopologyError, match="epoch 1 start must be finite"):
        BandwidthProfile.steps([(0.0, 1.0), (value, 0.5)])
