"""WAN substrate: geo-distributed sites, links, and transfer simulation.

The paper deploys Bohr across ten AWS EC2 regions; QCT there is dominated
by WAN shuffle transfers.  This package provides the equivalent substrate:

- :class:`~repro.wan.topology.Site` / :class:`~repro.wan.topology.WanTopology`
  describe sites with heterogeneous uplink/downlink bandwidth.
- :func:`~repro.wan.presets.ec2_ten_sites` reproduces the paper's setup
  (Singapore/Tokyo/Oregon 5x faster than the slowest tier, §8.1).
- :class:`~repro.wan.transfer.TransferScheduler` simulates concurrent
  transfers with max-min fair bandwidth sharing (progressive filling).
- :class:`~repro.wan.estimator.BandwidthEstimator` implements the periodic
  bandwidth estimation described in §7.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
