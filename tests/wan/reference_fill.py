"""The flow-by-flow progressive filling ``WanSession`` ran until PR 16.

Kept verbatim as the oracle for the pair-class fill that replaced it
(``WanSession._assign_rates``): sets of flow ids per link, one
``users[link] & unfrozen`` intersection per link per freeze iteration,
one ``max(0.0, capacity - share)`` per frozen flow per link.  Slow, and
obviously the textbook algorithm.
"""

import math
from typing import Dict, List, Mapping, Sequence, Set, Tuple

Link = Tuple[str, str]  # ("up" | "down", site)


def reference_fill(
    flows: Sequence[Tuple[str, str]],
    capacities: Mapping[Link, float],
    lan_bps: float,
) -> Tuple[List[float], Dict[Link, float]]:
    """Max-min fair rates for ``(src, dst)`` flows sharing ``capacities``.

    Returns the rate of every flow, in order, and the residual capacity
    of every link in use, in the order the flows first touch them (an
    intra-site flow touches none and runs at ``lan_bps``).
    """
    rates = [0.0] * len(flows)
    capacity: Dict[Link, float] = {}
    users: Dict[Link, Set[int]] = {}
    unfrozen: Set[int] = set()
    for flow_id, (src, dst) in enumerate(flows):
        if src == dst:
            rates[flow_id] = lan_bps
            continue
        unfrozen.add(flow_id)
        for link in (("up", src), ("down", dst)):
            if link not in capacity:
                capacity[link] = capacities[link]
                users[link] = set()
            users[link].add(flow_id)

    while unfrozen:
        bottleneck = None
        bottleneck_share = math.inf
        for link, link_users in users.items():
            live = link_users & unfrozen
            if not live:
                continue
            share = capacity[link] / len(live)
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck = link
        assert bottleneck is not None
        for flow_id in users[bottleneck] & unfrozen:
            rates[flow_id] = bottleneck_share
            unfrozen.discard(flow_id)
            src, dst = flows[flow_id]
            for link in (("up", src), ("down", dst)):
                capacity[link] = max(0.0, capacity[link] - bottleneck_share)
    return rates, capacity
