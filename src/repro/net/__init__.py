"""Simulated wide-area network.

Geography lives in :class:`Topology` (regions, hosts, RTTs; mutable
through its three named mutators); :class:`LatencyModel` turns base
RTTs into jittered per-message delays, one memoised record per link;
:class:`Network` delivers datagrams and RPCs over the simulator; and
:class:`FaultInjector` schedules partitions and message loss.

The default geography is :func:`paper_topology`, reconstructing the
paper's EC2 deployment (agents in Oregon/Tokyo/Ireland, coordinator in
North Virginia, with the paper's measured coordinator RTTs).
"""

from repro.net.latency import JitterParams, LatencyModel
from repro.net.network import DEFAULT_RPC_TIMEOUT, Message, Network
from repro.net.partition import FaultInjector, PartitionWindow
from repro.net.topology import (
    IRELAND,
    OREGON,
    TOKYO,
    VIRGINIA,
    Region,
    Topology,
    paper_topology,
)

__all__ = [
    "Topology",
    "Region",
    "paper_topology",
    "OREGON",
    "TOKYO",
    "IRELAND",
    "VIRGINIA",
    "JitterParams",
    "LatencyModel",
    "Network",
    "Message",
    "DEFAULT_RPC_TIMEOUT",
    "FaultInjector",
    "PartitionWindow",
]
