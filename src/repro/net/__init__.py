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

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".topology": (
        "Topology", "Region", "paper_topology", "OREGON", "TOKYO", "IRELAND",
        "VIRGINIA",
    ),
    ".latency": ("JitterParams", "LatencyModel"),
    ".network": ("Network", "Message", "DEFAULT_RPC_TIMEOUT"),
    ".partition": ("FaultInjector", "PartitionWindow"),
})
