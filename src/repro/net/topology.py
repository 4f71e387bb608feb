"""Geographic topology: regions, hosts, and the inter-region RTT matrix.

The paper's deployment (§V) uses four Amazon EC2 availability zones —
agents in Oregon, Tokyo, and Ireland, and a coordinator in North
Virginia — and reports the coordinator's measured RTTs (136 ms to
Oregon, 218 ms to Tokyo, 172 ms to Ireland).  :func:`paper_topology`
reconstructs that deployment; the agent-to-agent legs, which the paper
does not report, use publicly typical inter-region figures.

A :class:`Topology` holds no behaviour beyond lookups, but it is
*mutable*, through exactly three mutators: :meth:`Topology.place_host`
(which also moves an already-placed host), :meth:`Topology.set_rtt`,
and assignment to :attr:`Topology.intra_region_rtt`.  Each of them
advances the topology's revision, which is how delays derived from it
(:class:`repro.net.latency.LatencyModel` memoises a base delay per
link) know to be recomputed; a caller never invalidates anything.
Message timing built on the topology (jitter, loss, partitions) lives
in :mod:`repro.net.latency` and :mod:`repro.net.network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "Region",
    "Topology",
    "paper_topology",
    "OREGON",
    "TOKYO",
    "IRELAND",
    "VIRGINIA",
]


@dataclass(frozen=True)
class Region:
    """A geographic region hosting agents and/or service replicas."""

    name: str
    #: Human-readable location, e.g. "us-west-2 (Oregon)".
    location: str = ""

    def __str__(self) -> str:
        return self.name


#: The paper's three agent regions and the coordinator region.
OREGON = Region("oregon", "us-west-2 (Oregon, US)")
TOKYO = Region("tokyo", "ap-northeast-1 (Tokyo, Japan)")
IRELAND = Region("ireland", "eu-west-1 (Ireland)")
VIRGINIA = Region("virginia", "us-east-1 (North Virginia, US)")


@dataclass
class Topology:
    """Hosts placed in regions, plus symmetric inter-region RTTs.

    RTTs are stored in seconds between *region* pairs; hosts inherit the
    RTT of their regions, with :attr:`intra_region_rtt` used for hosts
    that share a region (e.g. an agent talking to its local datacenter).
    """

    #: Advanced by every mutator, so anything that memoises a derived
    #: delay (``LatencyModel``) can tell that it went stale.
    _revision: int = field(default=0, init=False, repr=False,
                           compare=False)
    #: Symmetric RTT matrix keyed by frozenset of two region names.
    _rtts: dict[frozenset[str], float] = field(default_factory=dict)
    #: Host name -> region name.
    _hosts: dict[str, str] = field(default_factory=dict)
    #: RTT between two hosts in the same region (LAN / same-AZ), seconds.
    intra_region_rtt: float = 0.001
    _regions: dict[str, Region] = field(default_factory=dict)

    def __setattr__(self, name: str, value: object) -> None:
        # Assigning ``intra_region_rtt`` is the third mutator.
        super().__setattr__(name, value)
        if name == "intra_region_rtt":
            self._revision += 1

    # -- Regions and links -------------------------------------------------

    def add_region(self, region: Region) -> None:
        """Register a region (idempotent for identical definitions)."""
        existing = self._regions.get(region.name)
        if existing is not None and existing != region:
            raise ConfigurationError(
                f"conflicting definitions for region {region.name!r}"
            )
        self._regions[region.name] = region

    def set_rtt(self, region_a: Region | str, region_b: Region | str,
                rtt_seconds: float) -> None:
        """Set the symmetric RTT between two regions."""
        name_a, name_b = str(region_a), str(region_b)
        if rtt_seconds <= 0:
            raise ConfigurationError(
                f"RTT between {name_a} and {name_b} must be positive"
            )
        if name_a == name_b:
            raise ConfigurationError(
                "intra-region RTT is set via intra_region_rtt, "
                f"not set_rtt({name_a!r}, {name_b!r})"
            )
        self._rtts[frozenset((name_a, name_b))] = float(rtt_seconds)
        self._revision += 1

    def regions(self) -> list[Region]:
        """All registered regions, sorted by name."""
        return [self._regions[name] for name in sorted(self._regions)]

    def region_of(self, host: str) -> Region:
        """The region a host was placed in."""
        try:
            return self._regions[self._hosts[host]]
        except KeyError:
            raise ConfigurationError(f"unknown host {host!r}") from None

    # -- Hosts ------------------------------------------------------------

    def place_host(self, host: str, region: Region | str) -> None:
        """Place (or move) a named host into a region."""
        region_name = str(region)
        if region_name not in self._regions:
            raise ConfigurationError(
                f"cannot place host {host!r}: unknown region {region_name!r}"
            )
        self._hosts[host] = region_name
        self._revision += 1

    def hosts(self) -> list[str]:
        """All placed hosts, sorted by name."""
        return sorted(self._hosts)

    def has_host(self, host: str) -> bool:
        return host in self._hosts

    # -- Distances ----------------------------------------------------------

    def rtt(self, host_a: str, host_b: str) -> float:
        """Base RTT in seconds between two hosts."""
        region_a = self._hosts.get(host_a)
        region_b = self._hosts.get(host_b)
        if region_a is None or region_b is None:
            missing = host_a if region_a is None else host_b
            raise ConfigurationError(f"unknown host {missing!r}")
        if region_a == region_b:
            return self.intra_region_rtt
        key = frozenset((region_a, region_b))
        try:
            return self._rtts[key]
        except KeyError:
            raise ConfigurationError(
                f"no RTT configured between regions {region_a!r} "
                f"and {region_b!r}"
            ) from None

    def one_way(self, host_a: str, host_b: str) -> float:
        """Base one-way delay (RTT / 2) between two hosts."""
        return self.rtt(host_a, host_b) / 2.0


def paper_topology() -> Topology:
    """The paper's EC2 deployment as a :class:`Topology`.

    Coordinator RTTs are the paper's measured values (§V); the
    agent-to-agent legs use typical public inter-region figures from the
    same era (they only shape background traffic, not the clock-sync
    error, which depends solely on coordinator legs).
    """
    topo = Topology()
    for region in (OREGON, TOKYO, IRELAND, VIRGINIA):
        topo.add_region(region)
    # Paper-measured coordinator legs.
    topo.set_rtt(VIRGINIA, OREGON, 0.136)
    topo.set_rtt(VIRGINIA, TOKYO, 0.218)
    topo.set_rtt(VIRGINIA, IRELAND, 0.172)
    # Typical inter-region figures for the remaining legs.
    topo.set_rtt(OREGON, TOKYO, 0.097)
    topo.set_rtt(OREGON, IRELAND, 0.158)
    topo.set_rtt(TOKYO, IRELAND, 0.236)
    return topo
