"""Latency models: turning base RTTs into per-message delays.

Real wide-area paths show a right-skewed delay distribution: most
packets arrive near the propagation floor, a tail arrives late (queuing,
retransmits).  We model a one-way delay as

    delay = base_one_way * J,   J ~ LogNormal(median=1, sigma)

so the *median* delay equals the topology's base figure and ``sigma``
controls tail heaviness.  A multiplicative floor keeps samples from
dipping below the propagation delay.

The model draws from a per-link named random stream, so adding hosts or
links never perturbs delays on existing links (see
:mod:`repro.sim.random_source`).

Everything that depends only on the ``(src, dst)`` pair — the base
delay and the direction's stream — is resolved at the link's first
message and kept in one record per link.  The topology is mutable
(:mod:`repro.net.topology` names its three mutators); the model
compares the topology's revision on every sample and drops its records
when it moved, so a base delay is never stale.  Re-resolving a link
finds the same named stream again, so a topology edit never restarts or
skips a draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Callable

from repro.errors import ConfigurationError
from repro.net.topology import Topology
from repro.sim.random_source import RandomSource

__all__ = ["JitterParams", "LatencyModel"]

#: What a link's messages share: (base one-way delay, the direction's
#: stream's bound ``normalvariate``, or None when jitter is disabled).
_Link = tuple[float, Callable[..., float] | None]


@dataclass(frozen=True)
class JitterParams:
    """Shape parameters for the log-normal jitter multiplier.

    Attributes
    ----------
    sigma:
        Log-space standard deviation of the multiplier.  0.15 gives
        a realistic WAN (p99 roughly 1.5x median); 0 disables jitter.
    floor:
        Lower bound on the multiplier; models the propagation floor
        below which no packet can arrive.
    """

    sigma: float = 0.15
    floor: float = 0.85

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ConfigurationError("jitter sigma must be non-negative")
        if not 0 < self.floor <= 1.0:
            raise ConfigurationError("jitter floor must be in (0, 1]")


class LatencyModel:
    """Samples per-message one-way delays over a :class:`Topology`."""

    def __init__(self, topology: Topology, rng: RandomSource,
                 jitter: JitterParams | None = None) -> None:
        self._topology = topology
        self._rng = rng
        self._jitter = jitter or JitterParams()
        #: (src, dst) -> the link's record, as of ``_revision``.
        self._links: dict[tuple[str, str], _Link] = {}
        self._revision = topology._revision

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def jitter(self) -> JitterParams:
        return self._jitter

    def sample_one_way(self, src: str, dst: str) -> float:
        """One sampled one-way delay in seconds from ``src`` to ``dst``."""
        if self._revision != self._topology._revision:
            self._links.clear()
            self._revision = self._topology._revision
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[src, dst] = self._resolve_link(src, dst)
        base, draw = link
        if draw is None:
            return base
        jitter = self._jitter
        # ``lognormvariate(log(1.0), sigma)``, spelled out: a median-1
        # log-normal multiplier, floored at the propagation delay.
        return base * max(exp(draw(0.0, jitter.sigma)), jitter.floor)

    def sample_rtt(self, src: str, dst: str) -> float:
        """One sampled round trip: two independent one-way draws."""
        return self.sample_one_way(src, dst) + self.sample_one_way(dst, src)

    def _resolve_link(self, src: str, dst: str) -> _Link:
        base = self._topology.one_way(src, dst)
        if self._jitter.sigma == 0:
            return base, None
        # Direction matters for stream naming so that A->B and B->A
        # delays are independent, as they are on real paths.
        return base, self._rng.stream(f"latency.{src}->{dst}").normalvariate
