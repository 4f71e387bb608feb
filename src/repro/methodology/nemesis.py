"""Nemesis: scheduled fault scenarios for measurement campaigns.

The paper's Facebook Group divergence incident — "a sequence of tests
where the Tokyo agent was unable to observe the operations of other
agents" — is one point in a space of fault scenarios a measurement
campaign can encounter.  A *nemesis* (the term of art from Jepsen-style
testing) decides, before each test instance, which faults to arm for
that test's duration.

The campaign runner invokes :meth:`Nemesis.before_test` with the world
and the test's position; implementations translate that into
:class:`~repro.net.partition.FaultInjector` windows.  Ship your own by
subclassing :class:`Nemesis`, or compose the built-ins:

* :class:`PartitionStretchNemesis` — the paper's incident: a block of
  consecutive tests with two hosts partitioned (the default the runner
  arms for ``facebook_group`` Test 2 campaigns).
* :class:`PeriodicPartitionNemesis` — partition every k-th test.
* :class:`LinkLossNemesis` — arm probabilistic loss on chosen links
  for a range of tests.
* :class:`CompositeNemesis` — run several nemeses together.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # annotations only: scenario.schema imports this
    # module, and reading a scenario file needs no simulator.
    from repro.methodology.world import MeasurementWorld

__all__ = [
    "Nemesis",
    "PartitionStretchNemesis",
    "PeriodicPartitionNemesis",
    "LinkLossNemesis",
    "CompositeNemesis",
]


class Nemesis(abc.ABC):
    """Decides which faults to arm before each test instance."""

    @abc.abstractmethod
    def before_test(self, world: MeasurementWorld, test_type: str,
                    index: int, num_tests: int,
                    duration_hint: float):
        """Arm faults for the test starting now.

        Parameters
        ----------
        world:
            The campaign's world (``world.faults`` is the injector and
            ``world.sim.now`` the test's start instant).
        test_type / index / num_tests:
            The test's position in the campaign.
        duration_hint:
            Upper bound on the test's duration (its safety timeout);
            faults meant to span "this test" should use it as the
            window length.

        Returns
        -------
        The list of :class:`~repro.net.partition.PartitionWindow`
        objects armed for this test (or None).  The runner closes them
        when the test finishes, so a fault scoped to "this test" ends
        with the test rather than running out its full hint.
        """


@dataclass
class PartitionStretchNemesis(Nemesis):
    """Partition two hosts for a block of consecutive tests.

    With ``span`` tests starting at ``start_index`` (None = centred in
    the campaign), reproduces the paper's Tokyo incident when pointed
    at the group store's replicas.
    """

    host_a: str
    host_b: str
    span: int
    start_index: int | None = None
    test_type: str = "test2"

    def __post_init__(self) -> None:
        if self.span < 0:
            raise ConfigurationError("span must be >= 0")

    def before_test(self, world, test_type, index, num_tests,
                    duration_hint):
        if test_type != self.test_type or self.span == 0:
            return None
        start = (self.start_index if self.start_index is not None
                 else max((num_tests - self.span) // 2, 0))
        if start <= index < start + self.span:
            return [world.faults.partition_pair(
                self.host_a, self.host_b,
                world.sim.now, world.sim.now + duration_hint,
            )]
        return None


@dataclass
class PeriodicPartitionNemesis(Nemesis):
    """Partition two hosts during every ``period``-th test."""

    host_a: str
    host_b: str
    period: int = 5
    test_type: str | None = None

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError("period must be >= 1")

    def before_test(self, world, test_type, index, num_tests,
                    duration_hint):
        if self.test_type is not None and test_type != self.test_type:
            return None
        if index % self.period == self.period - 1:
            return [world.faults.partition_pair(
                self.host_a, self.host_b,
                world.sim.now, world.sim.now + duration_hint,
            )]
        return None


@dataclass
class LinkLossNemesis(Nemesis):
    """Arm probabilistic message loss on chosen links, once.

    ``links`` is a list of (src, dst) host pairs; loss is directional.
    Applied on the first test and left in place for the campaign
    (sliding test-scoped loss would need injector support for removal;
    campaigns wanting bursts can compose PeriodicPartitionNemesis).
    """

    links: list[tuple[str, str]]
    probability: float = 0.05
    _armed: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")

    def before_test(self, world, test_type, index, num_tests,
                    duration_hint):
        if self._armed:
            return None
        for src, dst in self.links:
            world.faults.set_loss(src, dst, self.probability)
        self._armed = True
        return None


@dataclass
class CompositeNemesis(Nemesis):
    """Run several nemeses in order before every test."""

    parts: list[Nemesis]

    def before_test(self, world, test_type, index, num_tests,
                    duration_hint):
        armed = []
        for part in self.parts:
            windows = part.before_test(world, test_type, index,
                                       num_tests, duration_hint)
            if windows:
                armed.extend(windows)
        return armed or None
