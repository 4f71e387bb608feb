"""Simulated host clocks with offset and drift.

The paper disables NTP on its measurement machines and estimates clock
deltas with a Cristian-style protocol (§IV, "Time synchronization").  To
reproduce that setting, every simulated host owns a local clock whose
reading differs from the simulator's ground-truth time by a fixed
*offset* plus a slowly accumulating *drift*:

    local(t) = t * (1 + drift_ppm * 1e-6) + offset

Commodity machines drift on the order of tens of ppm (a 50 ppm clock
gains 4.3 seconds per day), which is exactly why the paper recomputes
deltas before each test iteration.  Because the simulator knows the
ground truth, we can also *validate* the sync protocol: the error of an
estimated delta is directly measurable (see
``benchmarks/test_clocksync_accuracy.py``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource

__all__ = ["DriftingClock", "PerfectClock", "make_host_clock"]


class DriftingClock:
    """A host clock: ground truth skewed by offset and linear drift.

    Parameters
    ----------
    sim:
        Simulator providing ground-truth time.
    offset:
        Constant offset in seconds (positive = this clock runs ahead).
    drift_ppm:
        Frequency error in parts per million; positive clocks run fast.
    """

    def __init__(self, sim: Simulator, offset: float = 0.0,
                 drift_ppm: float = 0.0) -> None:
        if abs(drift_ppm) >= 1e6:
            raise ConfigurationError(
                f"drift of {drift_ppm} ppm is not a clock, it is a ramp"
            )
        self._sim = sim
        self.offset = float(offset)
        self.drift_ppm = float(drift_ppm)

    @property
    def _rate(self) -> float:
        return 1.0 + self.drift_ppm * 1e-6

    def now(self) -> float:
        """The local clock reading at the current instant."""
        # ``_rate`` spelled out: every timestamp an agent takes is here.
        return (self._sim.now * (1.0 + self.drift_ppm * 1e-6)
                + self.offset)

    def to_local(self, true_time: float) -> float:
        """Convert a ground-truth time to this clock's reading."""
        return true_time * self._rate + self.offset

    def to_true(self, local_time: float) -> float:
        """Convert a local reading back to ground-truth time."""
        return (local_time - self.offset) / self._rate

    def error_at(self, true_time: float) -> float:
        """Signed difference local - true at ``true_time``."""
        return self.to_local(true_time) - true_time

    def step(self, seconds: float) -> None:
        """Apply a step adjustment (what NTP would do; we avoid it)."""
        self.offset += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DriftingClock(offset={self.offset:+.6f}s, "
                f"drift={self.drift_ppm:+.1f}ppm)")


class PerfectClock(DriftingClock):
    """A clock with zero offset and drift; reads ground truth directly."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, offset=0.0, drift_ppm=0.0)


def make_host_clock(sim: Simulator, rng: RandomSource, host_name: str,
                    max_offset: float = 5.0,
                    max_drift_ppm: float = 50.0) -> DriftingClock:
    """Create a realistically mis-set clock for ``host_name``.

    Offsets are uniform in ±``max_offset`` seconds (machines whose NTP
    was just disabled are typically within a few seconds of true time);
    drift is uniform in ±``max_drift_ppm``, the commodity-oscillator
    range.  Both draws use per-host named streams, so adding a host does
    not change other hosts' clocks.
    """
    offset = rng.uniform(f"clock.offset.{host_name}", -max_offset, max_offset)
    drift = rng.uniform(f"clock.drift.{host_name}",
                        -max_drift_ppm, max_drift_ppm)
    return DriftingClock(sim, offset=offset, drift_ppm=drift)
