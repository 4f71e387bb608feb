"""Deterministic random-number streams for reproducible simulations.

Every stochastic component in the simulator (network jitter, replication
lag, ranking noise, clock drift, ...) draws from its own *named stream*
derived from a single root seed.  This has two properties we rely on
throughout the library:

* **Reproducibility** — a campaign is a pure function of
  ``(seed, config)``; re-running with the same seed yields bit-identical
  traces, figures, and benchmark rows.
* **Isolation** — adding a new consumer of randomness (say, an extra
  latency sample in the network) does not perturb the draws seen by
  unrelated components, because each component owns an independent
  stream keyed by its name.

Streams are plain :class:`random.Random` instances seeded from a stable
hash of ``(root_seed, name)``, so no global state is involved and
simulations can run concurrently within one interpreter.
"""

from __future__ import annotations

import math
import random

from repro._hash import blake2b

__all__ = ["RandomSource", "derive_seed", "GAUSS_MAX_SIGMAS"]

#: No ``random.Random.gauss(mu, sigma)`` draw lies further than this
#: many sigmas from ``mu``.  CPython's ``gauss`` is Box-Muller,
#: ``z = cos(2*pi*u1) * sqrt(-2 * ln(1 - u2))``, over uniforms
#: ``u = k / 2**53`` with ``0 <= k < 2**53``, so ``1 - u2 >= 2**-53``
#: and ``|z| <= sqrt(-2 * ln(2**-53)) = sqrt(106 * ln 2) ~= 8.5716``.
#: Rounded up, which also absorbs the last-place error of ``log``,
#: ``sqrt`` and ``cos``.  Callers that rank by ``base + gauss noise``
#: may use it to discard candidates exactly, not approximately.
GAUSS_MAX_SIGMAS = 8.58


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses BLAKE2b rather than Python's ``hash`` so the derivation is
    stable across interpreter runs and ``PYTHONHASHSEED`` values.
    """
    digest = blake2b(
        f"{root_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RandomSource:
    """A tree of named, independently-seeded random streams.

    Example
    -------
    >>> rng = RandomSource(seed=42)
    >>> jitter = rng.stream("net.jitter")
    >>> lag = rng.stream("replication.lag")
    >>> a = jitter.random()
    >>> b = lag.random()

    Requesting the same name twice returns the same underlying stream
    object, so components may look their stream up lazily.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this source was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self._seed, name))
            self._streams[name] = stream
        return stream

    def ephemeral(self, name: str) -> random.Random:
        """A fresh, *unmemoized* stream seeded for ``name``.

        Unlike :meth:`stream`, the returned generator is not cached, so
        call sites that derive a stream per (entity, epoch) pair — e.g.
        the ranked-feed interest noise — can take one-shot draws without
        growing the stream table without bound.  Identically named
        ephemeral and memoized streams produce identical draws.
        """
        return random.Random(derive_seed(self._seed, name))

    def child(self, name: str) -> "RandomSource":
        """Return a :class:`RandomSource` rooted under ``name``.

        Useful when a whole subsystem (e.g. one simulated service) wants
        its own namespace of streams.
        """
        return RandomSource(derive_seed(self._seed, name))

    def spawn_seeds(self, name: str, count: int) -> list[int]:
        """Return ``count`` independent seeds derived under ``name``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [derive_seed(self._seed, f"{name}[{i}]") for i in range(count)]

    # -- Convenience distributions -------------------------------------
    #
    # These wrap a named stream with the distributions the simulator
    # actually needs, so call sites stay one-liners.

    def uniform(self, name: str, low: float, high: float) -> float:
        """One draw from U(low, high) on stream ``name``."""
        return self.stream(name).uniform(low, high)

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on stream ``name``."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self.stream(name).expovariate(1.0 / mean)

    def lognormal(self, name: str, median: float, sigma: float) -> float:
        """One draw from a log-normal with the given *median* (not mean).

        Parameterizing by median makes latency configs intuitive: a
        median of 10 ms with sigma 0.3 gives a right-skewed distribution
        whose typical value is 10 ms, matching how RTT jitter behaves.
        """
        if median <= 0:
            raise ValueError("median must be positive")
        return self.stream(name).lognormvariate(math.log(median), sigma)

    def bernoulli(self, name: str, probability: float) -> bool:
        """One biased coin flip on stream ``name``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        return self.stream(name).random() < probability

    def choice(self, name: str, options: list):
        """Pick one element of ``options`` uniformly on stream ``name``."""
        if not options:
            raise ValueError("options must be non-empty")
        return self.stream(name).choice(options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RandomSource(seed={self._seed}, "
                f"streams={sorted(self._streams)})")
