"""Divergence-window CDFs (the paper's Figures 9 and 10).

For each agent pair, each test contributes its *largest* divergence
window (the paper: "only considering the largest divergence window for
each pair of agents in each test").  Tests whose views never converged
by the last read are excluded from the CDF but counted — the paper
reports those fractions alongside Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import EmpiricalCDF
from repro.methodology.records import CampaignResult, Pair

__all__ = ["WindowCdf", "window_cdfs", "window_cdf_table"]


@dataclass(frozen=True)
class WindowCdf:
    """Per-pair window samples and convergence accounting."""

    service: str
    #: "content" or "order".
    kind: str
    test_type: str
    #: pair -> largest-window samples (seconds), converged tests only.
    samples: dict[Pair, list[float]] = field(default_factory=dict)
    #: pair -> number of tests whose divergence never converged.
    unconverged: dict[Pair, int] = field(default_factory=dict)
    total_tests: int = 0

    def cdf(self, pair: Pair) -> EmpiricalCDF | None:
        """The empirical CDF for one pair, or None if no samples."""
        values = self.samples.get(tuple(sorted(pair)), [])
        if not values:
            return None
        return EmpiricalCDF.from_samples(values)

    def unconverged_fraction(self, pair: Pair) -> float:
        """Share of *divergent* tests that never converged (Fig. 10)."""
        key = tuple(sorted(pair))
        converged = len(self.samples.get(key, []))
        stuck = self.unconverged.get(key, 0)
        total = converged + stuck
        return stuck / total if total else 0.0


def window_cdfs(result: CampaignResult, kind: str = "content",
                test_type: str = "test2") -> WindowCdf:
    """Collect per-pair largest-window samples from campaign records."""
    if kind not in ("content", "order"):
        raise ValueError("kind must be 'content' or 'order'")
    attribute = f"{kind}_windows"
    samples: dict[Pair, list[float]] = {}
    unconverged: dict[Pair, int] = {}
    records = result.of_type(test_type)
    for record in records:
        for pair, window in getattr(record, attribute).items():
            if not window.diverged:
                continue
            if not window.converged:
                unconverged[pair] = unconverged.get(pair, 0) + 1
                continue
            samples.setdefault(pair, []).append(window.largest)
    return WindowCdf(
        service=result.service,
        kind=kind,
        test_type=test_type,
        samples=samples,
        unconverged=unconverged,
        total_tests=len(records),
    )


def window_cdf_table(cdf_set: WindowCdf,
                     quantiles: tuple[float, ...] = (0.25, 0.5, 0.75,
                                                     0.9)) -> str:
    """Render per-pair window quantiles as an aligned text table."""
    header = (f"{'pair':24s}{'n':>6s}"
              + "".join(f"{f'p{int(100 * q)}':>9s}" for q in quantiles)
              + f"{'unconv':>8s}")
    lines = [
        f"{cdf_set.service}: {cdf_set.kind}-divergence window CDF "
        f"({cdf_set.test_type}, largest window per pair per test)",
        header,
        "-" * len(header),
    ]
    for pair in sorted(set(cdf_set.samples) | set(cdf_set.unconverged)):
        cdf = cdf_set.cdf(pair)
        label = f"{pair[0]}-{pair[1]}"
        if cdf is None:
            lines.append(f"{label:24s}{0:6d}" + " " * 9 * len(quantiles)
                         + f"{cdf_set.unconverged_fraction(pair):7.0%}")
            continue
        cells = "".join(f"{cdf.quantile(q):8.2f}s" for q in quantiles)
        lines.append(
            f"{label:24s}{len(cdf.samples):6d}{cells}"
            f"{cdf_set.unconverged_fraction(pair):7.0%}"
        )
    return "\n".join(lines)
