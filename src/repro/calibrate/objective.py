"""Composable weighted-loss objectives over campaign results.

An :class:`Objective` turns one :class:`~repro.methodology.runner.
CampaignResult` into a :class:`FidelityScore`: a list of named terms,
each comparing a measured quantity against its paper target, plus a
weighted total.  Measurements reuse the existing figure code —
:func:`~repro.analysis.prevalence` semantics for Figure 3,
:func:`~repro.analysis.divergence.pair_divergence` for Figure 8,
:func:`~repro.analysis.cdf.window_cdfs` for Figures 9/10 — so the
search optimizes exactly what the rendered figures report.

Per-term losses are normalized so they compose: fractions (prevalence
and pair rates) contribute ``|measured - target|`` directly, while
read counts and window medians are scaled by their target magnitude.
The total is the weight-scaled sum in a fixed term order, which keeps
scores byte-stable across runs (the determinism contract).

Each target family has one fixed weight.  Figure 3 prevalences,
Figure 8 per-pair rates (the paper's headline "up to 85%" finding),
and Table I/II read counts are stated numbers and weigh fully;
Figure 9/10 medians are read off CDF plots, so they act as a
low-weight tiebreaker rather than a force that can drag the fit away
from the stated figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cdf import window_cdfs
from repro.analysis.divergence import pair_divergence
from repro.analysis.prevalence import assessing_test_type
from repro.calibrate.targets import ServiceTargets, paper_targets
from repro.core.anomalies import (
    ALL_ANOMALIES,
    CONTENT_DIVERGENCE,
    ORDER_DIVERGENCE,
)
from repro.errors import CalibrationError
from repro.methodology.records import CampaignResult

__all__ = [
    "FidelityTerm",
    "FidelityScore",
    "Objective",
    "default_objective",
]

#: Weight of each target family in the total loss (see module doc).
PREVALENCE_WEIGHT = 1.0
READS_WEIGHT = 1.0
PAIR_DIVERGENCE_WEIGHT = 1.0
WINDOW_MEDIAN_WEIGHT = 0.1


@dataclass(frozen=True)
class FidelityTerm:
    """One measured-vs-target comparison.

    ``loss`` is the normalized, *unweighted* distance; the score's
    total applies ``weight``.
    """

    name: str
    measured: float
    target: float
    weight: float
    loss: float

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "target": self.target,
            "weight": self.weight,
            "loss": self.loss,
        }


@dataclass(frozen=True)
class FidelityScore:
    """All terms of one evaluation plus the weighted total."""

    service: str
    terms: tuple[FidelityTerm, ...]
    total: float

    def to_jsonable(self) -> dict:
        return {
            "service": self.service,
            "total": self.total,
            "terms": [term.to_jsonable() for term in self.terms],
        }


def _pair_label(pair: tuple[str, str]) -> str:
    return "~".join(pair)


def _fraction_term(name: str, measured: float, target: float,
                   weight: float) -> FidelityTerm:
    return FidelityTerm(name=name, measured=measured, target=target,
                        weight=weight, loss=abs(measured - target))


def _scaled_term(name: str, measured: float, target: float,
                 weight: float) -> FidelityTerm:
    scale = max(abs(target), 1.0)
    return FidelityTerm(name=name, measured=measured, target=target,
                        weight=weight,
                        loss=abs(measured - target) / scale)


@dataclass(frozen=True)
class Objective:
    """Weighted fidelity loss of a campaign against paper targets."""

    targets: ServiceTargets

    def __post_init__(self) -> None:
        has_any = (self.targets.prevalence or self.targets.pair_content
                   or self.targets.pair_order
                   or self.targets.content_window_median
                   or self.targets.order_window_median
                   or self.targets.reads_test1)
        if not has_any:
            raise CalibrationError(
                f"targets for {self.targets.service!r} are empty; "
                "an objective needs at least one quantity to fit"
            )

    def evaluate(self, result: CampaignResult) -> FidelityScore:
        """Score one campaign; term order is fixed and documented."""
        if result.service != self.targets.service:
            raise CalibrationError(
                f"objective for {self.targets.service!r} cannot score "
                f"a {result.service!r} campaign"
            )
        terms: list[FidelityTerm] = []
        terms.extend(self._prevalence_terms(result))
        terms.extend(self._reads_terms(result))
        terms.extend(self._pair_terms(result))
        terms.extend(self._window_terms(result))
        total = 0.0
        for term in terms:
            total += term.weight * term.loss
        return FidelityScore(service=self.targets.service,
                             terms=tuple(terms), total=total)

    # -- Term families (fixed order: Fig 3, Tables, Fig 8, Figs 9/10) --

    def _prevalence_terms(self, result) -> list[FidelityTerm]:
        terms = []
        for anomaly in ALL_ANOMALIES:
            if anomaly not in self.targets.prevalence:
                continue
            measured = result.prevalence(anomaly,
                                         assessing_test_type(anomaly))
            terms.append(_fraction_term(
                f"prevalence.{anomaly}", measured,
                self.targets.prevalence[anomaly],
                PREVALENCE_WEIGHT,
            ))
        return terms

    def _reads_terms(self, result) -> list[FidelityTerm]:
        if not self.targets.reads_test1:
            return []
        return [_scaled_term(
            "reads.test1", result.reads_per_agent("test1"),
            self.targets.reads_test1, READS_WEIGHT,
        )]

    def _pair_terms(self, result) -> list[FidelityTerm]:
        terms = []
        for anomaly, table in (
            (CONTENT_DIVERGENCE, self.targets.pair_content),
            (ORDER_DIVERGENCE, self.targets.pair_order),
        ):
            if not table:
                continue
            rates = pair_divergence(
                result, anomaly, test_type=assessing_test_type(anomaly))
            kind = "content" if anomaly == CONTENT_DIVERGENCE \
                else "order"
            for pair, target in sorted(table.items()):
                terms.append(_fraction_term(
                    f"pair.{kind}.{_pair_label(pair)}",
                    rates.fraction(pair), target,
                    PAIR_DIVERGENCE_WEIGHT,
                ))
        return terms

    def _window_terms(self, result) -> list[FidelityTerm]:
        terms = []
        for kind, anomaly, table in (
            ("content", CONTENT_DIVERGENCE,
             self.targets.content_window_median),
            ("order", ORDER_DIVERGENCE,
             self.targets.order_window_median),
        ):
            if not table:
                continue
            cdfs = window_cdfs(result, kind,
                               test_type=assessing_test_type(anomaly))
            for pair, target in sorted(table.items()):
                cdf = cdfs.cdf(pair)
                measured = cdf.quantile(0.5) if cdf is not None \
                    else 0.0
                terms.append(_scaled_term(
                    f"window.{kind}.{_pair_label(pair)}",
                    measured, target, WINDOW_MEDIAN_WEIGHT,
                ))
        return terms


def default_objective(service: str) -> Objective:
    """The standard objective: the service's paper targets."""
    return Objective(targets=paper_targets(service))
