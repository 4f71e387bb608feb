"""A calibration objective: the weighted sum of one service's claim rows.

"Fits the paper" has one definition, the rows of
:mod:`repro.calibrate.claims`.  A row with a ``weight`` reads one
number the paper publishes (its ``paper`` value, from
``PAPER_TARGETS``); an :class:`Objective` is the ordered tuple of one
service's weighted rows, and scores a campaign as the sum of each
row's ``weight × loss`` in that order, which keeps totals byte-stable
across runs (the determinism contract).  A row's loss,
``|value - paper| / max(|paper|, 1)``, is the plain distance for
fractions and relative to the paper for read counts and window
medians, so the terms compose.

Fig. 3 prevalences, Fig. 8 pair rates and Table I reads weigh 1.0;
Fig. 9/10 window medians, read off CDF plots, weigh 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.calibrate.claims import (
    CLAIMS,
    FIT_ROWS,
    Claim,
    Measured,
    Verdict,
    score_row,
)
from repro.calibrate.targets import paper_targets
from repro.errors import CalibrationError
from repro.methodology.records import CampaignResult

__all__ = [
    "FidelityScore",
    "Objective",
    "default_objective",
]


@dataclass(frozen=True)
class FidelityScore:
    """Every row of one evaluation plus the weighted total."""

    service: str
    terms: tuple[Verdict, ...]
    total: float

    def to_jsonable(self) -> dict:
        return {
            "service": self.service,
            "total": self.total,
            "terms": [{"name": term.claim.id,
                       "measured": term.value,
                       "target": term.claim.paper,
                       "weight": term.claim.weight,
                       "loss": term.loss} for term in self.terms],
        }


@dataclass(frozen=True)
class Objective:
    """Weighted rows of one service, scored in order."""

    rows: tuple[Claim, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise CalibrationError(
                "an objective needs at least one weighted row; "
                "got an empty one"
            )
        for row in self.rows:
            if not row.weight or row.services != (self.service,):
                raise CalibrationError(
                    f"row {row.id!r} is not a weighted row of "
                    f"{self.service!r}"
                )

    @property
    def service(self) -> str:
        return self.rows[0].services[0]

    def evaluate(self, result: CampaignResult) -> FidelityScore:
        """Score one campaign, row by row."""
        if result.service != self.service:
            raise CalibrationError(
                f"objective for {self.service!r} cannot score "
                f"a {result.service!r} campaign"
            )
        measured = Measured({self.service: result})
        terms = tuple(score_row(row, measured) for row in self.rows)
        total = 0.0
        for term in terms:
            total += term.claim.weight * term.loss
        return FidelityScore(service=self.service, terms=terms,
                             total=total)


#: The objective's row order by source, then the claims table's.
_SECTIONS = ("fig3", "table1", "fig8", "fig9", "fig10")


def default_objective(service: str) -> Objective:
    """The standard objective: the service's weighted rows."""
    paper_targets(service)  # an unknown service is a clear error
    rows = [row for row in (*CLAIMS, *FIT_ROWS)
            if row.weight and row.services == (service,)]
    return Objective(rows=tuple(sorted(
        rows, key=lambda row: _SECTIONS.index(row.id.split(".")[0]))))
