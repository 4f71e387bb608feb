"""The deterministic searcher: successive halving.

A searcher owns *which* candidates are evaluated at *which* test
budget and in *what* order; the actual evaluation is delegated to a
``TrialEvaluator`` callback (see :mod:`repro.calibrate.evaluator`) so
the searcher stays pure control flow.  :class:`SuccessiveHalving`
evaluates every candidate at a small budget, keeps the best
``ceil(n / ETA)`` (ties broken by candidate index), multiplies the
budget by ``ETA``, and repeats.  It is a deterministic function of
``(space, base_tests)``: no randomness, no wall clock.

Every evaluation is recorded as a :class:`TrialResult`; the ordered
tuple of them, plus the winner, forms the :class:`SearchOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.calibrate.objective import FidelityScore
from repro.calibrate.space import SearchSpace
from repro.errors import CalibrationError

__all__ = [
    "ETA",
    "TrialResult",
    "SearchOutcome",
    "SuccessiveHalving",
]

#: Halving rate: the budget multiplier and the survivor divisor.
ETA = 3


@dataclass(frozen=True)
class TrialResult:
    """One candidate evaluated at one budget."""

    trial_id: str
    candidate: int
    rung: int
    num_tests: int
    assignment: dict[str, Any]
    score: FidelityScore


#: Evaluate one rung: (rung, num_tests, [(candidate, assignment)])
#: -> TrialResults in candidate order.
TrialEvaluator = Callable[
    [int, int, list[tuple[int, dict[str, Any]]]], list["TrialResult"]
]


@dataclass(frozen=True)
class SearchOutcome:
    """Everything a search produced, in evaluation order."""

    trials: tuple[TrialResult, ...]
    winner: TrialResult

    def baseline_trial(self) -> TrialResult:
        """Candidate 0's highest-budget trial (always in the last
        rung, which is the winner's)."""
        return max((trial for trial in self.trials
                    if trial.candidate == 0),
                   key=lambda trial: trial.num_tests)


def _rank_key(trial: TrialResult) -> tuple[float, int]:
    """Loss-then-index: the deterministic tie-break everywhere."""
    return (trial.score.total, trial.candidate)


class SuccessiveHalving:
    """Budget-multiplying elimination over the candidate set.

    Rung ``r`` evaluates the survivors at ``base_tests * ETA ** r``
    tests per test type, then keeps the best ``ceil(n / ETA)``.
    Candidate 0 — the baseline, every axis at its checked-in default —
    is *shielded*: it rides along into every rung even when it ranks
    below the cut.  The search therefore always ends in a head-to-head
    between the baseline and the surviving challenger at the largest
    budget, so the winner can never score worse than the default
    profile at the budget it was chosen at.  The search stops when the
    survivor set stops shrinking (it has converged to ``{baseline,
    challenger}``) or is the baseline alone (no later rung could
    change the winner); the rung just evaluated is then the final
    head-to-head and its best trial is the winner.
    """

    def __init__(self, space: SearchSpace, *, base_tests: int = 6
                 ) -> None:
        if base_tests < 1:
            raise CalibrationError(
                "successive halving needs base_tests >= 1"
            )
        self.space = space
        self.base_tests = base_tests

    def run(self, evaluate: TrialEvaluator) -> SearchOutcome:
        survivors = list(range(self.space.size))
        trials: list[TrialResult] = []
        rung = 0
        num_tests = self.base_tests
        while True:
            batch = [(index, self.space.assignment(index))
                     for index in survivors]
            rung_trials = evaluate(rung, num_tests, batch)
            trials.extend(rung_trials)
            ranked = sorted(rung_trials, key=_rank_key)
            keep = math.ceil(len(survivors) / ETA)
            kept = [trial.candidate for trial in ranked[:keep]]
            next_survivors = sorted({0, *kept})  # baseline shielding
            if next_survivors in (survivors, [0]):
                break
            survivors = next_survivors
            rung += 1
            num_tests *= ETA
        return SearchOutcome(trials=tuple(trials), winner=ranked[0])
