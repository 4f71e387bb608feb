"""Fleet-backed trial evaluation and the top-level search driver.

One rung of a search = one :class:`~repro.fleet.spec.FleetSpec`: the
service under calibration, the rung's test budget, one campaign seed,
and a ``param_grid`` with one labelled entry per surviving candidate.
Running it through :func:`~repro.fleet.executor.run_fleet` buys
everything the fleet engine already guarantees — parallel workers
with bit-identical merged output, per-candidate obs snapshots, and
shard-level checkpoint/resume — without this module owning a single
process or store.

With ``store_dir``, rung ``r`` runs with the fleet artifact store
``<store_dir>/r<r>``: a re-run loads every digest-valid shard instead
of re-simulating it and scores the loaded records again.  Scores are
a pure function of records, so a resumed rung yields the same trials;
an edited objective simply re-scores the stored rungs.  The fleet
spec hash binds each rung directory to its service, budget, seed and
every candidate's params, so a directory written by another search
fails closed with :class:`~repro.errors.FleetError`.

:func:`run_calibration` wires the pieces together: build the default
space/objective and hand the evaluator to
:class:`~repro.calibrate.search.SuccessiveHalving`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.calibrate.objective import Objective, default_objective
from repro.calibrate.search import (
    SearchOutcome,
    SuccessiveHalving,
    TrialResult,
)
from repro.calibrate.space import SearchSpace, default_space
from repro.errors import CalibrationError
from repro.fleet.executor import run_fleet
from repro.fleet.spec import FleetSpec
from repro.methodology.config import CampaignConfig

__all__ = ["FleetEvaluator", "run_calibration"]

#: Progress callback: receives one human-readable line per rung.
MessageCallback = Callable[[str], None]


@dataclass
class FleetEvaluator:
    """Evaluate candidate batches as fleet campaigns, with resume."""

    space: SearchSpace
    objective: Objective
    base_config: CampaignConfig
    jobs: int = 1
    store_dir: str | Path | None = None
    on_message: MessageCallback | None = None

    def __post_init__(self) -> None:
        if self.base_config.service_params is not None:
            raise CalibrationError(
                "base_config.service_params must be None: candidates "
                "supply service parameters through the search space"
            )
        if self.base_config.keep_traces:
            raise CalibrationError(
                "keep_traces is incompatible with trial evaluation "
                "(traces do not cross the fleet worker boundary)"
            )

    def _say(self, message: str) -> None:
        if self.on_message is not None:
            self.on_message(message)

    def __call__(self, rung: int, num_tests: int,
                 candidates: list[tuple[int, dict[str, Any]]]
                 ) -> list[TrialResult]:
        self._say(f"rung {rung}: {len(candidates)} candidate(s) "
                  f"x {num_tests} tests/type")
        spec = FleetSpec(
            services=(self.space.service,),
            base_config=replace(self.base_config,
                                num_tests=num_tests),
            seeds=(self.base_config.seed,),
            param_grid=tuple(
                (self.space.label(index),
                 self.space.params(assignment))
                for index, assignment in candidates
            ),
        )
        out_dir = (Path(self.store_dir) / f"r{rung}"
                   if self.store_dir is not None else None)
        outcome = run_fleet(spec, jobs=self.jobs, out_dir=out_dir)
        if outcome.skipped:
            self._say(f"rung {rung}: {len(outcome.skipped)} shard(s) "
                      f"[resumed from store], "
                      f"{len(outcome.executed)} executed")
        return [
            TrialResult(
                trial_id=f"r{rung}/{self.space.label(index)}",
                candidate=index,
                rung=rung,
                num_tests=num_tests,
                assignment=assignment,
                score=self.objective.evaluate(result),
            )
            for (index, assignment), result
            in zip(candidates, outcome.results)
        ]


def run_calibration(service: str, *,
                    space: SearchSpace | None = None,
                    objective: Objective | None = None,
                    base_config: CampaignConfig | None = None,
                    num_tests: int = 6,
                    jobs: int = 1,
                    store_dir: str | Path | None = None,
                    on_message: MessageCallback | None = None
                    ) -> SearchOutcome:
    """Run one successive-halving search for one service.

    ``num_tests`` is the rung-0 budget (tests per test type); each
    later rung multiplies it by :data:`~repro.calibrate.search.ETA`.
    With ``store_dir``, every rung keeps its fleet store there and a
    re-invocation resumes shard by shard.
    """
    space = space if space is not None else default_space(service)
    if space.service != service:
        raise CalibrationError(
            f"search space is for {space.service!r}, not {service!r}"
        )
    objective = (objective if objective is not None
                 else default_objective(service))
    base_config = (base_config if base_config is not None
                   else CampaignConfig())
    evaluator = FleetEvaluator(
        space=space, objective=objective, base_config=base_config,
        jobs=jobs, store_dir=store_dir, on_message=on_message,
    )
    return SuccessiveHalving(space, base_tests=num_tests).run(evaluator)
