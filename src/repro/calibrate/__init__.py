"""repro.calibrate — deterministic fidelity search over service models.

Fits each service's profile knobs to the paper's published numbers
(Figures 3/8/9/10, Tables I/II) with the shape of a hyperparameter
tuner: declarative parameter spaces (:mod:`~repro.calibrate.space`),
objectives that are weighted sums of the claims table's rows
(:mod:`~repro.calibrate.claims`, :mod:`~repro.calibrate.objective`),
a deterministic successive-halving searcher
(:mod:`~repro.calibrate.search`), a fleet-backed trial evaluator whose
rungs resume from their fleet artifact stores
(:mod:`~repro.calibrate.evaluator`), and measured-vs-paper reporting
(:mod:`~repro.calibrate.report`).  There is one model per service,
its default profile: a search winner is either promoted into it, in
its own change that moves the goldens, or dropped, and the CI
fidelity gate (``tools/gates.py fidelity``) scores the default profile
that every reported number comes from.

Everything is a pure function of its inputs: there is no randomness
and no wall clock anywhere — ``repro.lint`` enforces both, and
(DET003) that no reduction runs over an unordered collection.
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".evaluator": ("FleetEvaluator", "run_calibration"),
    ".objective": ("FidelityScore", "Objective", "default_objective"),
    ".report": ("comparison_table", "fidelity_table", "write_fidelity_json"),
    ".search": ("SearchOutcome", "SuccessiveHalving", "TrialResult"),
    ".space": (
        "Axis", "SearchSpace", "apply_assignment", "base_params",
        "default_space",
    ),
    ".targets": (
        "PAPER_TARGETS", "TARGETS_VERSION", "ServiceTargets",
        "paper_targets", "target_services",
    ),
})
