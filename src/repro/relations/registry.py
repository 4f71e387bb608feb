"""Built-in metric specs and name resolution.

Three specs ship.  Two compute something no checker does — a
ViSearch-style relaxed-consistency bound and inversion-based staleness
counts, both minimised over the admissible arbitrations.  One folds
the evidence of a §III checker (``violation="missing"``):
per-session monotonicity depth takes the largest ``missing`` set the
monotonic-reads checker reported.  The paper's predicates themselves
are counted by their checkers, in every record.

Campaign configs, scenario files, and the ``--metrics`` CLI flag all
name metrics by these registry keys; :func:`resolve_metrics` turns
names into spec tuples (order-preserving) and rejects unknowns.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.relations.spec import MetricSpec

__all__ = [
    "RELAXED_CONSISTENCY",
    "STALE_READ_INVERSIONS",
    "SESSION_MONOTONICITY_DEPTH",
    "BUILTIN_SPECS",
    "metric_names",
    "resolve_metrics",
]

#: ViSearch almost-serializable score: per read, how many logged
#: writes sit below the view's arbitration frontier yet are invisible;
#: the test value is the worst read under the admissible arbitration
#: that makes it least — the relaxation bound ``k`` at which the
#: execution would pass a k-relaxed serializability check.
RELAXED_CONSISTENCY = MetricSpec(
    name="relaxed_consistency",
    violation="relaxation",
    measure="max",
    description=("worst-read count of arbitration-skipped writes "
                 "below the visible frontier, minimised over "
                 "admissible arbitrations (ViSearch k-relaxation)"),
)

#: Inversion-based staleness: per read, the number of visible write
#: pairs returned in the opposite of arbitration order, summed over
#: the test and minimised over admissible arbitrations — a
#: register-level staleness magnitude, not a boolean.
STALE_READ_INVERSIONS = MetricSpec(
    name="stale_read_inversions",
    violation="inversion",
    measure="sum",
    description=("total visible write pairs whose view order "
                 "contradicts arbitration order, minimised over "
                 "admissible arbitrations"),
)

#: Session monotonicity depth: per read, how many previously-seen ids
#: vanished from the view; the test value is the deepest regression.
#: The monotonic-reads checker flags that this happened; the depth
#: says how far the session was thrown back.
SESSION_MONOTONICITY_DEPTH = MetricSpec(
    name="session_monotonicity_depth",
    violation="missing",
    measure="max",
    description=("worst-read count of previously-observed ids "
                 "missing from the view"),
)

#: Registry, in presentation order.
BUILTIN_SPECS: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        RELAXED_CONSISTENCY,
        STALE_READ_INVERSIONS,
        SESSION_MONOTONICITY_DEPTH,
    )
}


def metric_names() -> tuple[str, ...]:
    """All built-in metric names, in presentation order."""
    return tuple(BUILTIN_SPECS)


def resolve_metrics(names) -> tuple[MetricSpec, ...]:
    """Turn metric names into specs, preserving order.

    ``names`` may be any iterable of strings (a config tuple, a CLI
    comma-split).  Unknown or duplicate names raise
    :class:`~repro.errors.ConfigurationError` so a typo fails at
    configuration time, not mid-campaign.
    """
    specs: list[MetricSpec] = []
    chosen: set[str] = set()
    for name in names:
        spec = BUILTIN_SPECS.get(name)
        if spec is None:
            known = ", ".join(metric_names())
            raise ConfigurationError(
                f"unknown consistency metric {name!r}; "
                f"known metrics: {known}"
            )
        if name in chosen:
            raise ConfigurationError(
                f"duplicate consistency metric {name!r}"
            )
        chosen.add(name)
        specs.append(spec)
    return tuple(specs)
