"""The measurement methodology: test templates and campaign runner.

* :mod:`repro.methodology.config` — Tables I/II parameters and
  :class:`CampaignConfig`.
* :mod:`repro.methodology.world` — one-call assembly of the paper's
  deployment around a chosen service.
* :mod:`repro.methodology.test1` / ``test2`` — the two §IV test
  templates as simulation processes.
* :mod:`repro.methodology.runner` — run many tests, check traces,
  compute windows, return compact records
  (:mod:`repro.methodology.records`).
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".config": (
        "Test1Config", "Test2Config", "ServicePlan", "PAPER_PLANS",
        "CampaignConfig",
    ),
    ".world": ("MeasurementWorld", "AGENT_REGIONS"),
    ".test1": ("run_test1",),
    ".test2": ("run_test2",),
    ".nemesis": (
        "Nemesis", "PartitionStretchNemesis", "PeriodicPartitionNemesis",
        "LinkLossNemesis", "CompositeNemesis",
    ),
    ".runner": ("run_campaign", "analyze_trace"),
    ".records": ("TestRecord", "CampaignResult"),
})
