"""repro — a reproduction of *Characterizing the Consistency of Online
Services* (Freitas, Leitão, Preguiça, Rodrigues — DSN 2016).

The library has three layers:

1. **Substrates** — a deterministic discrete-event simulator
   (:mod:`repro.sim`), a wide-area network with the paper's EC2
   geography (:mod:`repro.net`), geo-replication protocols
   (:mod:`repro.replication`), and black-box web-API service models of
   Google+, Blogger, Facebook Feed, and Facebook Group
   (:mod:`repro.services`, :mod:`repro.webapi`).
2. **The paper's contribution** — formal consistency-anomaly checkers
   and divergence-window metrics (:mod:`repro.core`), the Cristian-style
   clock-sync protocol (:mod:`repro.clocksync`), the two black-box test
   templates and the campaign runner (:mod:`repro.methodology`,
   :mod:`repro.agents`).
3. **Analysis** — prevalence, distributions, correlation, and CDFs that
   regenerate every table and figure in the paper
   (:mod:`repro.analysis`), plus the client-side session-guarantee
   masking layer the paper sketches as future work
   (:mod:`repro.masking`).

Quickstart::

    from repro.methodology import CampaignConfig, run_campaign
    from repro.analysis import prevalence_table

    results = run_campaign("googleplus", CampaignConfig(num_tests=50, seed=7))
    print(prevalence_table({"googleplus": results}))
"""

from repro._facade import facade

# The high-level API, so users can write ``repro.run_campaign(...)``
# without hunting through subpackages; ``import repro`` loads none of it.
__all__, __getattr__, __dir__ = facade(__name__, {
    "._version": ("__version__",),
    ".methodology.runner": ("run_campaign",),
    ".methodology.config": ("CampaignConfig",),
    ".methodology.world": ("MeasurementWorld",),
    ".core.anomalies.registry": ("check_all",),
    ".analysis.prevalence": ("prevalence_table",),
    ".analysis.report": ("full_report",),
    ".io": ("save_campaign", "load_campaign"),
    ".services.profiles": ("SERVICE_NAMES",),
})
