"""The four measured online services as black-box API models.

========================  ==========================================
Name                      Model
========================  ==========================================
``blogger``               Strong primary-backup; no anomalies
``googleplus``            Two-DC eventual replication, shared account
``facebook_feed``         Interest-ranked per-user feeds
``facebook_group``        Sticky geo pair, 1s-truncated ordering
========================  ==========================================

Build one with :func:`build_service`; talk to it through the
:class:`ServiceSession` returned by ``create_session``.
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".base": ("OnlineService", "ServiceSession", "SessionRoutes"),
    ".blogger": ("BloggerService", "BloggerParams"),
    ".googleplus": ("GooglePlusService", "GooglePlusParams"),
    ".facebook_feed": ("FacebookFeedService", "FacebookFeedParams"),
    ".facebook_group": ("FacebookGroupService", "FacebookGroupParams"),
    ".quorum_kv": ("QuorumKvService", "QuorumKvParams"),
    ".profiles": (
        "SERVICE_NAMES", "EXTENSION_SERVICE_NAMES", "SERVICE_IMPORTS",
        "service_class", "build_service",
    ),
})
