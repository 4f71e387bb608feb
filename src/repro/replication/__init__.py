"""Geo-replication substrates the four service models are built on.

* :class:`PrimaryBackupGroup` — synchronous primary-backup (Blogger's
  inferred strong consistency).
* :class:`EventualGroup` / :class:`DatacenterReplica` — multi-DC
  eventual replication with anti-entropy, late-write repair, and stale
  read backends (Google+).
* :class:`GeoGroupStore` — sticky two-replica store with one-second
  timestamp ordering and reversed same-second tie-breaking, available
  under partitions (Facebook Group).
* :class:`RankedFeedStore` — a logical post store read through a
  per-user interest-ranking pipeline (Facebook Feed).
* :class:`GossipGroup` — leaderless rumor-mongering with periodic
  anti-entropy (the scenario DSL's gossip archetype).

* :class:`QuorumStore` — N replicas with R/W quorums (the storage
  extension, ``quorum_kv``).

Shared pieces: :class:`VersionedStore` (ordered write store remembering
past versions), the ordering policies in
:mod:`repro.replication.ordering`, and the one range check every
``*Params`` runs (:func:`repro.replication.store.check_params`).
What each piece is kept for: ``docs/replication.md``.
"""

from repro.replication.eventual import (
    DatacenterReplica,
    EventualGroup,
    EventualParams,
)
from repro.replication.gossip import (
    GossipGroup,
    GossipParams,
    GossipReplica,
)
from repro.replication.group_store import (
    GeoGroupStore,
    GroupReplica,
    GroupStoreParams,
)
from repro.replication.ordering import second_truncated_key, timestamp_key
from repro.replication.quorum import (
    QuorumParams,
    QuorumReplica,
    QuorumStore,
)
from repro.replication.ranking import RankedFeedParams, RankedFeedStore
from repro.replication.store import StoredWrite, VersionedStore
from repro.replication.strong import PrimaryBackupGroup

__all__ = [
    "VersionedStore",
    "StoredWrite",
    "timestamp_key",
    "second_truncated_key",
    "PrimaryBackupGroup",
    "EventualParams",
    "DatacenterReplica",
    "EventualGroup",
    "GroupStoreParams",
    "GroupReplica",
    "GeoGroupStore",
    "RankedFeedParams",
    "RankedFeedStore",
    "QuorumParams",
    "QuorumReplica",
    "QuorumStore",
    "GossipParams",
    "GossipReplica",
    "GossipGroup",
]
