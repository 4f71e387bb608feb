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

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".store": ("VersionedStore", "StoredWrite"),
    ".ordering": ("timestamp_key", "second_truncated_key"),
    ".strong": ("PrimaryBackupGroup",),
    ".eventual": ("EventualParams", "DatacenterReplica", "EventualGroup"),
    ".group_store": ("GroupStoreParams", "GroupReplica", "GeoGroupStore"),
    ".ranking": ("RankedFeedParams", "RankedFeedStore"),
    ".quorum": ("QuorumParams", "QuorumReplica", "QuorumStore"),
    ".gossip": ("GossipParams", "GossipReplica", "GossipGroup"),
})
