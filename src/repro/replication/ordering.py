"""Ordering policies: how a replica decides the position of a write.

The paper's detective work on Facebook Group (§V, monotonic writes)
found that events carry a creation timestamp with *one-second
precision* and that two writes falling in the same second are always
observed in reverse order — "a deterministic ordering scheme for
breaking ties in the creation timestamp".  :func:`second_truncated_key`
implements exactly that scheme; :func:`timestamp_key` is the plain
canonical order used by the other substrates.

Keys are tuples, compared lexicographically by
:class:`~repro.replication.store.VersionedStore`.  A policy is a
function from (origin_ts, seq, message_id) to a key; replicas call it
at insert (and repair) time.
"""

from __future__ import annotations

import math

__all__ = ["timestamp_key", "second_truncated_key"]


def timestamp_key(origin_ts: float, seq: int, message_id: str) -> tuple:
    """Canonical order: full-precision creation timestamp.

    ``message_id`` breaks exact timestamp ties deterministically so all
    replicas agree, and ``seq`` never participates (it is replica-local).
    """
    return (origin_ts, message_id)


def second_truncated_key(origin_ts: float, seq: int,
                         message_id: str) -> tuple:
    """Facebook-Group-style order: 1s-granularity timestamp, ties reversed.

    Writes in the same wall-clock second sort by *descending* arrival,
    so the most recent write of a burst appears first — reproducing the
    paper's observation that two same-second writes by one agent are
    always seen in reverse order, consistently by every agent.  The
    message id breaks exact sequence ties so replicas that assigned the
    same sequence to different writes still agree on one order.
    """
    return (math.floor(origin_ts), -seq, message_id)
