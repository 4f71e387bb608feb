"""Canonical serialization and content digests for fleet artifacts.

Everything the fleet engine persists or compares is reduced to one
*canonical JSON* encoding — sorted keys, compact separators — so that
equal inputs produce byte-identical encodings regardless of
construction order.  A value is *lowered* when the JSON encoder
already reads it that way: ``dict`` with ``str`` keys, ``list`` /
``tuple``, and ``str`` / ``int`` / ``float`` / ``bool`` / ``None``
leaves, all of exactly those types.  :func:`canonical` lowers
everything else it knows (dataclasses, non-``str`` keys, sets,
subclasses) and refuses the rest: a digest must be a function of its
input, so a value with no content-determined encoding is an error,
never a ``repr``.

:func:`canonical_json` is the one way a value becomes bytes: it walks
the value once to *check* that it is lowered — every record dict
``repro.io.record_to_dict`` builds is — and hands it to the C encoder
as it stands; only a value that fails the check is copied through
:func:`canonical` first.  Either way the bytes are those of
``json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))``.
Digests over that encoding are the engine's equality oracle:

* :func:`records_digest` / :func:`campaign_signature` — one campaign's
  records, used for shard integrity in the artifact store.
* :func:`fleet_signature` — an ordered fleet outcome, the
  golden-signature digest that must match between the serial and the
  parallel execution paths.
* :func:`spec_digest` — a :class:`~repro.fleet.spec.FleetSpec`, used
  to bind an artifact store to the spec that filled it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Any, Iterable

from repro._hash import sha256
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.methodology.records import CampaignResult, TestRecord

__all__ = [
    "canonical",
    "canonical_json",
    "sha256_hex",
    "records_digest",
    "campaign_signature",
    "fleet_signature",
    "spec_digest",
]

#: Leaf types the encoder writes as they stand.  Matched by exact
#: type (one hash lookup): a subclass — an enum, a ``str`` key with its
#: own ``__str__`` — takes the :func:`canonical` path.
_SCALARS = frozenset({str, int, float, bool, type(None)})

# No circular check: what reaches the encoder is either a value
# ``_is_lowered`` walked to its leaves or the fresh tree ``canonical``
# built, and both recurse (``RecursionError``) on a cyclic input first.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode


def canonical(value: Any) -> Any:
    """Lower ``value`` to a structure with one deterministic encoding.

    Dataclasses carry their type name so two configs of different
    classes with equal fields never alias; dict keys become ``str``
    *before* they are sorted (``{1:…, 10:…, 2:…}`` orders
    ``"1","10","2"``, ``True`` is the key ``"True"``); sets are sorted
    by their canonical encoding (never iterated raw).  Any other
    object raises :class:`~repro.errors.ConfigurationError` — its
    ``repr`` may carry a memory address.
    """
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        lowered = {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        lowered["__dataclass__"] = type(value).__qualname__
        return lowered
    if isinstance(value, dict):
        return {str(key): canonical(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            (canonical(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"no canonical encoding for {type(value).__qualname__} "
        "objects: lower the value to dataclasses, dicts, lists, "
        "sets and scalars before digesting it"
    )


def _is_lowered(value: Any) -> bool:
    """Whether :func:`canonical` would change nothing the encoder sees.

    Scalars are tested inline so a leaf costs no call; the encoder
    writes a ``tuple`` as it writes a ``list``.
    """
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                return False
            if type(item) not in _SCALARS and not _is_lowered(item):
                return False
        return True
    if kind is list or kind is tuple:
        for item in value:
            if type(item) not in _SCALARS and not _is_lowered(item):
                return False
        return True
    return kind in _SCALARS


def canonical_json(value: Any) -> str:
    """The canonical JSON encoding of ``value`` (sorted, compact)."""
    if not _is_lowered(value):
        value = canonical(value)
    return _encode(value)


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of ``text`` encoded as UTF-8."""
    return sha256(text.encode("utf-8")).hexdigest()


def records_digest(jsonable_records: Iterable[dict]) -> str:
    """Digest of an ordered stream of JSON-safe test-record dicts."""
    hasher = sha256()
    for record in jsonable_records:
        hasher.update(canonical_json(record).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def campaign_signature(result: "CampaignResult") -> str:
    """Digest of one campaign's records, in their recorded order."""
    from repro.io import record_to_dict

    return records_digest(record_to_dict(record)
                          for record in result.records)


def fleet_signature(results: Iterable["CampaignResult"]) -> str:
    """Golden-signature digest of an ordered sequence of campaigns.

    The serial path (``jobs=1``) and every parallel execution of the
    same spec must produce the same signature — this is the
    bit-identity contract the test suite and CI enforce.
    """
    hasher = sha256()
    for result in results:
        hasher.update(campaign_signature(result).encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def spec_digest(spec: Any) -> str:
    """Digest binding an artifact store to the spec that fills it."""
    return sha256_hex(canonical_json(spec))
