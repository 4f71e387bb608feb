"""SHA-256 and BLAKE2b from CPython's builtin hash modules.

``import hashlib`` loads ``_hashlib``, which maps OpenSSL's libcrypto:
about 3.6 MiB resident in every process that imports it, for two
hashes the interpreter also builds in.  The package takes both from
here instead, as the stdlib's own ``random`` does.  Digests are the
same either way.

An interpreter built without the builtin SHA-256 falls back to
``hashlib``'s.  BLAKE2b has no fallback: ``hashlib.blake2b`` *is*
``_blake2.blake2b``, and ``hashlib`` has none without that module.
"""

from __future__ import annotations

from collections.abc import Iterable

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:
        from hashlib import sha256
from _blake2 import blake2b

__all__ = ["sha256", "blake2b", "tagged_sha256"]


def tagged_sha256(data: bytes | Iterable[bytes]) -> str:
    """``"sha256:<hex>"`` of ``data``: the store and export digests.

    ``data`` may also be an iterable of chunks, hashed one by one as
    the digest of their concatenation, so a writer need not join them.
    """
    hasher = sha256()
    for chunk in (data,) if isinstance(data, bytes) else data:
        hasher.update(chunk)
    return f"sha256:{hasher.hexdigest()}"
