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

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:
        from hashlib import sha256
from _blake2 import blake2b

__all__ = ["sha256", "blake2b", "tagged_sha256"]


def tagged_sha256(data: bytes) -> str:
    """``"sha256:<hex>"`` of ``data``: the store and export digests."""
    return f"sha256:{sha256(data).hexdigest()}"
