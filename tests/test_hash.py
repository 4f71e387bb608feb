"""``repro._hash`` digests equal ``hashlib``'s, without loading OpenSSL.

Every store digest, stream seed and world signature is one of these
two hashes, so a byte of difference would move every golden value.
The constructors must also be the builtin modules on each interpreter
CI runs (``_sha256`` on 3.11, ``_sha2`` on 3.12+): a silent fall back
to ``hashlib`` would keep the digests and quietly map OpenSSL again.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._hash import blake2b, sha256, tagged_sha256

SRC = Path(__file__).resolve().parent.parent / "src"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4096))
def test_sha256_matches_hashlib(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert tagged_sha256(data) == (
        "sha256:" + hashlib.sha256(data).hexdigest())


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4096), st.sampled_from((8, 12, 16)))
def test_blake2b_matches_hashlib(data, size):
    assert (blake2b(data, digest_size=size).digest()
            == hashlib.blake2b(data, digest_size=size).digest())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(max_size=512), max_size=8))
def test_incremental_sha256_matches_hashlib(chunks):
    mine, theirs = sha256(), hashlib.sha256()
    for chunk in chunks:
        mine.update(chunk)
        theirs.update(chunk)
    assert mine.hexdigest() == theirs.hexdigest()
    assert tagged_sha256(iter(chunks)) == "sha256:" + theirs.hexdigest()


@pytest.mark.parametrize("data, digest", [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
])
def test_sha256_known_answers(data, digest):
    assert sha256(data).hexdigest() == digest
    assert tagged_sha256(data) == "sha256:" + digest


def test_blake2b_known_answer():
    # RFC 7693, appendix A: BLAKE2b-512("abc").
    assert blake2b(b"abc").hexdigest() == (
        "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
        "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923")


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="the builtin module names are CPython's")
def test_constructors_are_the_builtin_modules():
    expected = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert sha256.__module__ == expected
    assert blake2b.__module__ == "_blake2"


def _blocked(modules, statement):
    """Run ``statement`` in a fresh interpreter without ``modules``."""
    block = "".join(f"sys.modules[{name!r}] = None\n" for name in modules)
    return subprocess.run(
        [sys.executable, "-c", f"import sys\n{block}{statement}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})


def test_sha256_falls_back_to_hashlib():
    probe = _blocked(("_sha2", "_sha256"), (
        "import hashlib\n"
        "from repro import _hash\n"
        "assert _hash.sha256 is hashlib.sha256\n"
        "print(_hash.tagged_sha256(b'abc'))"))
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == [
        "sha256:"
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"]


def test_without_builtin_blake2b_hashlib_has_none_either():
    # Why ``repro._hash`` has no BLAKE2b fallback: there is none to
    # take, so the import fails on the missing module itself.
    probe = _blocked(("_sha2", "_sha256", "_blake2"), (
        "import hashlib\n"
        "assert not hasattr(hashlib, 'blake2b')\n"
        "try:\n"
        "    import repro._hash\n"
        "except ImportError as exc:\n"
        "    print(exc.name)"))
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["_blake2"]
