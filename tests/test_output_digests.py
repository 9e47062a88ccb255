"""Byte-identity pins for the catalog and verify outputs; the digests
and what each one hashes are in ``output_digests.py``."""

import hashlib
import json
import sys

import pytest

from fibquasi.cli import main
from output_digests import (ANALYZE_DIGEST, ANALYZE_FLAGS, ANALYZE_WORDS,
                            ENUM_13_14_DIGESTS, ENUM_15_16_DIGESTS,
                            ENUM_DIGESTS, VERIFY_CAP_17_DIGEST,
                            VERIFY_DIGEST, _strip_timing)


@pytest.fixture(autouse=True)
def _default_guard(monkeypatch):
    monkeypatch.delenv("FIBQUASI_NMAX", raising=False)


@pytest.mark.parametrize("flag", sorted(ENUM_DIGESTS))
def test_enum_json_is_byte_identical(capsys, flag):
    digest = hashlib.sha256()
    for n in range(13):
        code = main(["enum", str(n), f"--{flag}", "--json"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == ENUM_DIGESTS[flag]


@pytest.mark.parametrize("flag", sorted(ENUM_13_14_DIGESTS))
def test_enum_json_at_13_and_14_is_byte_identical(capsys, flag):
    digest = hashlib.sha256()
    for n in range(13, 15):
        code = main(["enum", str(n), f"--{flag}", "--json"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == ENUM_13_14_DIGESTS[flag]


class _HashingStdout:
    """A stdout that feeds what is written to ``digest``."""

    def __init__(self, digest):
        self.digest = digest

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("flag", sorted(ENUM_15_16_DIGESTS))
def test_enum_json_at_15_and_16_is_byte_identical(monkeypatch, flag):
    digest = hashlib.sha256()
    for n in (15, 16):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _HashingStdout(digest))
            code = main(["enum", str(n), f"--{flag}", "--json", "--force"])
        digest.update(f"\n{code}\n".encode())
    assert digest.hexdigest() == ENUM_15_16_DIGESTS[flag]


def test_verify_json_is_byte_identical_modulo_timing(capsys):
    code = main(["verify", "--max-n", "12", "--json"])
    doc = _strip_timing(json.loads(capsys.readouterr().out))
    assert code == 1
    assert (hashlib.sha256(json.dumps(doc).encode()).hexdigest()
            == VERIFY_DIGEST)


def test_verify_cap_17_json_is_byte_identical_modulo_timing(capsys):
    code = main(["verify", "--max-n", "17", "--cap", "17", "--json"])
    doc = _strip_timing(json.loads(capsys.readouterr().out))
    assert code == 1
    assert (hashlib.sha256(json.dumps(doc).encode()).hexdigest()
            == VERIFY_CAP_17_DIGEST)


def test_analyze_json_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for y in ANALYZE_WORDS:
        code = main(["analyze", y] + ANALYZE_FLAGS)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == ANALYZE_DIGEST
