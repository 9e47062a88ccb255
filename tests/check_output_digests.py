"""Recompute the verify and analyze digests that
``test_output_digests.py`` pins, through ``cli.main``, and exit 1 on a
mismatch. It makes no ``assert``, so it checks the same under
``python -O``, which strips them (and under which pytest would pass
every test vacuously):

    PYTHONPATH=src:tests python -O tests/check_output_digests.py

Its name does not match ``test_*.py``, so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from fibquasi.cli import main
from test_output_digests import (ANALYZE_DIGEST, ANALYZE_FLAGS,
                                 ANALYZE_WORDS, VERIFY_DIGEST, _strip_timing)


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``fibquasi argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def verify_digest() -> str:
    code, out = _run(["verify", "--max-n", "12", "--json"])
    if code != 1:
        return f"exit code {code}"
    doc = _strip_timing(json.loads(out))
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def analyze_digest() -> str:
    digest = hashlib.sha256()
    for y in ANALYZE_WORDS:
        code, out = _run(["analyze", y] + ANALYZE_FLAGS)
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


def main_check() -> int:
    os.environ.pop("FIBQUASI_NMAX", None)
    failed = 0
    for name, got, want in (("verify", verify_digest(), VERIFY_DIGEST),
                            ("analyze", analyze_digest(), ANALYZE_DIGEST)):
        ok = got == want
        failed += not ok
        print(f"{name}: {'ok' if ok else f'got {got}, want {want}'}")
    print(f"optimize level {sys.flags.optimize}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_check())
