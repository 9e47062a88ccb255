"""Recompute the enum digests for N = 0..12 and 13-14, and the verify
and analyze digests, that ``output_digests.py`` holds and
``test_output_digests.py`` pins, through ``cli.main``, and exit 1 on a
mismatch. It needs no package beyond the standard library. The N =
15-16 enum pins, about 300 MB of output, are left to the test suite. It makes no ``assert``,
so it checks the same under ``python -O``, which strips them (and under
which pytest would pass every test vacuously):

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
from output_digests import (ANALYZE_DIGEST, ANALYZE_FLAGS, ANALYZE_WORDS,
                            ENUM_13_14_DIGESTS, ENUM_DIGESTS, VERIFY_DIGEST,
                            _strip_timing)


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``fibquasi argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def enum_digest(flag: str, indices: range) -> str:
    digest = hashlib.sha256()
    for n in indices:
        code, out = _run(["enum", str(n), f"--{flag}", "--json"])
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


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
    checks = [(f"enum --{flag} 0..12", enum_digest(flag, range(13)), want)
              for flag, want in sorted(ENUM_DIGESTS.items())]
    checks += [(f"enum --{flag} 13..14", enum_digest(flag, range(13, 15)),
                want) for flag, want in sorted(ENUM_13_14_DIGESTS.items())]
    checks += [("verify", verify_digest(), VERIFY_DIGEST),
               ("analyze", analyze_digest(), ANALYZE_DIGEST)]
    for name, got, want in checks:
        ok = got == want
        failed += not ok
        print(f"{name}: {'ok' if ok else f'got {got}, want {want}'}")
    print(f"optimize level {sys.flags.optimize}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_check())
