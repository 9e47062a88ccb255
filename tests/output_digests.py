"""Byte-identity pins for the catalog and verify outputs, with no
dependency beyond the standard library, so that
``check_output_digests.py`` runs where pytest is not installed.

The digests below were recorded from the CLI before ``closed_form`` was
rebuilt around its shape and clause-row tables; a refactor that changes
any form, word, order or byte of these documents fails here. Each enum
digest hashes, for N = 0..12 in turn, the exit code, a newline and the
stdout of ``enum N --<flag> --json``; ``ENUM_13_14_DIGESTS``, recorded
later, does the same for N = 13 and 14, the benchmark's catalog points.
``ENUM_15_16_DIGESTS`` hashes, for N = 15 and 16 in turn, the stdout of
``enum N --<flag> --json --force``, a newline, the exit code and a
newline; the stdout (about 300 MB at N = 16) goes to the hash as it is
written, never held.
Each verify digest hashes the JSON of ``verify --max-n 12 --json`` or
``verify --max-n 17 --cap 17 --json`` with every ``elapsed_ms``
removed. The second checks every cell exactly, up to the seed and
circular-cover catalogs of F_17. ``ANALYZE_DIGEST`` hashes the exit code
and stdout of ``analyze <y>`` with all six set flags and ``--json`` over
``ANALYZE_WORDS``: every binary word of up to 8 letters, then seeded
random words and rotated powers of 16-160 letters (the shapes of the
benchmark's analyze-mixed workload).
"""

import itertools
import random

ENUM_DIGESTS = {
    "borders":
        "0ea5963cf77ce947a3a2d896784c69448aac4e7ab1ecaad89c370a6f4f38e5dd",
    "covers":
        "822829454647a6e2c7190246a452bfc9d25fed0c71e063f8ccf1320e19b15eec",
    "left-seeds":
        "e94692e1bb0d9ef2ae9f274caa0654f1d400631785ea161203abd722dd46934b",
    "right-seeds":
        "9865e501660ecc1ca1624052f83285eaa2d1094fbf818ca44f664a5aee94dc3d",
    "seeds":
        "6963ea876711795ede7300be1115b5ce808c08a9cb7ebd5130c51ed7b865a893",
    "circular":
        "1178efe288c875c8d43990f032bef8bc29ace6de5f20a9a479a5edbbdeee52d6",
}
ENUM_13_14_DIGESTS = {
    "borders":
        "9ce5d5920c606fe7144a5901ba627a8c3a2e2bf609ccf4d2209aaff7ad997f57",
    "circular":
        "60134d3db55bf31638a4b8e7234c14208ae316c81981649a5e8524c8a72a291b",
    "covers":
        "0b334132e673f89fa5524fcf498502387b327e3cedbbe43ed33b87cefbb8a222",
    "left-seeds":
        "06c940424b5b1a9ea52216df13cf78dd4d9228b029f0b242964e81df8b2dec1d",
    "right-seeds":
        "ad5581760e31be66a1e39697c9f0b7a08abebce2846bc4fc7e2127b9ce86ec45",
    "seeds":
        "031cadc423c4399d2b1e170f4e1967740ffef1169bf3cd1cae9dad3f40c3663a",
}
ENUM_15_16_DIGESTS = {
    "circular":
        "bf122eadacc7c629a243c53e9c1155d725eb95a3aca2586a4236926c0495fe5d",
    "seeds":
        "f06966fbb520bb48f9d6beb17b264bb5cc56db6413ccf19a2cc1f227b6310353",
}
VERIFY_DIGEST = (
    "82faedb528c7cded26e84d672999f4446915e160326d68d8088dc11a84e7fbc5")
VERIFY_CAP_17_DIGEST = (
    "00f26b65868a114ff48bed200f37f9621590ff8d100a297227c08719dfc2bb46")
ANALYZE_DIGEST = (
    "b811210807715c9e33e2f3fc9237d21f2ea8c757ef5df48abcdd12faac2e07d1")
ANALYZE_FLAGS = ["--borders", "--covers", "--left-seeds", "--right-seeds",
                 "--seeds", "--circular", "--json"]


def _analyze_words() -> list[str]:
    out = ["".join(letters) for length in range(1, 9)
           for letters in itertools.product("ab", repeat=length)]
    rng = random.Random(7)
    for k in range(24):
        length = 16 + 144 * k // 23
        out.append("".join(rng.choice("ab") for _ in range(length)))
        period = 3 + k % 10
        while True:
            base = "".join(rng.choice("ab") for _ in range(period))
            if (base + base).find(base, 1) == period:
                break
        shift = rng.randrange(period)
        out.append((base * (length // period + 2))[shift:shift + length])
    return out


ANALYZE_WORDS = _analyze_words()


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj
