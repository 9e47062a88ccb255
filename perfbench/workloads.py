"""The four benchmark workloads: their inputs, the timed call, and the
known-answer check for each result.

Each workload is a list of operations built from the seed. `call` is the
only part that is timed; `reduce` turns its raw result into a digest and
a small piece of evidence, and `check` compares that with the known
answer. Known answers live in ``expected.json`` next to this file, except
for verify-suite, whose answer is written out below from DEVIATIONS.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from pathlib import Path

from fibquasi import cli, engine, verify, words

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# The seed whose analyze-mixed outputs are pinned by digest. Other seeds
# are checked against the naive seed oracle instead.
DEFAULT_SEED = 1

ANALYZE_FLAGS = ["--borders", "--covers", "--left-seeds", "--right-seeds",
                 "--seeds", "--circular", "--json"]
CATALOG_FLAGS = ["borders", "covers", "left-seeds", "right-seeds", "seeds",
                 "circular"]
FRONTIER_CAPS = {"borders": 14, "covers": 14, "left_seeds": 14,
                 "right_seeds": 14, "seeds": 14, "circular_covers": 14}
# analyze-mixed words up to this length are short enough for the runtime
# dual seed check; the long ones start at 64 letters.
SHORT_WORD_MAX = 36

# verify --max-n 12: the seed and circular-cover cells for n = 5..10 miss
# exactly "baaba" (DEVIATIONS.md); every other cell and battery passes.
VERIFY_EXIT = 1
VERIFY_SUMMARY = {"cells": 79, "passed": 67, "failed": 12}
VERIFY_FAILING = {(n, cat) for n in range(5, 11)
                  for cat in ("seeds", "circular_covers")}


class _Sink:
    """A write-only text stream that keeps what it is given, uncopied."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def run_cli(argv: list[str]) -> tuple[int, _Sink, _Sink]:
    """`fibquasi <argv>` in this process, stdout and stderr captured."""
    out, err = _Sink(), _Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out, err


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = self.build(random.Random(seed))

    def build(self, rng: random.Random) -> list:
        raise NotImplementedError

    def label(self, op) -> str:
        return str(op)

    def call(self, op):
        raise NotImplementedError

    def reduce(self, op, raw) -> tuple[str, object]:
        """(digest, evidence) of a raw result; evidence is what `check`
        needs and is small enough to keep."""
        raise NotImplementedError

    def check(self, index: int, op, digest: str, evidence) -> str | None:
        """None when the result matches its known answer, else why not."""
        raise NotImplementedError

    @staticmethod
    def stdout_bytes(raw) -> int:
        return 0


class _CliWorkload(Workload):
    def call(self, op):
        return run_cli(self.argv(op))

    def argv(self, op) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def stdout_bytes(raw) -> int:
        return sum(len(part) for part in raw[1].parts)


class VerifySuite(_CliWorkload):
    name = "verify-suite"
    why = ("the command users run most: runtime dual seed check and the "
           "cover_chain battery, with closed_form doing little")

    def build(self, rng):
        return ["verify --max-n 12 --json"]

    def argv(self, op):
        return op.split()

    def reduce(self, op, raw):
        code, out, err = raw
        try:
            doc = _strip_timing(json.loads(out.text()))
        except ValueError:
            return _sha([str(code), out.text(), err.text()]), (code, None)
        text = json.dumps(doc)
        return _sha([str(code), text]), (code, doc)

    def check(self, index, op, digest, evidence):
        code, doc = evidence
        if code != VERIFY_EXIT:
            return f"exit code {code}, expected {VERIFY_EXIT}"
        if doc is None:
            return "stdout is not one JSON document"
        if doc["summary"] != VERIFY_SUMMARY:
            return f"summary {doc['summary']}"
        failing = set()
        for cell in doc["cells"]:
            if cell["passed"]:
                continue
            failing.add((cell["n"], cell["category"]))
            if cell["missing"] != ["baaba"] or cell["extra"] != []:
                return (f"cell n={cell['n']} {cell['category']}: missing "
                        f"{cell['missing']} extra {cell['extra']}")
        if failing != VERIFY_FAILING:
            return f"failing cells {sorted(failing)}"
        if not all(b["passed"] for b in doc["batteries"]):
            return "a property battery failed"
        return None


class Frontier(Workload):
    name = "frontier"
    why = ("the verification frontier: seed and circular-cover cells at "
           "n=13,14 above the default caps, all engine oracles on long "
           "Sturmian words")

    def build(self, rng):
        return [(n, cat) for n in (13, 14)
                for cat in ("seeds", "circular_covers")]

    def label(self, op):
        return f"{op[0]}:{op[1]}"

    def call(self, op):
        return verify.check_category(op[0], op[1], caps=FRONTIER_CAPS)

    def reduce(self, op, raw):
        doc = raw.to_json(include_timing=False)
        return _sha([json.dumps(doc)]), raw

    def check(self, index, op, digest, report):
        enumerated, oracle = EXPECTED["frontier"][self.label(op)]
        got = (report.missing, report.extra, report.enumerated_count,
               report.oracle_count)
        want = (("baaba",), (), enumerated, oracle)
        if got != want:
            return f"(missing, extra, enumerated, oracle) = {got}, want {want}"
        return None


class Catalog(_CliWorkload):
    name = "catalog"
    why = ("all six closed-form catalogs at n=13,14 as JSON: fib_word, "
           "FactorForm.materialize and the JSON emit, no oracle work")

    def build(self, rng):
        return [(n, flag) for n in (13, 14) for flag in CATALOG_FLAGS]

    def label(self, op):
        return f"{op[0]}:{op[1]}"

    def argv(self, op):
        return ["enum", str(op[0]), f"--{op[1]}", "--json"]

    def reduce(self, op, raw):
        code, out, err = raw
        return _sha([str(code), "\n"] + out.parts), (code, err.text())

    def check(self, index, op, digest, evidence):
        code, err = evidence
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if digest != EXPECTED["catalog"][self.label(op)]:
            return "output digest differs from the pinned catalog"
        return None


class AnalyzeMixed(_CliWorkload):
    name = "analyze-mixed"
    why = ("120 analyze calls on random words: half uniform (seed "
           "rejection path), half rotated powers (acceptance path), one in "
           "five short enough for the dual check")

    def build(self, rng):
        # Lengths and periods are fixed; only the letters come from the
        # seed, so every seed asks for about the same amount of work.
        lengths = ([16 + (SHORT_WORD_MAX - 16) * k // 11 for k in range(12)]
                   + [64 + 96 * k // 47 for k in range(48)])
        ops = []
        for i, length in enumerate(lengths):
            ops.append("".join(rng.choice("ab") for _ in range(length)))
            period = 3 + i % 10
            base = _primitive_word(rng, period)
            shift = rng.randrange(period)
            ops.append((base * (length // period + 2))[shift:shift + length])
        rng.shuffle(ops)
        return ops

    def label(self, op):
        return op

    def argv(self, op):
        return ["analyze", op] + ANALYZE_FLAGS

    def reduce(self, op, raw):
        code, out, err = raw
        text = out.text()
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        return _sha([str(code), "\n", text]), (code, doc, err.text())

    def check(self, index, op, digest, evidence):
        code, doc, err = evidence
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if self.seed == DEFAULT_SEED:
            if digest != EXPECTED["analyze-mixed"][index]:
                return "output digest differs from the pinned answer"
            return None
        return _analyze_laws(op, doc)


def _primitive_word(rng: random.Random, length: int) -> str:
    """A random word that is not a power of a shorter word, so a rotated
    power of it has exactly this period."""
    while True:
        word = "".join(rng.choice("ab") for _ in range(length))
        if (word + word).find(word, 1) == length:
            return word


def _analyze_laws(y: str, doc) -> str | None:
    """Answer check for an analyze result without a pinned digest.

    Inclusions that hold for every word, plus, for the short words, the
    full seed set recomputed with the exhaustive oracle."""
    if doc is None or doc.get("word") != y:
        return "stdout is not the analyze document for this word"
    sets = {key: set(doc[key]) for key in (
        "borders", "covers", "left_seeds", "right_seeds", "seeds",
        "circular_covers")}
    if not sets["covers"] <= sets["borders"] | {y}:
        return "a cover is not a border"
    if not sets["covers"] <= sets["left_seeds"] & sets["right_seeds"]:
        return "a cover is not a left and right seed"
    if not sets["left_seeds"] | sets["right_seeds"] <= sets["seeds"]:
        return "a left or right seed is not a seed"
    if not sets["covers"] <= sets["circular_covers"]:
        return "a cover is not a circular cover"
    if len(y) <= SHORT_WORD_MAX:
        naive = [u for u in engine.distinct_factors(y)
                 if engine.is_seed(u, y)[0]]
        if doc["seeds"] != words.canonical(naive):
            return "seeds differ from the exhaustive is_seed oracle"
    return None


WORKLOADS = {cls.name: cls for cls in (VerifySuite, Frontier, Catalog,
                                       AnalyzeMixed)}
