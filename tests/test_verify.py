import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fibquasi import closed_form, engine, fib, verify, words
from fibquasi.closed_form import (KIND_FIB_PLUS_PREFIX, KIND_LITERAL,
                                  KIND_PLAIN_FIB, KIND_SUFFIX_FIB_FIB_PREFIX,
                                  Row)
from fibquasi.engine import distinct_factors
from fibquasi.errors import SizeLimitError
from fibquasi.fib import fib_len, fib_word, fib_words
from fibquasi.verify import (CATEGORIES, REGISTRY, QuasiReport, SuiteConfig,
                             _cap, _diagnose, check_category, run_suite)

FINDING_CATEGORIES = ("seeds", "circular_covers")
EXPECTED_FINDING_CELLS = {(n, cat) for n in range(5, 11)
                          for cat in FINDING_CATEGORIES}


@pytest.fixture(scope="module")
def full_suite():
    return run_suite(SuiteConfig(n_lo=0, n_hi=12))


def test_check_category_covers():
    report = check_category(6, "covers")
    assert report.passed
    assert (report.enumerated_count, report.oracle_count) == (2, 2)


def test_check_category_seeds_small_index():
    report = check_category(4, "seeds")
    assert report.passed
    assert report.enumerated_count == report.oracle_count == 6


def test_check_category_reports_known_finding():
    report = check_category(5, "seeds")
    assert not report.passed
    assert report.missing == ("baaba",)
    assert report.extra == ()
    diag = report.diagnostics[0]
    assert diag["word"] == "baaba" and diag["side"] == "missing"
    assert {"kind": "SuffixFibPrefix", "m": 3, "left_len": 2,
            "right_len": 0} in diag["clauses"]


def test_check_category_circular_counts():
    report = check_category(5, "circular_covers")
    assert (report.enumerated_count, report.oracle_count) == (4, 5)
    assert report.missing == ("baaba",)


def test_check_category_cap():
    with pytest.raises(SizeLimitError):
        check_category(11, "seeds")
    with pytest.raises(SizeLimitError):
        check_category(15, "borders")
    with pytest.raises(ValueError):
        check_category(5, "periods")


def test_partial_caps_fall_back_to_default_caps():
    partial = {"seeds": 10}
    suite = run_suite(SuiteConfig(n_hi=3, caps=partial))
    assert {c.category for c in suite.cells} == set(CATEGORIES)
    assert suite.all_passed
    assert check_category(3, "borders", caps=partial).passed
    with pytest.raises(SizeLimitError):
        check_category(15, "borders", caps=partial)
    with pytest.raises(SizeLimitError):
        check_category(5, "seeds", caps={"seeds": 4})


def test_registry_oracles_match_predicates():
    # Predicates only run on disputed words in a verify cell, so this is
    # what catches a predicate wired to the wrong category.
    subjects = ["".join(letters) for length in range(1, 11)
                for letters in itertools.product("ab", repeat=length)]
    subjects += [fib_word(n) for n in range(10)]
    for record in REGISTRY.values():
        for y in subjects:
            assert record.oracle(y) == [
                u for u in distinct_factors(y)
                if record.predicate(u, y)], (record.name, y)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n_lo=-1, n_hi=5).validate()
    with pytest.raises(ValueError):
        SuiteConfig(n_lo=6, n_hi=5).validate()
    with pytest.raises(ValueError):
        SuiteConfig(n_hi=999).validate()
    with pytest.raises(ValueError):
        SuiteConfig(n_hi=5, categories=("periods",)).validate()
    SuiteConfig(n_hi=12).validate()


def test_handle_cell_caps_pass_the_size_bound():
    # every cell holds O(|F_n|) letters, so only the index guard and the
    # exact length limit bound a cap
    for category in CATEGORIES:
        SuiteConfig(n_hi=5, caps={category: 18}).validate()
    SuiteConfig(n_hi=5, caps=dict.fromkeys(CATEGORIES, 18)).validate()


def test_every_category_has_rows_and_a_rule():
    for record in REGISTRY.values():
        n = 9
        assert (closed_form.CATALOGS[record.name][0](n)
                and callable(record.rule(fib_word(n))))
        assert record.cyclic == (record.name == "circular_covers")


@pytest.mark.parametrize("category", CATEGORIES)
def test_check_category_reads_the_guard_once(monkeypatch, category):
    reads = []
    real = fib.materialization_limit

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(fib, "materialization_limit", counting)
    report = check_category(9, category)
    assert len(reads) == 1
    # at n=9 the seed and circular cells diagnose a missing word from
    # the same table
    assert report.missing == (("baaba",) if category in FINDING_CATEGORIES
                              else ())


def test_cap_errors_name_the_cap_and_category():
    with pytest.raises(ValueError,
                       match=r"^cap -1 for seeds must be nonnegative$"):
        SuiteConfig(n_hi=3, caps={"seeds": -1}).validate()
    with pytest.raises(SizeLimitError,
                       match=r"^cap 95 for seeds exceeds the exact length "
                             r"limit, index 90$"):
        SuiteConfig(n_hi=3, caps={"seeds": 95}).validate()


def test_suite_cell_outcomes(full_suite):
    failing = {(c.n, c.category) for c in full_suite.cells if not c.passed}
    assert failing == EXPECTED_FINDING_CELLS
    for cell in full_suite.cells:
        if not cell.passed:
            assert cell.missing == ("baaba",) and cell.extra == ()


def test_suite_respects_caps(full_suite):
    seen = {(c.n, c.category) for c in full_suite.cells}
    assert (10, "seeds") in seen and (11, "seeds") not in seen
    assert (12, "borders") in seen


def test_suite_batteries_pass(full_suite):
    assert all(b.passed for b in full_suite.batteries)
    assert {b.name for b in full_suite.batteries} == {
        "cover_chain", "expansion_determinism", "occurrence_fast_path",
        "near_miss_left_seeds", "near_miss_right_seeds"}


def test_suite_summary(full_suite):
    summary = full_suite.summary
    entries = len(full_suite.cells) + len(full_suite.batteries)
    assert summary["cells"] == entries
    assert summary["failed"] == len(EXPECTED_FINDING_CELLS)
    assert summary["passed"] == entries - summary["failed"]
    assert not full_suite.all_passed


def test_small_ranges_pass():
    assert run_suite(SuiteConfig(n_lo=0, n_hi=4)).all_passed
    assert run_suite(SuiteConfig(n_lo=0, n_hi=2)).all_passed
    only_ls = run_suite(SuiteConfig(n_lo=5, n_hi=5,
                                    categories=("left_seeds",)))
    (cell,) = only_ls.cells
    assert cell.passed
    assert (cell.enumerated_count, cell.oracle_count) == (5, 5)


def test_suite_is_deterministic(full_suite):
    again = run_suite(SuiteConfig(n_lo=0, n_hi=12))
    first = full_suite.to_json_lines(include_timing=False)
    second = again.to_json_lines(include_timing=False)
    assert first == second


def test_json_lines_shape(full_suite):
    lines = full_suite.to_json_lines()
    docs = [json.loads(line) for line in lines]
    assert docs[-1] == full_suite.summary
    cells = [d for d in docs if "category" in d]
    batteries = [d for d in docs if "battery" in d]
    assert len(cells) == len(full_suite.cells)
    assert len(batteries) == len(full_suite.batteries)
    for doc in cells:
        assert set(doc) == {"n", "category", "passed", "enumerated_count",
                            "oracle_count", "missing", "extra",
                            "diagnostics", "elapsed_ms"}


def test_cells_in_deterministic_order(full_suite):
    order = [(c.n, CATEGORIES.index(c.category)) for c in full_suite.cells]
    assert order == sorted(order)


# The word cell that every category ran before the cells moved to names,
# kept as the test reference: it spells both sides and compares word
# sets, and names the forms that spell an extra word by spelling every
# form of the catalog.
def _extra_diagnosis(word, table, enum_result):
    return {"word": word, "side": "extra",
            "clauses": [f.to_json() for f in enum_result.forms
                        if f.spell(table) == word]}


def _check_category_by_words(n, category, caps=None):
    record = REGISTRY.get(category)
    if record is None:
        raise ValueError(f"unknown category {category!r}")
    cap = _cap(record, caps)
    if n > cap:
        raise SizeLimitError(
            f"index {n} exceeds the oracle cap {cap} for {category}")
    t0 = time.perf_counter()
    enum_result = closed_form.catalog(n, category)
    subject = fib_word(n)
    enumerated = set(enum_result.words)
    expected = set(record.oracle(subject))
    missing = tuple(words.canonical(expected - enumerated))
    extra = tuple(words.canonical(enumerated - expected))
    for w in missing:
        if not record.predicate(w, subject):
            raise RuntimeError(
                f"unsound report: {w!r} classified missing but fails the "
                f"{category} predicate at n={n}")
    for w in extra:
        if record.predicate(w, subject):
            raise RuntimeError(
                f"unsound report: {w!r} classified extra but passes the "
                f"{category} predicate at n={n}")
    table = fib_words(n)
    diagnostics = tuple(_diagnose(w, table) for w in missing)
    diagnostics += tuple(_extra_diagnosis(w, table, enum_result)
                         for w in extra)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return QuasiReport(n, category, len(enumerated), len(expected),
                       missing, extra, diagnostics, elapsed)


def _untimed(report):
    return dataclasses.replace(report, elapsed_ms=0.0)


def _assert_handle_equals_words(n, category):
    caps = {category: n}
    assert (_untimed(check_category(n, category, caps))
            == _untimed(_check_category_by_words(n, category, caps)))


def _patch_rows(monkeypatch, category, rows_of):
    """Swap the catalog's rows for ``rows_of(real_rows, n)``."""
    real, refuses = closed_form.CATALOGS[category]
    monkeypatch.setitem(closed_form.CATALOGS, category,
                        (lambda n: rows_of(real, n), refuses))


def _add_rows(monkeypatch, category, extra_rows):
    _patch_rows(monkeypatch, category, lambda real, n: real(n) + extra_rows)


@pytest.mark.parametrize("category", CATEGORIES)
def test_handle_cell_equals_word_cell(category):
    for n in range(15):
        _assert_handle_equals_words(n, category)
        report = check_category(n, category, {category: n})
        assert report.missing == (
            ("baaba",) if n >= 5 and category in FINDING_CATEGORIES
            else ()), n
        assert report.extra == (), n


# The per-length cell that verify._Cell replaced, kept as its test
# reference: at every length it reads the name at the start of every
# active group and takes the whole list of a per-length rule.
class _PerLengthCell(verify._Cell):
    RULES = {"seeds": engine.seed_rule,
             "circular_covers": engine.circular_rule}

    def __init__(self, n, record, table):
        super().__init__(n, record, table)
        self.rule = self.RULES.get(record.name, record.rule)(self.subject)
        self.active = {}  # group -> its start in F_n

    def step(self, naming):
        k, names = naming.k, naming.names
        active, groups = self.active, self.groups
        for g in self.closing[k]:
            del active[g]
        for g in self.opening[k]:
            active[g] = groups[g].p
        accepted = self.rule(naming)
        if not active and not accepted:
            return
        found = list(map(names.__getitem__, active.values()))
        catalog, wanted = set(found), set(accepted)
        in_rows = {(groups[g].row, x): g for g, x in zip(active, found)}
        if len(in_rows) < len(found):
            g = next(g for g, x in zip(active, found)
                     if in_rows[groups[g].row, x] != g)
            raise RuntimeError(closed_form._repeat_error(
                self.n, self.record.name, groups[g].form.kind))
        self.enumerated += len(catalog)
        self.expected += len(wanted)
        self.missing += [self.subject[x:x + k] for x in wanted - catalog]
        for x in catalog - wanted:
            word = self.subject[x:x + k]
            forms = [groups[g].form_at(k) for g in sorted(active)
                     if names[groups[g].p] == x]
            self.extra[word] = {"word": word, "side": "extra", "clauses": [
                f.to_json() for f in dict.fromkeys(forms)]}


@pytest.mark.parametrize("category", CATEGORIES)
def test_cell_equals_the_per_length_cell(monkeypatch, category):
    caps = {category: 16}
    reports = [_untimed(check_category(n, category, caps))
               for n in range(17)]
    monkeypatch.setattr(verify, "_Cell", _PerLengthCell)
    assert reports == [_untimed(check_category(n, category, caps))
                       for n in range(17)]


@pytest.mark.parametrize("category", CATEGORIES)
def test_handle_cell_reports_a_mutant_row_like_the_word_cell(
        monkeypatch, category):
    # F_5 extended by up to all of F_4 (the printed row stops two
    # letters short), one of its members as a literal in an earlier row,
    # and F_2 = "ab" twice, as a plain row and as a literal. The extra
    # words must come with the same clauses, in row order, also where a
    # later row's group spans more lengths than an earlier one's.
    _add_rows(monkeypatch, category, [
        Row(KIND_LITERAL, 0, literal="abaababaabaa"),
        Row(KIND_FIB_PLUS_PREFIX, 5, rights=range(fib_len(4) + 1)),
        Row(KIND_PLAIN_FIB, 2), Row(KIND_LITERAL, 0, literal="ab")])
    for n in (7, 8, 9):
        _assert_handle_equals_words(n, category)
    report = check_category(9, category, {category: 9})
    if category in FINDING_CATEGORIES:
        assert report.extra == ("ab", "abaababaabaa")
    extra = {d["word"]: d for d in report.diagnostics if d["side"] == "extra"}
    assert (extra["ab"], extra["abaababaabaa"]) == (
        {"word": "ab", "side": "extra", "clauses": [
            {"kind": KIND_PLAIN_FIB, "m": 2, "left_len": 0, "right_len": 0},
            {"kind": KIND_LITERAL, "m": 0, "left_len": 0, "right_len": 0,
             "word": "ab"}]},
        {"word": "abaababaabaa", "side": "extra", "clauses": [
            {"kind": KIND_LITERAL, "m": 0, "left_len": 0, "right_len": 0,
             "word": "abaababaabaa"},
            {"kind": KIND_FIB_PLUS_PREFIX, "m": 5, "left_len": 0,
             "right_len": 4}]})


@pytest.mark.parametrize("category", CATEGORIES)
def test_handle_cell_reports_a_dropped_row_like_the_word_cell(
        monkeypatch, category):
    # Without its last row a catalog misses words, the border and the
    # cover among them at a length where no other group is active.
    _patch_rows(monkeypatch, category, lambda real, n: real(n)[:-1])
    for n in (7, 8, 9):
        _assert_handle_equals_words(n, category)
    assert check_category(9, category, {category: 9}).missing


@pytest.mark.parametrize("category",
                         ("left_seeds", "seeds", "circular_covers"))
def test_handle_cell_reports_a_shortened_row_like_the_word_cell(
        monkeypatch, category):
    # Rows cut short by their last right length drop their longest
    # members, so names leave the catalog while the rule still accepts
    # them (the other catalogs have no row with two right lengths).
    _patch_rows(monkeypatch, category, lambda real, n: [
        r._replace(rights=r.rights[:-1]) if len(r.rights) > 1 else r
        for r in real(n)])
    for n in (7, 8, 9):
        _assert_handle_equals_words(n, category)
    assert check_category(9, category, {category: 9}).missing


def _word_cell_error(n, category):
    with pytest.raises(RuntimeError) as caught:
        closed_form.catalog(n, category, force=True)
    return str(caught.value)


@pytest.mark.parametrize("category", CATEGORIES)
@pytest.mark.parametrize("row", [
    # a row whose longest member at one left length is not a factor of
    # F_7, and a literal that is not one
    Row(KIND_SUFFIX_FIB_FIB_PREFIX, 5, lefts=range(1, 3), rights=range(6)),
    Row(KIND_LITERAL, 0, literal="bb"),
])
def test_handle_cell_raises_the_builders_non_factor_error(
        monkeypatch, category, row):
    _add_rows(monkeypatch, category, [row])
    message = _word_cell_error(7, category)
    assert "not a factor of the index-7 word" in message
    with pytest.raises(RuntimeError) as caught:
        check_category(7, category, {category: 7})
    assert str(caught.value) == message


@pytest.mark.parametrize("category", CATEGORIES)
@pytest.mark.parametrize("row", [
    # two left lengths of a kind without a left part spell the same
    # members, which only the length sweep sees
    Row(KIND_FIB_PLUS_PREFIX, 5, lefts=range(2), rights=range(6)),
    # a right length past the end of the source repeats the member
    Row(KIND_PLAIN_FIB, 3, rights=range(2)),
])
def test_handle_cell_raises_the_builders_duplicate_error(
        monkeypatch, category, row):
    _add_rows(monkeypatch, category, [row])
    message = _word_cell_error(7, category)
    assert message == (f"family produced duplicate members at n=7, "
                       f"category={category}: {row.kind}")
    with pytest.raises(RuntimeError) as caught:
        check_category(7, category, {category: 7})
    assert str(caught.value) == message


@pytest.mark.parametrize("category", CATEGORIES)
@pytest.mark.parametrize("row", [
    Row(KIND_FIB_PLUS_PREFIX, 5, lefts=range(2), rights=range(6)),
    Row(KIND_PLAIN_FIB, 3, rights=range(2)),
])
def test_handle_cell_raises_the_duplicate_error_without_the_builder(
        monkeypatch, category, row):
    _add_rows(monkeypatch, category, [row])

    def no_build(*args, **kwargs):
        raise AssertionError("the word catalog was spelled")

    monkeypatch.setattr(closed_form, "_build", no_build)
    with pytest.raises(RuntimeError) as caught:
        check_category(7, category, {category: 7})
    assert str(caught.value) == (f"family produced duplicate members at "
                                 f"n=7, category={category}: {row.kind}")


# The cells at indices 15 and 16, printed by a child process. The word
# cell at index 16 holds every member of both sides as a string (about
# 670 MB); the handle cell holds O(|F_n|) letters.
_F16_CELLS = """
from fibquasi.verify import check_category
for n in (15, 16):
    for category in ("seeds", "circular_covers"):
        r = check_category(n, category, caps={category: n})
        print(n, category, r.missing, r.extra, r.enumerated_count,
              r.oracle_count)
"""
# Runs the script given as its argument in a child and prints the
# child's peak RSS in kilobytes. A forked child's peak RSS starts at its
# parent's RSS, so the cells run as the child of this small process,
# not of the test process.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-c", sys.argv[1]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _cells_in_a_child(script):
    """The lines the cells print, and the peak RSS of their process in
    kilobytes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("FIBQUASI_NMAX", None)
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *cells, peak_kb = proc.stdout.splitlines()
    return cells, int(peak_kb)


def test_handle_cells_through_f16_fit_in_100_mb():
    cells, peak_kb = _cells_in_a_child(_F16_CELLS)
    assert cells == [
        "15 seeds ('baaba',) () 115246 115247",
        "15 circular_covers ('baaba',) () 114492 114493",
        "16 seeds ('baaba',) () 301457 301458",
        "16 circular_covers ('baaba',) () 300237 300238"]
    assert peak_kb < 100 * 1024


# The four linear cells at indices 15 and 16, past the 2000-letter
# refusal that bounded their caps while they spelled both sides.
_F16_LINEAR_CELLS = """
from fibquasi.verify import check_category
for n in (15, 16):
    for category in ("borders", "covers", "left_seeds", "right_seeds"):
        r = check_category(n, category, caps={category: n})
        print(n, category, r.passed, r.enumerated_count, r.oracle_count)
"""


def test_linear_cells_through_f16_fit_in_100_mb():
    cells, peak_kb = _cells_in_a_child(_F16_LINEAR_CELLS)
    assert cells == [
        "15 borders True 7 7", "15 covers True 7 7",
        "15 left_seeds True 974 974", "15 right_seeds True 384 384",
        "16 borders True 7 7", "16 covers True 7 7",
        "16 left_seeds True 1583 1583", "16 right_seeds True 617 617"]
    assert peak_kb < 100 * 1024


# Past F_16 no word-level reference fits, so the rules are re-checked
# on a seeded sample at F_17: one pass per rule picks one accepted and
# one rejected first-start name at each length, 100 of each are drawn,
# spelled and decided by the per-word predicate. It prints the number
# of words of each kind that agree, then every word that does not.
_F17_SAMPLE = """
import random
from fibquasi import engine
from fibquasi.fib import fib_word
from fibquasi.verify import REGISTRY
y = fib_word(17)
rng = random.Random(17)
for name, text in (("seeds", y), ("circular_covers", y + y)):
    rule = REGISTRY[name].rule(y)
    picked = {True: [], False: []}
    for naming in engine.Naming(text, len(y)):
        accepted = sorted(rule(naming))
        rejected = sorted(set(naming.firsts).difference(accepted))
        for verdict, xs in ((True, accepted), (False, rejected)):
            if xs:
                x = rng.choice(xs)
                picked[verdict].append(text[x:x + naming.k])
    line, wrong = [name], []
    for verdict in (True, False):
        drawn = rng.sample(picked[verdict], 100)
        bad = [u for u in drawn
               if REGISTRY[name].predicate(u, y) != verdict]
        line.append(len(drawn) - len(bad))
        wrong += bad
    print(*line, *wrong)
"""


def test_rules_agree_with_the_predicates_on_a_sample_at_f17():
    lines, peak_kb = _cells_in_a_child(_F17_SAMPLE)
    assert lines == ["seeds 100 100", "circular_covers 100 100"]
    assert peak_kb < 100 * 1024


# The left and right seeds of F_20 on the pass, past the memory the
# oracles took while the cells spelled them (76 MB for the left seeds).
_F20_SEED_ENDS = """
from fibquasi.verify import check_category
for category in ("left_seeds", "right_seeds"):
    r = check_category(20, category, caps={category: 20})
    print(category, r.passed, r.enumerated_count, r.oracle_count)
"""


def test_left_and_right_seed_cells_at_f20_fit_in_40_mb():
    cells, peak_kb = _cells_in_a_child(_F20_SEED_ENDS)
    assert cells == ["left_seeds True 10928 10928",
                     "right_seeds True 4190 4190"]
    assert peak_kb < 40 * 1024


# The seed and circular-cover cells of F_20, where the per-length cells
# took 12.7 s each: the event rules decide a name only at an event.
_F20_SEED_CELLS = """
from fibquasi.verify import check_category
for category in ("seeds", "circular_covers"):
    r = check_category(20, category, caps={category: 20})
    print(category, r.missing, r.extra, r.enumerated_count, r.oracle_count)
"""


def test_seed_and_circular_cells_at_f20_fit_in_40_mb():
    cells, peak_kb = _cells_in_a_child(_F20_SEED_CELLS)
    assert cells == ["seeds ('baaba',) () 14145122 14145123",
                     "circular_covers ('baaba',) () 14136760 14136761"]
    assert peak_kb < 40 * 1024


def test_right_seed_verdicts_equal_is_right_seed():
    # the near-miss battery's candidates, which are never right seeds,
    # and the suffixes of F_n, some of which are
    for n in range(5, 17):
        subject = fib_word(n)
        tail, source = fib_word(n - 4), fib_word(n - 3)
        candidates = [source[len(source) - l:] + tail
                      for l in range(1, len(source))]
        candidates += [subject[len(subject) - k:]
                       for k in range(1, len(subject) + 1)]
        verdicts = list(verify._right_seed_verdicts(subject, candidates))
        assert verdicts == [engine.is_right_seed(c, subject)
                            for c in candidates], n
        assert any(verdicts), n


def test_linear_rules_equal_the_spelled_oracles():
    # No cell calls an oracle, so this is what ties the linear rules to
    # the oracles that analyze prints.
    rng = random.Random(20)
    subjects = ["".join(letters) for length in range(1, 11)
                for letters in itertools.product("ab", repeat=length)]
    for _ in range(150):
        subjects.append("".join(rng.choice("ab")
                                for _ in range(rng.randint(11, 60))))
        base = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        power = base * rng.randint(2, 10)
        r = rng.randrange(len(power))
        subjects.append(power[r:] + power[:r])
    subjects += [fib_word(n) for n in range(15)]
    for category in ("borders", "covers", "left_seeds", "right_seeds"):
        record = REGISTRY[category]
        for y in subjects:
            assert (engine._accepted(y, len(y), record.rule(y))
                    == words.canonical(record.oracle(y))), (category, y)


@pytest.mark.parametrize("oracle, category", [
    ("borders", "borders"), ("covers_of", "covers"),
    ("left_seeds_of", "left_seeds"), ("right_seeds_of", "right_seeds")])
def test_linear_cell_names_an_oracle_word_inside_f_n_like_the_word_cell(
        monkeypatch, oracle, category):
    # "baab" is a factor of F_7 (first at start 1) at neither end, and in
    # none of the four sets: a rule and an oracle wrapped to take it too
    # make the cell and the word cell classify it missing, and the
    # predicate re-check refuses it
    assert fib_word(7).find("baab") == 1
    module = words if category == "borders" else engine
    real_oracle = getattr(module, oracle)
    monkeypatch.setattr(module, oracle, lambda y: real_oracle(y) + ["baab"])
    record = REGISTRY[category]

    def rule(y):
        real = record.rule(y)
        return engine.Listed(lambda naming: sorted(
            real(naming) | ({1} if naming.k == 4 else set())))

    monkeypatch.setitem(REGISTRY, category,
                        dataclasses.replace(record, rule=rule))
    with pytest.raises(RuntimeError) as words_error:
        _check_category_by_words(7, category)
    with pytest.raises(RuntimeError) as names_error:
        check_category(7, category)
    assert str(names_error.value) == str(words_error.value) == (
        f"unsound report: 'baab' classified missing but fails the "
        f"{category} predicate at n=7")
