import gc
import json
import random
import sys
from typing import NamedTuple

import pytest

from fibquasi import cli, closed_form, fib
from fibquasi.closed_form import (CATALOGS,
                                  FactorForm, KIND_FIB_PLUS_PREFIX,
                                  KIND_LITERAL, KIND_PLAIN_FIB, KIND_SUFFIX_FIB_FIB_PREFIX,
                                  KIND_SUFFIX_PLUS_FIB,
                                  KIND_SUFFIX_FIB_PREFIX, SHAPES, Row, _build,
                                  _parts, catalog, enum_borders,
                                  enum_circular_covers,
                                  enum_covers, enum_left_seeds,
                                  enum_right_seeds, enum_seeds, groups,
                                  nearest_forms)
from fibquasi.engine import is_seed_fast, refuse_oversize
from fibquasi.errors import SizeLimitError
from fibquasi.fib import _check_index, fib_len, fib_word, fib_words
from fibquasi.words import canonical
from fibquasi.verify import CATEGORIES

from catalog_references import lengths, repeats
from placement_reference import groups_by_left_length


def test_borders_catalog():
    assert enum_borders(5).words == ("a", "aba")
    assert enum_borders(2).words == ()
    assert enum_borders(8).words == (
        fib_word(2), fib_word(4), fib_word(6))


def test_covers_catalog():
    assert [len(w) for w in enum_covers(7).words] == [3, 8, 21]
    assert enum_covers(3).words == ("aba",)
    assert [len(w) for w in enum_covers(8).words] == [5, 13, 34]


def test_left_seeds_catalog():
    assert enum_left_seeds(3).words == ("ab", "aba")
    assert [len(w) for w in enum_left_seeds(6).words] == [
        3, 5, 6, 8, 9, 10, 11, 12, 13]
    assert enum_left_seeds(4).words == ("aba", "abaa", "abaab")


def test_right_seeds_catalog():
    assert enum_right_seeds(5).words == (
        "aba", "ababa", "aababa", "baababa", "abaababa")
    assert enum_right_seeds(2).words == ("ab",)
    assert len(enum_right_seeds(6).words) == 7


def test_seeds_catalog():
    result = enum_seeds(4)
    expected = set(enum_left_seeds(4).words) | set(enum_right_seeds(4).words)
    expected.add("baa")
    assert set(result.words) == expected
    assert enum_seeds(1).words == ("a",)
    assert "aabab" in enum_seeds(5).words


def test_seeds_literal_form_only_at_four():
    literals = [f for f in enum_seeds(4).forms if f.kind == KIND_LITERAL]
    assert [f.literal for f in literals] == ["baa"]
    for n in (3, 5, 6):
        assert not [f for f in enum_seeds(n).forms
                    if f.kind == KIND_LITERAL]


def test_seeds_narrow_families_empty_at_five():
    # the x F_{m-1} F_m y family has no valid base below index 6
    assert not [f for f in enum_seeds(5).forms
                if f.kind == KIND_SUFFIX_FIB_FIB_PREFIX]


def test_circular_catalog():
    assert enum_circular_covers(4).words == ("aba", "abaab")
    assert enum_circular_covers(5).words == (
        "aba", "abaab", "abaaba", "abaababa")
    assert enum_circular_covers(0).words == ("b",)


def test_all_members_are_factors():
    for n in range(0, 13):
        subject = fib_word(n)
        for category in CATEGORIES:
            if category in ("seeds", "circular_covers") and n > 10:
                continue
            result = catalog(n, category)
            assert all(w in subject for w in result.words), (n, category)


def test_forms_materialize_into_word_set():
    for n in range(0, 11):
        for category in CATEGORIES:
            result = catalog(n, category)
            members = set(result.words)
            assert all(f.materialize() in members for f in result.forms)


def test_table_spelling_matches_materialize():
    for n in range(0, 13):
        for category in CATEGORIES:
            result = catalog(n, category)
            assert set(result.words) == {
                f.materialize() for f in result.forms}, (n, category)


@pytest.mark.parametrize("kind, base", [
    (KIND_FIB_PLUS_PREFIX, 0),
    (KIND_SUFFIX_PLUS_FIB, 0),
    (KIND_SUFFIX_FIB_FIB_PREFIX, 0),
    (KIND_SUFFIX_FIB_PREFIX, 2),
])
def test_low_base_forms_raise_instead_of_wrapping(kind, base):
    form = FactorForm(kind, base, left_len=1, right_len=1)
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        form.materialize()
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        form.spell(fib_words(8))


@pytest.mark.parametrize("kind", list(SHAPES))
def test_high_base_forms_raise_instead_of_indexing_past_the_table(kind):
    form = FactorForm(kind, 9, left_len=1, right_len=1)
    with pytest.raises(ValueError,
                       match=r"^base 9 is above the table's top index 8$"):
        form.spell(fib_words(8))
    row = Row(kind, 7, lefts=range(2), rights=range(2))
    for n in (5, 6):
        runs, expected = _both_placements(fib_words(n), [row])
        assert runs == expected == (
            f"ValueError: base 7 is above the table's top index {n}"), n


def test_catalog_build_reads_guard_once_per_table(monkeypatch):
    reads = []
    real = fib.materialization_limit

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(fib, "materialization_limit", counting)
    enum_seeds(12)
    assert 0 < len(reads) <= 20


@pytest.mark.parametrize("build", [lambda: enum_covers(5),
                                   lambda: enum_seeds(8)])
def test_catalog_build_reads_guard_once(monkeypatch, build):
    reads = []
    real = fib.materialization_limit

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(fib, "materialization_limit", counting)
    build()
    assert len(reads) == 1


@pytest.mark.parametrize("category", CATEGORIES)
def test_groups_place_every_catalog_member(category):
    # Each group stands for the members F_n[p:p+k], lo <= k <= hi, and
    # form_at(k) spells that member; together they are the catalog.
    rows_of = CATALOGS[category][0]
    for n in range(13):
        table = fib_words(n)
        subject = table[n]
        placed = set()
        for group in groups(table, category, rows_of):
            for k in range(group.lo, group.hi + 1):
                word = subject[group.p:group.p + k]
                assert group.form_at(k).spell(table) == word, (n, group, k)
                placed.add(word)
        assert placed == set(catalog(n, category).words), n


@pytest.mark.parametrize("category", CATEGORIES)
def test_groups_sit_at_the_first_occurrence_of_their_longest_member(
        category):
    # The placement's contract: p is where the longest member, the one
    # form_at(hi) spells, first occurs in F_n, however it is found.
    rows_of = CATALOGS[category][0]
    for n in range(17):
        table = fib_words(n)
        subject = table[n]
        for group in groups(table, category, rows_of):
            longest = subject[group.p:group.p + group.hi]
            assert subject.find(longest) == group.p, (n, group)
            assert group.form_at(group.hi).spell(table) == longest, (
                n, group)


def _both_placements(table, rows):
    """The runs of ``rows`` expanded, and the per-left-length groups:
    each the list of groups, or the message of the error it raised."""
    def outcome(place):
        try:
            return place(table, "test", lambda n: rows)
        except (RuntimeError, ValueError) as error:
            return f"{type(error).__name__}: {error}"
    return (outcome(lambda *args: closed_form.expand(
                closed_form.group_runs(*args))),
            outcome(groups_by_left_length))


@pytest.mark.parametrize("category", CATEGORIES)
def test_runs_expand_to_the_per_left_length_groups(category):
    rows_of = CATALOGS[category][0]
    for n in range(21):
        table = fib_words(n)
        runs = closed_form.group_runs(table, category, rows_of)
        expected = groups_by_left_length(table, category, rows_of)
        assert closed_form.expand(runs) == expected, n
        assert [run.group(j) for run in runs
                for j in range(run.count)] == expected, n
    if category in ("seeds", "circular_covers"):
        assert 100 * len(runs) < len(expected), (len(runs), len(expected))


# Rows that no printed catalog has: the verify tests' mutants; a row
# with a group on a start the pass renames; a row whose left lengths run
# past its left source, so its chain breaks at every one of them; left
# ranges that step by 2 and downward; and rows that raise each of the
# builder's errors.
ODD_ROWS = [
    Row(KIND_LITERAL, 0, literal="abaababaabaa"),
    Row(KIND_FIB_PLUS_PREFIX, 5, rights=range(fib_len(4) + 1)),
    Row(KIND_PLAIN_FIB, 2), Row(KIND_LITERAL, 0, literal="ab"),
    Row(KIND_SUFFIX_FIB_PREFIX, 3, rights=range(3)),
    Row(KIND_SUFFIX_FIB_PREFIX, 3, lefts=range(1, 9), rights=range(1)),
    Row(KIND_SUFFIX_FIB_PREFIX, 5, lefts=range(1, 8, 2),
        rights=range(1, 3), least=4),
    Row(KIND_SUFFIX_FIB_FIB_PREFIX, 4, lefts=range(5, -1, -1),
        rights=range(3), least=2),
    Row(KIND_SUFFIX_FIB_FIB_PREFIX, 5, lefts=range(1, 3), rights=range(6)),
    Row(KIND_LITERAL, 0, literal="bb"),
    Row(KIND_PLAIN_FIB, 3, rights=range(2)),
    Row(KIND_PLAIN_FIB, 7, lefts=range(2), rights=range(2)),
    Row(KIND_SUFFIX_PLUS_FIB, 5, lefts=range(2), rights=range(2), least=1),
    Row(KIND_FIB_PLUS_PREFIX, 5, rights=range(0, 6, 2)),
    Row(KIND_LITERAL, 0, literal=""),
    Row(KIND_PLAIN_FIB, 3, rights=range(1, 2)),
    Row(KIND_FIB_PLUS_PREFIX, 5, rights=range(-1, 3), least=-1),
    Row(KIND_FIB_PLUS_PREFIX, 5, lefts=range(2), rights=range(6)),
]


@pytest.mark.parametrize("row", ODD_ROWS)
def test_runs_place_odd_rows_like_the_per_left_length_groups(row):
    # alone, and after each catalog's rows, shortened or not
    for n in range(5, 10):
        table = fib_words(n)
        runs, expected = _both_placements(table, [row])
        assert runs == expected, n
        for category in CATEGORIES:
            rows = CATALOGS[category][0](n)
            shortened = [r._replace(rights=r.rights[:-1])
                         if len(r.rights) > 1 else r for r in rows]
            for catalog_rows in (rows, shortened):
                runs, expected = _both_placements(table,
                                                  catalog_rows + [row])
                assert runs == expected, (n, category)


def test_runs_raise_the_first_error_of_the_per_left_length_groups():
    # every pair of rows that raise, in both orders: the same error
    failing = [row for row in ODD_ROWS
               if isinstance(_both_placements(fib_words(7), [row])[1], str)]
    assert len(failing) >= 8
    for first in failing:
        for second in failing:
            runs, expected = _both_placements(fib_words(7), [first, second])
            assert isinstance(expected, str)
            assert runs == expected, (first, second)


def _breaks(table, placed):
    """How often a row's group at l + 1 does not start one letter before
    its group at l, though F_n has a letter there and l + 1 is no longer
    than the left source."""
    breaks = 0
    for a, b in zip(placed, placed[1:]):
        kind, m, l = a.form[:3]
        left = table[m] if SHAPES[kind][0] else ""
        if (b.row == a.row and b.form.left_len == l + 1 <= len(left)
                and a.p and b.p != a.p - 1):
            breaks += 1
    return breaks


def test_runs_break_chains_like_the_per_left_length_groups():
    # In a subject pieced together from short Fibonacci-like blocks, a
    # row's longest member often occurs with the wrong letter in front
    # before it occurs with the right one, so chains break mid-row.
    rng = random.Random(11)
    kinds = [KIND_SUFFIX_FIB_PREFIX, KIND_SUFFIX_FIB_FIB_PREFIX,
             KIND_SUFFIX_PLUS_FIB]
    blocks = ["a", "b", "ab", "aab", "aba"]
    base = fib_words(6)
    placed = breaks = failed = 0
    for _ in range(300):
        table = base + ["".join(rng.choices(blocks, k=rng.randint(20, 60)))]
        m, top = rng.randint(3, 4), rng.randint(0, 2)
        row = Row(rng.choice(kinds), m,
                  range(rng.randint(0, 2), fib_len(m) + 1),
                  range(rng.randint(0, top), top + 1), rng.randint(0, 4))
        runs, expected = _both_placements(table, [row])
        assert runs == expected, (table[-1], row)
        if isinstance(expected, str):
            failed += 1
        else:
            placed += 1
            breaks += _breaks(table, expected)
    assert placed > 100 and failed > 100 and breaks > 30, (
        placed, failed, breaks)


@pytest.mark.parametrize("row", [
    Row(KIND_FIB_PLUS_PREFIX, 5, rights=range(0, 6, 2)),
    Row(KIND_LITERAL, 0, literal=""),
])
def test_groups_refuse_a_row_that_is_not_a_run_of_prefixes(row):
    # neither row is a run of members one letter apart that a group can
    # stand for, so _build, which spells the groups, refuses both too
    pytest.raises(RuntimeError, _build, 7, "test", lambda k: [row]).match(
        r"^row 0 of the test catalog at n=7 is not a run of prefixes: Row\(")
    with pytest.raises(RuntimeError, match=(
            r"^row 0 of the test catalog at n=7 is not a run of "
            r"prefixes: Row\(")):
        groups(fib_words(7), "test", lambda k: [row])


def test_catalog_refuses_an_unknown_category():
    with pytest.raises(ValueError, match=r"^unknown category 'foo'$"):
        catalog(7, "foo")


def _no_build(*args, **kwargs):
    raise AssertionError("the word catalog was spelled")


@pytest.mark.parametrize("row", [
    # the first non-factor is mid-row; a literal that is no factor
    Row(KIND_SUFFIX_FIB_FIB_PREFIX, 5, lefts=range(1, 3), rights=range(6)),
    Row(KIND_LITERAL, 0, literal="bb"),
    # right lengths past the end of the source (PlainFib and SuffixPlusFib
    # have none) repeat a member; in the last row only at the second left
    # length, where least lets both right lengths in
    Row(KIND_PLAIN_FIB, 3, rights=range(2)),
    Row(KIND_PLAIN_FIB, 7, lefts=range(2), rights=range(2)),
    Row(KIND_SUFFIX_PLUS_FIB, 5, lefts=range(2), rights=range(2), least=1),
])
def test_groups_raise_the_builders_errors_themselves(monkeypatch, row):
    message = _build_error([row])
    monkeypatch.setattr(closed_form, "_build", _no_build)
    with pytest.raises(RuntimeError) as caught:
        groups(fib_words(7), "test", lambda k: [row])
    assert str(caught.value) == message


@pytest.mark.parametrize("row", [
    Row(KIND_FIB_PLUS_PREFIX, 5, rights=range(0, 6, 2)),
    Row(KIND_LITERAL, 0, literal=""),
    # one right length past the end of the source repeats nothing
    Row(KIND_PLAIN_FIB, 3, rights=range(1, 2)),
    # source[:-1] is no prefix one letter longer than the core
    Row(KIND_FIB_PLUS_PREFIX, 5, rights=range(-1, 3), least=-1),
])
def test_groups_refuse_a_row_without_the_builder(monkeypatch, row):
    _build_reference(7, "test", lambda k: [row])
    monkeypatch.setattr(closed_form, "_build", _no_build)
    with pytest.raises(RuntimeError, match=(
            r"^row 0 of the test catalog at n=7 is not a run of "
            r"prefixes: Row\(")):
        groups(fib_words(7), "test", lambda k: [row])


def test_groups_have_no_size_refusal():
    table = fib_words(17)
    assert (len(groups(table, "seeds", closed_form._seed_rows))
            > len(groups(table, "circular_covers",
                         closed_form._circular_rows)) > 0)
    with pytest.raises(SizeLimitError):
        enum_seeds(17)


def test_words_are_canonical():
    for n in range(0, 11):
        for category in CATEGORIES:
            ws = catalog(n, category).words
            assert list(ws) == sorted(set(ws), key=lambda w: (len(w), w))


def test_shortest_members():
    for n in range(4, 15):
        assert min(enum_left_seeds(n).words, key=len) == "aba"
    for n in range(5, 15, 2):
        assert min(enum_covers(n).words, key=len) == fib_word(3)
    for n in range(6, 15, 2):
        assert min(enum_covers(n).words, key=len) == fib_word(4)


def test_covers_within_seed_catalogs():
    for n in range(4, 15):
        cov = set(enum_covers(n).words)
        assert cov <= set(enum_left_seeds(n).words)
        assert cov <= set(enum_right_seeds(n).words)


def test_parametric_family_members_are_seeds():
    for n in range(5, 11):
        subject = fib_word(n)
        for form in enum_seeds(n).forms:
            if form.kind in (KIND_SUFFIX_FIB_PREFIX,
                             KIND_SUFFIX_FIB_FIB_PREFIX):
                assert is_seed_fast(form.materialize(), subject), (n, form)


def test_prefix_source_shares_all_but_last_two_letters():
    # The right source F_{m-3} F_{m-2} of x F_m y is F_{m-1} with its
    # last two letters swapped, so only a right part within two letters
    # of |F_{m-1}| reads the swapped tail.
    for m in range(3, 13):
        left, core, src = _parts(KIND_SUFFIX_FIB_PREFIX, m, fib_words(m))
        assert (left, core) == (fib_word(m), fib_word(m))
        fm1 = fib_word(m - 1)
        assert len(src) == len(fm1)
        assert src[:-2] == fm1[:-2]
        assert src[-2:] == fm1[-2:][::-1]


def test_guard_errors(monkeypatch):
    with pytest.raises(SizeLimitError):
        enum_covers(31)
    monkeypatch.setenv("FIBQUASI_NMAX", "8")
    with pytest.raises(SizeLimitError):
        enum_borders(9)
    with pytest.raises(ValueError):
        enum_covers(-1)


def test_heavy_catalogs_refuse_large_indices():
    for enum in (enum_left_seeds, enum_right_seeds, enum_seeds,
                 enum_circular_covers):
        with pytest.raises(SizeLimitError):
            enum(17)
    # the linear catalogs stay available
    assert len(enum_borders(17).words) == 8
    assert len(enum_covers(17).words) == 8


def test_serialization_shape():
    doc = enum_covers(5).to_json()
    assert doc == {
        "n": 5, "category": "covers",
        "forms": [{"kind": KIND_PLAIN_FIB, "m": 5, "left_len": 0,
                   "right_len": 0},
                  {"kind": KIND_PLAIN_FIB, "m": 3, "left_len": 0,
                   "right_len": 0}],
        "words": ["aba", "abaababa"]}
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("category", CATEGORIES)
def test_write_json_matches_json_dumps(category):
    for n in range(15):
        result = catalog(n, category)
        parts = []
        result.write_json(parts.append)
        got, want = "".join(parts), json.dumps(result.to_json()) + "\n"
        # no diff of two megabyte strings: name the first byte that differs
        same = got == want
        assert same, (n, next((i for i, pair in enumerate(zip(got, want))
                               if pair[0] != pair[1]), None),
                      len(got), len(want))


def test_write_json_reference_range_has_the_edge_cases():
    # empty lists, the literal form, and a words list of several writes
    empty = catalog(0, "borders")
    assert (empty.forms, empty.words) == ((), ())
    assert KIND_LITERAL in (f.kind for f in catalog(4, "seeds").forms)
    parts = []
    catalog(12, "seeds").write_json(parts.append)
    assert len(parts) - parts.index('], "words": [') - 2 > 1


@pytest.mark.parametrize("category", ["seeds", "circular_covers"])
def test_write_json_holds_no_more_than_a_length_of_words(category):
    # the catalogs hold Theta(|F_n|^2) words, a length at most |F_n| + 1
    result = catalog(14, category)
    for writer in (result.write_json, result.write_text):
        sizes = []
        writer(lambda text: sizes.append(len(text)))
        assert max(sizes) <= fib_len(14) ** 2


def test_write_json_runs_no_python_frame_per_form():
    result = enum_seeds(12)
    for writer in (result.write_json, result.write_text):
        _, calls = _python_calls(lambda: writer(lambda text: None))
        assert calls < len(result.forms) // 4, (calls, len(result.forms))


@pytest.mark.parametrize("category", CATEGORIES)
def test_write_text_lists_the_json_documents_forms_and_words(category):
    for n in range(12):
        result = catalog(n, category)
        parts, lines = [], []
        result.write_json(parts.append)
        result.write_text(lines.append)
        doc, lines = json.loads("".join(parts)), "".join(lines).splitlines()
        split = lines.index("words:")
        assert lines[0] == "forms:"
        assert all(line.startswith("  {") for line in lines[1:split])
        assert [json.loads(line) for line in lines[1:split]] == doc["forms"]
        assert lines[split + 1:] == ["  " + word for word in doc["words"]]


@pytest.mark.parametrize("category", CATEGORIES)
def test_catalogs_list_each_row_once(category):
    # ``EnumResult`` keeps every group's forms with no repeat check: two
    # groups could share a form only if they shared all of it but the
    # right length
    rows_of = CATALOGS[category][0]
    for n in range(21):
        rows = rows_of(n)
        assert len(set(rows)) == len(rows), (n, rows)
        keys = [(kind, m, l, literal) for *_, (kind, m, l, _, literal)
                in groups(fib_words(n), category, rows_of)]
        assert len(set(keys)) == len(keys), n


def test_enumerators_are_deterministic():
    for category in CATEGORIES:
        assert catalog(7, category) == catalog(7, category)


def test_nearest_forms_shapes():
    near = nearest_forms("baaba", fib_words(5))
    assert FactorForm(KIND_SUFFIX_FIB_PREFIX, 3, left_len=2,
                      right_len=0) in near
    assert FactorForm(KIND_PLAIN_FIB, 4) in nearest_forms(fib_word(4),
                                                          fib_words(8))
    assert all(f.materialize() == "baaba" for f in near)


# The per-kind spelling and shape matching that the SHAPES table
# replaced, kept verbatim as test references.
_READS_BELOW_BASE = {
    KIND_PLAIN_FIB: 0,
    KIND_FIB_PLUS_PREFIX: 1,
    KIND_SUFFIX_PLUS_FIB: 1,
    KIND_SUFFIX_FIB_PREFIX: 3,
    KIND_SUFFIX_FIB_FIB_PREFIX: 1,
}


def _suffix(w: str, length: int) -> str:
    return w[len(w) - length:] if length else ""


def _prefix_source(table: list[str], m: int) -> str:
    return table[m - 3] + table[m - 2]


def _spell_by_kind(self, table: list[str]) -> str:
    kind, m = self.kind, self.base
    if kind == KIND_LITERAL:
        return self.literal
    if kind not in _READS_BELOW_BASE:
        raise ValueError(f"unknown form kind {kind!r}")
    lowest = m - _READS_BELOW_BASE[kind]
    if lowest < 0:
        raise ValueError("Fibonacci index must be nonnegative, got "
                         f"{m if m < 0 else lowest}")
    fm = table[m]
    if kind == KIND_PLAIN_FIB:
        return fm
    if kind == KIND_FIB_PLUS_PREFIX:
        return fm + table[m - 1][:self.right_len]
    left = _suffix(fm, self.left_len)
    if kind == KIND_SUFFIX_PLUS_FIB:
        return left + table[m - 1] + fm
    if kind == KIND_SUFFIX_FIB_PREFIX:
        return left + fm + _prefix_source(table, m)[:self.right_len]
    fm1 = table[m - 1]
    return left + fm1 + fm + fm1[:self.right_len]


def _nearest_forms_by_kind(word: str, n: int) -> tuple[FactorForm, ...]:
    matches: list[FactorForm] = []
    top = 0
    while top < n and fib_len(top + 1) <= len(word):
        top += 1
    table = fib_words(top)
    for m in range(1, top + 1):
        fm, fm1 = table[m], table[m - 1]
        if word == fm:
            matches.append(FactorForm(KIND_PLAIN_FIB, m))
        if word.startswith(fm) and fm1.startswith(word[len(fm):]):
            matches.append(FactorForm(KIND_FIB_PLUS_PREFIX, m,
                                      right_len=len(word) - len(fm)))
        for l in range(0, min(len(fm), len(word) - len(fm)) + 1):
            if word[:l] != _suffix(fm, l):
                continue
            rest = word[l:]
            if m >= 3:
                if rest.startswith(fm) and _prefix_source(
                        table, m).startswith(rest[len(fm):]):
                    matches.append(FactorForm(
                        KIND_SUFFIX_FIB_PREFIX, m, left_len=l,
                        right_len=len(rest) - len(fm)))
            block = fm1 + fm
            if rest.startswith(block) and fm1.startswith(rest[len(block):]):
                r = len(rest) - len(block)
                matches.append(FactorForm(KIND_SUFFIX_FIB_FIB_PREFIX, m,
                                          left_len=l, right_len=r))
                if r == 0:
                    matches.append(FactorForm(KIND_SUFFIX_PLUS_FIB, m,
                                              left_len=l))
    return tuple(dict.fromkeys(matches))


def _outcome(spell, form, table):
    try:
        return spell(form, table)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_spell_matches_per_kind_reference():
    table = fib_words(12)
    lengths = (0, 1, 2, 3, 5, 8, 13, 21, 34, 200)
    kinds = (KIND_PLAIN_FIB, KIND_FIB_PLUS_PREFIX, KIND_SUFFIX_PLUS_FIB,
             KIND_SUFFIX_FIB_PREFIX, KIND_SUFFIX_FIB_FIB_PREFIX, "Bogus")
    refused = 0
    for kind in kinds:
        for base in range(-1, 13):
            for left in lengths:
                for right in lengths:
                    form = FactorForm(kind, base, left, right)
                    got = _outcome(FactorForm.spell, form, table)
                    assert got == _outcome(_spell_by_kind, form, table), form
                    refused += got.startswith("ValueError")
    literal = FactorForm(KIND_LITERAL, literal="baa")
    assert literal.spell(table) == _spell_by_kind(literal, table) == "baa"
    # every base below each kind's deepest offset, plus the unknown kind
    assert refused == (1 + 2 + 2 + 4 + 2 + 14) * len(lengths) ** 2


def _binary_words(max_len):
    for length in range(max_len + 1):
        for bits in range(1 << length):
            yield "".join("ab"[(bits >> i) & 1] for i in range(length))


def test_nearest_forms_matches_per_kind_reference():
    tables = {n: fib_words(n) for n in (5, 9, 12)}
    for word in _binary_words(11):
        for n, table in tables.items():
            assert ([f.to_json() for f in nearest_forms(word, table)]
                    == [f.to_json() for f in _nearest_forms_by_kind(word, n)]
                    ), (word, n)


def test_nearest_forms_matches_reference_on_fibonacci_factors():
    # F_2..F_11 are prefixes of F_12, so its factors include theirs; a
    # factor of F_k never reads a base above k, so one n covers them all.
    table = fib_words(12)
    subject = table[12]
    factors = {subject[i:j] for i in range(len(subject))
               for j in range(i + 1, len(subject) + 1)}
    for word in factors:
        assert ([f.to_json() for f in nearest_forms(word, table)]
                == [f.to_json() for f in _nearest_forms_by_kind(word, 12)]
                ), word


def test_seed_catalog_reads_one_table_and_refuses_once(monkeypatch):
    calls = {"fib_words": 0, "refuse_oversize": 0}

    def counted(name):
        real = getattr(closed_form, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(closed_form, name, counted(name))
    for n in range(13):
        calls.update(fib_words=0, refuse_oversize=0)
        enum_seeds(n)
        assert calls == {"fib_words": 1, "refuse_oversize": 1}, n


class _Spelled(NamedTuple):
    """A catalog as the reference spells it: all its forms and words."""

    n: int
    category: str
    forms: tuple
    words: tuple


# The per-member `_build` loop that bulk spelling replaced, kept as the
# test reference (its `_suffix` is the one above). It reads SHAPES
# itself: a kind with a left part prepends the l-letter suffix of F_m,
# and a kind without one gets the empty left part at every l, as in
# `_parts`. It spells the whole catalog, so it returns the spelled
# forms and words, not an `EnumResult`, which keeps the groups.
def _build_reference(n, category, rows_of, force=None):
    _check_index(n)
    if force is not None:
        refuse_oversize(f"catalog enumeration at index {n}", fib_len(n),
                        force)
    table = fib_words(n)
    subject = table[n]
    forms, words = [], []
    for kind, m, lefts, rights, least, literal in rows_of(n):
        if kind == KIND_LITERAL:
            row_forms, members = [FactorForm(kind, literal=literal)], [literal]
        else:
            has_left, core, source = SHAPES[kind]
            left = table[m] if has_left else ""
            core = "".join(table[m - d] for d in core)
            source = "".join(table[m - d] for d in source)
            row_forms, members = [], []
            for l in lefts:
                head = _suffix(left, l) + core
                for r in rights:
                    if l + r >= least:
                        row_forms.append(FactorForm(kind, m, l, r))
                        members.append(head + source[:r])
        if len(set(members)) != len(members):
            raise RuntimeError(
                f"family produced duplicate members at n={n}, "
                f"category={category}: {kind}")
        for form, word in zip(row_forms, members):
            if word not in subject:
                raise RuntimeError(
                    f"{form} materialized {word!r}, not a factor of the "
                    f"index-{n} word")
        forms.extend(row_forms)
        words.extend(members)
    return _Spelled(n, category, tuple(dict.fromkeys(forms)),
                    tuple(canonical(words)))


def _assert_same_result(got, want):
    assert (got.n, got.category, got.words) == (want.n, want.category,
                                                 want.words)
    assert type(got.words) is tuple
    assert len(got.forms) == len(want.forms)
    for mine, theirs in zip(got.forms, want.forms):
        assert type(mine) is FactorForm and type(theirs) is FactorForm
        for name in FactorForm._fields:
            a, b = getattr(mine, name), getattr(theirs, name)
            assert type(a) is type(b) and a == b, (mine, theirs)


@pytest.mark.parametrize("category", CATEGORIES)
def test_bulk_build_matches_reference(monkeypatch, category):
    top = 15 if category in ("seeds", "circular_covers") else 14
    got = [catalog(n, category) for n in range(top + 1)]
    monkeypatch.setattr(closed_form, "_build", _build_reference)
    for n in range(top + 1):
        _assert_same_result(got[n], catalog(n, category))


def _build_error(rows, n=7):
    with pytest.raises(RuntimeError) as caught:
        _build(n, "test", lambda k: rows)
    with pytest.raises(RuntimeError) as reference:
        _build_reference(n, "test", lambda k: rows)
    assert str(caught.value) == str(reference.value)
    return str(caught.value)


def test_build_names_first_non_factor_mid_row():
    # x F_4 F_5 y with |x| = 1 or 2: at |x| = 1 the member with y empty
    # is a factor of F_7 but the longest is not, so the first non-factor
    # is the row's second member, and it spells what the message names.
    row = Row(KIND_SUFFIX_FIB_FIB_PREFIX, 5, lefts=range(1, 3),
              rights=range(6))
    assert _build_error([row]) == (
        "FactorForm(kind='SuffixFibFibPrefix', base=5, left_len=1, "
        "right_len=1, literal='') materialized 'aabaababaababaa', not a "
        "factor of the index-7 word")
    named = FactorForm(KIND_SUFFIX_FIB_FIB_PREFIX, 5, 1, 1)
    assert named.materialize() == "aabaababaababaa"


def test_build_refuses_a_left_range_for_a_kind_without_left_part():
    # FibPlusPrefix has no left part, so every left length spells the
    # same members; the row repeats them and is refused.
    row = Row(KIND_FIB_PLUS_PREFIX, 5, lefts=range(2), rights=range(6))
    with pytest.raises(RuntimeError, match=(
            r"^family produced duplicate members at n=7, category=test: "
            r"FibPlusPrefix$")):
        _build(7, "test", lambda k: [row])


@pytest.mark.parametrize("kind", [*SHAPES, KIND_LITERAL])
def test_build_forms_spell_their_own_members(kind):
    # One row per build, so forms and members are one to one: spelling
    # each form must give the member list back, with no repeat.
    table = fib_words(12)
    for m in range(3, 9):
        if kind == KIND_LITERAL:
            row = Row(kind, 0, literal="baa")
        else:
            left, _, source = _parts(kind, m, table)
            row = Row(kind, m, range(len(left) + 1), range(len(source) + 1))
        result = _build(12, "test", lambda k: [row])
        spelled = [f.spell(table) for f in result.forms]
        assert len(set(spelled)) == len(spelled) == len(result.words)
        assert tuple(canonical(spelled)) == result.words, row


def test_build_duplicate_check_precedes_factor_check():
    duplicate = "family produced duplicate members at n=7, category=test: "
    # F_3 twice (PlainFib has no source, so every right length spells it)
    assert _build_error([Row(KIND_PLAIN_FIB, 3, rights=range(2))]) == (
        duplicate + KIND_PLAIN_FIB)
    # F_7 four times: PlainFib has neither a left part nor a source, so
    # every left and right length spells F_7
    both = Row(KIND_PLAIN_FIB, 7, lefts=range(2), rights=range(2))
    assert _build_error([both]) == duplicate + KIND_PLAIN_FIB
    # F_5 F_6 twice, which is not a factor of F_7 (it has F_7's length
    # but is not F_7): the repeat is named, not the non-factor
    twice = Row(KIND_SUFFIX_PLUS_FIB, 6, rights=range(2))
    assert _build_error([twice]) == duplicate + KIND_SUFFIX_PLUS_FIB


def test_build_reference_gives_no_left_part_to_a_kind_without_one():
    # Every left length of a kind without a left part spells the same
    # members, so both rows repeat them, in the reference as in `_build`.
    duplicate = "family produced duplicate members at n=7, category=test: "
    plain = Row(KIND_PLAIN_FIB, 5, lefts=range(2))
    assert _build_error([plain]) == duplicate + KIND_PLAIN_FIB
    prefix = Row(KIND_FIB_PLUS_PREFIX, 5, lefts=range(2), rights=range(3))
    assert _build_error([prefix]) == duplicate + KIND_FIB_PLUS_PREFIX


def test_build_names_the_first_repeating_row_in_row_order(capsys,
                                                          monkeypatch):
    # The later row repeats F_3 at 3 letters, shorter than the earlier
    # row's first repeat (F_5 at 8 letters); each is two groups at one
    # start. The error names the earlier row, as the reference does, and
    # enum --json raises it before its first write.
    rows = [Row(KIND_FIB_PLUS_PREFIX, 5, lefts=range(2), rights=range(6)),
            Row(KIND_PLAIN_FIB, 3, lefts=range(2))]
    message = ("family produced duplicate members at n=7, category=test: "
               + KIND_FIB_PLUS_PREFIX)
    assert _build_error(rows) == message
    monkeypatch.setitem(CATALOGS, "seeds", (lambda n: rows, True))
    assert cli.main(["enum", "7", "--seeds", "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error: "
                   + message.replace("category=test", "category=seeds")
                   + "\n")


def test_build_finds_a_repeat_between_two_starts(monkeypatch):
    # F_7[0:3] == F_7[3:6] == "aba": two groups of one row at different
    # starts that spell one member at length 3 repeat it; from length 4
    # on they differ, so a row of the same groups cut to lengths 4 and 5
    # repeats nothing.
    subject = fib_word(7)
    assert subject[0:3] == subject[3:6] and subject[0:4] != subject[3:7]
    form = FactorForm(KIND_PLAIN_FIB, 3)

    def placed(lo):
        return lambda table, category, rows_of: [
            closed_form.Group(0, lo, 5, 0, form),
            closed_form.Group(0, lo, 5, 3, form)]
    monkeypatch.setattr(closed_form, "groups", placed(3))
    with pytest.raises(RuntimeError, match=(
            r"^family produced duplicate members at n=7, category=test: "
            r"PlainFib$")):
        _build(7, "test", lambda k: [])
    monkeypatch.setattr(closed_form, "groups", placed(4))
    assert _build(7, "test", lambda k: []).words == (
        "abaa", "abab", "abaab", "ababa")


def test_build_checks_literal_rows():
    assert _build_error([Row(KIND_LITERAL, 0, literal="bb")]) == (
        "FactorForm(kind='Literal', base=0, left_len=0, right_len=0, "
        "literal='bb') materialized 'bb', not a factor of the index-7 word")


def _python_calls(call):
    """``call()``, and the number of Python frames it ran. The cyclic
    collector is paused meanwhile, so no callback that a test library
    registered with it (hypothesis has one) is counted as a frame."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return result, calls


@pytest.mark.parametrize("enumerator", [enum_seeds, enum_circular_covers])
def test_build_runs_no_python_frame_per_member(enumerator):
    result, calls = _python_calls(lambda: enumerator(12))
    assert calls < len(result.forms) // 4, (calls, len(result.forms))


@pytest.mark.parametrize("enumerator", [enum_seeds, enum_circular_covers])
def test_row_check_runs_no_python_frame_per_length(enumerator):
    # the lambda and ``_walk`` itself: no frame per row, group or length
    result = enumerator(14)
    runs, calls = _python_calls(lambda: closed_form._walk(
        14, result.category, result.subject, result.groups))
    assert runs == result.runs
    assert calls <= 2, calls


def _random_groups(rng: random.Random, subject: str, count: int
                   ) -> list[closed_form.Group]:
    """``count`` groups of one row placed at random in ``subject``. Some
    sit at an earlier group's start, and some at another occurrence of
    an earlier group's member, active at that member's length, so rows
    that repeat a member and rows that do not both come up."""
    form = FactorForm(KIND_PLAIN_FIB, 3)
    placed: list[closed_form.Group] = []
    for _ in range(count):
        pick = rng.random()
        if placed and pick < 0.3:
            _, lo, hi, p, _ = rng.choice(placed)
            k = rng.randint(lo, hi)
            if pick >= 0.15:  # another start of the member F_n[p:p+k]
                member = subject[p:p + k]
                p = rng.choice([q for q in range(len(subject) - k + 1)
                                if subject.startswith(member, q)])
            lo = rng.randint(1, k)
            hi = rng.randint(k, len(subject) - p)
        else:
            p = rng.randrange(len(subject))
            hi = rng.randint(1, len(subject) - p)
            lo = rng.randint(1, hi)
        placed.append(closed_form.Group(0, lo, hi, p, form))
    return placed


def test_row_check_and_words_match_the_per_length_references():
    # The walk raises iff the row repeats a member. With one row per
    # group it never raises, and equal members of two rows are still
    # one word.
    rng = random.Random(5)
    subjects = [fib_word(n) for n in range(4, 12)] + [
        "".join(rng.choices("ab", k=rng.randint(3, 40))) for _ in range(40)]
    cases = repeating = 0
    for subject in subjects:
        for _ in range(60):
            placed = _random_groups(rng, subject, rng.randint(1, 8))
            expected = repeats(subject, placed)
            try:
                closed_form._walk(0, "test", subject, placed)
            except RuntimeError as error:
                assert expected, (subject, placed, error)
            else:
                assert not expected, (subject, placed)
            apart = tuple(group._replace(row=row)
                          for row, group in enumerate(placed))
            result = closed_form.EnumResult(
                0, "test", subject, apart,
                closed_form._walk(0, "test", subject, apart))
            assert ([list(item) for item in result._lengths()]
                    == lengths(subject, placed)), (subject, placed)
            cases, repeating = cases + 1, repeating + expected
    assert cases // 10 < repeating < cases - cases // 10, (repeating,
                                                           cases)


def test_factor_form_contract():
    form = FactorForm(KIND_SUFFIX_FIB_PREFIX, 3, 2, 1)
    assert repr(form) == ("FactorForm(kind='SuffixFibPrefix', base=3, "
                          "left_len=2, right_len=1, literal='')")
    literal = FactorForm(KIND_LITERAL, literal="baa")
    assert (literal.base, literal.left_len, literal.right_len) == (0, 0, 0)
    assert literal == (KIND_LITERAL, 0, 0, 0, "baa")
    assert literal.to_json() == {"kind": KIND_LITERAL, "m": 0,
                                 "left_len": 0, "right_len": 0,
                                 "word": "baa"}
    assert form.to_json() == {"kind": KIND_SUFFIX_FIB_PREFIX, "m": 3,
                              "left_len": 2, "right_len": 1}
    same = FactorForm(kind=KIND_SUFFIX_FIB_PREFIX, base=3, left_len=2,
                      right_len=1)
    assert list(dict.fromkeys([form, literal, same, literal])) == [
        form, literal]
    with pytest.raises(AttributeError):
        form.base = 4
