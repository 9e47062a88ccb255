"""Closed-form catalogs of borders, covers, seeds, and circular covers
of Fibonacci words.

Each enumerator returns both the symbolic family instances (FactorForm)
and the materialized word set, so a disputed member can always be traced
back to the clause that produced it. The family definitions spelled out
in the docstrings here are the authority: whether they agree with the
brute-force oracles is decided by the verify module, never patched
here; its category registry pairs each catalog with its oracle by
name. ``CATALOGS`` maps that name to the catalog's rows. The
seed-flavored catalogs hold O(|F_n|) to O(|F_n|^2) members, so those
enumerators share the engine's size refusal and take ``force`` to
override it.

Every clause has one of the shapes in ``SHAPES``, which only ``_parts``
reads: it spells a kind's left source, core and right source at a base
and refuses a base too low for the kind, for spelling, ``_build`` and
``nearest_forms`` alike. A catalog is a list of clause rows (kind,
base, left range, right range, least |x|+|y|), each family's rows made
by one builder, all spelled by one ``_build``. Row order is output
order, because the JSON ``forms`` list is pinned byte for byte: members
come row by row (left length outer, right length inner, first of any
repeat kept). The one member no shape produces is the literal "baa" at index 4 (``KIND_LITERAL``).

Because a catalog can hold O(|F_n|^2) members, ``_build`` spells each
row in bulk and no Python frame runs per member: a ``FactorForm`` is a
NamedTuple, made by ``tuple.__new__`` and hashed as a plain tuple.
``groups`` spells no member: it walks the same rows (``_heads``) and
places each (row, left length) in F_n as one ``Group``, for verify.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Iterator, NamedTuple

from .engine import refuse_oversize
from .fib import border_indices, fib_len, fib_words
from .words import canonical

KIND_PLAIN_FIB = "PlainFib"
KIND_FIB_PLUS_PREFIX = "FibPlusPrefix"
KIND_SUFFIX_PLUS_FIB = "SuffixPlusFib"
KIND_SUFFIX_FIB_PREFIX = "SuffixFibPrefix"
KIND_SUFFIX_FIB_FIB_PREFIX = "SuffixFibFibPrefix"
# Escape hatch for the one catalog member that no structural family
# produces (the length-3 seed special to index 4).
KIND_LITERAL = "Literal"


# kind -> (has a left part x, core offsets, right-source offsets): at
# base m the core and the source y is a prefix of are F_{m-d} for each
# offset d, concatenated. Table order is nearest_forms' match order.
SHAPES = {
    KIND_PLAIN_FIB: (False, (0,), ()),
    KIND_FIB_PLUS_PREFIX: (False, (0,), (1,)),
    KIND_SUFFIX_FIB_PREFIX: (True, (0,), (3, 2)),
    KIND_SUFFIX_FIB_FIB_PREFIX: (True, (1, 0), (1,)),
    KIND_SUFFIX_PLUS_FIB: (True, (1, 0), ()),
}


def _parts(kind: str, m: int, table: list[str]) -> tuple[str, str, str]:
    """The left source, core and right source of ``kind`` at base m,
    reading F_k as ``table[k]``: F_m (or "" when the kind has no left
    part), then F_{m-d} over the core and the source offsets. Refuses an
    unknown kind, and a base whose deepest offset would read a negative
    index (which would silently wrap around the table)."""
    shape = SHAPES.get(kind)
    if shape is None:
        raise ValueError(f"unknown form kind {kind!r}")
    left, core, source = shape
    lowest = m - max(core + source)
    if lowest < 0:
        raise ValueError("Fibonacci index must be nonnegative, got "
                         f"{m if m < 0 else lowest}")
    return (table[m] if left else "", "".join([table[m - d] for d in core]),
            "".join([table[m - d] for d in source]))


def _suffix(w: str, length: int) -> str:
    return w[len(w) - length:]


class FactorForm(NamedTuple):
    """One symbolic clause instance; materializes to exactly one word.

    A NamedTuple, so a form equals and hashes as the plain tuple of its
    fields, and ``_build`` can make forms in bulk without running a
    Python constructor per form."""

    kind: str
    base: int = 0
    left_len: int = 0
    right_len: int = 0
    literal: str = ""

    def materialize(self) -> str:
        return self.spell(fib_words(self.base))

    def spell(self, table: list[str]) -> str:
        """The word this clause spells, reading F_k as ``table[k]``; the
        table must reach F_base (see ``fib.fib_words``)."""
        if self.kind == KIND_LITERAL:
            return self.literal
        left, core, source = _parts(self.kind, self.base, table)
        return _suffix(left, self.left_len) + core + source[:self.right_len]

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "m": self.base,
               "left_len": self.left_len, "right_len": self.right_len}
        if self.kind == KIND_LITERAL:
            doc["word"] = self.literal
        return doc


@dataclass(frozen=True)
class EnumResult:
    """A catalog for one (index, category) cell: clause instances plus
    the deduplicated, canonically ordered word set."""

    n: int
    category: str
    forms: tuple[FactorForm, ...]
    words: tuple[str, ...]

    def to_json(self) -> dict:
        return {"n": self.n, "category": self.category,
                "forms": [f.to_json() for f in self.forms],
                "words": list(self.words)}


class Row(NamedTuple):
    """One clause family: ``kind`` at base ``m`` with every left length
    in ``lefts`` and right length in ``rights`` whose sum is at least
    ``least``. A literal row spells ``literal`` alone."""

    kind: str
    m: int
    lefts: range = range(1)
    rights: range = range(1)
    least: int = 0
    literal: str = ""


def _plain(*bases: int) -> list[Row]:
    return [Row(KIND_PLAIN_FIB, m) for m in bases]


def _cover_rows(n: int) -> list[Row]:
    """F_n, then every second index down to F_3 (odd n) or F_4 (even
    n): the covers of F_n, and the plain right seeds."""
    return _plain(n, *range(n - 2, (3 if n % 2 else 4) - 1, -2))


def _short_ext(m: int) -> Row:
    """F_m extended by a prefix of F_{m-1} stopping two letters short."""
    return Row(KIND_FIB_PLUS_PREFIX, m, rights=range(fib_len(m - 1) - 1))


def _suffix_fib_prefix(m: int, long: bool = False) -> Row:
    """x F_m y: x a nonempty proper suffix of F_m, y a nonempty prefix
    of F_{m-3} F_{m-2} two letters short of |F_{m-1}| (up to all of it
    when ``long``), |x|+|y| >= |F_{m-1}|."""
    len_m1 = fib_len(m - 1)
    return Row(KIND_SUFFIX_FIB_PREFIX, m, range(1, fib_len(m)),
               range(1, len_m1 + 1 if long else len_m1 - 1), len_m1)


def _suffix_fib_fib_prefix(m: int) -> Row:
    """x F_{m-1} F_m y: x a suffix of F_m, y a prefix of F_{m-1}, both
    possibly empty or full, |x|+|y| >= |F_m|."""
    len_m = fib_len(m)
    return Row(KIND_SUFFIX_FIB_FIB_PREFIX, m, range(len_m + 1),
               range(fib_len(m - 1) + 1), len_m)


def _heads(row: Row, left: str, core: str,
           source: str) -> Iterator[tuple[int, int, str, str]]:
    """The row walk shared by ``_build`` and ``groups``, given the
    row's parts (see ``_parts``): for each left length l that spells a
    member, (l, i, head, longest). The row takes the right lengths
    rights[i:] at l (the first r with l + r >= least onward), head is
    the suffix of length l of the left source followed by the core, and
    longest is the longest member, head + source[:rights[-1]]. Every
    member at l is a prefix of longest. A generator, so a caller that
    reads one head at a time holds one longest member at a time."""
    _, _, lefts, rights, least, _ = row
    longest_right = source[:rights[-1]] if rights else ""
    for l in lefts:
        i = bisect_left(rights, least - l)
        if i < len(rights):
            head = _suffix(left, l) + core
            yield l, i, head, head + longest_right


def _build(n: int, category: str, rows_of: Callable[[int], list[Row]],
           force: bool | None = None) -> EnumResult:
    """Build the table F_0..F_n (the one index guard read) and, unless
    ``force`` is None (the linear catalogs), check the size refusal;
    then spell ``rows_of(n)`` from the table, checking that no row
    repeats a member (repeats across rows are absorbed by the set union)
    and every member is a factor of F_n.

    A row is spelled in bulk: its core, its source and the prefixes of
    the source it uses are spelled once, and for each left length the
    members and forms come from C-level ``map`` calls, with no Python
    frame per member. The factor check reads one member per (row, left
    length), the longest: every other member at that left length is a
    prefix of it, and a prefix of a factor of F_n is a factor too. When
    it fails, the non-factors at that left length are a suffix of its
    right lengths, so the first one in row order is named."""
    table = fib_words(n)
    if force is not None:
        refuse_oversize(f"catalog enumeration at index {n}", fib_len(n),
                        force)
    subject = table[n]
    new_form = partial(tuple.__new__, FactorForm)
    forms, words = [], []
    for row in rows_of(n):
        kind, m, _, rights, _, literal = row
        if kind == KIND_LITERAL:
            row_forms, members = [FactorForm(kind, literal=literal)], [literal]
            ends = [(1, literal)]
        else:
            left, core, source = _parts(kind, m, table)
            prefixes = [source[:r] for r in rights]
            # ends: where each left length's members stop in ``members``,
            # with the longest of them
            row_forms, members, ends = [], [], []
            for l, i, head, longest in _heads(row, left, core, source):
                members.extend(map(head.__add__, prefixes[i:]))
                row_forms.extend(map(new_form, zip(
                    repeat(kind), repeat(m), repeat(l), rights[i:],
                    repeat(""))))
                ends.append((len(members), longest))
        if len(set(members)) != len(members):
            raise RuntimeError(
                f"family produced duplicate members at n={n}, "
                f"category={category}: {kind}")
        begin = 0
        for end, longest in ends:
            if longest not in subject:
                i = next(i for i in range(begin, end)
                         if members[i] not in subject)
                raise RuntimeError(
                    f"{row_forms[i]} materialized {members[i]!r}, not a "
                    f"factor of the index-{n} word")
            begin = end
        forms.extend(row_forms)
        words.extend(members)
    return EnumResult(n, category, tuple(dict.fromkeys(forms)),
                      tuple(canonical(words)))


class Group(NamedTuple):
    """The members of one (row, left length) of a catalog, placed in
    F_n: F_n[p:p+k] for every length k from lo to hi. ``row`` is the
    row's place in the catalog, and ``form`` the clause instance of the
    shortest member."""

    row: int
    lo: int
    hi: int
    p: int
    form: FactorForm

    def form_at(self, k: int) -> FactorForm:
        """The clause instance of the member of length k."""
        return self.form._replace(right_len=self.form.right_len + k - self.lo)


def groups(table: list[str], category: str,
           rows_of: Callable[[int], list[Row]]) -> list[Group]:
    """The catalog ``rows_of(n)`` as groups, in row order, with no member
    spelled, where ``table`` is ``fib_words(n)``: the members at one
    (row, left length) are prefixes of the longest, so one ``find`` of it
    in F_n places them all. Needs O(|F_n|) letters, however many members
    the catalog has, and has no size refusal.

    A row the groups cannot stand for (a longest member that is not a
    factor of F_n, or a right length past the end of the source, which
    repeats a member) is spelled by ``_build``, so its error is the one
    raised. The repeats of a member across the left lengths of a row are
    for the caller to find, one length at a time; ``_build`` raises
    those too."""
    n = len(table) - 1
    subject = table[n]
    placed = []
    for index, row in enumerate(rows_of(n)):
        kind, m, _, rights, _, literal = row
        if kind == KIND_LITERAL:
            spans = [(FactorForm(kind, literal=literal), len(literal),
                      len(literal), literal)]
        else:
            spans = ((FactorForm(kind, m, l, rights[i]),
                      len(head) + rights[i], len(head) + rights[-1], longest)
                     for l, i, head, longest in _heads(
                         row, *_parts(kind, m, table)))
        for form, lo, hi, longest in spans:
            p = subject.find(longest)
            if p < 0 or lo < 1 or hi != len(longest) or rights.step != 1:
                _build(n, category, rows_of)
                raise RuntimeError(
                    f"row {index} of the {category} catalog at n={n} is "
                    f"not a run of prefixes: {row}")
            placed.append(Group(index, lo, hi, p, form))
    return placed


def _left_seed_rows(n: int) -> list[Row]:
    if n <= 2:
        return _plain(n)
    if n == 3:
        return _plain(2, 3)
    return ([Row(KIND_FIB_PLUS_PREFIX, n - 1,
                 rights=range(fib_len(n - 2) + 1))]
            + [_short_ext(m) for m in range(3, n - 1)])


def _right_seed_rows(n: int) -> list[Row]:
    if n <= 2:
        return _plain(n)
    return _cover_rows(n) + [Row(KIND_SUFFIX_PLUS_FIB, n - 2,
                                 lefts=range(fib_len(n - 2) + 1))]


def _seed_rows(n: int) -> list[Row]:
    rows = _left_seed_rows(n) + _right_seed_rows(n)
    if n == 4:
        rows.append(Row(KIND_LITERAL, 0, literal="baa"))
    if n >= 5:
        for m in range(3, n - 2):
            rows += [_suffix_fib_prefix(m), _suffix_fib_fib_prefix(m)]
        rows.append(_suffix_fib_prefix(n - 2, long=True))
    return rows


def _circular_rows(n: int) -> list[Row]:
    if n <= 3:
        return _plain(n)
    if n == 4:
        return _plain(4, 3)
    return (_plain(n) + [_short_ext(m) for m in range(3, n)]
            + [_suffix_fib_prefix(m) for m in range(3, n - 1)]
            + [_suffix_fib_fib_prefix(m) for m in range(3, n - 2)])


def _border_rows(n: int) -> list[Row]:
    return _plain(*border_indices(n))


# Each catalog's clause rows, and whether it has the size refusal (the
# seed-flavored ones do): ``catalog`` spells from this table and verify
# places its groups from it.
CATALOGS = {"borders": (_border_rows, False), "covers": (_cover_rows, False),
            "left_seeds": (_left_seed_rows, True),
            "right_seeds": (_right_seed_rows, True),
            "seeds": (_seed_rows, True),
            "circular_covers": (_circular_rows, True)}


def catalog(n: int, category: str, force: bool = False) -> EnumResult:
    """The closed-form catalog of F_n named ``category``, spelled from
    its rows; ``force`` overrides the size refusal where there is one."""
    rows_of, refuses = CATALOGS[category]
    return _build(n, category, rows_of, force if refuses else None)


def enum_borders(n: int) -> EnumResult:
    """Borders of F_n: F_{n-2}, F_{n-4}, ... down to F_1 or F_2; none
    for n <= 2."""
    return catalog(n, "borders")


def enum_covers(n: int) -> EnumResult:
    """Covers of F_n: F_n alone up to n = 4; from there every second
    index down to F_3 (odd n) or F_4 (even n)."""
    return catalog(n, "covers")


def enum_left_seeds(n: int, force: bool = False) -> EnumResult:
    """Left seeds of F_n; for n >= 4: F_{n-1} extended by any prefix
    of F_{n-2}, and for each base 3 <= m <= n-2, F_m extended by a
    prefix of F_{m-1} stopping two letters short."""
    return catalog(n, "left_seeds", force)


def enum_right_seeds(n: int, force: bool = False) -> EnumResult:
    """Right seeds of F_n: the covers of F_n plus every suffix of
    F_{n-2} prepended to F_{n-3} F_{n-2}."""
    return catalog(n, "right_seeds", force)


def enum_seeds(n: int, force: bool = False) -> EnumResult:
    """Seeds of F_n: all left and right seeds, the literal "baa" at
    n = 4, and for n >= 5 the x F_m y and x F_{m-1} F_m y families for
    3 <= m <= n-3, plus x F_{n-2} y with y up to all |F_{n-3}| letters
    of F_{n-5} F_{n-4} (see ``_suffix_fib_prefix``)."""
    return catalog(n, "seeds", force)


def enum_circular_covers(n: int, force: bool = False) -> EnumResult:
    """Covers of the cyclic word over F_n: F_n alone up to n = 3, plus
    F_{n-1} at n = 4; for n >= 5: F_n, each F_m extended by a prefix of
    F_{m-1} stopping two letters short for 3 <= m <= n-1, and the x F_m y
    / x F_{m-1} F_m y families with the seed bounds but bases capped at
    n-2 and n-3 respectively."""
    return catalog(n, "circular_covers", force)


def nearest_forms(word: str, table: list[str]) -> tuple[FactorForm, ...]:
    """Relaxed structural matches for a word the catalogs of F_n did not
    produce, where ``table`` is ``fib_words(n)``: every way to read it as
    one of the family shapes with the range constraints dropped. Used to
    name the clause a disputed word is nearest to.

    The bases are read from the top down, and the scan stops at the
    first base whose longest shape (all of its left source, core and
    right source) is shorter than the word: a shape only grows with its
    base, so no lower base can match either. Matches are listed by base
    upward, then by left length, then in ``SHAPES`` order."""
    top = 0
    while top < len(table) - 1 and len(table[top + 1]) <= len(word):
        top += 1
    by_base: list[list[FactorForm]] = []
    for m in range(top, 0, -1):
        shapes = []
        for kind in SHAPES:
            try:
                shapes.append((kind, *_parts(kind, m, table)))
            except ValueError:  # base m is too low for this kind
                pass
        if max(len(a) + len(b) + len(c) for _, a, b, c in shapes) < len(word):
            break
        fm = table[m]
        found = []
        for l in range(0, min(len(fm), len(word) - len(fm)) + 1):
            if not fm.endswith(word[:l]):
                continue
            rest = word[l:]
            for kind, left, core, source in shapes:
                if ((left or l == 0) and rest.startswith(core)
                        and source.startswith(rest[len(core):])):
                    found.append(FactorForm(kind, m, l,
                                            len(rest) - len(core)))
        by_base.append(found)
    return tuple(dict.fromkeys(f for found in reversed(by_base)
                               for f in found))
