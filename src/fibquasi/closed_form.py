"""Closed-form catalogs of borders, covers, seeds, and circular covers
of Fibonacci words.

Each enumerator returns both the symbolic family instances (FactorForm)
and the materialized word set, spelled when read, so a disputed member
can always be traced back to the clause that produced it. The family
definitions spelled out in the docstrings here are the authority:
whether they agree with the brute-force oracles is decided by the
verify module, never patched here; its category registry pairs each
catalog with its oracle by name. ``CATALOGS`` maps that name to the
catalog's rows. The seed-flavored catalogs hold O(|F_n|) to
O(|F_n|^2) members, so those enumerators share the engine's size
refusal and take ``force`` to override it.

Every clause has one of the shapes in ``SHAPES``, which only ``_parts``
reads: it spells a kind's left source, core and right source at a base
and refuses a base too low for the kind, for spelling, ``groups`` and
``nearest_forms`` alike. A catalog is a list of clause rows (kind,
base, left range, right range, least |x|+|y|), each family's rows made
by one builder. Row order is output order, because the JSON ``forms``
list is pinned byte for byte: members come row by row (left length
outer, right length inner; a catalog lists each row once, so no form
repeats). The only member no shape produces is the literal "baa" at
index 4 (``KIND_LITERAL``).

``group_runs`` reads a catalog's rows once and places them in F_n
without spelling a member, as runs of groups: the groups of one row at
consecutive left lengths whose fields each move by a fixed step, a few
per row. Verify cells keep the runs; ``_build`` expands them into one
``Group`` per (row, left length) (``groups``). The seed and
circular-cover catalogs hold
Theta(|F_n|^2) members and Theta(|F_n|^3) letters, so an ``EnumResult``
keeps the groups and F_n, not the words. ``_build`` raises every
error before anything is spelled. ``EnumResult.write_json`` and
``write_text`` write a catalog from its groups and runs, one write per
group's forms and per length's words (or run of lengths with one active
start; F_n is Sturmian, so it has at most k + 1 words of length k), with
no Python frame per form or word; the JSON is byte for byte what
``json.dumps`` of ``to_json`` gives, and no word needs escaping, since
each is a slice of F_n. A ``FactorForm`` is a NamedTuple, made in bulk
by ``tuple.__new__`` and hashed as a plain tuple.

One walk serves the row check and the words (``_walk``): it sorts a
catalog's groups once, by their longest members, and sweeps the lengths
once. A group's member of length k is a prefix of its longest, so in
that order every length's members come out sorted, with equal ones next
to each other; and two groups that differ at one length differ at every
longer one. So the words of a length need no set or sort, and a row's
repeat shows where one of its two groups joins, next to a group of its
row that it equals. ``_build`` keeps the walk's runs of lengths in the
``EnumResult``, so no catalog is sorted twice, and no member is spelled
more often than the output needs.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, groupby, repeat
from operator import add, attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .engine import refuse_oversize
from .fib import border_indices, fib_len, fib_words

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
    unknown kind, a base whose deepest offset would read a negative
    index (which would silently wrap around the table), and a base above
    the table (every core reads F_m)."""
    shape = SHAPES.get(kind)
    if shape is None:
        raise ValueError(f"unknown form kind {kind!r}")
    left, core, source = shape
    lowest = m - max(core + source)
    if lowest < 0:
        raise ValueError("Fibonacci index must be nonnegative, got "
                         f"{m if m < 0 else lowest}")
    if m >= len(table):
        raise ValueError(f"base {m} is above the table's top index "
                         f"{len(table) - 1}")
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
    """A catalog for one (index, category) cell, kept as the groups that
    ``groups`` placed in ``subject``, which is F_n, and the ``runs`` that
    ``_walk`` cut from them, and spelled only when read: ``forms`` are
    the clause instances and ``words`` the deduplicated word set, by
    length and then alphabetically. ``write_json`` and ``write_text``
    spell one length at a time from the runs, and format each group's
    forms from one head."""

    n: int
    category: str
    subject: str = field(repr=False)
    groups: tuple[Group, ...] = field(repr=False)
    runs: list[tuple[int, int, tuple[int, ...]]] = field(repr=False)

    @cached_property
    def forms(self) -> tuple[FactorForm, ...]:
        """Each group's forms, in group order. A group's forms differ only
        in the right length, so each group's are one C-level ``map``; no
        two groups share a form, since a catalog lists each row once and
        a row's groups differ in their left length."""
        new_form = partial(tuple.__new__, FactorForm)
        return tuple(chain.from_iterable([
            map(new_form, zip(repeat(kind), repeat(m), repeat(l),
                              range(r, r + hi - lo + 1), repeat(literal)))
            for _, lo, hi, _, (kind, m, l, r, literal) in self.groups]))

    @cached_property
    def words(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(self._lengths()))

    def _lengths(self) -> Iterator[Iterable[str]]:
        """The words, one length at a time from the shortest, each
        length's sorted: at length k, the distinct F_n[p:p+k] of the
        active groups' starts p. Each of ``runs`` gives the starts
        sorted by their groups' longest members, so each length's words
        come out sorted with equal words next to each other, and
        ``groupby`` keeps one of each. Over a run of lengths with one
        active start, the words are the prefixes of one slice, spelled
        by one ``map``."""
        subject = self.subject
        for a, b, starts in self.runs:
            if len(starts) == 1:
                longest = subject[starts[0]:starts[0] + b - 1]
                yield map(longest.__getitem__, map(slice, range(a, b)))
                continue
            for k in range(a, b):
                yield map(itemgetter(0), groupby(map(
                    subject.__getitem__,
                    map(slice, starts, map(k.__add__, starts)))))

    def to_json(self) -> dict:
        return {"n": self.n, "category": self.category,
                "forms": [f.to_json() for f in self.forms],
                "words": list(self.words)}

    def _form_chunks(self, inner: str) -> Iterator[str]:
        """Each group's forms as JSON objects joined by ``inner``, one
        chunk per group. A group's forms differ only in the right length,
        which comes last, so the group's head (every field up to
        ``"right_len": ``) is formatted once and each form adds only its
        right length and the closing brace."""
        for _, lo, hi, _, form in self.groups:
            kind, m, l, r, _ = form
            if kind == KIND_LITERAL:  # a literal row spells one member
                yield json.dumps(form.to_json())
                continue
            head = ('{"kind": "%s", "m": %d, "left_len": %d, "right_len": '
                    % (kind, m, l))
            yield head + ("}" + inner + head).join(
                map(str, range(r, r + hi - lo + 1))) + "}"

    def _word_chunks(self, inner: str) -> Iterator[str]:
        """Each item of ``_lengths``, its words joined by ``inner``."""
        return map(inner.join, self._lengths())

    def write_json(self, write: Callable[[str], object]) -> None:
        """Write ``json.dumps(self.to_json())`` and a newline through
        ``write``, byte for byte, with no Python frame per form or word:
        one write per group's forms and per item of ``_lengths`` (one
        length's words, or a run of lengths with one active start), so
        no more than one such chunk is held at a time. No word needs
        escaping: each is a slice of F_n, a word over {a, b}."""
        write('{"n": %d, "category": %s, "forms": ['
              % (self.n, json.dumps(self.category)))
        _write_items(write, self._form_chunks, "", "", ", ")
        write('], "words": [')
        _write_items(write, self._word_chunks, '"', '"', ", ")
        write("]}\n")

    def write_text(self, write: Callable[[str], object]) -> None:
        """Write ``forms:`` and each form as ``write_json`` writes it, then
        ``words:`` and each word, one item per line indented two spaces,
        in the writes ``write_json`` makes."""
        write("forms:\n")
        _write_items(write, self._form_chunks, "  ", "\n", "")
        write("words:\n")
        _write_items(write, self._word_chunks, "  ", "\n", "")


def _walk(n: int, category: str, subject: str, placed: Sequence[Group]
          ) -> list[tuple[int, int, tuple[int, ...]]]:
    """The one sweep of a catalog's groups ``placed`` in F_n, which is
    ``subject``: check that no row repeats a member, and cut the lengths
    the groups span wherever one joins (at its ``lo``) or leaves (after
    its ``hi``) into the runs ``EnumResult._lengths`` spells.

    The groups are ranked once by their longest members F_n[p:p+hi],
    spelled by one C-level ``map`` and dropped after the sort; at every
    length the active groups' members are then sorted by rank (see the
    module docstring). So each joining group is compared with its two
    neighbours in its row's active ranks only, one member spelled, with
    no Python frame per length. The members of one group differ in
    length, so no group repeats itself.

    Returns (a, b, starts) for each run a <= k < b of lengths at which
    the same groups are active, with their distinct ``starts`` in rank
    order; runs with none are left out. Raises the duplicate error of
    the first repeating row in row order, named by the kind of its
    first group in ``placed``, once the sweep is done. Verify cells name
    a repeat through this too, so both sides name the same row."""
    starts = list(map(attrgetter("p"), placed))
    keys = list(map(subject.__getitem__, map(
        slice, starts, map(add, starts, map(attrgetter("hi"), placed)))))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    starts = list(map(starts.__getitem__, order))
    rows = list(map(attrgetter("row"), map(placed.__getitem__, order)))
    joins: dict[int, list[int]] = {}
    leaves: dict[int, list[int]] = {}
    for rank, (_, lo, hi, _, _) in enumerate(map(placed.__getitem__, order)):
        joins.setdefault(lo, []).append(rank)
        leaves.setdefault(hi + 1, []).append(rank)
    cuts = sorted(joins.keys() | leaves.keys())
    active: list[int] = []  # the active groups' ranks, ascending
    in_row: dict[int, list[int]] = {}  # row -> its active ranks, ascending
    repeating = set()
    runs = []
    for a, b in zip(cuts, cuts[1:]):
        for rank in leaves.get(a, ()):
            active.remove(rank)
            in_row[rows[rank]].remove(rank)
        for rank in joins.get(a, ()):
            insort(active, rank)
            mates = in_row.setdefault(rows[rank], [])
            i = bisect_left(mates, rank)
            mates.insert(i, rank)
            member = subject[starts[rank]:starts[rank] + a]
            if ((i and subject.startswith(member, starts[mates[i - 1]]))
                    or (i + 1 < len(mates) and subject.startswith(
                        member, starts[mates[i + 1]]))):
                repeating.add(rows[rank])
        if active:
            runs.append((a, b, tuple(dict.fromkeys(
                map(starts.__getitem__, active)))))
    if repeating:
        row = min(repeating)
        raise RuntimeError(_repeat_error(n, category, next(
            group.form.kind for group in placed if group.row == row)))
    return runs


def _write_items(write: Callable[[str], object],
                 chunks_of: Callable[[str], Iterable[str]], before: str,
                 after: str, between: str) -> None:
    """Write the items of ``chunks_of(inner)``, each chunk one or more
    items joined by ``inner``, as ``before`` item ``after`` with
    ``between`` between two items: one write per chunk."""
    lead, inner = before, after + between + before
    for chunk in chunks_of(inner):
        write(lead + chunk + after)
        lead = between + before


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


def _build(n: int, category: str, rows_of: Callable[[int], list[Row]],
           force: bool | None = None) -> EnumResult:
    """Build the table F_0..F_n (the one index guard read) and, unless
    ``force`` is None (the linear catalogs), check the size refusal;
    then place the catalog ``rows_of(n)`` as groups (``groups``: the
    runs of ``group_runs``, which raises a row's other errors, expanded
    with no Python frame per group) and walk them once (``_walk``): the
    walk checks that no row repeats a member (repeats across rows are
    absorbed by the set union) and cuts the runs the words are spelled
    from. Every error is raised here, before the result spells
    anything.

    No word list is kept: the walk spells each group's longest member
    once, as its sort key, and its member at the length where it joins
    once, to compare with its two neighbours in its row, with C-level
    ``map`` calls and no Python frame per member or length."""
    table = fib_words(n)
    if force is not None:
        refuse_oversize(f"catalog enumeration at index {n}", fib_len(n),
                        force)
    subject = table[n]
    placed = tuple(groups(table, category, rows_of))
    return EnumResult(n, category, subject, placed,
                      _walk(n, category, subject, placed))


def _repeat_error(n: int, category: str, kind: str) -> str:
    return (f"family produced duplicate members at n={n}, "
            f"category={category}: {kind}")


class Group(NamedTuple):
    """The members of one (row, left length) of a catalog, placed in
    F_n: F_n[p:p+k] for every length k from lo to hi. ``row`` is the
    row's place in the catalog, and ``form`` the clause instance of the
    shortest member. ``expand`` makes these from a catalog's runs, for
    ``enum``; verify cells keep the runs alone."""

    row: int
    lo: int
    hi: int
    p: int
    form: FactorForm

    def form_at(self, k: int) -> FactorForm:
        """The clause instance of the member of length k."""
        return self.form._replace(right_len=self.form.right_len + k - self.lo)


class GroupRun(NamedTuple):
    """The groups of one row at ``count`` consecutive left lengths, from
    ``form.left_len`` on, each an arithmetic step from the one before:
    the first is Group(row, lo, hi, p, form) and the j-th ``group(j)``.
    Each starts one letter before the last and spans one more length
    (its ``hi`` one greater); its right length moves by ``step`` and its
    ``lo`` by 1 + ``step``.
    ``step`` is -1 while the least sum |x|+|y| sets the right length,
    so all the run's groups join at one length, and 0 from there on."""

    row: int
    count: int
    p: int
    lo: int
    hi: int
    step: int
    form: FactorForm

    def group(self, j: int) -> Group:
        """The j-th group of the run, 0 <= j < ``count``."""
        kind, m, l, r, literal = self.form
        return Group(self.row, self.lo + j * (1 + self.step), self.hi + j,
                     self.p - j, FactorForm(kind, m, l + j, r + j * self.step,
                                            literal))


def _line(first: int, step: int, count: int) -> Iterable[int]:
    """first, first + step, ... (``count`` values)."""
    return range(first, first + step * count, step) if step else repeat(
        first, count)


def expand(runs: Iterable[GroupRun]) -> list[Group]:
    """Every group of ``runs``, in order: ``group(j)`` of each run for
    each j, made by C-level ``map`` and ``zip`` over ranges, with no
    Python frame per group."""
    new_group = partial(tuple.__new__, Group)
    new_form = partial(tuple.__new__, FactorForm)
    return list(chain.from_iterable([
        map(new_group, zip(
            repeat(row, c), _line(lo, 1 + step, c), range(hi, hi + c),
            range(p, p - c, -1), map(new_form, zip(
                repeat(kind), repeat(m), range(l, l + c), _line(r, step, c),
                repeat(literal)))))
        for row, c, p, lo, hi, step, (kind, m, l, r, literal) in runs]))


def groups(table: list[str], category: str,
           rows_of: Callable[[int], list[Row]]) -> list[Group]:
    """The catalog ``rows_of(n)`` as groups, in row order: the runs of
    ``group_runs``, expanded."""
    return expand(group_runs(table, category, rows_of))


def _common_suffix(a: str, a_end: int, b: str, b_end: int, most: int
                   ) -> int:
    """The largest j <= ``most`` with a[a_end-j:a_end] == b[b_end-j:b_end],
    by one slice comparison when it is ``most``, and otherwise by
    bisection."""
    if a[a_end - most:a_end] == b[b_end - most:b_end]:
        return most
    low, high = 0, most - 1
    while low < high:
        mid = (low + high + 1) // 2
        if a[a_end - mid:a_end] == b[b_end - mid:b_end]:
            low = mid
        else:
            high = mid - 1
    return low


def group_runs(table: list[str], category: str,
               rows_of: Callable[[int], list[Row]]) -> list[GroupRun]:
    """The catalog ``rows_of(n)`` placed in F_n as runs of groups, in row
    order, with no member spelled, where ``table`` is ``fib_words(n)``.

    At left length l a row takes the right lengths rights[i:], the first
    r with l + r >= least onward; its members head + source[:r] (see
    ``_parts``) are prefixes of the longest, so the first occurrence p of
    the longest in F_n places them all, as the group (row, lo, hi, p,
    form of the shortest member). A row's left lengths with a group are
    consecutive, and at each the longest member gains one letter,
    ``left[-l]``, in front: so while F_n has that letter just before p,
    the group at l starts at p - 1 (no search). One slice comparison of
    F_n before p with the left source finds how far that chain goes
    (bisection, only where it breaks, finds where), and a ``find`` from
    the last start places the group after a break; a group with no
    group at l - 1 is found from 0, and no chain starts below l = 0.
    Along a chain every field moves by a
    fixed step until the right length reaches rights[0], so a row is a
    handful of ``GroupRun``s. Needs O(|F_n|) letters and has no size
    refusal.

    A row's errors are the builder's, in its order: a right length past
    the end of the source that repeats a member, then the first member
    that is not a factor of F_n. A row whose members are not one letter
    apart (a step in the right range, a negative right length, one right
    length past the end, the empty literal) is no run of prefixes.
    Repeats across the left lengths of a row are for the caller to find,
    one length at a time."""
    n = len(table) - 1
    subject = table[n]
    placed: list[GroupRun] = []
    for index, row in enumerate(rows_of(n)):
        kind, m, lefts, rights, least, literal = row
        left, core, source = (("", literal, "") if kind == KIND_LITERAL
                              else _parts(kind, m, table))
        if lefts.step == rights.step == 1:
            # l takes a right length iff l >= least - rights[-1], so the
            # left lengths with a group are a tail of lefts, and the
            # longest of them takes the most right lengths
            spans = range(max(lefts.start, least - rights[-1]) if rights
                          else lefts.stop, lefts.stop)
            first = bisect_left(rights, least - spans[-1]) if spans else 0
        else:
            spans = [l for l in lefts
                     if bisect_left(rights, least - l) < len(rights)]
            first = min([bisect_left(rights, least - l) for l in spans],
                        default=0)
        if not spans:
            continue
        # every right length from len(source) on spells the whole source,
        # so the row repeats a member iff two of them share a left length
        if len(rights) - max(first, bisect_left(rights, len(source))) > 1:
            raise RuntimeError(_repeat_error(n, category, kind))
        if (rights.step != 1 or rights[first] < 0
                or rights[-1] > len(source) or not core):
            raise RuntimeError(
                f"row {index} of the {category} catalog at n={n} is "
                f"not a run of prefixes: {row}")
        r0, top = rights[0], rights[-1]
        turn = least - r0  # the right length is least - l up to here
        j, last, p = 0, None, 0  # the left length and start of the last group
        while j < len(spans):
            l = spans[j]
            head = _suffix(left, l) + core
            p = subject.find(head + source[:top],
                             p if last == l - 1 and l <= len(left) else 0)
            if p < 0:
                r = next(r for r in rights[bisect_left(rights, least - l):]
                         if head + source[:r] not in subject)
                raise RuntimeError(
                    f"{FactorForm(kind, m, l, r, literal)} materialized "
                    f"{head + source[:r]!r}, not a factor of the "
                    f"index-{n} word")
            # the group at l + i starts at p - i while F_n has left[-l-i]
            # just before p - i + 1
            most = (min(len(spans) - 1 - j if lefts.step == 1 else 0, p,
                        len(left) - l) if l >= 0 else 0)
            last = l + (_common_suffix(subject, p, left, len(left) - l, most)
                        if most > 0 else 0)
            j += last - l + 1
            width = len(head)
            while l <= last:
                count = (min(last, turn) if l < turn else last) - l + 1
                right = max(r0, least - l)
                placed.append(GroupRun(
                    index, count, p, width + right, width + top,
                    -1 if l < turn else 0,
                    FactorForm(kind, m, l, right, literal)))
                l, p, width = l + count, p - count, width + count
            p += 1  # the last group's start
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
    # the left and right seed rows share a PlainFib row at n <= 3
    rows = list(dict.fromkeys(_left_seed_rows(n) + _right_seed_rows(n)))
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
    if category not in CATALOGS:
        raise ValueError(f"unknown category {category!r}")
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
