"""Closed-form catalogs of borders, covers, seeds, and circular covers
of Fibonacci words.

Each enumerator returns both the symbolic family instances (FactorForm)
and the materialized word set, so a disputed member can always be traced
back to the clause that produced it. The family definitions spelled out
in the docstrings here are the authority: whether they agree with the
brute-force oracles is decided by the verify module, never patched
here; its category registry pairs each enumerator with its oracle. The
seed-flavored catalogs hold O(|F_n|) to O(|F_n|^2) members, so those
enumerators share the engine's size refusal and take ``force`` to
override it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import refuse_oversize
from .fib import _check_index, border_indices, fib_len, fib_words
from .words import canonical

KIND_PLAIN_FIB = "PlainFib"
KIND_FIB_PLUS_PREFIX = "FibPlusPrefix"
KIND_SUFFIX_PLUS_FIB = "SuffixPlusFib"
KIND_SUFFIX_FIB_PREFIX = "SuffixFibPrefix"
KIND_SUFFIX_FIB_FIB_PREFIX = "SuffixFibFibPrefix"
# Escape hatch for the one catalog member that no structural family
# produces (the length-3 seed special to index 4).
KIND_LITERAL = "Literal"


# How far below its base each structural kind reads the Fibonacci
# table; a negative index would silently wrap around the table.
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


def prefix_source(m: int, n_max: int | None = None) -> str:
    """Right-extension source F_{m-3} F_{m-2} for the x*F_m*y families.

    It has the same length as F_{m-1} and agrees with it except in the
    final two letters (which appear swapped), so families whose right
    part stays at least two letters short of |F_{m-1}| read identical
    prefixes from either word; only the long-extension family at the top
    base actually needs the swapped tail.
    """
    _check_index(m - 3, n_max)
    return _prefix_source(fib_words(m - 2, n_max), m)


@dataclass(frozen=True)
class FactorForm:
    """One symbolic clause instance; materializes to exactly one word."""

    kind: str
    base: int = 0
    left_len: int = 0
    right_len: int = 0
    literal: str = ""

    def materialize(self, n_max: int | None = None) -> str:
        return self.spell(fib_words(self.base, n_max))

    def spell(self, table: list[str]) -> str:
        """The word this clause spells, reading F_k as ``table[k]``; the
        table must reach F_base (see ``fib.fib_words``)."""
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


def _build(n: int, category: str, families: list[list[FactorForm]],
           n_max: int | None = None,
           prevalidated: list[FactorForm] | None = None) -> EnumResult:
    """Materialize clause families, checking the internal invariants:
    no duplicates inside a single family (duplicates across families are
    absorbed by the set union), and every member a factor of the subject
    word. ``prevalidated`` forms come from another enumerator that
    already ran its own family checks. Every form is spelled from one
    table F_0..F_n."""
    table = fib_words(n, n_max)
    subject = table[n]
    forms: list[FactorForm] = list(prevalidated or ())
    words: list[str] = [form.spell(table) for form in forms]
    for family in families:
        members = [form.spell(table) for form in family]
        if len(set(members)) != len(members):
            raise RuntimeError(
                f"family produced duplicate members at n={n}, "
                f"category={category}: {family[0].kind}")
        forms.extend(family)
        words.extend(members)
    for form, word in zip(forms, words):
        if word not in subject:
            raise RuntimeError(
                f"{form} materialized {word!r}, not a factor of the "
                f"index-{n} word")
    return EnumResult(n, category, tuple(dict.fromkeys(forms)),
                      tuple(canonical(words)))


def enum_borders(n: int, n_max: int | None = None) -> EnumResult:
    """Borders of F_n: F_{n-2}, F_{n-4}, ... down to F_1 or F_2; none
    for n <= 2."""
    _check_index(n, n_max)
    families = [[FactorForm(KIND_PLAIN_FIB, j) for j in border_indices(n)]]
    return _build(n, "borders", families, n_max)


def enum_covers(n: int, n_max: int | None = None) -> EnumResult:
    """Covers of F_n: F_n alone up to n = 4; from there every second
    index down to F_3 (odd n) or F_4 (even n)."""
    _check_index(n, n_max)
    family = [FactorForm(KIND_PLAIN_FIB, n)]
    if n >= 5:
        lowest = 3 if n % 2 else 4
        family += [FactorForm(KIND_PLAIN_FIB, j)
                   for j in range(n - 2, lowest - 1, -2)]
    return _build(n, "covers", [family], n_max)


def enum_left_seeds(n: int, n_max: int | None = None,
                    force: bool = False) -> EnumResult:
    """Left seeds of F_n.

    For n >= 4: F_{n-1} extended by any prefix of F_{n-2}, together
    with, for each base 3 <= m <= n-2, F_m extended by a prefix of
    F_{m-1} stopping two letters short.
    """
    _check_index(n, n_max)
    refuse_oversize(f"catalog enumeration at index {n}", fib_len(n), force)
    if n <= 2:
        families = [[FactorForm(KIND_PLAIN_FIB, n)]]
    elif n == 3:
        families = [[FactorForm(KIND_PLAIN_FIB, 2), FactorForm(KIND_PLAIN_FIB, 3)]]
    else:
        families = [[FactorForm(KIND_FIB_PLUS_PREFIX, n - 1, right_len=r)
                     for r in range(fib_len(n - 2) + 1)]]
        for m in range(3, n - 1):
            families.append([FactorForm(KIND_FIB_PLUS_PREFIX, m, right_len=r)
                             for r in range(fib_len(m - 1) - 1)])
    return _build(n, "left_seeds", families, n_max)


def enum_right_seeds(n: int, n_max: int | None = None,
                     force: bool = False) -> EnumResult:
    """Right seeds of F_n: the covers of F_n plus every suffix of
    F_{n-2} prepended to F_{n-3} F_{n-2}."""
    _check_index(n, n_max)
    refuse_oversize(f"catalog enumeration at index {n}", fib_len(n), force)
    if n <= 2:
        families = [[FactorForm(KIND_PLAIN_FIB, n)]]
    else:
        lowest = 3 if n % 2 else 4
        plain = [FactorForm(KIND_PLAIN_FIB, n)]
        plain += [FactorForm(KIND_PLAIN_FIB, j)
                  for j in range(n - 2, lowest - 1, -2)]
        ext = [FactorForm(KIND_SUFFIX_PLUS_FIB, n - 2, left_len=l)
               for l in range(fib_len(n - 2) + 1)]
        families = [plain, ext]
    return _build(n, "right_seeds", families, n_max)


def _seed_families(n: int) -> list[list[FactorForm]]:
    """The three parametric seed families for n >= 5.

    (1) x F_m y with x a nonempty proper suffix of F_m, y a nonempty
        prefix of F_{m-1} at least two short, |x|+|y| >= |F_{m-1}|, for
        3 <= m <= n-3.
    (2) x F_{m-1} F_m y with x a suffix of F_m and y a prefix of
        F_{m-1}, both possibly empty or full, |x|+|y| >= |F_m|, same
        bases.
    (3) the top base m = n-2: x F_{n-2} y with y a nonempty prefix of
        F_{n-5} F_{n-4} up to |F_{n-3}| letters and |x|+|y| >= |F_{n-3}|.
    """
    families: list[list[FactorForm]] = []
    for m in range(3, n - 2):
        len_m, len_m1 = fib_len(m), fib_len(m - 1)
        families.append([
            FactorForm(KIND_SUFFIX_FIB_PREFIX, m, left_len=l, right_len=r)
            for l in range(1, len_m)
            for r in range(1, len_m1 - 1)
            if l + r >= len_m1])
        families.append([
            FactorForm(KIND_SUFFIX_FIB_FIB_PREFIX, m, left_len=l, right_len=r)
            for l in range(0, len_m + 1)
            for r in range(0, len_m1 + 1)
            if l + r >= len_m])
    top = n - 2
    len_top, len_n3 = fib_len(top), fib_len(n - 3)
    families.append([
        FactorForm(KIND_SUFFIX_FIB_PREFIX, top, left_len=l, right_len=r)
        for l in range(1, len_top)
        for r in range(1, len_n3 + 1)
        if l + r >= len_n3])
    return families


def enum_seeds(n: int, n_max: int | None = None,
               force: bool = False) -> EnumResult:
    """Seeds of F_n: all left and right seeds, the literal "baa" at
    n = 4, and for n >= 5 the three parametric families."""
    _check_index(n, n_max)
    refuse_oversize(f"catalog enumeration at index {n}", fib_len(n), force)
    prevalidated = (list(enum_left_seeds(n, n_max, force).forms)
                    + list(enum_right_seeds(n, n_max, force).forms))
    families = []
    if n == 4:
        families.append([FactorForm(KIND_LITERAL, literal="baa")])
    if n >= 5:
        families.extend(_seed_families(n))
    return _build(n, "seeds", families, n_max,
                  prevalidated=prevalidated)


def enum_circular_covers(n: int, n_max: int | None = None,
                         force: bool = False) -> EnumResult:
    """Covers of the cyclic word over F_n.

    F_n alone up to n = 3, plus F_{n-1} at n = 4; for n >= 5: F_n, each
    F_m extended by a prefix of F_{m-1} stopping two letters short for
    3 <= m <= n-1, and the x F_m y / x F_{m-1} F_m y families with the
    seed bounds but bases capped at n-2 and n-3 respectively.
    """
    _check_index(n, n_max)
    refuse_oversize(f"catalog enumeration at index {n}", fib_len(n), force)
    if n <= 3:
        families = [[FactorForm(KIND_PLAIN_FIB, n)]]
    elif n == 4:
        families = [[FactorForm(KIND_PLAIN_FIB, 4), FactorForm(KIND_PLAIN_FIB, 3)]]
    else:
        families = [[FactorForm(KIND_PLAIN_FIB, n)]]
        for m in range(3, n):
            families.append([FactorForm(KIND_FIB_PLUS_PREFIX, m, right_len=r)
                             for r in range(fib_len(m - 1) - 1)])
        for m in range(3, n - 1):
            len_m, len_m1 = fib_len(m), fib_len(m - 1)
            families.append([
                FactorForm(KIND_SUFFIX_FIB_PREFIX, m, left_len=l, right_len=r)
                for l in range(1, len_m)
                for r in range(1, len_m1 - 1)
                if l + r >= len_m1])
        for m in range(3, n - 2):
            len_m, len_m1 = fib_len(m), fib_len(m - 1)
            families.append([
                FactorForm(KIND_SUFFIX_FIB_FIB_PREFIX, m, left_len=l, right_len=r)
                for l in range(0, len_m + 1)
                for r in range(0, len_m1 + 1)
                if l + r >= len_m])
    return _build(n, "circular_covers", families, n_max)


def nearest_forms(word: str, n: int,
                  n_max: int | None = None) -> tuple[FactorForm, ...]:
    """Relaxed structural matches for a word the catalogs did not
    produce: every way to read it as one of the family shapes with the
    range constraints dropped. Used to name the clause a disputed word
    is nearest to."""
    matches: list[FactorForm] = []
    top = 0
    while top < n and fib_len(top + 1) <= len(word):
        top += 1
    table = fib_words(top, n_max)
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
