"""Oracle-grade decision procedures for covers, seeds, and circular covers.

Everything here works on arbitrary binary words. The per-word
predicates favor being obviously correct over being fast: occurrence
scanning plus explicit chain conditions. The exhaustive extension
search in is_seed is the definitive seed oracle; is_seed_fast is the
occurrence-gap criterion that must agree with it (a tested property).
is_seed runs the cover test only on extension pairs whose extended word
starts and ends with the candidate; every pair it skips would fail the
cover test's first check, so the search is still exhaustive and finds
the same canonical witness.

covers_of takes the borders of y, the only candidates a proper cover
can be, from the KMP failure chain and decides each on y with a gap
walk: one bounded find per occurrence, stopped at the first gap longer
than the border (the gap rule of Moore & Smyth and of Li & Smyth). That
is the occurrence-chain condition of words.is_cover, its test
reference.

The sweeps seed_sweep and circular_sweep decide all candidates of a
subject one factor length at a time, on names rather than words: each
factor of the length is named by its first start (Karp, Miller &
Rosenberg), and the gap rule and the border-table queries for the seed
head and tail (Iliopoulos, Moore & Park, "Covering a string") run on
those ints. A sweep holds one length at a time, O(|y|) ints. The set
oracles seeds_of and circular_covers_of spell the names a sweep
accepts; verify compares the names with the catalogs directly.
is_seed_fast and is_circular_cover are their test references, and the
test suite proves seeds_of equal to the exhaustive is_seed on every
binary word of up to 10 letters and on sampled words of up to 60.

refuse_oversize is the one size refusal: seeds_of, circular_covers_of
and the seed-flavored catalogs in closed_form decline subjects longer
than SIZE_REFUSAL_LIMIT letters unless forced. The sweeps themselves
have no refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Iterator

from .errors import SizeLimitError
from .words import (canonical, covered_prefix_extent, covered_suffix_extent,
                    is_cover, occurrences, period_of, require_word)

# seeds_of / circular_covers_of and the seed-flavored catalogs refuse
# longer words unless forced: the word sets they spell grow
# quadratically in letters.
SIZE_REFUSAL_LIMIT = 2000


def refuse_oversize(what: str, length: int, force: bool) -> None:
    """The one size refusal: raise SizeLimitError for a subject of more
    than SIZE_REFUSAL_LIMIT letters unless ``force`` is set."""
    if length > SIZE_REFUSAL_LIMIT and not force:
        raise SizeLimitError(
            f"refusing {what}: {length} letters > {SIZE_REFUSAL_LIMIT}; "
            f"pass --force (command line) or force=True (library) to "
            f"override")


def _require_subject(y: str) -> None:
    """The set oracles' subject check: a nonempty word over {a, b}."""
    require_word(y)
    if not y:
        raise ValueError("word must be nonempty")


def distinct_factors(y: str) -> list[str]:
    """All distinct nonempty factors of y, canonically ordered."""
    n = len(y)
    return canonical(y[i:j] for i in range(n) for j in range(i + 1, n + 1))


def covers_of(y: str) -> list[str]:
    """Every factor that covers y, shortest first: the borders of y
    whose occurrences chain across y, plus y itself.

    A cover of y is a border of y, so the candidates are the lengths on
    the KMP failure chain of y. A border u = y[:k] covers y iff every
    occurrence after the one at 0 starts at most k past the previous
    one, up to the occurrence at n - k. The gap walk finds the next
    occurrence after i with y.find(u, i + 1, i + 2k), which sees exactly
    the occurrences that start in i + 1 .. i + k; -1 means the next gap
    is longer than k, so u does not cover y. Each border is decided on
    y itself, never from the covers of a shorter cover, so the verify
    cover_chain battery compares two independent answers.
    """
    _require_subject(y)
    n = len(y)
    table = _border_table(y)
    out = [y]
    k = table[n]
    while k:
        u = y[:k]
        i = 0
        while 0 <= i < n - k:
            i = y.find(u, i + 1, i + 2 * k)
        if i >= 0:
            out.append(u)
        k = table[k]
    out.reverse()
    return out


def is_left_seed(z: str, y: str) -> bool:
    """A prefix z of y is a left seed iff it covers a prefix of y at
    least as long as the period of y."""
    if not y.startswith(z):
        return False
    return covered_prefix_extent(z, y) >= period_of(y)


def left_seeds_of(y: str) -> list[str]:
    _require_subject(y)
    p = period_of(y)
    return [y[:k] for k in range(1, len(y) + 1)
            if covered_prefix_extent(y[:k], y) >= p]


def is_right_seed(z: str, y: str) -> bool:
    """Mirror of is_left_seed: z must be a suffix of y covering a
    suffix at least as long as the period."""
    if not y.endswith(z):
        return False
    return covered_suffix_extent(z, y) >= period_of(y)


def right_seeds_of(y: str) -> list[str]:
    _require_subject(y)
    p = period_of(y)
    return [y[len(y) - k:] for k in range(1, len(y) + 1)
            if covered_suffix_extent(y[len(y) - k:], y) >= p]


@dataclass(frozen=True)
class SeedWitness:
    """A covering superstring for a seed: left_ext * y * right_ext is
    covered by the seed at the recorded 1-based positions.

    left_ext is a proper prefix of the seed and right_ext a proper
    suffix: a covered superstring starts and ends with the seed, which
    forces exactly those shapes once extensions are shorter than the
    seed.
    """

    left_ext: str
    right_ext: str
    positions: tuple[int, ...]

    def to_json(self) -> dict:
        return {"left": self.left_ext, "right": self.right_ext,
                "positions": list(self.positions)}


def is_seed(u: str, y: str) -> tuple[bool, SeedWitness | None]:
    """Exhaustive seed oracle: try every proper prefix of u as a left
    extension and every proper suffix as a right extension, and test the
    cover condition on the extended word.

    A covered word starts and ends with u, and u is no longer than y, so
    left extension u[:llen] can only work when y starts with u[llen:],
    and right extension u[m-rlen:] only when y ends with u[:m-rlen].
    Only those pairs reach is_cover: every skipped pair would fail its
    first test, so the search stays exhaustive. It runs shortest total
    extension first, ties broken by the shorter left extension, so the
    witness is canonical.
    """
    if not u:
        raise ValueError("pattern must be nonempty")
    if u not in y:
        raise ValueError(f"{u!r} is not a factor of the subject word")
    m = len(u)
    lefts = [llen for llen in range(m) if y.startswith(u[llen:])]
    rights = [rlen for rlen in range(m) if y.endswith(u[:m - rlen])]
    for _, llen, rlen in sorted((i + j, i, j) for i in lefts for j in rights):
        left = u[:llen]
        right = u[m - rlen:] if rlen else ""
        ok, pos = is_cover(u, left + y + right)
        if ok:
            return True, SeedWitness(left, right, pos)
    return False, None


def is_seed_fast(u: str, y: str) -> bool:
    """Occurrence-gap seed criterion, equivalent to is_seed.

    u is a seed iff (a) consecutive occurrences of u in y are at most
    |u| apart, (b) the head of y before the first occurrence can be
    absorbed by an occurrence hanging off the left edge (some prefix
    y[1..e] is a suffix of u, e reaching back to the first occurrence),
    and (c) symmetrically for the tail after the last occurrence.
    """
    occ = occurrences(u, y)
    if not occ:
        raise ValueError(f"{u!r} is not a factor of the subject word")
    m, n = len(u), len(y)
    if any(q - p > m for p, q in zip(occ, occ[1:])):
        return False
    if occ[0] != 1:
        if not any(y[:e] == u[m - e:] for e in range(occ[0] - 1, m)):
            return False
    last_end = occ[-1] + m - 1
    if last_end != n:
        lo = max(n - last_end, 1)
        if not any(y[n - e:] == u[:e] for e in range(lo, m)):
            return False
    return True


def _border_table(w: str) -> list[int]:
    """KMP failure table: entry L is the length of the longest proper
    border of w[:L] (0 for L <= 1)."""
    table = [0] * (len(w) + 1)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = table[k]
        if w[i] == w[k]:
            k += 1
        table[i + 1] = k
    return table


def _has_border(table: list[int], length: int, lo: int, hi: int) -> bool:
    """True iff w[:length] has a border of length in [lo, hi], where
    table is _border_table(w) and lo >= 1."""
    b = table[length]
    while b > hi:
        b = table[b]
    return b >= lo


def _factor_names(text: str, count: int) -> Iterator[tuple[int, list[int]]]:
    """Name the factors of ``text`` one length at a time (the naming
    step of Karp, Miller & Rosenberg, STOC 1972): for k = 1, 2, ...
    yield (k, names), where names[i] is the first start of text[i:i+k]
    among the starts 0..len(names)-1. The starts are the first ``count``
    positions that still have k letters, and k runs up to ``count``
    while there is one.

    A name is the factor's first start, so a factor is spelled from its
    name alone, and ``names`` is one list of ints, updated in place
    between lengths; only one length is held at a time. From k-1 to k a
    start keeps its name when its k-th letter equals the k-th letter at
    that name's start; the starts that differ from their name's start
    take the first of them with the same old name as their new name.
    """
    size = min(count, len(text))
    first = dict(zip(reversed(text[:size]), range(size - 1, -1, -1)))
    names = list(map(first.__getitem__, text[:size]))
    k = 1
    while True:
        yield k, names
        k += 1
        size = min(count, len(text) - k + 1)
        if k > count or size <= 0:
            return
        del names[size:]
        letters = text[k - 1:k - 1 + len(names)]
        moved = list(compress(range(len(names)), map(
            ne, map(letters.__getitem__, names), letters)))
        old = list(map(names.__getitem__, moved))
        renamed = dict(zip(reversed(old), reversed(moved)))
        for i, x in zip(moved, old):
            names[i] = renamed[x]


def _gap_runs(names: list[int], k: int) -> tuple[list[int], set[int]]:
    """(last, gapped) for the names of one length k: last[x] is the last
    start named x (for every x that is a name), and gapped holds the
    names with two consecutive starts more than k apart."""
    last = list(range(len(names)))
    gapped = set()
    for i, x in enumerate(names):
        if i - last[x] > k:
            gapped.add(x)
        last[x] = i
    return last, gapped


def seed_sweep(y: str) -> Iterator[tuple[int, list[int], list[int]]]:
    """The seeds of y, one length at a time: for k = 1..|y|, yield
    (k, names, seeds), where names are ``_factor_names`` of y at k and
    seeds lists the names x whose factor y[x:x+k] is a seed of y.

    A seed's occurrences leave no gap longer than k (the gap rule of
    is_seed_fast), and the head and tail conditions become border
    queries on the KMP tables of y and of its reverse (Iliopoulos, Moore
    & Park, "Covering a string"). The head needs a border of y[:x+k] at
    least x long and shorter than k, so only first starts x < k can
    pass. The exhaustive is_seed stays the definitive oracle; the test
    suite proves this sweep equal to it.
    """
    n = len(y)
    prefix_borders = _border_table(y)
    suffix_borders = _border_table(y[::-1])
    for k, names in _factor_names(y, n):
        last, gapped = _gap_runs(names, k)
        seeds = []
        for x in range(min(k, len(names))):
            if names[x] != x or x in gapped:
                continue
            tail = n - last[x] - k
            # an occurrence hanging off the left edge must reach back to
            # the first start; the tail mirrors this on y[last:]
            if ((x == 0 or _has_border(prefix_borders, x + k, x, k - 1))
                    and (tail == 0 or _has_border(
                        suffix_borders, n - last[x], tail, k - 1))):
                seeds.append(x)
        yield k, names, seeds


def seeds_of(y: str, force: bool = False) -> list[str]:
    """All distinct factors of y that are seeds of y, spelled from
    ``seed_sweep``."""
    _require_subject(y)
    refuse_oversize("seed enumeration", len(y), force)
    return [u for k, _, seeds in seed_sweep(y)
            for u in sorted([y[x:x + k] for x in seeds])]


def is_circular_cover(u: str, y: str) -> bool:
    """True iff the occurrences of u around the cycle of y leave no gap.

    Occurrences are located in y*y at starts within the first period;
    the cycle is covered iff every cyclic gap between consecutive starts
    is at most |u| (an occurrence reaches |u|-1 past its start, so a gap
    over |u| strands the letters in between).
    """
    n = len(y)
    if len(u) > n:
        return False
    starts = [p for p in occurrences(u, y + y) if p <= n]
    if not starts:
        return False
    m = len(u)
    if any(q - p > m for p, q in zip(starts, starts[1:])):
        return False
    return starts[0] + n - starts[-1] <= m


def circular_sweep(y: str, unrestricted: bool = False
                   ) -> Iterator[tuple[int, list[int], list[int]]]:
    """The covers of the cyclic word over y, one length at a time: for
    k = 1..|y|, yield (k, names, covers), where names are
    ``_factor_names`` of y*y over the starts 0..|y|-1 and covers lists
    the names x whose factor (y*y)[x:x+k] covers the cycle.

    The gap rule of is_circular_cover on all candidates at once: no gap
    longer than k, including the one across the seam, so the first start
    is below k. A first start past |y|-k means the factor only occurs
    across the seam, so it is not a factor of the linear y; it is a
    candidate only when ``unrestricted``.
    """
    n = len(y)
    for k, names in _factor_names(y + y, n):
        last, gapped = _gap_runs(names, k)
        yield k, names, [x for x in range(min(k, n))
                         if names[x] == x and x not in gapped
                         and x + n - last[x] <= k
                         and (unrestricted or x <= n - k)]


def circular_covers_of(y: str, unrestricted: bool = False,
                       force: bool = False) -> list[str]:
    """All covers of the cyclic word over y, spelled from
    ``circular_sweep``. Candidates are the factors of the linear y by
    default; with ``unrestricted`` they are all factors of y*y no longer
    than y, which admits covers that only exist as rotations."""
    _require_subject(y)
    refuse_oversize("circular-cover enumeration", len(y), force)
    yy = y + y
    return [u for k, _, covers in circular_sweep(y, unrestricted)
            for u in sorted([yy[x:x + k] for x in covers])]
