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

The rules seed_rule and circular_rule decide every candidate one
factor length at a time on names: each factor is named by its first
start (Karp, Miller & Rosenberg), and one naming pass (Naming) can feed
several rules. The pass is event-driven: it renames only the starts
whose factor stops matching their name's factor, each found by one LCP
when the start is named, and it carries each name's last start and its
count of occurrence gaps longer than k from one length to the next. So
no length scans every start: past its O(|text|) set-up, a pass costs
one LCP and O(1) updates per rename, plus a sorted insert per new name.
The rules visit only the first starts below k and read the gap rule
off the pass; for seeds, border-table queries decide the head and tail
(Iliopoulos, Moore & Park, "Covering a string"). seeds_of and
circular_covers_of spell what their rules accept.

verify compares names with the catalogs through event rules, which
keep the accepted set from one length to the next. Each length of the
pass also lists what it changed: the renamed starts, and the names
whose last start or gap count changed or that were made or dropped. A
name is decided again only then, or at a length its last decision
named. CircularEvents reads an interval of lengths off the pass;
SeedEvents decides the head and tail by range maxima over Z-arrays,
each of which holds over intervals of lengths (the O(n) "packages" of
seeds of Kociumaka, Kubica, Radoszewski, Rytter & Walen, SODA 2012).
So a length with no event costs O(1), where the per-length rules take
a step per first start below k. Listed adapts a rule that lists a
name or two per length: verify decides covers and left and right seeds
with it, as the seeds among the names at the ends of y.

is_seed_fast and is_circular_cover are the per-length rules' test
references, and the per-length rules are the event rules'. The test
suite proves seeds_of equal to the exhaustive is_seed on every binary
word of up to 10 letters and on sampled words of up to 60.

refuse_oversize is the one size refusal: seeds_of, circular_covers_of
and the seed-flavored catalogs in closed_form decline subjects longer
than SIZE_REFUSAL_LIMIT letters unless forced. The rules themselves
have no refusal.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

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


def _z_array(w: str) -> list[int]:
    """Entry j is the length of the longest common prefix of w and
    w[j:], for j = 0..len(w) (the last entry is 0)."""
    n = len(w)
    z = [0] * (n + 1)
    z[0] = n
    left = right = 0
    for j in range(1, n):
        m = min(right - j, z[j - left]) if j < right else 0
        while j + m < n and w[m] == w[j + m]:
            m += 1
        z[j] = m
        if j + m > right:
            left, right = j, j + m
    return z


class _RangeMax:
    """The maximum of any range of ``values`` in O(1): level l of the
    sparse table holds the maximum of every 2**l consecutive values, one
    array per level, O(|values| log |values|) ints in all."""

    def __init__(self, values: list[int]):
        level = array("i", values)
        self.levels = [level]
        step = 1
        while 2 * step <= len(values):
            level = array("i", map(max, level, level[step:]))
            self.levels.append(level)
            step *= 2

    def __call__(self, lo: int, hi: int) -> int:
        """The maximum of values[lo..hi], for lo <= hi."""
        l = (hi - lo + 1).bit_length() - 1
        level = self.levels[l]
        a, b = level[lo], level[hi + 1 - (1 << l)]
        return a if a > b else b

    def first(self, lo: int, at_least: int) -> int:
        """The least j >= lo with values[j] >= at_least, or len(values)
        when there is none: skip every block of 2**l values below it,
        from the longest blocks down."""
        for l in range(len(self.levels) - 1, -1, -1):
            level = self.levels[l]
            if lo < len(level) and level[lo] < at_least:
                lo += 1 << l
        return lo


def _has_border(table: list[int], length: int, lo: int, hi: int) -> bool:
    """True iff w[:length] has a border of length in [lo, hi], where
    table is _border_table(w) and lo >= 1."""
    b = table[length]
    while b > hi:
        b = table[b]
    return b >= lo


def _lcp(text: str, i: int, x: int, k: int) -> int:
    """The length of the longest common prefix of text[i:] and text[x:],
    for x < i, given that it is at least k: double a step until a slice
    comparison fails, then binary-search that step."""
    end = len(text) - i
    lo, hi, step = k, k, 1
    while lo < end:
        hi = lo + step
        if hi > end:
            hi = end
        if text[i + lo:i + hi] != text[x + lo:x + hi]:
            break
        lo, step = hi, step * 2
    else:
        return lo
    # the prefixes agree on lo letters and differ within hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if text[i + lo:i + mid] == text[x + lo:x + mid]:
            lo = mid
        else:
            hi = mid
    return lo


class Naming:
    """One naming pass over the factors of ``text``, one length at a
    time (the naming step of Karp, Miller & Rosenberg, STOC 1972).

    Iterating yields the pass itself at k = 1, 2, ...: ``names[i]`` is
    the first start of text[i:i+k] among the starts 0..len(names)-1.
    The starts are the first ``count`` positions that still have k
    letters, and k runs up to ``count`` while there is one. A name is
    the factor's first start, so a factor is spelled from its name
    alone. For each name x, ``last[x]`` is its last start and
    ``gaps[x]`` counts the pairs of consecutive starts named x that are
    more than k apart (the occurrence gaps of Iliopoulos, Moore & Park,
    "Covering a string"); ``firsts`` lists the names in ascending order.
    All of them are updated in place between lengths.

    Each length also says what it changed, for the event rules, which
    are kept from one length to the next: ``renamed`` lists the starts
    renamed at k in ascending order (with any of them dropped at k),
    ``split`` maps each name that lost starts to the new name the first
    of them took, ``expired`` holds the (name, start) of the gaps of
    exactly k letters, some of them already closed, and ``cut`` the
    names of the starts dropped at k. Every name made or dropped at k,
    or whose last start or gap count changed, is named there. At k = 1
    they are all empty, and every name is new.

    The pass is event-driven. Start i keeps its name x up to length
    lcp(i, x), so that length is found once, when i is named, and i
    waits in a bucket for length lcp(i, x) + 1. At length k only the
    starts of bucket k are renamed: the moved starts of one old name
    share their k-th letter (the alphabet has two letters), so the
    first of them names them all. Each name keeps its starts as a
    doubly linked chain, and a gap longer than k waits in a bucket for
    the length that equals it. A rename, a dropped start or an expired
    gap costs O(1) besides its LCP and, for a new name, its sorted
    insert into ``firsts``. Iterate it once at a time; a new
    iteration starts the pass over.
    """

    def __init__(self, text: str, count: int):
        self.text, self.count = text, count

    def __iter__(self) -> Iterator[Naming]:
        text, count = self.text, self.count
        size = min(count, len(text))
        first = dict(zip(reversed(text[:size]), range(size - 1, -1, -1)))
        names = self.names = list(map(first.__getitem__, text[:size]))
        last = self.last = list(range(size))
        gaps = self.gaps = [0] * size
        firsts = self.firsts = sorted(first.values())
        prev, nxt = [-1] * size, [-1] * size
        # due[k]: the starts whose name no longer fits at length k;
        # expiring[g]: (name, start) of the gaps of g letters
        due, expiring = defaultdict(list), defaultdict(list)
        lcp = _lcp
        for i, x in enumerate(names):
            if x == i:
                continue
            p = last[x]
            prev[i], nxt[p], last[x] = p, i, i
            if i - p > 1:
                gaps[x] += 1
                expiring[i - p].append((x, p))
            due[lcp(text, i, x, 1) + 1].append(i)
        k = self.k = 1
        self.renamed, self.split, self.expired, self.cut = [], {}, (), []
        while True:
            yield self
            k = self.k = k + 1
            size = min(count, len(text) - k + 1)
            if k > count or size <= 0:
                return
            self.expired = expiring.pop(k, ())
            for x, p in self.expired:
                if nxt[p] == p + k and names[p] == x:
                    gaps[x] -= 1
            self.cut = names[size:]
            for s in range(len(names) - 1, size - 1, -1):
                # s is the last start, so it ends its chain
                x, p = names[s], prev[s]
                if p < 0:
                    firsts.pop()
                    continue
                nxt[p], last[x] = -1, p
                if s - p > k:
                    gaps[x] -= 1
            del names[size:]
            split = self.split = {}
            self.renamed = sorted(due.pop(k, ()))
            for i in self.renamed:
                if i >= size:
                    continue
                x = names[i]
                p, q = prev[i], nxt[i]
                nxt[p] = q
                if i - p > k:
                    gaps[x] -= 1
                if q < 0:
                    last[x] = p
                else:
                    prev[q] = p
                    if q - i > k:
                        gaps[x] -= 1
                    if q - p > k:
                        gaps[x] += 1
                        expiring[q - p].append((x, p))
                r = split.setdefault(x, i)
                names[i], nxt[i] = r, -1
                if r == i:
                    prev[i], last[i], gaps[i] = -1, i, 0
                    insort(firsts, i)
                    continue
                p = last[r]
                prev[i], nxt[p], last[r] = p, i, i
                if i - p > k:
                    gaps[r] += 1
                    expiring[i - p].append((r, p))
                due[lcp(text, i, r, k) + 1].append(i)


# A rule decides one set of a subject one factor length at a time: fed
# a ``Naming`` pass at every length k in order, it returns the names
# whose factor of length k is in the set.
Rule = Callable[[Naming], list[int]]


def seed_rule(y: str, among: Rule | None = None) -> Rule:
    """The seeds of y, fed the names of y; with ``among``, only those
    among the names ``among(naming)`` lists, in ascending order, once
    per length (by default every first start).

    A seed's occurrences leave no gap longer than k (the gap rule of
    is_seed_fast), and the head and tail conditions become border
    queries on the KMP tables of y and of its reverse (Iliopoulos, Moore
    & Park, "Covering a string"). The head needs a border of y[:x+k] at
    least x long and shorter than k, so only first starts x < k can
    pass. The exhaustive is_seed stays the definitive oracle; the test
    suite proves this rule equal to it.
    """
    n = len(y)
    prefix_borders = _border_table(y)
    suffix_borders = _border_table(y[::-1])

    def accept(naming: Naming) -> list[int]:
        k, last, gaps = naming.k, naming.last, naming.gaps
        seeds = []
        for x in naming.firsts if among is None else among(naming):
            if x >= k:
                break
            if gaps[x]:
                continue
            tail = n - last[x] - k
            # an occurrence hanging off the left edge must reach back to
            # the first start; the tail mirrors this on y[last:]
            if ((x == 0 or _has_border(prefix_borders, x + k, x, k - 1))
                    and (tail == 0 or _has_border(
                        suffix_borders, n - last[x], tail, k - 1))):
                seeds.append(x)
        return seeds
    return accept


def _accepted(text: str, count: int, rule: Rule) -> list[str]:
    """The words ``rule`` accepts over ``Naming(text, count)``,
    spelled, shortest first and sorted within a length."""
    return [u for naming in Naming(text, count)
            for u in sorted([text[x:x + naming.k] for x in rule(naming)])]


def seeds_of(y: str, force: bool = False) -> list[str]:
    """All distinct factors of y that are seeds of y, spelled from
    ``seed_rule``."""
    _require_subject(y)
    refuse_oversize("seed enumeration", len(y), force)
    return _accepted(y, len(y), seed_rule(y))


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


def circular_rule(y: str, unrestricted: bool = False) -> Rule:
    """The covers of the cyclic word over y, fed the names of y*y over
    the starts 0..|y|-1.

    The gap rule of is_circular_cover on all candidates at once: no gap
    longer than k, including the one across the seam, so the first start
    is below k. A first start past |y|-k means the factor only occurs
    across the seam, so it is not a factor of the linear y; it is a
    candidate only when ``unrestricted``.
    """
    n = len(y)

    def accept(naming: Naming) -> list[int]:
        k, last, gaps = naming.k, naming.last, naming.gaps
        out = []
        for x in naming.firsts:
            if x >= k:
                break
            if (not gaps[x] and x + n - last[x] <= k
                    and (unrestricted or x <= n - k)):
                out.append(x)
        return out
    return accept


def circular_covers_of(y: str, unrestricted: bool = False,
                       force: bool = False) -> list[str]:
    """All covers of the cyclic word over y, spelled from
    ``circular_rule``. Candidates are the factors of the linear y by
    default; with ``unrestricted`` they are all factors of y*y no longer
    than y, which admits covers that only exist as rotations."""
    _require_subject(y)
    refuse_oversize("circular-cover enumeration", len(y), force)
    return _accepted(y + y, len(y), circular_rule(y, unrestricted))


# An event rule decides the set of a Rule, kept from one length to the
# next: fed a ``Naming`` pass at every length k in order, it returns the
# names accepted at k as one set updated in place, and its ``changed``
# holds every name that may have entered or left that set at k.
EventRule = Callable[[Naming], set[int]]


def _touched(naming: Naming) -> set[int]:
    """The names whose last start or gap count may have changed at this
    length, or that were made or dropped: every name at k = 1."""
    if naming.k == 1:
        return set(naming.firsts)
    split = naming.split
    touched = set(split)
    touched.update(split.values())
    touched.update(naming.cut)
    touched.update([x for x, _ in naming.expired])
    return touched


class Listed:
    """A Rule as an event rule, for the rules that list a name or two
    per length: each length's list replaces the last, and the names in
    only one of the two changed."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.accepted: set[int] = set()
        self.changed: set[int] = set()

    def __call__(self, naming: Naming) -> set[int]:
        now = set(self.rule(naming))
        self.changed = now ^ self.accepted
        self.accepted = now
        return now


class _Events:
    """An event rule that decides a name only when the pass touches it
    (``_touched``) or at the length its last decision named as the next
    one at which its verdict can change. A subclass's
    ``_verdicts(naming, names)`` yields, for each of the names, (x,
    accepted at k, that next length or 0 for none)."""

    def __init__(self, y: str):
        n = self.n = len(y)
        self.accepted: set[int] = set()
        self.changed: set[int] = set()
        self.when = [0] * (n + 1)  # name -> the length it waits for
        self.waiting = defaultdict(list)  # length -> the names waiting

    def __call__(self, naming: Naming) -> set[int]:
        k, when, waiting = naming.k, self.when, self.waiting
        accepted = self.accepted
        changed = self.changed = _touched(naming)
        changed.update([x for x in waiting.pop(k, ()) if when[x] == k])
        for x, ok, at in self._verdicts(naming, changed):
            if ok:
                accepted.add(x)
            else:
                accepted.discard(x)
            when[x] = at
            if at:
                waiting[at].append(x)
        return accepted


class CircularEvents(_Events):
    """``circular_rule(y)`` as an event rule, fed the names of y*y over
    the starts 0..|y|-1. Between two events that touch name x, its last
    start and gap count stay put, so x is accepted exactly for the k in
    [x + |y| - last[x], |y| - x] when it has no gap, and it is decided
    again at the two ends."""

    def _verdicts(self, naming: Naming, xs: set[int]):
        k, n, last, gaps = naming.k, self.n, naming.last, naming.gaps
        for x in xs:
            lo, hi = x + n - last[x], n - x
            if gaps[x] or k > hi or lo > hi:
                yield x, False, 0
            elif k < lo:
                yield x, False, lo
            else:
                yield x, True, hi + 1


class SeedEvents(_Events):
    """``seed_rule(y)`` as an event rule. The gap test and x < k read
    the pass as there; the head and tail tests become range maxima over
    the Z-arrays Z of y and Zr of y reversed. The head (a border of
    y[:x+k] of length x..k-1) holds iff max over x < j <= k of
    j + Z[j] is at least x + k. While it holds, it keeps holding up to
    k = that maximum minus x; while it fails, it next holds at the first
    j > k with Z[j] >= x. The tail, with L = |y| - last[x], holds iff
    k = L or max over L - k < j <= k of j + Zr[j] is at least L, which
    only grows with k, so each L has one threshold. So a name is decided
    again only at an event or at one of those lengths. The set-up costs
    O(|y| log |y|); the per-length ``seed_rule`` stays for the set
    oracle and as this rule's test reference."""

    def __init__(self, y: str):
        super().__init__(y)
        z, zr = _z_array(y), _z_array(y[::-1])
        self.matches = _RangeMax(z)
        self.heads = _RangeMax([j + v for j, v in enumerate(z)])
        self.tails = _RangeMax([j + v for j, v in enumerate(zr)])
        self.thresholds = [0] * (len(y) + 1)  # L -> its threshold, or 0

    def tail_from(self, rest: int) -> int:
        """The threshold of L = ``rest``, the letters from a last start
        to the end of y: the least k at which the tail test holds. Found
        by binary search on its first call and kept."""
        k = self.thresholds[rest]
        if not k:
            lo, k = (rest + 2) // 2, rest
            while lo < k:
                mid = (lo + k) // 2
                if self.tails(rest - mid + 1, mid) >= rest:
                    k = mid
                else:
                    lo = mid + 1
            self.thresholds[rest] = k
        return k

    def _verdicts(self, naming: Naming, xs: set[int]):
        k, n, last, gaps = naming.k, self.n, naming.last, naming.gaps
        size = len(naming.names)
        for x in xs:
            if x >= size or gaps[x]:
                yield x, False, 0
            elif x >= k:
                yield x, False, x + 1
            else:
                t = self.tail_from(n - last[x])
                reach = self.heads(x + 1, k)
                if reach >= x + k:
                    yield (x, True, reach - x + 1) if k >= t else (x, False, t)
                else:
                    j = self.matches.first(k + 1, x)
                    yield x, False, max(j, t) if j <= n else 0
