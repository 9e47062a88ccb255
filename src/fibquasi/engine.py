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
reference. words.covered_prefix_extent runs the same walk from the
prefix and returns where it stops, which the left-seed oracles compare
with the period for a prefix shorter than it (a longer one covers
itself); the right-seed oracles are the left-seed ones on the reversed
word. covers_of keeps its own copy of the walk, which stops
once it reaches the last start n - k: a call of covered_prefix_extent
per border measured slower.

A rule decides one set of a subject on factor names, one factor
length k at a time. A factor is named by its first start (Karp, Miller
& Rosenberg), and one naming pass (Naming) can feed several rules. The
pass is event-driven. It renames only the starts whose factor stops
matching their name's factor, each found by one LCP when the start is
named: the next letter answers it, or one query of an LCE table over
the pass's text (_lce: the starts ranked by prefix doubling after
Manber & Myers, the LCP array of Kasai, Lee, Arimura, Arikawa & Park
and range minima after Bender & Farach-Colton). It carries each name's
last start and its count of occurrence gaps longer than k from one
length to the next. So no length scans every start: past the table's
O(|text| log |text|) set-up, a pass costs O(1) per rename, its LCP
included.

The rules are event rules. An event rule keeps its accepted set from
one length to the next. It decides a name again only when the pass
touches it, or at a length its last decision named. The pass touches a
name when it makes or drops it, or changes its starts or gap count. So
a length with no event costs O(1). SeedEvents is the seed rule: the
gap rule of is_seed_fast read off the pass, and the head and tail as
border queries (Iliopoulos, Moore & Park, "Covering a string"). Its
head tests are range maxima over the Z-array of y, which hold over
intervals of lengths (the O(n) "packages" of seeds of Kociumaka,
Kubica, Radoszewski, Rytter & Walen, SODA 2012), which _range_min
answers as minima of the negated values; its tail is one walk down
the border chain of y reversed per tail length. seeds_of spells what
it accepts, and the verify seed cell reads it. CircularEvents is
the circular-cover rule: between two events a name is accepted on one
interval of lengths. circular_covers_of spells what it accepts, and
the verify cell reads it. Listed makes an event rule of a rule that
lists at most one name per length. verify decides covers and left and
right seeds with it, by one end name's gap-free chain across y or its
period.

Each event rule has a test reference: a per-length rule, kept in the
tests, that decides every first start below k again at every length.
is_seed_fast and is_circular_cover are the per-word references of
those. The test suite proves seeds_of equal to the exhaustive is_seed
on every binary word of up to 10 letters, on sampled words of up to
60 and on the prefixes of periodic words, whose border chains are the
longest.

refuse_oversize is the one size refusal: seeds_of, circular_covers_of
and the seed-flavored catalogs in closed_form decline subjects longer
than SIZE_REFUSAL_LIMIT letters unless forced. The rules themselves
have no refusal.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, mul
from typing import Callable, Iterator

from .errors import SizeLimitError
from .words import (_border_table, canonical, covered_prefix_extent, is_cover,
                    occurrences, period_of, require_word)

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
    least as long as the period of y. A prefix at least that long covers
    itself, so only a shorter one runs the gap walk."""
    if not y.startswith(z):
        return False
    p = period_of(y)
    return len(z) >= p or covered_prefix_extent(z, y) >= p


def left_seeds_of(y: str) -> list[str]:
    _require_subject(y)
    p = period_of(y)
    return [y[:k] for k in range(1, len(y) + 1)
            if k >= p or covered_prefix_extent(y[:k], y) >= p]


def is_right_seed(z: str, y: str) -> bool:
    """A suffix z of y is a right seed iff it covers a suffix of y at
    least as long as the period of y: is_left_seed on the reversed
    words, since reversal keeps the period and turns suffixes into
    prefixes."""
    return is_left_seed(z[::-1], y[::-1])


def right_seeds_of(y: str) -> list[str]:
    return [w[::-1] for w in left_seeds_of(y[::-1])]


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
    SeedEvents, which seeds_of and the verify seed cell read, decides
    the same criterion on factor names; this per-word form is its test
    reference and the verify cell's check of a disputed word.
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


# The table's first sort orders the starts by their first _RANK_WIDTH
# letters, and prefix doubling orders the ones that tie there.
_RANK_WIDTH = 256
# Range minima of up to _BLOCK entries (a power of two) read one window
# level; longer ones read whole blocks of _BLOCK entries too.
_BLOCK = 16


def _min_pairs(values, step: int) -> array:
    """Entry j is min(values[j], values[j + step])."""
    return array("i", [a if a < b else b
                       for a, b in zip(values, values[step:])])


def _range_min(values) -> tuple[Callable, Callable]:
    """Range minima after Bender & Farach-Colton (LATIN 2000), the
    engine's one range structure: ``minimum(a, b)``, for a != b, is the
    least values[j] over min(a, b) < j <= max(a, b), in O(1), and
    ``first(lo, at_most)``, for lo <= len(values), the least j >= lo
    with values[j] <= at_most, or len(values) if none. Window level l
    holds the minimum of every 2**l values up to _BLOCK; a longer range
    adds a sparse table over the whole blocks it spans (at most one int
    per value up to 2**20 values). ``first`` skips whole blocks from the
    longest runs down, then windows within one block. Level 0 is
    ``values``, uncopied, the rest array("i"). A maximum is the minimum
    of the negated values."""
    B, size = _BLOCK, len(values)
    levels = [values]  # levels[l][p]: the minimum of values[p:p + 2**l]
    while 1 << len(levels) <= B:
        levels.append(_min_pairs(levels[-1], 1 << (len(levels) - 1)))
    top = levels[-1]
    # blocks[l][q]: the minimum of the whole blocks q..q + 2**l - 1
    blocks = [top[::B]]
    while 1 << len(blocks) <= len(blocks[0]):
        blocks.append(_min_pairs(blocks[-1], 1 << (len(blocks) - 1)))

    def minimum(a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        n = b - a  # the entries a + 1..b
        if n <= B:
            l = n.bit_length() - 1
            level = levels[l]
            u, v = level[a + 1], level[b + 1 - (1 << l)]
            return u if u < v else v
        u, v = top[a + 1], top[b + 1 - B]
        if v < u:
            u = v
        lo, hi = a // B + 1, (b + 1) // B  # the whole blocks lo..hi - 1
        if lo < hi:
            l = (hi - lo).bit_length() - 1
            level = blocks[l]
            v, w = level[lo], level[hi - (1 << l)]
            if w < v:
                v = w
            if v < u:
                u = v
        return u

    def first(lo: int, at_most: int) -> int:
        q = lo // B + 1  # the first block past lo's
        if q * B < size and minimum(lo - 1, q * B - 1) > at_most:
            for l in range(len(blocks) - 1, -1, -1):
                level = blocks[l]
                if q < len(level) and level[q] > at_most:
                    q += 1 << l
            lo = q * B
        # the answer, or the end of values, is in lo's block now
        for l in range(len(levels) - 1, -1, -1):
            level = levels[l]
            if lo < len(level) and level[lo] > at_most:
                lo += 1 << l
        return lo
    return minimum, first


def _lce(text: str, count: int, starts: list[int]
         ) -> tuple[list[int], Callable[[int, int], int]]:
    """The longest common extension of two starts of a naming pass, as
    the pair (pos, lcp): ``lcp(pos[i], pos[x])``, for starts i != x
    below min(count, len(text)), is the length of the longest common
    prefix of text[i:] and text[x:].

    The table ranks the starts by their windows text[i:i+count]: the
    suffixes of a linear pass's text, or the rotations of y when the
    text is y*y and count is |y|. One sort orders the windows by their
    first w = _RANK_WIDTH letters; while two tie there and are longer,
    prefix doubling (Manber & Myers, SIAM J. Comput. 1993) ranks every
    window by its first 2w letters, as the pair of its rank and the rank
    of the window w letters on, and doubles w. Equal rotations stay in
    start order. Kasai's walk (Kasai, Lee, Arimura, Arikawa & Park, CPM 2001)
    then finds each start's LCP with the start ranked just below it:
    the LCP at i + 1 is at least the LCP at i less one, because the
    start after i's predecessor is ranked too (it wraps to 0 in a
    rotation) and below i + 1. Two starts share the least of the LCPs
    ranked between them, ``lcp`` (_range_min). Set-up costs O(|text|
    log |text|) and a query O(1). The rank order is freed once the LCPs
    are found.

    Ranks and LCPs are lists. ``starts`` holds the ints 0..size-1 (the
    pass's ``last`` before it changes): the lists store its objects, so
    they and the pass share one int object per start."""
    size, end = min(count, len(text)), len(text)
    width = min(_RANK_WIDTH, count)
    keys = [text[i:i + width] for i in range(size)]
    order = sorted(starts, key=keys.__getitem__)
    rank = [0] * size  # 1 + the first position of a start's key in order
    while width < count:
        groups, head, prev = 0, 0, None
        for p, i in enumerate(order, 1):
            key = keys[i]
            if key != prev:
                groups, head, prev = groups + 1, p, key
            rank[i] = head
        if groups == size:
            break
        keys = prev = None
        # the window width letters on: rank 0 past the end of a linear
        # text, while a rotation wraps
        after = islice(rank, width) if size < end else repeat(0, width)
        keys = list(map(add, map(mul, rank, repeat(size + 1)),
                        chain(islice(rank, width, None), after)))
        order.sort(key=keys.__getitem__)
        width *= 2
    keys = rank = None
    pos = [0] * size
    for p, i in zip(starts, order):
        pos[i] = p
    lcps = [0] * size  # lcps[p]: LCP of ranks p - 1 and p
    h = 0  # Kasai's carry, which is 0 at rank 0: nothing ranks below
    for i, p in enumerate(pos):
        if p:
            j = order[p - 1]
            stop = end - (i if i > j else j)
            while h < stop and text[i + h] == text[j + h]:
                h += 1
            # an LCP past size is two equal rotations' run to the end
            lcps[p] = starts[h] if h < size else h
            if h:
                h -= 1
    order = None
    return pos, _range_min(lcps)[0]


class Naming:
    """One naming pass over the factors of ``text``, one length at a
    time (the naming step of Karp, Miller & Rosenberg, STOC 1972).

    Iterating yields the pass itself at k = 1, 2, ...: ``names[i]`` is
    the first start of text[i:i+k] among the starts 0..len(names)-1.
    The starts are the first ``count`` positions that still have k
    letters, and k runs up to ``count`` while there is one. A pass is
    linear (``count`` at least len(text)) or circular (text is y*y and
    ``count`` is |y|); any other pair is refused. So a linear pass drops
    one start per length, its last, and a circular pass none. A name is
    the factor's first start, so a factor is spelled from its name
    alone. For each name x, ``last[x]`` is its last start and
    ``gaps[x]`` counts the pairs of consecutive starts named x that are
    more than k apart (the occurrence gaps of Iliopoulos, Moore & Park,
    "Covering a string"). All of them are updated in place between
    lengths.

    Each length also says what it changed, for the event rules.
    ``renamed`` lists the starts renamed at k in ascending order; it is
    the empty tuple at a length with none. ``touched`` holds every name
    made or dropped at k, and every name whose starts or gap count
    changed at k. At k = 1 nothing is renamed and every name is
    touched.

    The pass is event-driven. Start i keeps its name x up to length
    lcp(i, x), so that length is found once, when i is named, and i
    waits in a bucket for length lcp(i, x) + 1, unless i + lcp(i, x)
    is the end of the text: that length drops i. Named at length k, i
    keeps its name for good if i + k is the end of the text, and only
    up to k if its next letter differs from x's; every other LCP is
    one query of an LCE table built once per pass (``_lce``: O(|text|
    log |text|) set-up, O(1) per query). At length k only the
    starts of bucket k are renamed: the moved starts of one old name
    share their k-th letter (the alphabet has two letters), so the
    first of them names them all. Each name keeps its starts as a
    doubly linked chain, and a gap longer than k waits in a bucket for
    the length that equals it. A rename, a dropped start or an expired
    gap costs O(1), its LCP included, and a length with no rename,
    drop or expired gap sorts, splits and updates nothing. Iterate it
    once at a time; a new iteration starts the pass over.
    """

    def __init__(self, text: str, count: int):
        if 0 < count < len(text) and text != text[:count] * 2:
            raise ValueError("a pass over fewer starts than letters must "
                             "read y*y over the |y| starts of y")
        self.text, self.count = text, count

    def __iter__(self) -> Iterator[Naming]:
        text, count = self.text, self.count
        size, end = min(count, len(text)), len(text)
        first = dict(zip(reversed(text[:size]), range(size - 1, -1, -1)))
        names = self.names = list(map(first.__getitem__, text[:size]))
        last = self.last = list(range(size))
        pos, lcp = _lce(text, count, last)
        gaps = self.gaps = [0] * size
        prev, nxt = [-1] * size, [-1] * size
        # due[k]: the starts whose name no longer fits at length k;
        # expiring[g]: (name, start) of the gaps of g letters
        due, expiring = defaultdict(list), defaultdict(list)
        # i is last's own object, which the chains and the table keep;
        # the loop writes last[x] only for names x < i
        for i, x in zip(last, names):
            if x == i:
                continue
            p = last[x]
            prev[i], nxt[p], last[x] = p, i, i
            if i - p > 1:
                gaps[x] += 1
                expiring[i - p].append((x, p))
            shared = (lcp(pos[i], pos[x])
                      if i + 1 < end and text[i + 1] == text[x + 1] else 1)
            if i + shared < end:  # else length shared + 1 drops i
                due[shared + 1].append(i)
        self.k = 1
        self.renamed, self.touched = (), set(first.values())
        ends = end + 1  # the starts with k letters: 0..ends - k - 1
        for k in range(2, min(count, len(text)) + 1):
            yield self
            self.k = k
            size = ends - k if ends - k < count else count
            drops = size < len(names)  # start ``size`` has k - 1 letters
            touched = self.touched = {names[size]} if drops else set()
            for x, p in expiring.pop(k, ()):
                if nxt[p] == p + k and names[p] == x:
                    gaps[x] -= 1
                    touched.add(x)
            if drops:
                # the last start ends its chain
                x, p = names.pop(), prev[size]
                if p >= 0:
                    nxt[p], last[x] = -1, p
                    if size - p > k:
                        gaps[x] -= 1
            renamed = self.renamed = due.pop(k, ())
            if not renamed:
                continue
            renamed.sort()
            split = {}  # old name -> the new name of its moved starts
            for i in renamed:
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
                    continue
                p = last[r]
                prev[i], nxt[p], last[r] = p, i, i
                if i - p > k:
                    gaps[r] += 1
                    expiring[i - p].append((r, p))
                shared = (lcp(pos[i], pos[r]) if i + k < end
                          and text[i + k] == text[r + k] else k)
                if i + shared < end:
                    due[shared + 1].append(i)
            if split:
                touched.update(split)
                touched.update(split.values())
        yield self


def _accepted(text: str, count: int, rule: EventRule) -> list[str]:
    """The words ``rule`` accepts over ``Naming(text, count)``,
    spelled, shortest first and sorted within a length; a length that
    accepts no name spells and sorts nothing."""
    out: list[str] = []
    for naming in Naming(text, count):
        accepted = rule(naming)
        if accepted:
            k = naming.k
            out += sorted([text[x:x + k] for x in accepted])
    return out


def seeds_of(y: str, force: bool = False) -> list[str]:
    """All distinct factors of y that are seeds of y, spelled from
    ``SeedEvents``."""
    _require_subject(y)
    refuse_oversize("seed enumeration", len(y), force)
    return _accepted(y, len(y), SeedEvents(y))


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


def circular_covers_of(y: str, unrestricted: bool = False,
                       force: bool = False) -> list[str]:
    """All covers of the cyclic word over y, spelled from
    ``CircularEvents``. Candidates are the factors of the linear y by
    default; with ``unrestricted`` they are all factors of y*y no longer
    than y, which admits covers that only exist as rotations."""
    _require_subject(y)
    refuse_oversize("circular-cover enumeration", len(y), force)
    return _accepted(y + y, len(y), CircularEvents(y, unrestricted))


# An event rule decides one set of a subject one factor length at a
# time: fed a ``Naming`` pass at every length k in order, it returns the
# names whose factor of length k is in the set, as one set kept from one
# length to the next and updated in place, and its ``changed`` holds
# every name that may have entered or left that set at k.
EventRule = Callable[[Naming], set[int]]

# A rule lists the names accepted at one length anew at each length;
# Listed makes an event rule of it.
Rule = Callable[[Naming], list[int]]


class Listed:
    """A Rule as an event rule, for the rules that list at most one
    name per length: each length's list replaces the last, and the
    names in only one of the two changed."""

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
    (``Naming.touched``) or at the length its last decision named as the
    next one at which its verdict can change; at a length with neither
    it decides nothing. A subclass's ``_verdicts(naming, names)``
    yields, for each of the names, (x, accepted at k, that next length
    or 0 for none)."""

    def __init__(self, y: str):
        n = self.n = len(y)
        self.accepted: set[int] = set()
        self.changed: set[int] = set()
        self.when = [0] * (n + 1)  # name -> the length it waits for
        self.waiting = defaultdict(list)  # length -> the names waiting

    def __call__(self, naming: Naming) -> set[int]:
        k, when, waiting = naming.k, self.when, self.waiting
        accepted = self.accepted
        woken = waiting.pop(k, None)
        if not (woken or naming.touched):
            self.changed = set()
            return accepted
        changed = self.changed = set(naming.touched)
        if woken:
            changed.update([x for x in woken if when[x] == k])
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
    """The covers of the cyclic word over y as an event rule, fed the
    names of y*y over the starts 0..|y|-1. Name x is accepted at length
    k iff its occurrences leave no gap longer than k, the one across the
    seam included: gaps[x] is 0 and x + |y| - last[x] <= k. A candidate
    is a factor of the linear y, so k <= |y| - x; with ``unrestricted``
    it is any factor of y*y no longer than y, so k <= |y|. Between two
    events that touch x, its last start and gap count stay put, so x is
    accepted on one interval of lengths and decided again at its two
    ends."""

    def __init__(self, y: str, unrestricted: bool = False):
        super().__init__(y)
        self.unrestricted = unrestricted

    def _verdicts(self, naming: Naming, xs: set[int]):
        k, n, last, gaps = naming.k, self.n, naming.last, naming.gaps
        unrestricted = self.unrestricted
        for x in xs:
            lo, hi = x + n - last[x], n if unrestricted else n - x
            if gaps[x] or k > hi or lo > hi:
                yield x, False, 0
            elif k < lo:
                yield x, False, lo
            else:
                yield x, True, hi + 1


class SeedEvents(_Events):
    """The seeds of y as an event rule, fed the names of y: the
    criterion of is_seed_fast. Name x is accepted at length k iff its
    occurrences leave no gap longer than k (gaps[x] is 0), the head
    y[:x] is absorbed by an occurrence hanging off the left edge, and
    the tail after last[x] + k by one hanging off the right edge. The
    head needs x = 0 or a border of y[:x+k] of length x..k-1, so only
    x < k can pass; the tail is its mirror on y[last[x]:]. The head
    becomes a range maximum over the Z-array Z of y: it holds iff max
    over x < j <= k of j + Z[j] is at least x + k. While it holds, it
    keeps holding up to k = that maximum minus x; while it fails, it
    next holds at the first j > k with Z[j] >= x. The tail, with
    L = |y| - last[x], holds from one threshold of L on (``tail_from``).
    So a name is decided again only at an event or at one of those
    lengths. The set-up costs O(|y|), a few words per letter. A
    per-length rule in the tests, which decides every first start below
    k at every length by walking the two border tables, is this rule's
    reference."""

    def __init__(self, y: str):
        super().__init__(y)
        z = _z_array(y)
        heads = array("i", [-j - v for j, v in enumerate(z)])
        # -heads(x, k) is the maximum of j + Z[j] over x < j <= k
        self.heads = _range_min(heads)[0]
        self.matches = _range_min(array("i", [-v for v in z]))[1]
        self.suffix_borders = _border_table(y[::-1])
        self.thresholds = [0] * (len(y) + 1)  # L -> its threshold, or 0

    def tail_from(self, rest: int) -> int:
        """The threshold of L = ``rest``, the letters from a last start
        to the end of y: the least k at which the tail test holds.
        Each border b of that suffix gives max(L - b, b + 1); the walk
        down the chain stops at the first b < L/2, as shorter ones give
        more. Found on its first call and kept."""
        k = self.thresholds[rest]
        if not k:
            k, b = rest, self.suffix_borders[rest]
            while b:
                k = min(k, max(rest - b, b + 1))
                if 2 * b < rest:
                    break
                b = self.suffix_borders[b]
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
                reach = -self.heads(x, k)
                if reach >= x + k:
                    yield (x, True, reach - x + 1) if k >= t else (x, False, t)
                else:
                    j = self.matches(k + 1, -x)
                    yield x, False, max(j, t) if j <= n else 0
