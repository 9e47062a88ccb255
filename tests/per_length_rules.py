"""The per-length seed and circular-cover rules, the test references of
``engine.SeedEvents`` and ``engine.CircularEvents``: each decides every
first start below k again at every length k, and finds the first
starts by scanning the names."""

from fibquasi.engine import Naming, Rule
from fibquasi.words import _border_table


def _first_starts_below(naming: Naming) -> list[int]:
    """The names x < k, in ascending order: the starts below k named
    after themselves."""
    names = naming.names
    return [x for x in range(min(naming.k, len(names))) if names[x] == x]


def has_border(table: list[int], length: int, lo: int, hi: int) -> bool:
    """True iff w[:length] has a border of length in [lo, hi], where
    table is _border_table(w) and lo >= 1."""
    b = table[length]
    while b > hi:
        b = table[b]
    return b >= lo


def seed_rule(y: str) -> Rule:
    """The seeds of y, fed the names of y.

    A seed's occurrences leave no gap longer than k (the gap rule of
    is_seed_fast), and the head and tail conditions become border
    queries on the KMP tables of y and of its reverse (Iliopoulos, Moore
    & Park, "Covering a string"). The head needs a border of y[:x+k] at
    least x long and shorter than k, so only first starts x < k can
    pass. is_seed stays the definitive oracle: the tests prove seeds_of
    equal to it.
    """
    n = len(y)
    prefix_borders = _border_table(y)
    suffix_borders = _border_table(y[::-1])

    def accept(naming: Naming) -> list[int]:
        k, last, gaps = naming.k, naming.last, naming.gaps
        seeds = []
        for x in _first_starts_below(naming):
            if gaps[x]:
                continue
            tail = n - last[x] - k
            # an occurrence hanging off the left edge must reach back to
            # the first start; the tail mirrors this on y[last:]
            if ((x == 0 or has_border(prefix_borders, x + k, x, k - 1))
                    and (tail == 0 or has_border(
                        suffix_borders, n - last[x], tail, k - 1))):
                seeds.append(x)
        return seeds
    return accept


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
        return [x for x in _first_starts_below(naming)
                if not gaps[x] and x + n - last[x] <= k
                and (unrestricted or x <= n - k)]
    return accept
