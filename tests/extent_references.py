"""The occurrence-chain extents and the suffix-loop right seeds, the test
references of ``words.covered_prefix_extent`` (a gap walk) and of the
right-seed oracles (the left-seed ones on the reversed word): each lists
every occurrence of the candidate and chains them from one end."""

from fibquasi.words import occurrences, period_of


def covered_prefix_extent_by_chain(u: str, y: str) -> int:
    """Largest L such that u covers y[1..L]; 0 when u is not a prefix
    of y: the occurrences of u chained from position 1 while
    consecutive gaps stay within |u|."""
    occ = occurrences(u, y)
    if not occ or occ[0] != 1:
        return 0
    end = len(u)
    for p in occ[1:]:
        if p <= end + 1:
            end = p + len(u) - 1
        else:
            break
    return end


def covered_suffix_extent_by_chain(u: str, y: str) -> int:
    """Largest L such that u covers y[n-L+1..n]; 0 when u is not a
    suffix of y: the occurrences of u chained back from the last."""
    occ = occurrences(u, y)
    m, n = len(u), len(y)
    if not occ or occ[-1] != n - m + 1:
        return 0
    start = occ[-1]
    for p in reversed(occ[:-1]):
        if p + m >= start:
            start = p
        else:
            break
    return n - start + 1


def is_right_seed_by_chain(z: str, y: str) -> bool:
    """z is a suffix of y covering a suffix at least as long as the
    period of y."""
    return y.endswith(z) and covered_suffix_extent_by_chain(z, y) >= \
        period_of(y)


def right_seeds_by_suffix_loop(y: str) -> list[str]:
    """The right seeds of y, every suffix decided in turn, shortest
    first."""
    p = period_of(y)
    return [y[len(y) - k:] for k in range(1, len(y) + 1)
            if covered_suffix_extent_by_chain(y[len(y) - k:], y) >= p]
