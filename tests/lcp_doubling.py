"""The LCP that the naming pass computed before its LCE table, kept as
the test reference of ``engine._lce``: a slice comparison per doubling
step, then a binary search of the last step."""


def lcp_by_doubling(text: str, i: int, x: int, k: int) -> int:
    """The length of the longest common prefix of text[i:] and text[x:],
    for x < i, given that it is at least k: k at once when the letters
    after those k differ or text[i:] ends there, otherwise double a step
    until a slice comparison fails, then binary-search that step."""
    end = len(text) - i
    if k >= end or text[i + k] != text[x + k]:
        return k
    lo, hi, step = k + 1, k + 1, 1
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
