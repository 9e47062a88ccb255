"""The per-length circular-cover rule, the test reference of
``engine.CircularEvents``: it decides every first start below k again
at every length k."""

from fibquasi.engine import Naming, Rule


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
