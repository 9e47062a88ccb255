"""Primitive relations on binary words: factors, borders, periods, covers.

Words are plain Python strings over the two-letter alphabet {a, b}.
Positions are 1-based in every position-valued result, matching the
usual stringology convention y[1..n]. All functions are pure.
"""

from __future__ import annotations

ALPHABET = "ab"

_LETTERS = frozenset(ALPHABET)


def require_word(w: str, name: str = "word") -> str:
    """Validate that *w* uses only the letters a and b."""
    if not _LETTERS.issuperset(w):
        bad = sorted(set(w) - _LETTERS)
        raise ValueError(f"{name} contains letters outside {{a, b}}: {bad}")
    return w


def _require_nonempty(w: str, name: str) -> str:
    if not w:
        raise ValueError(f"{name} must be nonempty")
    return w


def canonical(items) -> list[str]:
    """Deduplicate and order by (length, lexicographic) — the single
    ordering used for every word-set output."""
    out = sorted(set(items))
    out.sort(key=len)  # stable: equal lengths keep lexicographic order
    return out


def occurrences(u: str, y: str) -> tuple[int, ...]:
    """All (possibly overlapping) start positions of u in y, 1-based,
    ascending."""
    _require_nonempty(u, "pattern")
    out = []
    i = y.find(u)
    while i != -1:
        out.append(i + 1)
        i = y.find(u, i + 1)
    return tuple(out)


def borders(y: str) -> list[str]:
    """All nonempty proper borders of y (prefixes that are also
    suffixes, shorter than y), in canonical order."""
    _require_nonempty(y, "word")
    return [y[:k] for k in range(1, len(y)) if y.endswith(y[:k])]


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


def period_of(y: str) -> int:
    """Length of the shortest period of y: |y| minus its longest border
    (|y| when y has none), read off the KMP table of y in O(|y|)."""
    _require_nonempty(y, "word")
    return len(y) - _border_table(y)[len(y)]


def is_cover(u: str, y: str) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether every position of y lies inside an occurrence of u.

    Returns (True, occurrence starts) on success, (False, None)
    otherwise. A word covers itself (the trivial cover), which falls out
    of the occurrence-chain condition with no special casing.
    """
    _require_nonempty(u, "pattern")
    occ = occurrences(u, y)
    m, n = len(u), len(y)
    if not occ or occ[0] != 1 or occ[-1] != n - m + 1:
        return False, None
    if any(q - p > m for p, q in zip(occ, occ[1:])):
        return False, None
    return True, occ


def covered_prefix_extent(u: str, y: str) -> int:
    """Largest L such that u covers y[1..L]; 0 when u is not a prefix
    of y.

    A gap walk from the occurrence at 0, as in engine.covers_of: the
    next occurrence after i is y.find(u, i + 1, i + 2|u|), which sees
    exactly the occurrences that start in i + 1 .. i + |u|, so the walk
    stops at the first gap longer than |u| and the extent is the end of
    the last occurrence reached. The covered suffix extent of u in y is
    covered_prefix_extent(u[::-1], y[::-1]).
    """
    _require_nonempty(u, "pattern")
    if not y.startswith(u):
        return 0
    m, i = len(u), 0
    while (j := y.find(u, i + 1, i + 2 * m)) >= 0:
        i = j
    return i + m
