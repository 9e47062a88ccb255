"""Fibonacci word construction and structure.

The family is F_0 = "b", F_1 = "a", F_n = F_{n-1} F_{n-2}. Besides
construction this module provides the two-letter-tail decomposition
F_k = P_k * delta_k, the unique tiling of F_n by F_m and F_{m-1}
factors, and closed-form placement of the occurrences of F_m in F_n.

Words are only materialized up to a guard index (default 30, about
1.3M letters; override with the FIBQUASI_NMAX environment variable).
Exact lengths are available much further out.
``fib_words(n)`` builds the whole table F_0..F_n with one guard read;
``fib_word`` and the catalog builders take their words from such a
table, so building one catalog reads the guard once per table rather
than once per word it spells.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import SizeLimitError
from .words import occurrences

DEFAULT_N_MAX = 30
N_MAX_ENV_VAR = "FIBQUASI_NMAX"
LENGTH_INDEX_LIMIT = 90

KIND_BIG = "big"      # an F_m factor in an expansion
KIND_SMALL = "small"  # an F_{m-1} factor


def materialization_limit() -> int:
    """Current word-materialization guard (environment override aware)."""
    raw = os.environ.get(N_MAX_ENV_VAR)
    if raw is None:
        return DEFAULT_N_MAX
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{N_MAX_ENV_VAR} must be an integer, got {raw!r}")
    if value < 0:
        raise ValueError(f"{N_MAX_ENV_VAR} must be nonnegative, got {value}")
    return value


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"Fibonacci index must be nonnegative, got {n}")
    limit = materialization_limit()
    if n > limit:
        raise SizeLimitError(
            f"index {n} exceeds the materialization guard N_max={limit}")


def fib_len(n: int) -> int:
    """|F_n| by the length recurrence: 1, 1, 2, 3, 5, 8, ..."""
    if n < 0:
        raise ValueError(f"Fibonacci index must be nonnegative, got {n}")
    if n > LENGTH_INDEX_LIMIT:
        raise SizeLimitError(
            f"exact lengths stop at index {LENGTH_INDEX_LIMIT}, got {n}")
    a, b = 1, 1  # |F_0|, |F_1|
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_words(n: int) -> list[str]:
    """The table [F_0, F_1, ..., F_n], checked against the guard once."""
    _check_index(n)
    table = ["b", "a"][:n + 1]
    while len(table) <= n:
        table.append(table[-1] + table[-2])
    return table


def fib_word(n: int) -> str:
    """The materialized word F_n (iterative, no recursion depth)."""
    return fib_words(n)[n]


@dataclass(frozen=True)
class Decomposition:
    """F_k split as p_part * delta with a two-letter tail."""

    p_part: str
    delta: str


def decompose(k: int) -> Decomposition:
    """F_k = P_k * delta_k with P_k = F_{k-2} F_{k-3} ... F_1 (empty
    product when k = 2) and delta_k = "ab" for even k, "ba" for odd."""
    if k < 2:
        raise ValueError(f"decomposition needs index >= 2, got {k}")
    table = fib_words(k)
    p_part = "".join(reversed(table[1:k - 1]))
    delta = "ab" if k % 2 == 0 else "ba"
    if p_part + delta != table[k]:
        raise RuntimeError(f"decomposition of F_{k} does not reproduce it")
    return Decomposition(p_part, delta)


@dataclass(frozen=True)
class ExpansionItem:
    kind: str  # KIND_BIG or KIND_SMALL
    start: int  # 1-based position in F_n


@dataclass(frozen=True)
class Expansion:
    """The unique tiling of F_n by F_m (big) and F_{m-1} (small) factors."""

    n: int
    base: int
    items: tuple[ExpansionItem, ...]

    def starts(self) -> tuple[int, ...]:
        return tuple(item.start for item in self.items)

    def materialize(self) -> str:
        small, big = fib_words(self.base)[-2:]
        return "".join(big if item.kind == KIND_BIG else small
                       for item in self.items)


def expansion(n: int, m: int, order: str = "leftmost") -> Expansion:
    """Rewrite F_n down to factors of index m and m-1.

    Indices above m are replaced by (index-1, index-2) until only m and
    m-1 remain. The rewriting is confluent, so ``order`` ("leftmost" or
    "rightmost") does not change the result; both are implemented so the
    claim is testable.
    """
    if n < 2:
        raise ValueError(f"expansion needs n >= 2, got {n}")
    if not 1 <= m <= n - 1:
        raise ValueError(f"expansion base must be in [1, {n - 1}], got {m}")
    if order not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown rewrite order {order!r}")
    _check_index(n)

    # F_k = F_{k-1} F_{k-2}; rightmost pops F_{k-2} first, so it emits
    # the tiling back to front.
    indices: list[int] = []
    stack = [n]
    while stack:
        k = stack.pop()
        if k > m:
            stack += (k - 2, k - 1) if order == "leftmost" else (k - 1, k - 2)
        else:
            indices.append(k)
    if order == "rightmost":
        indices.reverse()

    big, small = fib_len(m), fib_len(m - 1)
    items = []
    pos = 1
    for k in indices:
        if k == m:
            items.append(ExpansionItem(KIND_BIG, pos))
            pos += big
        else:
            items.append(ExpansionItem(KIND_SMALL, pos))
            pos += small
    if pos != fib_len(n) + 1:
        raise RuntimeError(
            f"expansion of F_{n} over base {m} covers {pos - 1} letters, "
            f"not {fib_len(n)}")
    return Expansion(n, m, tuple(items))


def border_indices(n: int) -> tuple[int, ...]:
    """Indices j such that F_j is a border of F_n, descending.

    The borders of F_n are F_{n-2}, F_{n-4}, ... down to F_1 (odd n) or
    F_2 (even n); none exist for n <= 2.
    """
    if n < 0:
        raise ValueError(f"Fibonacci index must be nonnegative, got {n}")
    if n <= 2:
        return ()
    lowest = 1 if n % 2 else 2
    return tuple(range(n - 2, lowest - 1, -2))


def fib_occurrences(n: int, m: int) -> tuple[int, ...]:
    """Start positions of all occurrences of F_m in F_n, without scanning.

    These are the item starts of the F_m,F_{m-1} tiling of F_n, except
    that the start of the final small item is dropped when F_{m-1} is a
    border of F_n (a small item contributes an occurrence only when a
    big item follows it). Requires m >= 3: at m = 2 the rule admits a
    scan-verified counterexample, so small bases must use the naive
    scan instead.
    """
    if not 3 <= m <= n - 2:
        raise ValueError(
            f"closed-form placement needs 3 <= m <= n-2, got m={m}, n={n}")
    exp = expansion(n, m)
    starts = list(exp.starts())
    if (m - 1) in border_indices(n):
        if exp.items[-1].kind != KIND_SMALL:
            raise RuntimeError(
                f"expansion of F_{n} over base {m} ends in F_{m}, but "
                f"F_{m - 1} is a border")
        starts.pop()
    return tuple(starts)


def scan_occurrences(n: int, m: int) -> tuple[int, ...]:
    """Ground-truth occurrence positions of F_m in F_n by naive scan."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return occurrences(fib_word(m), fib_word(n))
