"""Cross-validation harness: catalog enumerations against oracle sets.

REGISTRY holds one Category record per quasiperiodicity set of the
paper: its name (which names its closed-form catalog in
``closed_form.CATALOGS``), CLI flag, default oracle cap, set oracle,
per-word predicate and event rule. The harness and the CLI read every
per-category choice from it.

Every (index, category) cell compares the catalog with the oracle and
reports the exact set difference, with no catalog member spelled: one
factor length k at a time, it compares the names of the factors at the
starts of the catalog's groups (``closed_form.group_runs``) with the
names the rule accepts (``engine.EventRule``). Both sides are sets kept
from one length to the next and changed only at the pass's events, so
a length with no event costs a cell O(1), and only the names on one
side are spelled. Per index, F_0..F_n is built once, the linear cells share
one naming pass over F_n and the circular-cover cell runs one over
F_n F_n. Every rule decides on names alone and no cell calls an oracle,
so the cells hold O(|F_n|) letters and have no size refusal. Disputed
words are spelled, re-checked with the per-word predicate, and
annotated with the clauses that produced them (extra words) or the
nearest clause shapes (missing words). Property batteries cover the
structural facts the catalogs rely on: the cover chain, the
order-independence of the tiling rewrite, the occurrence fast path, and
the two families of near-miss extensions that must never be seeds (the
right family decided as ``engine.is_right_seed`` defines it, with F_n
reversed and its period found once per index). The cover chain is
checked on the binary words of up to ``COVER_CHAIN_MAX_LEN`` letters
that have a proper cover, the only ones on which it can fail; they are
built directly, as chains of occurrences of a shorter word.

Mismatches are findings, not errors: the suite completes every cell and
the summary says what failed. Two runs with the same configuration
produce identical reports except for the timing fields.
"""

from __future__ import annotations

import itertools
import json
import time
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import closed_form, engine, words
from .errors import SizeLimitError
from .fib import (KIND_SMALL, LENGTH_INDEX_LIMIT, _check_index, expansion,
                  fib_len, fib_occurrences, fib_word, fib_words,
                  scan_occurrences)


@dataclass(frozen=True)
class Category:
    """One quasiperiodicity set: ``oracle(y, force=False)`` computes it
    for any binary word, ``predicate(u, y)`` decides one factor (used to
    re-check disputed words), ``rule(y)`` is an event rule that decides
    it on the factor names of y (of y*y when ``cyclic``), and ``force``
    overrides the size refusal where there is one. Its closed-form
    catalog is ``closed_form.CATALOGS[name]``. Cells above ``cap`` are
    skipped by default."""

    name: str
    flag: str
    cap: int
    oracle: Callable[..., list[str]]
    predicate: Callable[[str, str], bool]
    rule: Callable[[str], engine.EventRule]
    cyclic: bool = False


def _chain(end: Callable[[engine.Naming], int], reach: int) -> engine.Listed:
    """Accept the name x = ``end(naming)`` at length k iff its occurrences
    chain with no gap longer than k from x across ``reach`` letters."""
    def rule(naming: engine.Naming) -> list[int]:
        x = end(naming)
        reached = naming.last[x] + naming.k - x >= reach
        return [x] if reached and not naming.gaps[x] else []
    return engine.Listed(rule)


# The entries look functions up on their modules at call time, so a
# wrapped or patched module function is the one that runs. A cover is
# the prefix (name 0) chaining across y; a left (right) seed is the
# prefix (the suffix, named like the last start n - k) chaining across
# the period of y, as engine.is_left_seed (is_right_seed) decides it.
# The borders are the proper prefixes named like the suffix, also
# through engine.Listed; seeds and circular covers have event rules.
REGISTRY = {c.name: c for c in (
    Category("borders", "borders", 14,
             lambda y, force=False: words.borders(y),
             lambda u, y: u != y and y.startswith(u) and y.endswith(u),
             lambda y: engine.Listed(lambda naming: [0] if (
                 naming.k < len(y) and naming.names[-1] == 0) else [])),
    Category("covers", "covers", 14,
             lambda y, force=False: engine.covers_of(y),
             lambda u, y: words.is_cover(u, y)[0],
             lambda y: _chain(lambda naming: 0, len(y))),
    Category("left_seeds", "left-seeds", 14,
             lambda y, force=False: engine.left_seeds_of(y),
             lambda u, y: engine.is_left_seed(u, y),
             lambda y: _chain(lambda naming: 0, words.period_of(y))),
    Category("right_seeds", "right-seeds", 14,
             lambda y, force=False: engine.right_seeds_of(y),
             lambda u, y: engine.is_right_seed(u, y),
             lambda y: _chain(lambda naming: naming.names[-1],
                              words.period_of(y))),
    Category("seeds", "seeds", 10,
             lambda y, force=False: engine.seeds_of(y, force=force),
             lambda u, y: u in y and engine.is_seed_fast(u, y),
             lambda y: engine.SeedEvents(y)),
    Category("circular_covers", "circular", 10,
             lambda y, force=False: engine.circular_covers_of(
                 y, force=force),
             lambda u, y: u in y and engine.is_circular_cover(u, y),
             lambda y: engine.CircularEvents(y), cyclic=True),
)}

CATEGORIES = tuple(REGISTRY)
DEFAULT_CAPS = {name: c.cap for name, c in REGISTRY.items()}

# Exhaustive length for the cover-chain battery (every binary word).
COVER_CHAIN_MAX_LEN = 14


def _cap(category: Category, caps: dict | None) -> int:
    """The cap given for this category, else its default."""
    return (caps or {}).get(category.name, category.cap)


@dataclass(frozen=True)
class QuasiReport:
    """Exact comparison record for one (index, category) cell. Its
    ``elapsed_ms`` runs from the start of the naming pass the cell
    shares with the other cells of its index (their set-up included) to
    the end of its own report."""

    n: int
    category: str
    enumerated_count: int
    oracle_count: int
    missing: tuple[str, ...]  # oracle-only words
    extra: tuple[str, ...]    # catalog-only words
    diagnostics: tuple[dict, ...] = ()
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.missing and not self.extra

    def to_json(self, include_timing: bool = True) -> dict:
        doc = {"n": self.n, "category": self.category,
               "passed": self.passed,
               "enumerated_count": self.enumerated_count,
               "oracle_count": self.oracle_count,
               "missing": list(self.missing), "extra": list(self.extra),
               "diagnostics": [dict(d) for d in self.diagnostics]}
        if include_timing:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc


@dataclass(frozen=True)
class BatteryResult:
    """Outcome of one property battery run."""

    name: str
    detail: str
    passed: bool
    failures: tuple[str, ...] = ()
    elapsed_ms: float = 0.0

    def to_json(self, include_timing: bool = True) -> dict:
        doc = {"battery": self.name, "detail": self.detail,
               "passed": self.passed, "failures": list(self.failures)}
        if include_timing:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc


@dataclass(frozen=True)
class SuiteConfig:
    """What to verify: an inclusive index range, the categories, and the
    per-category oracle caps (cells above a cap are skipped; a category
    without a cap keeps its default)."""

    n_lo: int = 0
    n_hi: int = 12
    categories: tuple[str, ...] = CATEGORIES
    caps: dict = field(default_factory=lambda: dict(DEFAULT_CAPS))

    def validate(self) -> None:
        if self.n_lo < 0 or self.n_hi < self.n_lo:
            raise ValueError(
                f"invalid index range [{self.n_lo}, {self.n_hi}]")
        _check_index(self.n_hi)
        unknown = set(self.categories) - set(REGISTRY)
        if unknown:
            raise ValueError(f"unknown categories: {sorted(unknown)}")
        for cat, cap in self.caps.items():
            if cat not in REGISTRY:
                raise ValueError(f"cap for unknown category {cat!r}")
            if cap < 0:
                raise ValueError(f"cap {cap} for {cat} must be nonnegative")
            if cap > LENGTH_INDEX_LIMIT:
                raise SizeLimitError(
                    f"cap {cap} for {cat} exceeds the exact length limit, "
                    f"index {LENGTH_INDEX_LIMIT}")


def _diagnose(word: str, table: list[str]) -> dict:
    """A missing word's diagnosis; ``table`` is ``fib_words(n)``."""
    near = [f.to_json() for f in closed_form.nearest_forms(word, table)]
    return {"word": word, "side": "missing", "clauses": near,
            "note": "oracle-only word; listed clauses are relaxed shape "
                    "matches that no printed family instantiates"}


# A run of at most this many groups is listed by length in a cell's
# schedule, one int per group; a longer one is a window, which costs a
# list per length it is open but no memory per group.
_LISTED = 16


class _Cell:
    """One (index, category) cell, fed each factor length k by the pass
    it shares (see ``_cells``). Each side is a set of names kept from
    one length to the next. The catalog side counts, per name, the
    active groups whose start carries it: a group joins at its ``lo``,
    leaves at ``hi + 1`` and is read again only when the pass renames
    its start. The rule side is the event rule's accepted set, and only
    the names it reports changed are looked at again. The cell keeps the
    names on one side only, and only those are spelled. A length is quiet
    when no group joins or leaves (no schedule entry, no open window),
    the pass renames no start an active group sits on, and the rule
    changes no verdict; a quiet length only adds the two counts and
    spells the names on one side, so it costs O(1) plus their letters.

    The catalog is kept as its runs (``closed_form.group_runs``) and two
    columns, group by group in run order: each group's start and row, as
    ``array("i")``, with no Python object per group. The schedule
    (``events``) is read off the runs: the groups of a run of at most
    ``_LISTED`` are listed at the lengths where each joins and leaves;
    the groups of a longer run whose ``lo`` does not move join together,
    as one range; and the longer runs' groups join (when ``lo`` moves)
    and leave one per length, so each is a window over those lengths in
    which group b + k is the one at length k, for the base b the window
    holds. So the schedule holds O(runs) entries, and no group of a
    long run is made an int before it joins. A ``FactorForm`` is made
    only to name an extra word's clauses or a repeating row.

    Two groups of one row on one name at k repeat a member: the cell
    then raises the builder's error through ``closed_form._walk``, the
    builder's own sweep of the groups, which names the first repeating
    row in row order, and its own error from the group's form should
    that find none."""

    def __init__(self, n: int, record: Category, table: list[str]):
        self.n, self.record, self.subject = n, record, table[n]
        self.runs = closed_form.group_runs(
            table, record.name, closed_form.CATALOGS[record.name][0])
        sizes = [run.count for run in self.runs]
        self.firsts = [0, *itertools.accumulate(sizes)][:-1]
        self.starts = array("i", itertools.chain.from_iterable(
            range(run.p, run.p - run.count, -1) for run in self.runs))
        self.rows = array("i", itertools.chain.from_iterable(
            map(itertools.repeat, (run.row for run in self.runs), sizes)))
        # k -> (opening, together, closing, turns): the groups of short
        # runs that join and leave at k, listed one by one; the ranges of
        # groups of a longer run that join together at k; and the windows
        # that open or close at k, as (ledger.append or .remove, b); while
        # a window is open, group b + k joins (leaves) at k for each b in
        # ``joining`` (``leaving``)
        self.events: dict[int, tuple[list, list, list, list]] = (
            defaultdict(lambda: ([], [], [], [])))
        self.joining: list[int] = []
        self.leaving: list[int] = []
        events = self.events
        for g, (_, count, _, lo, hi, step, _) in zip(self.firsts, self.runs):
            if count <= _LISTED:
                for j in range(count):
                    events[lo + j * (1 + step)][0].append(g + j)
                    events[hi + 1 + j][2].append(g + j)
                continue
            if step:
                events[lo][1].append(range(g, g + count))
            else:
                self._window(self.joining, g - lo, lo, count)
            self._window(self.leaving, g - hi - 1, hi + 1, count)
        self.named: dict[int, int] = {}  # active group -> its start's name
        self.at: dict[int, list[int]] = {}  # start -> its active groups
        self.counts: dict[int, int] = {}  # name -> active groups named so
        self.pairs: set[tuple[int, int]] = set()  # (row, name) in use
        self.odd: set[int] = set()  # the names on one side only
        self.rule = record.rule(self.subject)
        self.enumerated = self.expected = 0
        self.missing, self.extra = [], {}  # extra: word -> its diagnosis

    def _window(self, ledger: list[int], b: int, k: int, count: int
                ) -> None:
        """Hold b in ``ledger`` over the ``count`` lengths from k."""
        self.events[k][3].append((ledger.append, b))
        self.events[k + count][3].append((ledger.remove, b))

    def _group(self, g: int) -> closed_form.Group:
        """Group g, made from its run."""
        r = bisect_right(self.firsts, g) - 1
        return self.runs[r].group(g - self.firsts[r])

    def step(self, naming: engine.Naming) -> None:
        k = naming.k
        accepted = self.rule(naming)
        event = self.events.pop(k, None)
        # a quiet length (see the class docstring) moves nothing
        if (event or self.leaving or self.joining or self.rule.changed
                or not self.at.keys().isdisjoint(naming.renamed)):
            self._update(naming, accepted, event)
        self.enumerated += len(self.counts)
        self.expected += len(accepted)
        named = self.named
        for x in self.odd:
            word = self.subject[x:x + k]
            if x in accepted:
                self.missing.append(word)
                continue
            forms = [self._group(g).form_at(k) for g in sorted(named)
                     if named[g] == x]
            self.extra[word] = {"word": word, "side": "extra", "clauses": [
                f.to_json() for f in dict.fromkeys(forms)]}

    def _update(self, naming: engine.Naming, accepted: set[int],
                event: tuple | None) -> None:
        """Move the groups that join, leave or are renamed at a length
        that is not quiet, and decide again the names they and the rule
        changed."""
        k, names, starts, rows = naming.k, naming.names, self.starts, self.rows
        named, at, counts, pairs = self.named, self.at, self.counts, self.pairs
        if event is None:
            opening = closing = ()
        else:
            opening, together, closing, turns = event
            if together:
                opening = [*opening, *itertools.chain.from_iterable(together)]
            for turn, b in turns:
                turn(b)
        if self.leaving:
            closing = [*closing, *[b + k for b in self.leaving]]
        if self.joining:
            opening = [*opening, *[b + k for b in self.joining]]
        for g in closing:
            sharing = at[starts[g]]
            sharing.remove(g)
            if not sharing:
                del at[starts[g]]
        moved = ([g for p in naming.renamed if p in at for g in at[p]]
                 if naming.renamed else ())
        # every group leaves its name before any takes one, so a second
        # group of one row on one name is a repeat at k
        changed = []
        for g in itertools.chain(closing, moved):
            x = named.pop(g)
            pairs.remove((rows[g], x))
            counts[x] -= 1
            if not counts[x]:
                del counts[x]
                changed.append(x)
        for g in opening:
            at.setdefault(starts[g], []).append(g)
        for g in itertools.chain(moved, opening):
            x = named[g] = names[starts[g]]
            if (rows[g], x) in pairs:
                closed_form._walk(self.n, self.record.name, self.subject,
                                  closed_form.expand(self.runs))
                raise RuntimeError(closed_form._repeat_error(
                    self.n, self.record.name, self._group(g).form.kind))
            pairs.add((rows[g], x))
            counts[x] = counts.get(x, 0) + 1
            if counts[x] == 1:
                changed.append(x)
        odd = self.odd
        for x in itertools.chain(self.rule.changed, changed):
            if (x in counts) != (x in accepted):
                odd.add(x)
            else:
                odd.discard(x)

    def report(self, table: list[str], t0: float) -> QuasiReport:
        """The report once the pass that began at ``t0`` is over."""
        n, name, subject = self.n, self.record.name, self.subject
        missing = tuple(words.canonical(self.missing))
        extra = tuple(words.canonical(self.extra))
        for w in missing:
            if not self.record.predicate(w, subject):
                raise RuntimeError(
                    f"unsound report: {w!r} classified missing but fails "
                    f"the {name} predicate at n={n}")
        for w in extra:
            if self.record.predicate(w, subject):
                raise RuntimeError(
                    f"unsound report: {w!r} classified extra but passes "
                    f"the {name} predicate at n={n}")
        diagnostics = tuple(_diagnose(w, table) for w in missing)
        diagnostics += tuple(self.extra[w] for w in extra)
        elapsed = (time.perf_counter() - t0) * 1000.0
        return QuasiReport(n, name, self.enumerated, self.expected, missing,
                           extra, diagnostics, elapsed)


def _cells(n: int, records: list[Category]) -> list[QuasiReport]:
    """The reports of index n for ``records``, in their order: one
    table F_0..F_n (one guard read) and one naming pass over F_n for
    the linear cells, one over F_n F_n for the cyclic ones."""
    if not records:
        return []
    table = fib_words(n)
    subject = table[n]
    reports = {}
    for cyclic in (False, True):
        t0 = time.perf_counter()
        cells = [_Cell(n, r, table) for r in records if r.cyclic == cyclic]
        if not cells:
            continue
        text = subject + subject if cyclic else subject
        for naming in engine.Naming(text, len(subject)):
            for cell in cells:
                cell.step(naming)
        for cell in cells:
            reports[cell.record.name] = cell.report(table, t0)
    return [reports[r.name] for r in records]


def check_category(n: int, category: str,
                   caps: dict | None = None) -> QuasiReport:
    """Run one catalog-versus-oracle comparison cell, as ``run_suite``
    does with one category. ``caps`` maps category names to oracle caps;
    a category it omits keeps its default cap."""
    record = REGISTRY.get(category)
    if record is None:
        raise ValueError(f"unknown category {category!r}")
    cap = _cap(record, caps)
    if n > cap:
        raise SizeLimitError(
            f"index {n} exceeds the oracle cap {cap} for {category}")
    (report,) = _cells(n, [record])
    return report


def _battery(name: str, detail: str, failures: list[str],
             t0: float) -> BatteryResult:
    elapsed = (time.perf_counter() - t0) * 1000.0
    return BatteryResult(name, detail, not failures,
                         tuple(failures[:10]), elapsed)


def _covered_words(max_len: int) -> list[str]:
    """Every binary word of at most ``max_len`` letters that has a proper
    cover, in the order of counting up in binary with y[i] as bit i.

    A word y with a proper cover u of m letters is a chain of
    occurrences of u, each at most m letters after the one before, so
    each step d <= m is a period of u (m always is). The second
    occurrence ends inside y, so u repeats a period p <= min(m,
    max_len - m): u is the first m letters of a repeated p-letter base.
    Every chain of at least two occurrences of every such u is grown up
    to ``max_len`` letters.
    """
    out = set()
    for m in range(1, max_len):
        candidates = {("".join(base) * m)[:m]
                      for p in range(1, min(m, max_len - m) + 1)
                      for base in itertools.product("ab", repeat=p)}
        for u in candidates:
            steps = [d for d in range(1, m + 1) if u[d:] == u[:m - d]]
            seen = set()
            chains = [u]
            while chains:
                y = chains.pop()
                for d in steps:
                    if len(y) + d > max_len:
                        break
                    z = y + u[m - d:]
                    if z not in seen:
                        seen.add(z)
                        chains.append(z)
            out |= seen
    return sorted(out, key=lambda y: (len(y), y[::-1]))


def _battery_cover_chain(max_len: int) -> BatteryResult:
    """For every binary word y of at most ``max_len`` letters and proper
    cover u of y: a factor z of y no longer than u covers y iff it
    covers u.

    The law holds vacuously on a word with no proper cover, so only the
    words built by ``_covered_words`` as chains of a shorter word are
    visited. Each word's covers are found once, by ``engine.covers_of``
    on that word alone, and kept: a covered word is visited before every
    longer word it covers, and a proper cover is asked for its covers
    only if it has none kept. So the two cover sets compared are still
    two independent answers."""
    t0 = time.perf_counter()
    failures = []
    covers: dict[str, list[str]] = {}
    for y in _covered_words(max_len):
        cov_y = covers[y] = engine.covers_of(y)
        set_y = set(cov_y)
        for u in cov_y:
            if u == y:
                continue
            if u not in covers:
                covers[u] = engine.covers_of(u)
            # z breaks the law iff it is in one cover set only
            differ = set_y.symmetric_difference(covers[u])
            for z in words.canonical(differ):
                if len(z) <= len(u) and z != u and z in y:
                    failures.append(f"y={y} u={u} z={z}")
    return _battery("cover_chain",
                    f"all binary words up to length {max_len}",
                    failures, t0)


def _battery_expansion_determinism(n_lo: int, n_hi: int) -> BatteryResult:
    """Leftmost-first and rightmost-first rewriting give the same
    tiling, the tiling reproduces the word, and no two small factors
    are adjacent."""
    t0 = time.perf_counter()
    failures = []
    for n in range(max(2, n_lo), n_hi + 1):
        subject = fib_word(n)
        for m in range(1, n):
            left = expansion(n, m, order="leftmost")
            right = expansion(n, m, order="rightmost")
            if left != right:
                failures.append(f"n={n} m={m}: rewrite order changed result")
                continue
            if left.materialize() != subject:
                failures.append(f"n={n} m={m}: tiling does not reproduce word")
            kinds = [item.kind for item in left.items]
            if any(a == KIND_SMALL == b for a, b in zip(kinds, kinds[1:])):
                failures.append(f"n={n} m={m}: adjacent small factors")
    return _battery("expansion_determinism",
                    f"indices {max(2, n_lo)}..{n_hi}, all bases",
                    failures, t0)


def _battery_occurrence_fast_path(n_lo: int, n_hi: int) -> BatteryResult:
    """Closed-form occurrence placement equals the naive scan on every
    valid (n, m) pair in range."""
    t0 = time.perf_counter()
    failures = []
    for n in range(max(5, n_lo), n_hi + 1):
        for m in range(3, n - 1):
            fast = fib_occurrences(n, m)
            naive = scan_occurrences(n, m)
            if fast != naive:
                failures.append(f"n={n} m={m}: {fast} != {naive}")
    return _battery("occurrence_fast_path",
                    f"indices {max(5, n_lo)}..{n_hi}, bases 3..n-2",
                    failures, t0)


def _battery_near_miss_left(n_lo: int, n_hi: int) -> BatteryResult:
    """The prefix of F_n one letter short of F_{n-1} is never a left
    seed (n >= 5)."""
    t0 = time.perf_counter()
    failures = []
    for n in range(max(5, n_lo), n_hi + 1):
        subject = fib_word(n)
        candidate = subject[:fib_len(n - 1) - 1]
        if engine.is_left_seed(candidate, subject):
            failures.append(f"n={n}: length-{len(candidate)} prefix accepted")
    return _battery("near_miss_left_seeds",
                    f"indices {max(5, n_lo)}..{n_hi}",
                    failures, t0)


def _right_seed_verdicts(subject: str, candidates) -> Iterator[bool]:
    """``engine.is_right_seed(c, subject)`` for each candidate c, as it
    is defined, with ``subject`` reversed and its period found once."""
    backwards = subject[::-1]
    p = words.period_of(subject)
    for c in candidates:
        yield words.covered_prefix_extent(c[::-1], backwards) >= p


def _battery_near_miss_right(n_lo: int, n_hi: int) -> BatteryResult:
    """No proper nonempty suffix of F_{n-3} prepended to F_{n-4} is a
    right seed of F_n (n >= 5)."""
    t0 = time.perf_counter()
    failures = []
    for n in range(max(5, n_lo), n_hi + 1):
        table = fib_words(n)
        tail, source = table[n - 4], table[n - 3]
        candidates = (source[len(source) - l:] + tail
                      for l in range(1, len(source)))
        for l, accepted in enumerate(
                _right_seed_verdicts(table[n], candidates), 1):
            if accepted:
                failures.append(f"n={n} extension_len={l}: accepted")
    return _battery("near_miss_right_seeds",
                    f"indices {max(5, n_lo)}..{n_hi}",
                    failures, t0)


@dataclass(frozen=True)
class SuiteResult:
    config: SuiteConfig
    cells: tuple[QuasiReport, ...]
    batteries: tuple[BatteryResult, ...]

    @property
    def summary(self) -> dict:
        entries = list(self.cells) + list(self.batteries)
        passed = sum(1 for e in entries if e.passed)
        return {"cells": len(entries), "passed": passed,
                "failed": len(entries) - passed}

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json_lines(self, include_timing: bool = True) -> list[str]:
        doc = self.to_json(include_timing)
        return [json.dumps(record) for record in
                doc["cells"] + doc["batteries"] + [doc["summary"]]]

    def to_json(self, include_timing: bool = True) -> dict:
        return {"cells": [c.to_json(include_timing) for c in self.cells],
                "batteries": [b.to_json(include_timing)
                              for b in self.batteries],
                "summary": self.summary}


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every (index, category) cell in range and under caps, then
    the property batteries. Failures are collected, never thrown, so a
    discrepancy is localized rather than aborting the sweep."""
    config.validate()
    cells = []
    for n in range(config.n_lo, config.n_hi + 1):
        cells += _cells(n, [r for r in REGISTRY.values()
                            if r.name in config.categories
                            and n <= _cap(r, config.caps)])
    batteries = [
        _battery_cover_chain(min(COVER_CHAIN_MAX_LEN, fib_len(config.n_hi))),
        _battery_expansion_determinism(config.n_lo, config.n_hi),
        _battery_occurrence_fast_path(config.n_lo, config.n_hi),
        _battery_near_miss_left(config.n_lo, config.n_hi),
        _battery_near_miss_right(config.n_lo, config.n_hi),
    ]
    return SuiteResult(config, tuple(cells), tuple(batteries))
