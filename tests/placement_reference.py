"""The per-left-length placement, the test reference of
``closed_form.group_runs``: one ``Group`` and one ``FactorForm`` per
(row, left length), each placed by one letter test against the last
group's start or by a ``find``. ``expand`` of the runs must give these
groups, and the rows must raise the same errors."""

from bisect import bisect_left
from typing import NamedTuple

from fibquasi.closed_form import (KIND_LITERAL, FactorForm, _parts,
                                  _repeat_error, _suffix)


class Group(NamedTuple):
    """The members of one (row, left length) of a catalog, placed in
    F_n: F_n[p:p+k] for every length k from lo to hi. ``row`` is the
    row's place in the catalog, and ``form`` the clause instance of the
    shortest member."""

    row: int
    lo: int
    hi: int
    p: int
    form: FactorForm

    def form_at(self, k: int) -> FactorForm:
        """The clause instance of the member of length k."""
        return self.form._replace(right_len=self.form.right_len + k - self.lo)


def expand(runs):
    """Every group of ``runs``, in order, by the arithmetic that
    ``GroupRun`` documents: group j of a run starts at p - j, joins at
    lo + j (1 + step), leaves after hi + j, and has left length l + j
    and right length r + j step."""
    placed = []
    for row, count, p, lo, hi, step, form in runs:
        kind, m, l, r, literal = form
        for j in range(count):
            placed.append(Group(row, lo + j * (1 + step), hi + j, p - j,
                                FactorForm(kind, m, l + j, r + j * step,
                                           literal)))
    return placed


def groups_by_left_length(table, category, rows_of):
    """The catalog ``rows_of(n)`` as groups, in row order, where
    ``table`` is ``fib_words(n)``: at left length l the group sits at
    the first occurrence p of its longest member, which is the last
    group's p less one when F_n has ``left[-l]`` there, and is otherwise
    found from the last group's p on (from 0 when there is no group at
    l - 1). Raises a row's errors in the builder's order: a right length
    past the end of the source that repeats a member, a row that is no
    run of prefixes, then the first member that is not a factor."""
    n = len(table) - 1
    subject = table[n]
    placed = []
    for index, row in enumerate(rows_of(n)):
        kind, m, lefts, rights, least, literal = row
        left, core, source = (("", literal, "") if kind == KIND_LITERAL
                              else _parts(kind, m, table))
        spans = [(i, l) for l in lefts
                 if (i := bisect_left(rights, least - l)) < len(rights)]
        if not spans:
            continue
        first = min(spans)[0]
        if len(rights) - max(first, bisect_left(rights, len(source))) > 1:
            raise RuntimeError(_repeat_error(n, category, kind))
        if (rights.step != 1 or rights[first] < 0
                or rights[-1] > len(source) or not core):
            raise RuntimeError(
                f"row {index} of the {category} catalog at n={n} is "
                f"not a run of prefixes: {row}")
        last, p = None, 0  # the left length and start of the last group
        for i, l in spans:
            chained = last == l - 1 and l <= len(left)
            if chained and p and subject[p - 1] == left[-l]:
                p, width = p - 1, l + len(core)
            else:
                head = _suffix(left, l) + core
                p = subject.find(head + source[:rights[-1]],
                                 p if chained else 0)
                if p < 0:
                    r = next(r for r in rights[i:]
                             if head + source[:r] not in subject)
                    raise RuntimeError(
                        f"{FactorForm(kind, m, l, r, literal)} materialized "
                        f"{head + source[:r]!r}, not a factor of the "
                        f"index-{n} word")
                width = len(head)
            placed.append(Group(index, width + rights[i], width + rights[-1],
                                p, FactorForm(kind, m, l, rights[i], literal)))
            last = l
    return placed
