"""The per-left-length placement, the test reference of
``closed_form.group_runs``: one ``Group`` and one ``FactorForm`` per
(row, left length), each placed by one letter test against the last
group's start or by a ``find``. ``closed_form.expand`` of the runs must
give these groups, and the rows must raise the same errors."""

from bisect import bisect_left

from fibquasi.closed_form import (KIND_LITERAL, FactorForm, Group, _parts,
                                  _repeat_error, _suffix)


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
