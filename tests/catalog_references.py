"""The per-length catalog sweeps, the test references of
``closed_form._walk``, which checks a catalog's rows and cuts its spans
of lengths, and of ``EnumResult._lengths``, which spells the words from
those spans: each reference reads the groups one by one (see
``placement_reference.expand``), spells every active group's member
again at every length, and finds a row's repeats and the distinct words
by building a set."""

from placement_reference import Group


def segments(groups: list[Group]
             ) -> list[tuple[int, int, tuple[int, ...], int]]:
    """The lengths the groups span, cut wherever one joins (at its
    ``lo``) or leaves (after its ``hi``): (a, b, starts, active) for each
    run a <= k < b of lengths at which the same ``active`` groups, at
    the distinct ``starts``, are active. Runs with none are left out."""
    events: dict[int, list[tuple[int, int]]] = {}
    for _, lo, hi, p, _ in groups:
        events.setdefault(lo, []).append((p, 1))
        events.setdefault(hi + 1, []).append((p, -1))
    cuts = sorted(events)
    at: dict[int, int] = {}  # start -> the active groups there
    active, runs = 0, []
    for a, b in zip(cuts, cuts[1:]):
        for p, step in events[a]:
            count = at.get(p, 0) + step
            if count:
                at[p] = count
            else:
                del at[p]
            active += step
        if active:
            runs.append((a, b, tuple(at), active))
    return runs


def repeats(subject: str, row: list[Group]) -> bool:
    """Whether two groups of one row spell one member: at some length,
    two active groups share a start or spell the same F_n[p:p+k]."""
    for a, b, starts, active in segments(row):
        if active > len(starts):
            return True
        if active > 1:
            for k in range(a, b):
                if len({subject[p:p + k] for p in starts}) < active:
                    return True
    return False


def lengths(subject: str, groups: list[Group]) -> list[list[str]]:
    """The words, one item per length from the shortest, each length's
    sorted, or one item per run of lengths with one active start: the
    items ``EnumResult._lengths`` yields."""
    items = []
    for a, b, starts, _ in segments(groups):
        if len(starts) == 1:
            items.append([subject[starts[0]:starts[0] + k]
                          for k in range(a, b)])
            continue
        for k in range(a, b):
            items.append(sorted({subject[p:p + k] for p in starts}))
    return items
