import pytest

from fibquasi import fib
from fibquasi.errors import SizeLimitError
from fibquasi.fib import (KIND_BIG, KIND_SMALL, border_indices, decompose,
                          expansion, fib_len, fib_occurrences, fib_word,
                          fib_words, materialization_limit, scan_occurrences)


def test_fib_len_examples():
    assert [fib_len(n) for n in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_fib_len_far_end():
    assert fib_len(90) == 4660046610375530309


def test_fib_len_bounds():
    with pytest.raises(SizeLimitError):
        fib_len(91)
    with pytest.raises(ValueError):
        fib_len(-1)


def test_fib_word_base_cases():
    assert fib_word(0) == "b"
    assert fib_word(1) == "a"
    assert fib_word(2) == "ab"
    assert fib_word(4) == "abaab"
    assert fib_word(6) == "abaababaabaab"


def test_fib_word_recurrence():
    for n in range(2, 19):
        assert fib_word(n) == fib_word(n - 1) + fib_word(n - 2)
        assert len(fib_word(n)) == fib_len(n)


def test_fib_word_guard(monkeypatch):
    assert materialization_limit() == 30
    with pytest.raises(SizeLimitError):
        fib_word(31)
    monkeypatch.setenv("FIBQUASI_NMAX", "5")
    with pytest.raises(SizeLimitError):
        fib_word(6)
    with pytest.raises(ValueError):
        fib_word(-2)


def test_fib_words_table(monkeypatch):
    for n in range(0, 21):
        table = fib_words(n)
        assert len(table) == n + 1
        assert all(table[k] == fib_word(k) for k in range(n + 1)), n
    monkeypatch.setenv("FIBQUASI_NMAX", "5")
    with pytest.raises(SizeLimitError):
        fib_words(6)
    with pytest.raises(ValueError, match="got -1"):
        fib_words(-1)


def test_materialization_env_override(monkeypatch):
    monkeypatch.setenv("FIBQUASI_NMAX", "8")
    assert materialization_limit() == 8
    with pytest.raises(SizeLimitError):
        fib_word(9)
    monkeypatch.setenv("FIBQUASI_NMAX", "zzz")
    with pytest.raises(ValueError):
        materialization_limit()


def test_decompose_examples():
    d2 = decompose(2)
    assert (d2.p_part, d2.delta) == ("", "ab")
    d4 = decompose(4)
    assert (d4.p_part, d4.delta) == ("aba", "ab")
    d5 = decompose(5)
    assert (d5.p_part, d5.delta) == ("abaaba", "ba")


def test_decompose_identity():
    for k in range(2, 17):
        d = decompose(k)
        assert d.p_part + d.delta == fib_word(k)
        assert len(d.delta) == 2


def test_decompose_domain():
    with pytest.raises(ValueError):
        decompose(1)


def test_expansion_examples():
    e = expansion(5, 2)
    assert [(i.kind, i.start) for i in e.items] == [
        (KIND_BIG, 1), (KIND_SMALL, 3), (KIND_BIG, 4), (KIND_BIG, 6),
        (KIND_SMALL, 8)]
    e = expansion(6, 3)
    assert [(i.kind, i.start) for i in e.items] == [
        (KIND_BIG, 1), (KIND_SMALL, 4), (KIND_BIG, 6), (KIND_BIG, 9),
        (KIND_SMALL, 12)]


def test_expansion_single_step():
    for n in range(2, 12):
        e = expansion(n, n - 1)
        assert [(i.kind, i.start) for i in e.items] == [
            (KIND_BIG, 1), (KIND_SMALL, fib_len(n - 1) + 1)]


def test_expansion_domain():
    with pytest.raises(ValueError):
        expansion(1, 1)
    with pytest.raises(ValueError):
        expansion(5, 0)
    with pytest.raises(ValueError):
        expansion(5, 5)
    with pytest.raises(ValueError):
        expansion(5, 2, order="middle")


def test_expansion_materialize_reads_guard_once(monkeypatch):
    reads = []
    real = fib.materialization_limit

    def counting():
        reads.append(1)
        return real()

    tiling, subject = expansion(9, 4), fib_word(9)
    monkeypatch.setattr(fib, "materialization_limit", counting)
    assert tiling.materialize() == subject
    assert len(reads) == 1


def test_expansion_tiles_word():
    for n in range(2, 15):
        subject = fib_word(n)
        for m in range(1, n):
            e = expansion(n, m)
            assert e.materialize() == subject
            kinds = [i.kind for i in e.items]
            assert not any(a == KIND_SMALL == b
                           for a, b in zip(kinds, kinds[1:]))
            sizes = [fib_len(m) if k == KIND_BIG else fib_len(m - 1)
                     for k in kinds]
            starts = [i.start for i in e.items]
            assert starts[0] == 1
            for s, size, nxt in zip(starts, sizes, starts[1:] + [len(subject) + 1]):
                assert s + size == nxt


def test_expansion_order_independent():
    for n in range(2, 15):
        for m in range(1, n):
            assert expansion(n, m) == expansion(n, m, order="rightmost")


def test_expansion_invariant_is_checked_without_assert(monkeypatch):
    # A wrong length table makes the tiling overshoot F_n; the check is
    # an explicit raise, so it also holds under python -O.
    monkeypatch.setattr(fib, "fib_len", lambda k: 2)
    with pytest.raises(RuntimeError, match="expansion of F_5"):
        expansion(5, 3)


def test_border_indices():
    assert border_indices(5) == (3, 1)
    assert border_indices(8) == (6, 4, 2)
    assert border_indices(2) == ()
    assert border_indices(0) == ()


def test_border_indices_match_actual_borders():
    from fibquasi.words import borders
    for n in range(0, 15):
        expected = {fib_word(j) for j in border_indices(n)}
        assert expected == set(borders(fib_word(n)))


def test_fib_occurrences_examples():
    assert fib_occurrences(6, 3) == (1, 4, 6, 9)
    assert fib_occurrences(7, 5) == (1, 9, 14)
    # nothing dropped at (8, 4): the index-3 word is no border of the
    # index-8 word, and indeed the tiling ends on a big factor
    assert fib_occurrences(8, 4) == expansion(8, 4).starts()


def test_fib_occurrences_match_scan():
    for n in range(5, 17):
        for m in range(3, n - 1):
            assert fib_occurrences(n, m) == scan_occurrences(n, m)


def test_fib_occurrences_domain():
    with pytest.raises(ValueError):
        fib_occurrences(6, 2)
    with pytest.raises(ValueError):
        fib_occurrences(6, 5)


def test_small_base_rule_counterexample():
    # the tiling-start rule is wrong for base 2, which is why the fast
    # path refuses it: at n=5 the scan finds {1,4,6} but the rule,
    # applied anyway, would also claim position 3
    n, m = 5, 2
    assert scan_occurrences(n, m) == (1, 4, 6)
    e = expansion(n, m)
    starts = list(e.starts())
    if (m - 1) in border_indices(n):
        assert e.items[-1].kind == KIND_SMALL
        starts.pop()
    assert tuple(starts) == (1, 3, 4, 6)
    assert tuple(starts) != scan_occurrences(n, m)
