import random
from itertools import compress
from operator import ne
from typing import Iterator

import pytest

from fibquasi import engine
from fibquasi.engine import (SeedWitness, circular_covers_of, covers_of,
                             distinct_factors, is_circular_cover,
                             is_left_seed, is_right_seed, is_seed,
                             is_seed_fast, left_seeds_of, right_seeds_of,
                             seeds_of)
from fibquasi.errors import SizeLimitError
from fibquasi.fib import fib_word
from fibquasi.verify import REGISTRY, _battery_cover_chain
from fibquasi.words import (borders, canonical, is_cover, occurrences,
                            require_word)

F4 = "abaab"
F5 = "abaababa"
F6 = "abaababaabaab"

F6_LEFT_SEEDS = ["aba", "abaab", "abaaba", "abaababa", "abaababaa",
                 "abaababaab", "abaababaaba", "abaababaabaa",
                 "abaababaabaab"]


def random_word(rng, max_len=20):
    return "".join(rng.choice("ab") for _ in range(rng.randint(1, max_len)))


def all_words(max_len):
    for length in range(1, max_len + 1):
        for bits in range(1 << length):
            yield "".join("ab"[(bits >> i) & 1] for i in range(length))


def test_covers_examples():
    assert covers_of(F6) == ["abaab", F6]
    assert covers_of("aaa") == ["a", "aa", "aaa"]
    assert covers_of(F5) == ["aba", F5]


def test_covers_members_are_borders_or_whole():
    rng = random.Random(3)
    for _ in range(200):
        y = random_word(rng)
        for u in covers_of(y):
            assert u == y or (y.startswith(u) and y.endswith(u))


def _covers_of_reference(y):
    """Reference cover oracle: every border, plus y, filtered by the
    per-word is_cover predicate."""
    return [u for u in borders(y) + [y] if is_cover(u, y)[0]]


def test_covers_of_matches_reference():
    # The battery's domain, the Fibonacci words, and longer sampled
    # words: uniform ones have few borders, rotated powers of a short
    # base have many borders and many covers.
    rng = random.Random(31)
    subjects = list(all_words(14)) + [fib_word(n) for n in range(17)]
    for k in range(200):
        length = rng.randint(15, 300)
        if k % 2:
            base = "".join(rng.choice("ab")
                           for _ in range(rng.randint(2, 8)))
            shift = rng.randrange(len(base))
            subjects.append((base * (length // len(base) + 2))[
                shift:shift + length])
        else:
            subjects.append("".join(rng.choice("ab") for _ in range(length)))
    for y in subjects:
        assert covers_of(y) == _covers_of_reference(y), y


def test_covers_of_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(st.text(alphabet="ab", min_size=1, max_size=80))
    def check(y):
        assert covers_of(y) == _covers_of_reference(y)

    check()


def test_cover_chain_battery_catches_a_dropped_cover(monkeypatch):
    # abaaba is a proper cover of abaabaaba; hiding its own cover aba
    # breaks the cover-chain fact at z = aba.
    honest = engine.covers_of

    def dropping(y):
        return [u for u in honest(y) if (y, u) != ("abaaba", "aba")]

    monkeypatch.setattr(engine, "covers_of", dropping)
    result = _battery_cover_chain(9)
    assert not result.passed
    assert any("u=abaaba z=aba" in f for f in result.failures)


def test_cover_chain_failures_follow_covers_of_order(monkeypatch):
    # Hiding the cover a of a^k for 1 < k < 8 breaks the law only on
    # y = a^8, once per proper cover u; the failures come in covers_of
    # order, whatever the hash seed.
    honest = engine.covers_of

    def dropping(y):
        if 1 < len(y) < 8 and y == "a" * len(y):
            return [u for u in honest(y) if u != "a"]
        return honest(y)

    monkeypatch.setattr(engine, "covers_of", dropping)
    assert _battery_cover_chain(8).failures == tuple(
        f"y=aaaaaaaa u={'a' * k} z=a" for k in range(2, 8))


def test_covers_of_decides_each_word_on_its_own(monkeypatch):
    # One top-level call is one call: covers_of never asks for the
    # covers of a shorter cover, so the cover-chain battery compares two
    # independent answers.
    honest = engine.covers_of
    calls = []

    def counting(y):
        calls.append(y)
        return honest(y)

    monkeypatch.setattr(engine, "covers_of", counting)
    for y in all_words(10):
        calls.clear()
        engine.covers_of(y)
        assert calls == [y]


def test_left_seeds_examples():
    assert left_seeds_of(F6) == F6_LEFT_SEEDS
    assert left_seeds_of("aa") == ["a", "aa"]
    assert left_seeds_of("aba") == ["ab", "aba"]


def _left_seeds_by_extension(y: str) -> list[str]:
    """Independent left-seed oracle straight from the definition: z is a
    left seed when it covers y extended by some right extension v.

    Any covered extension y*v ends with z, so v is a suffix of z; trying
    every suffix shorter than z is exhaustive.
    """
    require_word(y)
    if not y:
        raise ValueError("word must be nonempty")
    out = []
    for k in range(1, len(y) + 1):
        z = y[:k]
        for vlen in range(0, k):
            v = z[k - vlen:] if vlen else ""
            if is_cover(z, y + v)[0]:
                out.append(z)
                break
    return out


def test_left_seeds_match_extension_oracle_exhaustive():
    for y in all_words(10):
        assert left_seeds_of(y) == _left_seeds_by_extension(y)


def test_left_seeds_match_extension_oracle_sampled():
    rng = random.Random(5)
    subjects = [random_word(rng, 40) for _ in range(200)]
    subjects += [fib_word(n) for n in range(1, 9)]
    for y in subjects:
        assert left_seeds_of(y) == _left_seeds_by_extension(y)


def test_right_seeds_examples():
    assert right_seeds_of(F5) == canonical(
        ["aba", "ababa", "aababa", "baababa", "abaababa"])
    assert right_seeds_of("aba") == ["ba", "aba"]
    assert right_seeds_of("bb") == ["b", "bb"]


def test_left_right_mirror():
    rng = random.Random(7)
    subjects = [random_word(rng, 40) for _ in range(300)]
    subjects += [fib_word(n) for n in range(1, 10)]
    for y in subjects:
        mirrored = canonical(w[::-1] for w in left_seeds_of(y[::-1]))
        assert canonical(right_seeds_of(y)) == mirrored


def test_left_right_mirror_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def word_and_suffix(draw):
        y = draw(st.text(alphabet="ab", min_size=1, max_size=60))
        k = draw(st.integers(1, len(y)))
        return y, y[len(y) - k:]

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(word_and_suffix())
    def check(pair):
        y, z = pair
        assert right_seeds_of(y) == [
            w[::-1] for w in left_seeds_of(y[::-1])]
        assert is_right_seed(z, y) == is_left_seed(z[::-1], y[::-1])

    check()


def test_membership_shapes():
    rng = random.Random(9)
    for _ in range(100):
        y = random_word(rng)
        assert all(y.startswith(z) for z in left_seeds_of(y))
        assert all(y.endswith(z) for z in right_seeds_of(y))


@pytest.mark.parametrize("predicate", [
    is_left_seed, is_right_seed, is_seed, is_seed_fast, is_circular_cover])
def test_empty_pattern_is_refused(predicate):
    with pytest.raises(ValueError, match=r"^pattern must be nonempty$"):
        predicate("", F5)


def test_is_seed_accepts_rotated_cover():
    ok, witness = is_seed("baa", F4)
    assert ok
    assert witness == SeedWitness("ba", "aa", (1, 4, 7))


def test_is_seed_witness_is_valid():
    rng = random.Random(11)
    for _ in range(150):
        y = random_word(rng, 16)
        i = rng.randrange(len(y))
        u = y[i:rng.randint(i + 1, len(y))]
        ok, witness = is_seed(u, y)
        if ok:
            extended = witness.left_ext + y + witness.right_ext
            covered, positions = is_cover(u, extended)
            assert covered and positions == witness.positions
            assert len(witness.left_ext) < len(u)
            assert len(witness.right_ext) < len(u)
            assert u.startswith(witness.left_ext)
            assert u.endswith(witness.right_ext)


def _is_seed_all_pairs(u, y):
    """The exhaustive seed search before pair pruning: every (left,
    right) extension pair, shortest total first, ties broken by the
    shorter left extension."""
    if not u:
        raise ValueError("pattern must be nonempty")
    if u not in y:
        raise ValueError(f"{u!r} is not a factor of the subject word")
    m = len(u)
    for total in range(0, 2 * m - 1):
        for llen in range(max(0, total - (m - 1)), min(m - 1, total) + 1):
            rlen = total - llen
            left = u[:llen]
            right = u[m - rlen:] if rlen else ""
            ok, pos = is_cover(u, left + y + right)
            if ok:
                return True, SeedWitness(left, right, pos)
    return False, None


def test_is_seed_matches_all_pairs_reference():
    subjects = list(all_words(10)) + [fib_word(n) for n in range(10)]
    for y in subjects:
        for u in distinct_factors(y):
            assert is_seed(u, y) == _is_seed_all_pairs(u, y), (u, y)


def test_is_seed_matches_all_pairs_reference_sampled():
    # Uniform words mostly reach the rejection path and rotated powers
    # the acceptance path. All factors of a 59-letter word cost the
    # reference seconds, so take a few factors per word.
    rng = random.Random(29)
    for k in range(200):
        if k % 2:
            base = random_word(rng, 8)
            y = (base * 60)[rng.randrange(len(base)):][:rng.randint(1, 59)]
        else:
            y = random_word(rng, 59)
        for _ in range(3):
            i = rng.randrange(len(y))
            u = y[i:rng.randint(i + 1, len(y))]
            assert is_seed(u, y) == _is_seed_all_pairs(u, y), (u, y)


def test_is_seed_matches_all_pairs_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def factor_of_word(draw):
        y = draw(st.text(alphabet="ab", min_size=1, max_size=60))
        i = draw(st.integers(0, len(y) - 1))
        j = draw(st.integers(i + 1, len(y)))
        return y[i:j], y

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(factor_of_word())
    def check(pair):
        u, y = pair
        assert is_seed(u, y) == _is_seed_all_pairs(u, y)

    check()


def test_seeds_of_matches_exhaustive_oracle():
    # The sweep in seeds_of against the exhaustive is_seed on every
    # candidate: all short binary words, the short Fibonacci words, and
    # sampled longer words of both kinds the sweep sees (few seeds on a
    # uniform word, many on a rotated power of a short base).
    rng = random.Random(29)
    subjects = list(all_words(10)) + [fib_word(n) for n in range(11)]
    for _ in range(40):
        length = rng.randint(11, 60)
        subjects.append("".join(rng.choice("ab") for _ in range(length)))
        base = "".join(rng.choice("ab") for _ in range(rng.randint(2, 8)))
        shift = rng.randrange(len(base))
        subjects.append((base * (length // len(base) + 2))[
            shift:shift + length])
    for y in subjects:
        assert seeds_of(y) == [
            u for u in distinct_factors(y) if is_seed(u, y)[0]], y


def test_is_seed_rejects():
    assert is_seed("ab", F4) == (False, None)


def test_every_word_seeds_itself():
    rng = random.Random(13)
    for _ in range(30):
        y = random_word(rng)
        ok, witness = is_seed(y, y)
        assert ok and witness == SeedWitness("", "", (1,))


def test_is_seed_requires_factor():
    with pytest.raises(ValueError, match="factor"):
        is_seed("bb", F4)
    with pytest.raises(ValueError, match="factor"):
        is_seed_fast("bb", F4)


def test_is_seed_fast_examples():
    assert is_seed_fast("aabab", F5)
    assert is_seed_fast("aba", F6)
    assert not is_seed_fast("ab", F4)


def test_fast_criterion_matches_exhaustive_oracle():
    for n in range(1, 9):
        y = fib_word(n)
        for u in distinct_factors(y):
            assert is_seed_fast(u, y) == is_seed(u, y)[0], (u, y)
    rng = random.Random(17)
    for _ in range(200):
        y = random_word(rng, 25)
        for u in distinct_factors(y):
            assert is_seed_fast(u, y) == is_seed(u, y)[0], (u, y)


def test_seeds_examples():
    expected = canonical(left_seeds_of(F4) + right_seeds_of(F4) + ["baa"])
    assert seeds_of(F4) == expected
    assert seeds_of("aba") == ["ab", "ba", "aba"]
    assert seeds_of("aa") == ["a", "aa"]


def test_seed_chain_inclusions():
    rng = random.Random(19)
    subjects = [random_word(rng, 18) for _ in range(80)]
    subjects += [fib_word(n) for n in range(1, 9)]
    for y in subjects:
        cov = set(covers_of(y))
        ls, rs = set(left_seeds_of(y)), set(right_seeds_of(y))
        sds = set(seeds_of(y))
        assert cov <= ls and cov <= rs
        assert ls <= sds and rs <= sds


def test_seed_predicates_match_sets():
    rng = random.Random(21)
    for _ in range(100):
        y = random_word(rng, 16)
        ls = set(left_seeds_of(y))
        rs = set(right_seeds_of(y))
        for k in range(1, len(y) + 1):
            assert is_left_seed(y[:k], y) == (y[:k] in ls)
            assert is_right_seed(y[len(y) - k:], y) == (y[len(y) - k:] in rs)


def test_seeds_size_refusal():
    big = "a" * 2001
    with pytest.raises(SizeLimitError):
        seeds_of(big)
    assert len(seeds_of(big, force=True)) == 2001


def test_circular_examples():
    assert circular_covers_of(F4) == ["aba", "abaab"]
    assert circular_covers_of("aaaa") == ["a", "aa", "aaa", "aaaa"]
    # the index-5 subject also has the rotated seed baaba as a cover
    assert circular_covers_of(F5) == [
        "aba", "abaab", "baaba", "abaaba", "abaababa"]


def test_factor_names_are_first_starts():
    # names[i] at length k is the first start of the factor at i, over
    # the starts the sweep holds at k: every start with k letters left
    # (a linear sweep), or the first |y| starts of y*y (a circular one)
    rng = random.Random(31)
    subjects = list(all_words(8)) + [fib_word(n) for n in range(9)]
    subjects += [random_word(rng, 40) for _ in range(30)]
    for y in subjects:
        for text, count in ((y, len(y)), (y + y, len(y))):
            lengths = []
            for naming in engine.Naming(text, count):
                k, names = naming.k, naming.names
                starts = min(count, len(text) - k + 1)
                factors = [text[i:i + k] for i in range(starts)]
                assert names == [factors.index(u) for u in factors], (
                    text, count, k)
                lengths.append(k)
            assert lengths == list(range(1, len(y) + 1)), (text, count)


# The letter-scan naming pass and gap rule that engine.Naming replaced,
# kept as its test reference: every start is compared at every length.
def _factor_names(text: str, count: int) -> Iterator[tuple[int, list[int]]]:
    """Name the factors of ``text`` one length at a time (the naming
    step of Karp, Miller & Rosenberg, STOC 1972): for k = 1, 2, ...
    yield (k, names), where names[i] is the first start of text[i:i+k]
    among the starts 0..len(names)-1. The starts are the first ``count``
    positions that still have k letters, and k runs up to ``count``
    while there is one.

    A name is the factor's first start, so a factor is spelled from its
    name alone, and ``names`` is one list of ints, updated in place
    between lengths; only one length is held at a time. From k-1 to k a
    start keeps its name when its k-th letter equals the k-th letter at
    that name's start; the starts that differ from their name's start
    take the first of them with the same old name as their new name.
    """
    size = min(count, len(text))
    first = dict(zip(reversed(text[:size]), range(size - 1, -1, -1)))
    names = list(map(first.__getitem__, text[:size]))
    k = 1
    while True:
        yield k, names
        k += 1
        size = min(count, len(text) - k + 1)
        if k > count or size <= 0:
            return
        del names[size:]
        letters = text[k - 1:k - 1 + len(names)]
        moved = list(compress(range(len(names)), map(
            ne, map(letters.__getitem__, names), letters)))
        old = list(map(names.__getitem__, moved))
        renamed = dict(zip(reversed(old), reversed(moved)))
        for i, x in zip(moved, old):
            names[i] = renamed[x]


def _gap_runs(names: list[int], k: int) -> tuple[list[int], set[int]]:
    """(last, gapped) for the names of one length k: last[x] is the last
    start named x (for every x that is a name), and gapped holds the
    names with two consecutive starts more than k apart."""
    last = list(range(len(names)))
    gapped = set()
    for i, x in enumerate(names):
        if i - last[x] > k:
            gapped.add(x)
        last[x] = i
    return last, gapped


def _rotated_powers(rng, max_len=100):
    for period in range(1, 13):
        for _ in range(5):
            base = "".join(rng.choice("ab") for _ in range(period))
            length = rng.randint(1, max_len)
            shift = rng.randrange(period)
            yield (base * (length // period + 2))[shift:shift + length]


def test_naming_pass_matches_the_letter_scan():
    # names, firsts, and each name's last start and gapped status, at
    # every k of linear and circular passes
    rng = random.Random(41)
    subjects = list(all_words(10))
    subjects += [random_word(rng, 200) for _ in range(30)]
    subjects += list(_rotated_powers(rng))
    subjects += [fib_word(n) for n in range(15)]
    for y in subjects:
        for text, count in ((y, len(y)), (y + y, len(y))):
            reference = _factor_names(text, count)
            naming = iter(engine.Naming(text, count))
            for (k, names), got in zip(reference, naming):
                assert (got.k, got.names) == (k, names), (text, count, k)
                last, gapped = _gap_runs(names, k)
                firsts = [x for x, name in enumerate(names) if x == name]
                assert got.firsts == firsts, (text, count, k)
                assert [got.last[x] for x in firsts] == [
                    last[x] for x in firsts], (text, count, k)
                assert [x for x in firsts if got.gaps[x]] == [
                    x for x in firsts if x in gapped], (text, count, k)
            assert next(naming, None) is None, (text, count)
            assert next(reference, None) is None, (text, count)


def test_naming_pass_schedules_only_renames(monkeypatch):
    # Each LCP schedules one start: at k = 1 every start but the first
    # of each letter, then every renamed start that does not become a
    # name itself. So the pass makes at most |text| + renames of them,
    # and the exact counts are pinned; a pass that compared every start
    # at every length would make about |F_16|^2 / 2 letter comparisons.
    real, calls = engine._lcp, []

    def counted(text, i, x, k):
        calls.append(k)
        return real(text, i, x, k)
    monkeypatch.setattr(engine, "_lcp", counted)
    y = fib_word(16)
    for text, renames, scheduled in ((y, 5269, 5879), (y + y, 6255, 6255)):
        calls.clear()
        for _ in engine.Naming(text, len(y)):
            pass
        assert len(calls) == scheduled, len(text)
        assert len(calls) <= len(text) + renames


def test_circular_unrestricted_candidates():
    assert circular_covers_of("ab") == ["ab"]
    assert circular_covers_of("ab", unrestricted=True) == ["ab", "ba"]


def test_circular_sweep_matches_predicate_exhaustive():
    for y in all_words(11):
        assert circular_covers_of(y) == [
            u for u in distinct_factors(y) if is_circular_cover(u, y)], y
        assert circular_covers_of(y, unrestricted=True) == [
            u for u in distinct_factors(y + y)
            if len(u) <= len(y) and is_circular_cover(u, y)], y


def test_sweeps_match_predicates_on_long_words():
    # Longer than the words of test_seeds_of_matches_exhaustive_oracle,
    # so only this test compares the sweeps with the per-word
    # predicates on these.
    subjects = [fib_word(n) for n in (10, 11, 12)]
    subjects += [("aab" * 40)[1:100], "ab" * 70]
    for y in subjects:
        factors = distinct_factors(y)
        assert seeds_of(y) == [u for u in factors if is_seed_fast(u, y)], y
        assert circular_covers_of(y) == [
            u for u in factors if is_circular_cover(u, y)], y


def test_circular_refusal():
    with pytest.raises(SizeLimitError):
        circular_covers_of("ab" * 1001)


def test_circular_gap_rule_matches_residue_sets():
    def residue_cover(u, y):
        n = len(y)
        covered = set()
        for p in occurrences(u, y + y):
            if p > n:
                break
            covered.update((q - 1) % n for q in range(p, p + len(u)))
        return len(covered) == n

    rng = random.Random(23)
    for _ in range(300):
        y = random_word(rng, 14)
        for u in distinct_factors(y):
            assert is_circular_cover(u, y) == residue_cover(u, y), (u, y)


def test_circular_cover_longer_than_cycle():
    assert not is_circular_cover("aaa", "aa")


def test_empty_and_alphabet_errors():
    for fn in (covers_of, left_seeds_of, right_seeds_of, seeds_of,
               circular_covers_of):
        with pytest.raises(ValueError):
            fn("")
        with pytest.raises(ValueError):
            fn("abc")


def _fed(text, count, rules):
    """Feed every rule one naming pass of ``text`` over ``count``
    starts; spell what each accepts, as the set oracles order it."""
    out = [[] for _ in rules]
    for naming in engine.Naming(text, count):
        for accepted, rule in zip(out, rules):
            accepted += sorted([text[x:x + naming.k]
                                for x in rule(naming)])
    return out


def test_seed_and_circular_rules_in_a_shared_pass():
    # The seed rule fed alongside the linear rules, as a verify index
    # feeds them, and the circular rule from its own pass over y*y.
    linear = [REGISTRY[c] for c in
              ("borders", "covers", "left_seeds", "right_seeds")]
    rng = random.Random(37)
    subjects = [fib_word(n) for n in range(12)]
    subjects += [random_word(rng, 40) for _ in range(40)]
    for y in subjects:
        rules = [record.rule(y) for record in linear]
        *sets, seeds = _fed(y, len(y), rules + [engine.seed_rule(y)])
        assert seeds == seeds_of(y), y
        assert sets == [record.oracle(y) for record in linear], y
        (circular,) = _fed(y + y, len(y), [engine.circular_rule(y)])
        assert circular == circular_covers_of(y), y


def _event_subjects():
    """Every binary word of up to 10 letters, seeded random words and
    rotated powers of up to 120 letters, and F_0..F_16."""
    rng = random.Random(43)
    subjects = list(all_words(10))
    subjects += [random_word(rng, 120) for _ in range(300)]
    subjects += list(_rotated_powers(rng, 120))
    subjects += [fib_word(n) for n in range(17)]
    return subjects


def test_event_rules_equal_the_per_length_rules():
    # At every length the event rules accept exactly the names of the
    # per-length rules, and every name that enters or leaves their set
    # is among the names they report changed, which are all a cell
    # looks at again.
    for y in _event_subjects():
        for text, reference, events in (
                (y, engine.seed_rule(y), engine.SeedEvents(y)),
                (y + y, engine.circular_rule(y), engine.CircularEvents(y))):
            before = set()
            for naming in engine.Naming(text, len(y)):
                accepted = events(naming)
                assert sorted(accepted) == reference(naming), (
                    text, naming.k)
                assert accepted ^ before <= events.changed, (text, naming.k)
                before = set(accepted)


def test_range_max_answers_like_a_scan():
    rng = random.Random(47)
    for size in range(1, 40):
        values = [rng.randrange(10) for _ in range(size)]
        table = engine._RangeMax(values)
        for lo in range(size):
            for hi in range(lo, size):
                assert table(lo, hi) == max(values[lo:hi + 1])
            for at_least in range(11):
                assert table.first(lo, at_least) == next(
                    (j for j in range(lo, size) if values[j] >= at_least),
                    size), (values, lo, at_least)


def test_seed_event_head_and_tail_are_the_border_queries():
    # The head: y[:x+k] has a border of length x..k-1 iff the maximum
    # of j + Z[j] over x < j <= k is at least x + k. The tail of L
    # letters: y reversed has such a border of y[n-L:] reversed, of
    # length L-k..k-1, or k = L, iff k reaches the threshold of L.
    for y in _event_subjects():
        n = len(y)
        rule = engine.SeedEvents(y)
        prefix = engine._border_table(y)
        suffix = engine._border_table(y[::-1])
        for k in range(2, n + 1):
            for x in range(1, min(k, n - k + 1)):
                assert (rule.heads(x + 1, k) >= x + k) == (
                    engine._has_border(prefix, x + k, x, k - 1)), (y, x, k)
        for tail in range(1, n + 1):
            threshold = rule.tail_from(tail)
            for k in range(1, tail + 1):
                assert (k >= threshold) == (k == tail or engine._has_border(
                    suffix, tail, tail - k, k - 1)), (y, tail, k)
