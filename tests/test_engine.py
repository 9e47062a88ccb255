import random
import tracemalloc
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
from fibquasi.verify import REGISTRY, _battery_cover_chain, _covered_words
from fibquasi.words import (borders, canonical, is_cover, occurrences,
                            period_of, require_word)
from cover_chain_scan import full_scan_cover_chain
from extent_references import (is_right_seed_by_chain,
                               right_seeds_by_suffix_loop)
from lcp_doubling import lcp_by_doubling
from per_length_rules import circular_rule, has_border, seed_rule

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


def _dropping_aba_from_abaaba(honest):
    return lambda y: [u for u in honest(y) if (y, u) != ("abaaba", "aba")]


def _dropping_a_from_short_powers(honest):
    def dropping(y):
        if 1 < len(y) < 8 and y == "a" * len(y):
            return [u for u in honest(y) if u != "a"]
        return honest(y)
    return dropping


@pytest.mark.parametrize("patch", [
    None, _dropping_aba_from_abaaba, _dropping_a_from_short_powers])
def test_cover_chain_battery_equals_the_full_scan(monkeypatch, patch):
    # The battery visits only the words with a proper cover, the full
    # scan every word. A covers_of that drops covers gives the other
    # words no proper cover either, so the two agree under it too.
    if patch:
        monkeypatch.setattr(engine, "covers_of", patch(engine.covers_of))
    for max_len in range(1, 15):
        assert (_battery_cover_chain(max_len).to_json(include_timing=False)
                == full_scan_cover_chain(max_len).to_json(
                    include_timing=False)), max_len


def test_covered_words_are_the_words_with_a_proper_cover():
    covered = [y for y in all_words(14) if len(covers_of(y)) > 1]
    for max_len in range(1, 15):
        assert _covered_words(max_len) == [
            y for y in covered if len(y) <= max_len], max_len


def test_cover_chain_battery_calls_covers_of_per_covered_word_and_cover(
        monkeypatch):
    # 732 words of up to 14 letters have a proper cover, and 326 of their
    # proper covers have none; each of these 1,058 words is asked once
    # (the full scan made 33,824 calls).
    honest = engine.covers_of
    calls = []

    def counting(y):
        calls.append(y)
        return honest(y)

    monkeypatch.setattr(engine, "covers_of", counting)
    assert _battery_cover_chain(14).passed
    assert len(calls) == 1058
    assert len(set(calls)) == len(calls)


def test_cover_chain_battery_compares_each_cover_with_its_own_answer(
        monkeypatch):
    # Dropping the shortest proper cover from the answer for every word
    # of 5 letters breaks the law at each longer word those words cover:
    # a kept answer for a 5-letter cover u is still covers_of(u).
    honest = engine.covers_of

    def dropping(y):
        covers = honest(y)
        return covers[1:] if len(y) == 5 and len(covers) > 1 else covers

    monkeypatch.setattr(engine, "covers_of", dropping)
    result = _battery_cover_chain(14)
    assert not result.passed
    named = [dict(part.split("=") for part in f.split())
             for f in result.failures]
    assert any(len(f["u"]) == 5 < len(f["y"]) for f in named), named


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


def test_left_seed_oracles_walk_only_prefixes_shorter_than_the_period(
        monkeypatch):
    # A prefix at least one period long covers itself, which reaches the
    # period, so it is a left seed without a gap walk: left_seeds_of
    # walks once per shorter prefix, and is_left_seed never on a longer.
    real, calls = engine.covered_prefix_extent, []

    def counted(u, y):
        calls.append(u)
        return real(u, y)
    monkeypatch.setattr(engine, "covered_prefix_extent", counted)
    for y in list(all_words(8)) + [fib_word(n) for n in range(1, 12)]:
        p = period_of(y)
        calls.clear()
        left_seeds_of(y)
        assert calls == [y[:k] for k in range(1, p)], y
        calls.clear()
        assert all(is_left_seed(y[:k], y) for k in range(p, len(y) + 1))
        assert calls == [], y


def test_right_seeds_examples():
    assert right_seeds_of(F5) == canonical(
        ["aba", "ababa", "aababa", "baababa", "abaababa"])
    assert right_seeds_of("aba") == ["ba", "aba"]
    assert right_seeds_of("bb") == ["b", "bb"]


def test_right_seeds_match_the_suffix_loop():
    # the mirror against every suffix decided by its occurrence chain
    subjects = list(all_words(10)) + [fib_word(n) for n in range(1, 13)]
    for y in subjects:
        assert right_seeds_of(y) == right_seeds_by_suffix_loop(y), y
        for k in range(1, len(y) + 1):
            z = y[len(y) - k:]
            assert is_right_seed(z, y) == is_right_seed_by_chain(z, y)


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
    # candidate: all short binary words, the short Fibonacci words,
    # sampled longer words of both kinds the sweep sees (few seeds on a
    # uniform word, many on a rotated power of a short base), and the
    # prefixes of periodic words, where the tail walks the longest
    # border chains (up to 50 letters: is_seed on every factor of the
    # longer ones would take seconds more).
    rng = random.Random(29)
    subjects = list(all_words(10)) + [fib_word(n) for n in range(11)]
    for _ in range(40):
        length = rng.randint(11, 60)
        subjects.append("".join(rng.choice("ab") for _ in range(length)))
        base = "".join(rng.choice("ab") for _ in range(rng.randint(2, 8)))
        shift = rng.randrange(len(base))
        subjects.append((base * (length // len(base) + 2))[
            shift:shift + length])
    subjects += _periodic_prefixes(50)
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
    # names, and each name's last start and gapped status, at
    # every k of linear and circular passes; touched holds every name
    # made or dropped at k and every name whose last start or gapped
    # status differs from k - 1, and no name that is neither a name at
    # k nor at k - 1
    rng = random.Random(41)
    subjects = list(all_words(10))
    subjects += [random_word(rng, 200) for _ in range(30)]
    subjects += list(_rotated_powers(rng))
    subjects += [fib_word(n) for n in range(15)]
    for y in subjects:
        for text, count in ((y, len(y)), (y + y, len(y))):
            reference = _factor_names(text, count)
            naming = iter(engine.Naming(text, count))
            before, last_before, gapped_before = set(), {}, set()
            for (k, names), got in zip(reference, naming):
                assert (got.k, got.names) == (k, names), (text, count, k)
                last, gapped = _gap_runs(names, k)
                firsts = [x for x, name in enumerate(names) if x == name]
                assert [got.last[x] for x in firsts] == [
                    last[x] for x in firsts], (text, count, k)
                assert [x for x in firsts if got.gaps[x]] == [
                    x for x in firsts if x in gapped], (text, count, k)
                now = set(firsts)
                changed = now ^ before
                changed.update(x for x in now & before
                               if last[x] != last_before[x]
                               or (x in gapped) != (x in gapped_before))
                assert changed <= got.touched <= now | before, (
                    text, count, k)
                before, last_before, gapped_before = now, last, gapped
            assert next(naming, None) is None, (text, count)
            assert next(reference, None) is None, (text, count)


def test_naming_pass_schedules_only_renames(monkeypatch):
    # Each LCE schedules one start: at k = 1 every start but the first
    # of each letter, then every renamed start that does not become a
    # name itself. The next letter answers it when it differs or the
    # text ends there, and one query of the LCE table answers every
    # other one. So the pass makes at most |text| + renames of them,
    # and the exact counts are pinned; a pass that compared every start
    # at every length would make about |F_16|^2 / 2 letter comparisons.
    real, queries = engine._lce, []

    def counted(text, count, starts):
        pos, lcp = real(text, count, starts)
        start = {p: i for i, p in enumerate(pos)}

        def query(a, b):
            queries.append((start[a], start[b]))
            return lcp(a, b)
        return pos, query
    monkeypatch.setattr(engine, "_lce", counted)
    y = fib_word(16)
    for text, renames, scheduled in ((y, 5269, 5879), (y + y, 6255, 6255)):
        queries.clear()
        named, asked, renamed = 0, [], 0
        for naming in engine.Naming(text, len(y)):
            k, names = naming.k, naming.names
            renamed += len(naming.renamed)
            for i in range(len(names)) if k == 1 else naming.renamed:
                x = names[i]
                if x != i:
                    named += 1
                    if i + k < len(text) and text[i + k] == text[x + k]:
                        asked.append((i, x))
        assert (renamed, named) == (renames, scheduled), len(text)
        assert queries == asked, len(text)
        assert named <= len(text) + renames


def test_naming_pass_renames_only_starts_it_keeps():
    # a start whose LCP with its name runs to the end of the text is
    # dropped at the next length, so it is never listed as renamed
    rng = random.Random(31)
    texts = []
    for n in range(5, 17):
        y = fib_word(n)
        texts += [(y, len(y)), (y + y, len(y))]
    for _ in range(40):
        y = random_word(rng, 300)
        texts += [(y, len(y)), (y + y, len(y))]
    listed = 0
    for text, count in texts:
        for naming in engine.Naming(text, count):
            assert all(i < len(naming.names) for i in naming.renamed), (
                text, naming.k)
            listed += len(naming.renamed)
    assert listed


def _scanned_lcp(text: str, i: int, x: int) -> int:
    """The longest common prefix of text[i:] and text[x:], letter by
    letter."""
    n, lcp = len(text), 0
    while i + lcp < n and x + lcp < n and text[i + lcp] == text[x + lcp]:
        lcp += 1
    return lcp


def test_lcp_equals_a_naive_scan():
    # lcp_by_doubling(text, i, x, k) for every x < i and every k up to
    # the true LCP, on every binary text of up to 10 letters and on
    # seeded 60-letter texts, uniform and periodic (the longest LCPs, up
    # to the end of the text, so i + k == len(text) is asked too)
    rng = random.Random(53)
    texts = list(all_words(10))
    for period in range(1, 11):
        texts.append("".join(rng.choice("ab") for _ in range(60)))
        base = "".join(rng.choice("ab") for _ in range(period))
        texts.append((base * (60 // period + 1))[:60])
    at_end = 0
    for text in texts:
        n = len(text)
        for i in range(1, n):
            for x in range(i):
                true = _scanned_lcp(text, i, x)
                at_end += i + true == n
                for k in range(true + 1):
                    assert lcp_by_doubling(text, i, x, k) == true, (
                        text, i, x, k)
    assert at_end


def _assert_lce_table(y: str) -> None:
    """The LCE table of a linear pass over y and of a circular one over
    y*y answer every pair of starts as the doubling LCP and the letter
    scan do, in both orders."""
    for text, count in ((y, len(y)), (y + y, len(y))):
        pos, lcp = engine._lce(text, count, list(range(len(y))))
        for i in range(1, len(y)):
            for x in range(i):
                true = _scanned_lcp(text, i, x)
                assert lcp(pos[i], pos[x]) == lcp(pos[x], pos[i]) == true, (
                    text, i, x)
                assert lcp_by_doubling(text, i, x, 0) == true, (text, i, x)


def test_lce_table_equals_the_references():
    # every binary word of up to 10 letters, F_0..F_13 and rotated
    # powers, each as y over |y| starts and as y*y over |y|. The windows
    # of y*y are the rotations of y: a power's equal rotations stay in
    # start order, and their LCE runs on to the end of y*y. In
    # aabaaaba*aabaaaba the start ranked just below 0 is 7, the last
    # start, so Kasai's carried bound is only sound because the start
    # after 7 wraps to 0, which is ranked.
    rng = random.Random(59)
    subjects = list(all_words(10)) + [fib_word(n) for n in range(14)]
    subjects += list(_rotated_powers(rng, 40)) + ["aabaaaba"]
    for y in subjects:
        _assert_lce_table(y)
    pos, lcp = engine._lce("aabaaaba" * 2, 8, list(range(8)))
    assert [lcp(pos[i], pos[i + 4]) for i in range(4)] == [12, 11, 10, 9]
    assert lcp(pos[0], pos[7]) == 2


def test_lce_table_through_prefix_doubling(monkeypatch):
    # With a first sort of 1 to 3 letters the windows tie and prefix
    # doubling ranks them; with blocks of 1 to 4 entries the small
    # words take the long range minima too, and the seed rule's head
    # skips whole blocks of the Z-array. The table answers as the
    # references do, the pass is the same as at the default widths, and
    # the seeds are the gap criterion's.
    rng = random.Random(61)
    subjects = list(all_words(8)) + [fib_word(n) for n in range(12)]
    subjects += list(_rotated_powers(rng, 30)) + ["aabaaaba"]
    passes = [(text, len(y)) for y in (fib_word(11), "abaab" * 9 + "a",
                                       random_word(rng, 120))
              for text in (y, y + y)]

    def snapshot(text, count):
        return [(n.k, list(n.names), list(n.last), list(n.gaps),
                 list(n.renamed), set(n.touched))
                for n in engine.Naming(text, count)]
    expected = [snapshot(text, count) for text, count in passes]
    for width, block in ((1, 1), (2, 2), (3, 4)):
        monkeypatch.setattr(engine, "_RANK_WIDTH", width)
        monkeypatch.setattr(engine, "_BLOCK", block)
        for y in subjects:
            _assert_lce_table(y)
            assert seeds_of(y) == [u for u in distinct_factors(y)
                                   if is_seed_fast(u, y)], (y, block)
        assert [snapshot(text, count)
                for text, count in passes] == expected, (width, block)


def test_naming_refuses_a_partial_circular_text():
    with pytest.raises(ValueError):
        engine.Naming("abaab" + "abaab"[:4], 5)
    with pytest.raises(ValueError):
        engine.Naming("abaabbaaba", 5)
    assert [n.k for n in engine.Naming("abaab" * 2, 5)] == [1, 2, 3, 4, 5]


class _CountedReads(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_seed_events_decide_each_name_only_when_it_can_change(monkeypatch):
    # A name is decided again only when the pass touches it or at the
    # length its last verdict named, and a tail threshold walks the
    # suffix border chain only down to the first border under half the
    # suffix. Both counts are pinned over one pass at F_16: deciding a
    # name at the next head length instead of max(head, tail), or
    # walking further down the chain, gives the same seeds with more
    # work, which the equality tests cannot see.
    real, decided = engine.SeedEvents._verdicts, []

    def counted(self, naming, xs):
        for verdict in real(self, naming, xs):
            decided.append(verdict)
            yield verdict
    monkeypatch.setattr(engine.SeedEvents, "_verdicts", counted)
    y = fib_word(16)
    rule = engine.SeedEvents(y)
    rule.suffix_borders = borders = _CountedReads(rule.suffix_borders)
    accepted = 0
    for naming in engine.Naming(y, len(y)):
        accepted += len(rule(naming))
    assert accepted == 301458  # the 301,457 seed catalog and baaba
    assert (len(decided), borders.reads) == (5490, 1963)


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
        assert circular_covers_of(y, unrestricted=True) == [
            u for u in distinct_factors(y + y)
            if len(u) <= len(y) and is_circular_cover(u, y)], y


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
        *sets, seeds = _fed(y, len(y), rules + [seed_rule(y)])
        assert seeds == seeds_of(y), y
        assert sets == [record.oracle(y) for record in linear], y
        (circular,) = _fed(y + y, len(y), [circular_rule(y)])
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
    # looks at again. Both circular rules read one pass over y*y.
    for y in _event_subjects():
        for text, pairs in (
                (y, [(seed_rule(y), engine.SeedEvents(y))]),
                (y + y, [(circular_rule(y), engine.CircularEvents(y)),
                         (circular_rule(y, unrestricted=True),
                          engine.CircularEvents(y, unrestricted=True))])):
            before = [set() for _ in pairs]
            for naming in engine.Naming(text, len(y)):
                for (reference, events), previous in zip(pairs, before):
                    accepted = events(naming)
                    assert sorted(accepted) == reference(naming), (
                        text, naming.k)
                    assert accepted ^ previous <= events.changed, (
                        text, naming.k)
                    previous.clear()
                    previous.update(accepted)


def _periodic_prefixes(longest=80):
    """The prefixes of 1..``longest`` letters of a^oo, (ab)^oo, (aab)^oo
    and (abaab)^oo, whose border chains are the longest."""
    return [(unit * longest)[:m] for unit in ("a", "ab", "aab", "abaab")
            for m in range(1, longest + 1)]


def test_chain_rules_are_the_seeds_at_the_ends():
    # The paper's definitions as the reference: the left seeds are the
    # seeds named 0 (the prefix), the right seeds the seeds named like
    # the last start (the suffix), and the covers the left seeds that
    # are also the suffix. The registry decides all three by a gap-free
    # chain across y or its period instead.
    chained = [REGISTRY[c].rule for c in ("covers", "left_seeds",
                                          "right_seeds")]
    for y in _event_subjects() + _periodic_prefixes():
        seeds = seed_rule(y)
        covers, left, right = [rule(y) for rule in chained]
        for naming in engine.Naming(y, len(y)):
            accepted, end = set(seeds(naming)), naming.names[-1]
            lefts = {0} & accepted
            assert left(naming) == lefts, (y, naming.k)
            assert right(naming) == {end} & accepted, (y, naming.k)
            assert covers(naming) == (lefts if end == 0 else set()), (
                y, naming.k)


def test_range_min_answers_like_a_scan(monkeypatch):
    # minimum(a, b) is the least value over min(a, b) < j <= max(a, b),
    # in both orders, and first(lo, at_most) the first j >= lo with a
    # value at most at_most: a value below every entry finds none, and
    # the sizes reach past several whole blocks of every block size
    rng = random.Random(47)
    for block in (1, 2, 4, 16):
        monkeypatch.setattr(engine, "_BLOCK", block)
        for size in range(1, 81):
            values = [rng.randrange(10) for _ in range(size)]
            minimum, first = engine._range_min(values)
            for a in range(-1, size):
                for b in range(a + 1, size):
                    assert minimum(a, b) == minimum(b, a) == min(
                        values[a + 1:b + 1]), (block, values, a, b)
            for lo in range(size + 1):
                for at_most in range(-1, 10):
                    assert first(lo, at_most) == next(
                        (j for j in range(lo, size)
                         if values[j] <= at_most), size), (
                        block, values, lo, at_most)


def test_seed_rule_holds_a_few_words_per_letter():
    # The head's two range structures hold a few ints per letter, and
    # the suffix border table is the largest part of the rule; a sparse
    # table of log |y| ints per letter for each would pass the bound.
    y = fib_word(20)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rule = engine.SeedEvents(y)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rule.n == len(y)
    assert held < 120 * len(y), held / len(y)


def test_seed_event_head_and_tail_are_the_border_queries():
    # The head: y[:x+k] has a border of length x..k-1 iff the maximum
    # of j + Z[j] over x < j <= k is at least x + k. The tail of L
    # letters: y reversed has such a border of y[n-L:] reversed, of
    # length L-k..k-1, or k = L, iff k reaches the threshold of L. The
    # prefixes of periodic words have the longest border chains, so the
    # threshold's walk down the chain is tried where it is longest.
    for y in _event_subjects() + _periodic_prefixes():
        n = len(y)
        rule = engine.SeedEvents(y)
        prefix = engine._border_table(y)
        suffix = engine._border_table(y[::-1])
        for k in range(2, n + 1):
            for x in range(1, min(k, n - k + 1)):
                assert (-rule.heads(x, k) >= x + k) == (
                    has_border(prefix, x + k, x, k - 1)), (y, x, k)
        for tail in range(1, n + 1):
            threshold = rule.tail_from(tail)
            for k in range(1, tail + 1):
                assert (k >= threshold) == (k == tail or has_border(
                    suffix, tail, tail - k, k - 1)), (y, tail, k)
