import random

import pytest

from fibquasi.fib import fib_word
from fibquasi.words import (borders, canonical, covered_prefix_extent,
                            is_cover, occurrences, period_of, require_word)
from extent_references import (covered_prefix_extent_by_chain,
                               covered_suffix_extent_by_chain)

F5 = "abaababa"
F6 = "abaababaabaab"


def random_word(rng, max_len=20):
    return "".join(rng.choice("ab") for _ in range(rng.randint(1, max_len)))


def random_factor(rng, y):
    i = rng.randrange(len(y))
    j = rng.randint(i + 1, len(y))
    return y[i:j]


def test_occurrences_examples():
    assert occurrences("ab", F5) == (1, 4, 6)
    assert occurrences("aba", F6) == (1, 4, 6, 9)
    assert occurrences("abaab", "abaab") == (1,)


def test_occurrences_overlap():
    assert occurrences("aa", "aaaa") == (1, 2, 3)


def test_occurrences_empty_pattern():
    with pytest.raises(ValueError):
        occurrences("", "ab")


def test_borders_examples():
    assert borders(F5) == ["a", "aba"]
    assert borders("a") == []
    assert borders("aabaa") == ["a", "aa"]


def test_borders_empty_input():
    with pytest.raises(ValueError):
        borders("")


def test_borders_are_prefix_and_suffix():
    rng = random.Random(7)
    for _ in range(300):
        y = random_word(rng)
        for u in borders(y):
            assert y.startswith(u) and y.endswith(u) and len(u) < len(y)


def test_period_examples():
    assert period_of(F5) == 5
    assert period_of("aaa") == 1
    assert period_of("ab") == 2


def test_period_duality():
    # Every binary word up to 12 letters, then longer sampled ones.
    rng = random.Random(11)
    subjects = ["".join("ab"[(bits >> i) & 1] for i in range(length))
                for length in range(1, 13) for bits in range(1 << length)]
    subjects += [random_word(rng) for _ in range(300)]
    for y in subjects:
        bs = borders(y)
        longest = len(bs[-1]) if bs else 0
        assert period_of(y) + longest == len(y)


def test_period_repetition_characterization():
    # smallest p with y a prefix of (y[:p]) repeated must match
    rng = random.Random(13)
    for _ in range(200):
        y = random_word(rng, 16)
        p = next(k for k in range(1, len(y) + 1)
                 if (y[:k] * len(y)).startswith(y))
        assert period_of(y) == p


def test_is_cover_examples():
    ok, witness = is_cover("abaab", F6)
    assert ok and witness == (1, 6, 9)
    assert is_cover("aba", F6) == (False, None)


def test_trivial_cover_convention():
    rng = random.Random(17)
    for _ in range(50):
        y = random_word(rng)
        ok, witness = is_cover(y, y)
        assert ok and witness == (1,)


def test_is_cover_rejects_empty_pattern():
    with pytest.raises(ValueError):
        is_cover("", "ab")


def test_cover_is_border_or_whole():
    rng = random.Random(19)
    for _ in range(200):
        y = random_word(rng, 14)
        for u in {random_factor(rng, y) for _ in range(6)}:
            if is_cover(u, y)[0]:
                assert u == y or (y.startswith(u) and y.endswith(u))


def test_covered_prefix_extent_examples():
    assert covered_prefix_extent("aba", F6) == 11
    assert covered_prefix_extent("b", "abaab") == 0
    assert covered_prefix_extent("abaab", F6) == 13
    # a factor that is not a prefix covers nothing from position 1
    assert covered_prefix_extent("baa", F6) == 0
    assert covered_prefix_extent("aab", "aabaab") == 6
    assert covered_prefix_extent("ab", "abab") == 4


@pytest.mark.parametrize("extent", [covered_prefix_extent,
                                    covered_prefix_extent_by_chain])
def test_covered_prefix_extent_refuses_an_empty_pattern(extent):
    with pytest.raises(ValueError, match=r"^pattern must be nonempty$"):
        extent("", F6)


def test_extent_full_iff_cover():
    rng = random.Random(23)
    for _ in range(300):
        y = random_word(rng, 14)
        u = random_factor(rng, y)
        assert (covered_prefix_extent(u, y) == len(y)) == is_cover(u, y)[0]


def _binary_words(max_len):
    for length in range(1, max_len + 1):
        for bits in range(1 << length):
            yield "".join("ab"[(bits >> i) & 1] for i in range(length))


def test_extents_equal_the_occurrence_chain():
    # the gap walk, and the suffix extent as its mirror, against the
    # chain of every occurrence, for every nonempty factor
    subjects = list(_binary_words(10)) + [fib_word(n) for n in range(1, 13)]
    for y in subjects:
        backwards = y[::-1]
        for u in {y[i:j] for i in range(len(y))
                  for j in range(i + 1, len(y) + 1)}:
            assert covered_prefix_extent(u, y) == \
                covered_prefix_extent_by_chain(u, y), (u, y)
            assert covered_prefix_extent(u[::-1], backwards) == \
                covered_suffix_extent_by_chain(u, y), (u, y)


def test_covered_suffix_extent_examples():
    # the covered suffix extent of u in y is covered_prefix_extent of u
    # reversed in y reversed
    for u, y, extent in (("abaab", F6, 13), ("ab", "aba", 0),
                         ("aab", "abaab", 3)):
        assert covered_suffix_extent_by_chain(u, y) == extent
        assert covered_prefix_extent(u[::-1], y[::-1]) == extent


def test_suffix_extent_mirrors_prefix_extent():
    rng = random.Random(29)
    for _ in range(400):
        y = random_word(rng)
        u = random_factor(rng, y)
        assert covered_suffix_extent_by_chain(u, y) == \
            covered_prefix_extent(u[::-1], y[::-1])


def test_canonical_ordering():
    assert canonical(["ba", "b", "ab", "b", "aab"]) == ["b", "ab", "ba", "aab"]
    rng = random.Random(17)
    for size in (0, 1, 2, 5, 50, 500):
        items = [random_word(rng, 12) for _ in range(size)]
        assert canonical(items) == sorted(set(items),
                                          key=lambda w: (len(w), w))


def test_require_word():
    require_word("abab")
    require_word("")
    with pytest.raises(ValueError):
        require_word("abc")
