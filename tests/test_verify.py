import itertools
import json

import pytest

from fibquasi.closed_form import enum_seeds
from fibquasi.engine import distinct_factors
from fibquasi.errors import SizeLimitError
from fibquasi.fib import fib_word
from fibquasi.verify import (CATEGORIES, DEFAULT_CAPS, REGISTRY, SuiteConfig,
                             _diagnose, check_category, run_suite)

EXPECTED_FINDING_CELLS = {(n, cat) for n in range(5, 11)
                          for cat in ("seeds", "circular_covers")}


@pytest.fixture(scope="module")
def full_suite():
    return run_suite(SuiteConfig(n_lo=0, n_hi=12))


def test_check_category_covers():
    report = check_category(6, "covers")
    assert report.passed
    assert (report.enumerated_count, report.oracle_count) == (2, 2)


def test_check_category_seeds_small_index():
    report = check_category(4, "seeds")
    assert report.passed
    assert report.enumerated_count == report.oracle_count == 6


def test_check_category_reports_known_finding():
    report = check_category(5, "seeds")
    assert not report.passed
    assert report.missing == ("baaba",)
    assert report.extra == ()
    diag = report.diagnostics[0]
    assert diag["word"] == "baaba" and diag["side"] == "missing"
    assert {"kind": "SuffixFibPrefix", "m": 3, "left_len": 2,
            "right_len": 0} in diag["clauses"]


def test_diagnose_names_the_clauses_producing_an_extra_word():
    diag = _diagnose("aba", 5, enum_seeds(5), "extra")
    assert diag["word"] == "aba" and diag["side"] == "extra"
    assert diag["clauses"] == [
        {"kind": "FibPlusPrefix", "m": 3, "left_len": 0, "right_len": 0},
        {"kind": "PlainFib", "m": 3, "left_len": 0, "right_len": 0}]


def test_check_category_circular_counts():
    report = check_category(5, "circular_covers")
    assert (report.enumerated_count, report.oracle_count) == (4, 5)
    assert report.missing == ("baaba",)


def test_check_category_cap():
    with pytest.raises(SizeLimitError):
        check_category(11, "seeds")
    with pytest.raises(SizeLimitError):
        check_category(15, "borders")
    with pytest.raises(ValueError):
        check_category(5, "periods")


def test_partial_caps_fall_back_to_default_caps():
    partial = {"seeds": 10}
    suite = run_suite(SuiteConfig(n_hi=3, caps=partial))
    assert {c.category for c in suite.cells} == set(CATEGORIES)
    assert suite.all_passed
    assert check_category(3, "borders", caps=partial).passed
    with pytest.raises(SizeLimitError):
        check_category(15, "borders", caps=partial)
    with pytest.raises(SizeLimitError):
        check_category(5, "seeds", caps={"seeds": 4})


def test_registry_oracles_match_predicates():
    # Predicates only run on disputed words in a verify cell, so this is
    # what catches a predicate wired to the wrong category.
    subjects = ["".join(letters) for length in range(1, 11)
                for letters in itertools.product("ab", repeat=length)]
    subjects += [fib_word(n) for n in range(10)]
    for record in REGISTRY.values():
        for y in subjects:
            assert record.oracle(y) == [
                u for u in distinct_factors(y)
                if record.predicate(u, y)], (record.name, y)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n_lo=-1, n_hi=5).validate()
    with pytest.raises(ValueError):
        SuiteConfig(n_lo=6, n_hi=5).validate()
    with pytest.raises(ValueError):
        SuiteConfig(n_hi=999).validate()
    with pytest.raises(ValueError):
        SuiteConfig(n_hi=5, categories=("periods",)).validate()
    bad_caps = dict(DEFAULT_CAPS, borders=17)
    with pytest.raises(ValueError):
        SuiteConfig(n_hi=5, caps=bad_caps).validate()
    SuiteConfig(n_hi=12).validate()


def test_cap_errors_name_the_cap_and_category():
    with pytest.raises(ValueError,
                       match=r"^cap -1 for seeds must be nonnegative$"):
        SuiteConfig(n_hi=3, caps={"seeds": -1}).validate()
    with pytest.raises(SizeLimitError,
                       match=r"^cap 95 for seeds exceeds the exact length "
                             r"limit, index 90$"):
        SuiteConfig(n_hi=3, caps={"seeds": 95}).validate()


def test_suite_cell_outcomes(full_suite):
    failing = {(c.n, c.category) for c in full_suite.cells if not c.passed}
    assert failing == EXPECTED_FINDING_CELLS
    for cell in full_suite.cells:
        if not cell.passed:
            assert cell.missing == ("baaba",) and cell.extra == ()


def test_suite_respects_caps(full_suite):
    seen = {(c.n, c.category) for c in full_suite.cells}
    assert (10, "seeds") in seen and (11, "seeds") not in seen
    assert (12, "borders") in seen


def test_suite_batteries_pass(full_suite):
    assert all(b.passed for b in full_suite.batteries)
    assert {b.name for b in full_suite.batteries} == {
        "cover_chain", "expansion_determinism", "occurrence_fast_path",
        "near_miss_left_seeds", "near_miss_right_seeds"}


def test_suite_summary(full_suite):
    summary = full_suite.summary
    entries = len(full_suite.cells) + len(full_suite.batteries)
    assert summary["cells"] == entries
    assert summary["failed"] == len(EXPECTED_FINDING_CELLS)
    assert summary["passed"] == entries - summary["failed"]
    assert not full_suite.all_passed


def test_small_ranges_pass():
    assert run_suite(SuiteConfig(n_lo=0, n_hi=4)).all_passed
    assert run_suite(SuiteConfig(n_lo=0, n_hi=2)).all_passed
    only_ls = run_suite(SuiteConfig(n_lo=5, n_hi=5,
                                    categories=("left_seeds",)))
    (cell,) = only_ls.cells
    assert cell.passed
    assert (cell.enumerated_count, cell.oracle_count) == (5, 5)


def test_suite_is_deterministic(full_suite):
    again = run_suite(SuiteConfig(n_lo=0, n_hi=12))
    first = full_suite.to_json_lines(include_timing=False)
    second = again.to_json_lines(include_timing=False)
    assert first == second


def test_json_lines_shape(full_suite):
    lines = full_suite.to_json_lines()
    docs = [json.loads(line) for line in lines]
    assert docs[-1] == full_suite.summary
    cells = [d for d in docs if "category" in d]
    batteries = [d for d in docs if "battery" in d]
    assert len(cells) == len(full_suite.cells)
    assert len(batteries) == len(full_suite.batteries)
    for doc in cells:
        assert set(doc) == {"n", "category", "passed", "enumerated_count",
                            "oracle_count", "missing", "extra",
                            "diagnostics", "elapsed_ms"}


def test_cells_in_deterministic_order(full_suite):
    order = [(c.n, CATEGORIES.index(c.category)) for c in full_suite.cells]
    assert order == sorted(order)
