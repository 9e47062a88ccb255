"""fibquasi: quasiperiodicity toolkit for binary words.

Oracle-grade borders, periods, covers, left/right seeds, seeds, and
circular covers for arbitrary words over {a, b}, together with exact
closed-form catalogs of those sets for Fibonacci words and a harness
that cross-checks the two.
"""

from .closed_form import (EnumResult, FactorForm, enum_borders,
                          enum_circular_covers, enum_covers, enum_left_seeds,
                          enum_right_seeds, enum_seeds)
from .engine import (SeedWitness, circular_covers_of, covers_of,
                     distinct_factors, is_circular_cover, is_left_seed,
                     is_right_seed, is_seed, is_seed_fast, left_seeds_of,
                     right_seeds_of, seeds_of)
from .errors import SizeLimitError
from .fib import (Decomposition, Expansion, ExpansionItem, border_indices,
                  decompose, expansion, fib_len, fib_occurrences, fib_word,
                  fib_words, materialization_limit, scan_occurrences)
from .verify import (CATEGORIES, DEFAULT_CAPS, BatteryResult, QuasiReport,
                     SuiteConfig, SuiteResult, check_category, run_suite)
from .words import (borders, canonical, covered_prefix_extent, is_cover,
                    occurrences, period_of)

__version__ = "0.1.0"

__all__ = [
    "BatteryResult", "CATEGORIES", "DEFAULT_CAPS", "Decomposition",
    "EnumResult", "Expansion", "ExpansionItem", "FactorForm", "QuasiReport",
    "SeedWitness", "SizeLimitError", "SuiteConfig", "SuiteResult",
    "border_indices", "borders", "canonical", "check_category",
    "circular_covers_of", "covered_prefix_extent", "covers_of",
    "decompose", "distinct_factors", "enum_borders",
    "enum_circular_covers", "enum_covers", "enum_left_seeds",
    "enum_right_seeds", "enum_seeds", "expansion", "fib_len",
    "fib_occurrences", "fib_word", "fib_words", "is_circular_cover",
    "is_cover", "is_left_seed", "is_right_seed", "is_seed",
    "is_seed_fast", "left_seeds_of",
    "materialization_limit", "occurrences", "period_of", "right_seeds_of",
    "run_suite", "scan_occurrences", "seeds_of",
]
