"""Minimal graded free resolutions of powers of lexsegment ideals with
linear quotients, with independent verification layers."""

from .monomials import Monomial, RingContext, cmp_lex, one, variable
from .lexsegment import (
    Classification, CompletelyLexVerdict, LexSegmentSpec, TransformRecord, classify_linear_form,
    enumerate_lexsegment, is_completely_lexsegment, make_classified_spec, normalize_spec, shadow,
)
from .powers import PowerIdeal, power_generators
from .quotients import (
    QuotientStructure, colon_minimal_generators, linear_quotients_check, set_bound_report,
)
from .decomposition import (
    RegularityReport, closed_form_matches_oracle, closed_form_table, oracle_table,
    regularity_check_oracle,
)
from .resolution import (
    DifferentialMatrix, ResolutionComplex, compose_check, compose_check_d0, minimality_check,
    stream_resolution,
)
from .verify import (
    HilbertNumerator, RankReport, euler_characteristic_numerator, hilbert_numerator,
    random_rank_check,
)
from .errors import BudgetError, CheckFailure, InvariantError

__all__ = [
    "Monomial", "RingContext", "cmp_lex", "one", "variable",
    "Classification", "CompletelyLexVerdict", "LexSegmentSpec", "TransformRecord",
    "classify_linear_form", "enumerate_lexsegment", "is_completely_lexsegment",
    "make_classified_spec", "normalize_spec", "shadow", "PowerIdeal", "power_generators",
    "QuotientStructure", "colon_minimal_generators", "linear_quotients_check", "set_bound_report",
    "RegularityReport", "closed_form_matches_oracle", "closed_form_table", "oracle_table",
    "regularity_check_oracle",
    "DifferentialMatrix", "ResolutionComplex",
    "compose_check", "compose_check_d0", "minimality_check", "stream_resolution", "HilbertNumerator", "RankReport",
    "euler_characteristic_numerator", "hilbert_numerator",
    "random_rank_check", "BudgetError", "CheckFailure", "InvariantError",
]
