"""ddl: distributions of the divisor ratio n/sigma(n) under multiplicative weights.

Sieves exact sum-of-divisors tables at desk scale, accumulates weighted
distribution functions of n/sigma(n) for a closed catalog of multiplicative
functions, evaluates the matching analytic objects (mean-value Euler
products, Wirsing-type asymptotics, the prime-product characteristic function
of log(n/sigma(n))), and inverts the characteristic function to cross-check
the sieve against the analytic prediction.
"""

__version__ = "0.1.0"

from .multfunc import CatalogError, MultFunc, catalog_ids, make, parse_spec
from .sieve import ResourceLimitError, SieveError, scan_segments
from .empirical import (EquidistTally, GridError, ThresholdGrid,
                        WeightedCdfEstimate, equidist_tally,
                        estimate_normalized_cdf, estimate_weighted_cdf,
                        lattice_circle_cdf, partial_summation_check,
                        smoothed_indicator_mean)
from .analytic import (CharFnProfile, EulerProductValue, WitnessNotFound,
                       char_function, continuity_diagnostic, greedy_witness,
                       halasz_series, mean_value_product, mertens_kappa,
                       wirsing_prediction)
from .inversion import (CdfComparison, InversionError, InvertedCdf, invert,
                        sup_distance)
