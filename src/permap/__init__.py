"""Exact and asymptotic statistics of ranked component sizes.

For a uniform random n-permutation or n-mapping, this package computes
the full distribution of the size of the r-th largest or r-th smallest
component (cycle, for permutations) by three independent routes -- a
rank-window polynomial recursion, cumulative cycle-count recursions, and
brute-force enumeration -- plus the n -> infinity limit constants those
finite-n statistics converge to.
"""

from .kinds import (ObjectKind, Side, connected_count, first_component_split,
                    total_count)
from .exact import (INFINITY, PrecisionError, RowPolynomial, largest_poly,
                    pmf, pmf_float, smallest_poly, support_length)
from .stats import ComponentPMF, SummaryStats, summarize
from .ktp import (CycleCountTable, delta, harmonic, longest_table, pmf_from_tables,
                  pmf_from_tables_float, shortest_table, stirling_cycle)
from .asymptotics import (DickmanTable, MomentConstant, constants_catalog,
                          density_f, density_g, dickman, exp_integral,
                          largest_cdf, median_xi, mode_x0, moment_L, moment_S)
from .oracle import decompose, enumerate_pmf

__version__ = "0.1.0"

__all__ = [
    "ObjectKind", "Side", "connected_count", "total_count",
    "first_component_split", "INFINITY", "PrecisionError", "RowPolynomial",
    "largest_poly", "smallest_poly", "pmf", "pmf_float", "support_length",
    "ComponentPMF", "SummaryStats", "summarize", "CycleCountTable", "delta",
    "harmonic", "stirling_cycle", "longest_table", "shortest_table",
    "pmf_from_tables", "pmf_from_tables_float", "DickmanTable", "MomentConstant", "exp_integral",
    "dickman", "largest_cdf", "density_f", "density_g", "mode_x0",
    "median_xi", "moment_L", "moment_S", "constants_catalog", "decompose",
    "enumerate_pmf", "__version__",
]
