"""Exact continued-fraction statistics: intermediate fractions of bounded
height, Farey-neighbor indicators, weighted counts by independent methods,
and a reproducible Monte Carlo harness over random reals."""

from .cf import (ContinuedFraction, ConvergentPair, CutoffData, DyadicStream,
                 Intermediate, NeedsMoreBits, OutOfQuotients,
                 PartialQuotientStream, PeriodicStream, QuotientCapExceeded,
                 RationalStream, cf_of_rational, convergents, cutoff,
                 intermediates, parse_stream, quotient)
from .farey import (FareyTable, HeightSet, NeighborPair, chi, chi_mask,
                    cumulative_expected_count, expected_chi, farey_neighbors,
                    farey_size, farey_table, parse_height_set, row_sum_exact,
                    row_sum_formula, totients_up_to)
from .harness import (ExperimentConfig, InvariantViolation, ResultRow,
                      Summary, aggregate, mq_all, mq_count_closed,
                      mq_count_farey, mq_count_intermediates, mq_value, run,
                      sample_stream, write_csv, write_json)
from .stats import (TruncationFn, WeightFunction, birkhoff_average,
                    classical_stats, double_exceedance, gauss_kuzmin_prob,
                    indicator_sum, main_term, mq_level_expectation,
                    parse_weight, terminal_quotient, x_nf)

__version__ = "0.1.0"
