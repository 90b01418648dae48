"""Exact continued-fraction statistics: intermediate fractions of bounded
height, Farey-neighbor indicators, weighted counts by independent methods,
and a reproducible Monte Carlo harness over random reals."""

__version__ = "0.1.0"
