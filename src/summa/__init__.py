"""Numerical laboratory for absolute Cesaro summability of factored series.

The package splits into a float engine and an exact oracle.  The float
side materializes sequence families, computes Cesaro means and the
weighted power functionals built from them, and judges theorem hypotheses
at finite scale with explicit tolerances.  The oracle side replays the
identities and inequalities behind those theorems in rational arithmetic,
where failure is a counterexample rather than a residual.

Nothing is re-exported here: import each name from the module that
defines it, e.g. ``from summa.checker import check_main_theorem``.
"""

__version__ = "0.1.0"
