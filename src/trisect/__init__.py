"""Exact verification toolkit for a family of plane-cubic, torsion-point and
double-cover computations arising in the classification of certain minimal
surfaces of general type.

Everything is exact: rationals, the quadratic field Q(w) with w^2 + w + 1 = 0,
integer lattices and torsion groups.  The `trisect` command line runs the
bundled check suites and emits a machine-readable report.
"""

__version__ = "0.1.0"

from .field import Eis, W, parse_eis, w_pow

__all__ = ["Eis", "W", "parse_eis", "w_pow", "__version__"]
