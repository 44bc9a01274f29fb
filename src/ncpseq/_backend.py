"""The enumeration kernels, bound under one name.

The pure-Python walks in ncpseq._kernels_py are the only
implementation.  Callers reach them as ncpseq._backend.kernels, so
this module is the one place that picks them, and BACKEND names them
in reports.
"""

from ncpseq import _kernels_py as kernels

BACKEND = "pure-python"
