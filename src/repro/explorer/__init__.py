"""The data explorer (paper Fig. 1): rule management and inspection.

The demo ships a web interface; the reproduction ships the ``cerfix``
command-line explorer plus text rendering used throughout the
benchmarks, and serves the JSON web API from the entry service
(:mod:`repro.service`, ``cerfix serve``). Both drive exactly the same
library facilities.
"""

from repro.explorer.render import format_kv, format_table, highlight

__all__ = ["format_table", "format_kv", "highlight"]
