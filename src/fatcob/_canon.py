"""Canonical-labeling backend selection.

The compiled kernel (:mod:`fatcob._canon_fast`, built from Cython) is
used when it imported cleanly; otherwise the pure-Python twin takes
over.  Set ``FATCOB_PURE=1`` to force the fallback, e.g. to benchmark
the two against each other.
"""

import os

from . import _canon_py

if os.environ.get("FATCOB_PURE"):
    _impl = _canon_py
else:
    try:
        from . import _canon_fast as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _canon_py

BACKEND = _impl.BACKEND
relabel_from = _impl.relabel_from
code_from = _impl.code_from
is_connected = _impl.is_connected
min_code = _impl.min_code
census_code = _impl.census_code
# the compiled kernel has no twin of this one
min_valence_starts = _canon_py.min_valence_starts

pure = _canon_py
