"""heislab: numerical laboratory for calculus and capacity estimates on
the Heisenberg group, with a finite-difference solver for two
Sobolev-type evolution equations."""

__version__ = "0.1.0"

import os as _os

# numpy.f2py, loaded with scipy, parses SOURCE_DATE_EPOCH on import and raises on a
# malformed value; hide it meanwhile so that report_timestamp rejects it (exit 2)
_epoch = _os.environ.pop("SOURCE_DATE_EPOCH", None)
import scipy.integrate, scipy.sparse.linalg  # noqa: E401, E402, F401
if _epoch is not None:
    _os.environ["SOURCE_DATE_EPOCH"] = _epoch
