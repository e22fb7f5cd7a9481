"""Scenario ODE kernels with a compiled fast path.

The compiled Dormand-Prince extension is used when it is importable; the
pure-Python implementation in :mod:`bogoflow.kernels.reference` is the
fallback and the behavioural reference.  Set ``BOGOFLOW_FORCE_PY=1`` to
force the fallback (used by the backend-comparison benchmark and tests).
"""

import os

from . import reference

try:
    from . import _dopri as _compiled
except ImportError:  # extension not built
    _compiled = None

FLRW_TANH = reference.FLRW_TANH
GW_MODE = reference.GW_MODE

_FORCED_PY = os.environ.get("BOGOFLOW_FORCE_PY", "") not in ("", "0")

backend_name = "python" if (_compiled is None or _FORCED_PY) else "compiled"


def available_backends():
    names = ["python"]
    if _compiled is not None:
        names.append("compiled")
    return tuple(names)


def get_backend(name=None):
    """Return the module implementing ``pair_evolution`` for ``name``."""
    if name is None:
        name = backend_name
    if name == "python":
        return reference
    if name == "compiled":
        if _compiled is None:
            raise ImportError("compiled kernel is not available")
        return _compiled
    raise ValueError(f"unknown backend {name!r}")


def pair_evolution(family, params, x0, x_samples, rtol=1e-10, atol=1e-10,
                   ident_cap=0.0):
    return get_backend().pair_evolution(int(family), params, float(x0),
                                        x_samples, rtol=rtol, atol=atol,
                                        ident_cap=ident_cap)
