"""Kernel backend selection.

Set SPLITLAW_KERNEL=python or SPLITLAW_KERNEL=speed to force a backend;
any other non-empty value is an error. By default the compiled extension
is used when the build produced it.
"""
import os

from ..errors import InvalidArgument
from . import py_backend

_setting = os.environ.get("SPLITLAW_KERNEL", "")
_choice = _setting.strip().lower()

if _choice == "python":
    _impl = py_backend
    BACKEND = "python"
elif _choice == "speed":
    from . import _speed as _impl  # noqa: F401  (raises if not built)
    BACKEND = "speed"
elif _choice:
    raise InvalidArgument(
        f"SPLITLAW_KERNEL={_setting!r} is neither 'python' nor 'speed'")
else:
    try:
        from . import _speed as _impl
        BACKEND = "speed"
    except ImportError:
        _impl = py_backend
        BACKEND = "python"

godunov_fluxes = _impl.godunov_fluxes
scalar_step = _impl.scalar_step
upwind_step = _impl.upwind_step
lxf_fluxes = _impl.lxf_fluxes
