"""Kernel backend: the compiled extension when the build produced it,
otherwise the NumPy twin. The two give bitwise-equal results.
"""
try:
    from . import _speed as _impl
    BACKEND = "speed"
except ImportError:
    from . import py_backend as _impl
    BACKEND = "python"

godunov_fluxes = _impl.godunov_fluxes
scalar_step = _impl.scalar_step
upwind_step = _impl.upwind_step
lxf_fluxes = _impl.lxf_fluxes
