"""The kernel module every layer calls.

``kernels`` is the numpy module ``_kernels_py``; the layers look their
kernels up on it by attribute, so the benchmark's tracer can wrap them by
name.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel implementation, recorded in every report: 'python'."""
    return kernels.BACKEND
