"""Structure-preserving solver for dilute FENE bead-spring polymers coupled
to incompressible flow, with centre-of-mass diffusion.

The discrete scheme keeps the analytical backbone exactly at machine
precision: divergence-free velocities, conserved configuration mass, a
monotone free energy, and the a-priori energy inequality, all checkable
through the diagnostics module and the bundled scenario runner.
"""

# Thread-count override must land in the environment before the numerical
# stack loads its BLAS; this is the only environment knob the package reads.
import os as _os

_threads = _os.environ.get("FENEFLOW_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

# Heap policy, set before anything allocates: glibc otherwise gives the freed
# heap top back to the kernel and maps each array above its dynamic mmap
# threshold afresh, so every step faults the pages of its node-, edge- and
# mode-sized temporaries in again.  Arrays up to 32 MiB (the 64-bit ceiling)
# come from the heap, and the heap top is never trimmed, so the process holds
# its heap at its high-water mark.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's malloc.h
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2**31 - 1                     # the largest C int mallopt takes


def _hold_heap(mallopt) -> bool:
    """Fix both malloc thresholds through ``mallopt``; False, with nothing
    called, where it is None.  Fixing either turns glibc's dynamic
    thresholds off, so the trim threshold is set only once the mmap one is
    taken: alone it would leave every array over 128 KiB mapped afresh."""
    if mallopt is None:
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def _process_mallopt():
    """The C library's ``int mallopt(int, int)``, or None where it has none
    (macOS) or gives no handle to the loaded process (Windows)."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


_hold_heap(_process_mallopt())

# The public API is each module's ``__all__``, republished here as it stands.
from .kinetic import *       # noqa: E402,F401,F403
from .configspace import *   # noqa: E402,F401,F403
from .flowspace import *     # noqa: E402,F401,F403
from .stepping import *      # noqa: E402,F401,F403
from .diagnostics import *   # noqa: E402,F401,F403
from .scenarios import *     # noqa: E402,F401,F403

__version__ = "0.1.0"
