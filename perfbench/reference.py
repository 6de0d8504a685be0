"""Reference kernels that measure how fast this process runs right now.

On a shared 2-core virtual machine the CPU speed drifts by up to 1.9x over
minutes (one fixed pass of corpus-small took from 3.2 s to 6.3 s).  A
fixed kernel timed in the same process, between ops, slows down with the
workload, so the benchmark scales each pass by the kernel's nominal time
over its median time during the pass.  Over five seeds the spread
(IQR/median) of the rate went from 0.146 to 0.047 on corpus-small (python
kernel) and from 0.097 to 0.026 on resolvent-sweep (lapack kernel); over
eight passes of verify-large in one process the rate's coefficient of
variation went from 0.051 to 0.020.  A kernel timed in a separate process
did not track: it runs on another core, and OpenBLAS threads of the
benchmarked process spin while it runs.

``python``  tiny complex SVDs and interpreter arithmetic, like the
            small-matrix workload; too small for BLAS to thread.
``lapack``  two 96 x 96 complex SVDs, like the large-matrix workloads.
            They run at the BLAS thread count the process had when this
            module was imported, before relcomp, whatever the process uses
            later: so the kernel follows a slowdown of the machine's cores,
            but a change that sets BLAS threads for the whole process still
            shows in the reference-second figures.
"""
import ctypes
import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
          for _ in range(100)]
_LARGE = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))


def _openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy loaded, or
    None if it is not the scipy-openblas build numpy wheels ship."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get and put:
            put.argtypes = [ctypes.c_int]
            return get, put
    return None


_BLAS = _openblas()
# BLAS threads found at import; None where they cannot be read or set.
KERNEL_THREADS = _BLAS[0]() if _BLAS else None


def python_kernel():
    acc = 0.0
    for m in _SMALL:
        acc += float(np.linalg.svd(m)[1][0])
        for k in range(40):
            acc += k * 0.5
    return acc


def lapack_kernel():
    if _BLAS is None:
        return sum(float(np.linalg.svd(_LARGE)[1][0]) for _ in range(2))
    get, put = _BLAS
    current = get()
    put(KERNEL_THREADS)
    try:
        return sum(float(np.linalg.svd(_LARGE)[1][0]) for _ in range(2))
    finally:
        put(current)


KERNELS = {"python": python_kernel, "lapack": lapack_kernel}
# Kernel time that defines one reference second.
NOMINAL = {"python": 2.5e-3, "lapack": 10e-3}


class Speedometer:
    """Times one reference kernel on request and scales durations by it."""

    def __init__(self, kernel):
        self.kernel = KERNELS[kernel]
        self.nominal = NOMINAL[kernel]
        self.readings = []         # kernel seconds, in order
        self.kernel()              # warm up

    def read(self):
        t0 = time.perf_counter()
        self.kernel()
        self.readings.append(time.perf_counter() - t0)
        return self.readings[-1]

    def scale(self, readings):
        """Reference seconds per wall second: NOMINAL over the readings' median."""
        return self.nominal / statistics.median(readings)

    def scale_now(self):
        """The scale from five fresh readings."""
        return self.scale([self.read() for _ in range(5)])
