"""The interior edges of a kernel's bands, for tests that integrate a built-in
kernel by quadrature or rebuild it as a custom kernel.

A built-in kernel's ``breakpoints`` is ``()``: its edges are written only in its
band table, ``FragmentKernel._bands``, and are read from there.
"""

import numpy as np


def band_edges(kernel, y):
    """The interior edges of b(., y) at one y: d0 below y, and y - d1 where d1 > 0;
    a custom kernel's own ``breakpoints(y)``."""
    bands = kernel._bands(np.array([y], dtype=float))
    if bands is None:
        return kernel.breakpoints(y)
    _, _, d0, _, d1 = bands
    return tuple(float(e) for e, on in ((d0[0], d0[0] < y), (y - d1[0], d1[0] > 0)) if on)
