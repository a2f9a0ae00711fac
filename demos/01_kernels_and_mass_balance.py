#!/usr/bin/env python3
"""Walk through the built-in fragmentation kernels and their mass balance.

Every breakup event redistributes a parent of size y into daughters with
density b(x, y).  The first thing to know about a kernel is whether those
events conserve mass (daughter mass integral equals y), lose mass, or
unphysically create it.
"""

import numpy as np

from fragkit import FragmentKernel, classify_mass, eval_kernel

print("=" * 72)
print("1. The three built-in families")
print("=" * 72)

bb = FragmentKernel.boundary_binary()
conc = FragmentKernel.concentrated()
hom = FragmentKernel.homogeneous_power(-1.0)

y = 5.0
xs = np.array([0.5, 1.0, 2.5, 4.0, 4.5])
print(f"\nboundary_binary at y = {y}: daughters pile up below 1 and above y-1")
for x in xs:
    print(f"  b({x:3.1f}, {y}) = {eval_kernel(bb, float(x), y):g}")

print(f"\nconcentrated at y = {y}: end intervals shrink like 1/y but carry height y")
for x in (0.1, 0.3, 4.9):
    print(f"  b({x:3.1f}, {y}) = {eval_kernel(conc, float(x), y):g}")

print(f"\nhomogeneous (h(z) = z^-1) at y = {y}: scale-invariant b(x,y) = 1/x")
for x in (0.5, 2.0, 4.0):
    print(f"  b({x:3.1f}, {y}) = {eval_kernel(hom, float(x), y):g}")

print()
print("=" * 72)
print("2. Daughter-mass integrals m(y) = int_0^y b(x,y) x dx")
print("=" * 72)
for name, kern in (("boundary_binary", bb), ("concentrated", conc), ("homogeneous", hom)):
    vals = [kern.mass_partial(y, y) for y in (1.5, 3.0, 10.0)]
    print(f"  {name:16s} m(1.5), m(3), m(10) = {vals}  (all equal y: conserving)")

print()
print("=" * 72)
print("3. Classification, including a mass-losing kernel")
print("=" * 72)
lossy = FragmentKernel.custom(lambda x, y: x / y**2, label="b = x/y^2")
for kern in (bb, lossy):
    rep = classify_mass(kern, [1.0, 2.0, 5.0, 10.0], tol=1e-8)
    print(f"\n{kern.describe()}:")
    print(rep.summary())
