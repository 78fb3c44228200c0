"""Residuated extended-real arithmetic, piecewise-linear convex calculus,
and closed convex polyhedra in the plane.

The package is organized bottom-up: ``extreal`` carries the two scalar
image spaces, ``groupoid`` checks the residuation existence theorems on
finite ordered structures, ``functions``/``calculus`` do one-variable
piecewise-linear convex analysis with extended-real values, ``poly2``
represents closed convex polyhedra in the plane, ``setvalued`` builds on
it the image space G(R^2, C) of set-valued functions (closed convex
upper sets, with their lattice operations, sum, scaling and residual),
and ``laws`` holds the seeded fixtures and the conlinear-space axiom
check for every space.
"""

__version__ = "0.1.0"
