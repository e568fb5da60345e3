"""Print the algebra of the reference element.

The basis is one array of coefficient grids, shape (4, 4, 20, 3): entry
[i, j, k] holds the coefficients of x**i y**j in the components (xx, xy, yy)
of shape tensor k + 1.  The 20 shape tensors are dual to the 20 degrees of freedom up to the fixed
diagonal scaling, their normal-normal edge traces are linear, and div div
maps the space onto the linear polynomials.
"""
import numpy as np

from ddivfem import build_reference_basis, dof_matrix, divdiv_matrix, verify_unisolvency
from ddivfem.reference import DOF_DIAGONAL, DOF_NAMES, trace_degrees

basis = build_reference_basis()

D = dof_matrix(basis)
print("dof matrix diagonal (exact rationals):")
print("  " + " ".join("%g" % d for d in np.diag(D)))
print("  expected:", " ".join("%g" % d for d in DOF_DIAGONAL))

report = verify_unisolvency(basis)
print("off-diagonal deviation: %.3e (ok=%s)" % (report["max_deviation"], report["ok"]))

deg_nn, deg_sh = trace_degrees(basis)
print("edge trace degrees: normal-normal %d, effective shear %d" % (deg_nn, deg_sh))

dd = divdiv_matrix(basis)
print("div div images in the basis {1, x, y}:")
for i, name in enumerate(DOF_NAMES):
    c = dd[i]
    if np.any(c):
        print("  phi_%-2d (%s): %+.2f %+.2f x %+.2f y" % (i + 1, name, c[0], c[1], c[2]))
print("rank of the div div map: %d (all of P1)" % np.linalg.matrix_rank(dd))

# point samples of the first shape tensor along the south edge
xs = np.linspace(-1.0, 1.0, 5)
vals = np.polynomial.polynomial.polyval2d(xs, -1.0 + 0.0 * xs, basis[:, :, 0, 2])
print("phi_1 yy-component on the south edge:", np.round(vals, 12))
