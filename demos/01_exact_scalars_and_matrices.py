"""Exact Gaussian-rational arithmetic, exact matrices and float spectra.

Everything downstream rides on one split: exact scalars (a Gaussian-integer
numerator over one integer denominator, no rounding ever) in a read-only
numpy object array (``exact_matrix``), versus approximate complex numbers
in a complex numpy array, with a single shared tolerance policy.
"""

from fractions import Fraction

import numpy as np

from detvar import ExactComplex, det_exact, exact_matrix, hermitian_eigen, rank_exact

# Q(i) arithmetic is exact: (1/2 + i)(1/2 - i) = 1/4 + 1 = 5/4
a = ExactComplex(Fraction(1, 2), 1)
print("(1/2 + i)(1/2 - i) =", (a * a.conjugate()).render())

# Fraction-free elimination keeps determinants exact however ugly the
# intermediate entries get
m = exact_matrix([
    [Fraction(1, 3), Fraction(-7, 2), 2],
    [5, Fraction(1, 6), Fraction(3, 4)],
    [Fraction(-2, 5), 1, Fraction(9, 7)],
])
print("det (exact):", det_exact(m).render())
print("rank:", rank_exact(m))

# the numeric pathway: Hermitian spectra from LAPACK (numpy.linalg.eigh)
h = np.array([[2.0, 1j], [-1j, 3.0]])
res = hermitian_eigen(h)
print("eigenvalues:", [round(x, 12) for x in res.eigenvalues])
print("reconstruction residual:", f"{res.residual:.2e}")
