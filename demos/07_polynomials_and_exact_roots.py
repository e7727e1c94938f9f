"""The symbolic engine underneath: sparse polynomials, exact roots, factors.

The load-bearing primitive is complete Gaussian-rational root finding for
univariate polynomials: roots modulo a prime p = 1 (mod 4), where Z[i]
maps onto F_p, Hensel-lifted p-adically, read back as fractions by rational
reconstruction and checked by exact evaluation.  Most calls stop sooner:
an image with no root modulo one of the first few such primes proves that
there is no Q(i) root at all.  Rational roots are the real ones among the
Gaussian-rational roots.  No floating point, no integer factorization,
and "no root" comes back as a certificate rather than a shrug.
"""

from fractions import Fraction

import numpy as np

from detvar import ExactComplex, Poly, linear_factors
from detvar.exactroots import gaussian_rational_roots

EC = ExactComplex
F = Fraction

# complete rational root finding, multiplicities included: the real ones
# among the Gaussian-rational roots of
# (97x - 31)(x^2 + 1) = 97x^3 - 31x^2 + 97x - 31, ascending coefficients:
cubic = gaussian_rational_roots([EC(F(c)) for c in (-31, 97, -31, 97)])
print("rational roots of (97x - 31)(x^2 + 1):",
      [(str(z.re), m) for z, m in cubic if z.is_real()])

# Q(i) roots: z^2 + 2i = (z - (1-i))(z + (1-i))
roots = gaussian_rational_roots([EC(0, 2), EC(0), EC(1)])
print("roots of z^2 + 2i:", [(z.render(), m) for z, m in roots])

# a symbolic determinant and its factor structure
x, y, z = (Poly.variable(i, 3) for i in range(3))
fermat = x ** 3 + y ** 3 + z ** 3 - (x * y * z).scale(3)
forms, (residual,) = linear_factors([fermat], 3)
print("\nx^3 + y^3 + z^3 - 3xyz:")
print("  rational factor:", forms[0].render())
print("  residual:", residual.render())
print("  re-multiplies exactly:", forms[0].to_poly(3) * residual == fermat)

# numeric univariate roots: the eigenvalues of the companion matrix
# (np.roots, descending coefficients)
print("\nfloat roots of z^3 - 1 (companion eigenvalues):",
      [complex(round(r.real, 9), round(r.imag, 9)) for r in np.roots([1, 0, 0, -1])])
