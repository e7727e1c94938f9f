"""Bipartite states: ensembles, densities, partial transpose, spectra.

Ensemble vectors are rays: any nonzero multiple of the intended unit
vector works, because only weight/||v||^2 (an exact rational) enters the
density matrix.  That is what keeps 1/sqrt(3)-style normalizations out of
the arithmetic.
"""

from fractions import Fraction

import numpy as np

from detvar import (
    ExactComplex,
    entropy_and_spectra,
    partial_transpose,
    ppt_check,
)
from detvar.catalog import maximally_mixed, ppt_4x6_state
from detvar.states import BipartiteState

EC = ExactComplex

# an entangled ray: |11> + |22> (the 1/sqrt(2) stays implicit)
bell = BipartiteState(2, 2, ensemble=[(Fraction(1), (EC(1), EC(0), EC(0), EC(1)))])
print("bell PPT?", ppt_check(bell))           # False: the PT has a -1/2 eigenvalue

mixed = maximally_mixed(3, 3)
print("maximally mixed PPT?", ppt_check(mixed))

rep = entropy_and_spectra(mixed)
print("global entropy:", round(rep.entropy, 10), "= ln 9")

# the 4x6 construction is exactly invariant under partial transpose
s = ppt_4x6_state()
rho = s.density_matrix()
print("4x6 state: PT(rho) == rho exactly?", np.array_equal(partial_transpose(rho, 4, 6), rho))
print("            PPT?", ppt_check(s))
