"""The rank-7 PPT construction on 4x6 and its symbolic chart reduction.

Everything here is recomputed from the four integer blocks, exactly: the
pencil, the chart change, the column operations, the block determinants
f1 and f2, the divisibility of f2 by the carving plane, the restriction of
f1 to that plane (the plane cubic g), and the certificate that g has no
Gaussian-rational linear factor.

The recomputation also surfaces two facts worth knowing before trusting
the construction blindly: the second factor of f2 needs an extra r4' term
compared to its commonly quoted form, and the carving plane itself lies
inside the variety (two pencil rows coincide on it), so the blind witness
search judges this variety inconclusive even though the carved cubic is
certifiably not a line.
"""

import numpy as np

from detvar.catalog import CHART_NAMES, chart_reduction, ppt_4x6_state
from detvar.linalg import partial_transpose, rank_exact
from detvar.states import ppt_check

s = ppt_4x6_state()
rho = s.density_matrix()
print("rank:", rank_exact(rho), "| PPT:", ppt_check(s),
      "| PT(rho) == rho exactly:", np.array_equal(partial_transpose(rho, 4, 6), rho))

cr = chart_reduction(s)
print("\nrecomputed pencil matches the reference matrix:", cr.pencil_matches_printed)
print("f1 =", cr.f1.render(CHART_NAMES))
print("f2 =", cr.f2.render(CHART_NAMES))
print("\nf2 = (", cr.linear_factor.render(CHART_NAMES), ") * (",
      cr.f2_quotient.render(CHART_NAMES), ")")
if not cr.quotient_matches_printed:
    print("quoted quadratic differs by:",
          cr.quotient_discrepancy.render(CHART_NAMES))

print("\nf1 on the carving plane r4' = r2' + r3':")
print("  g =", cr.g.render(CHART_NAMES), f"(sign {cr.g_sign} vs the quoted form)")
print("  Gaussian-rational linear factors:", cr.g_factors)
print("  certified irreducible over Q(i):", cr.g_irreducible)
