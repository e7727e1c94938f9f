"""From a state to its determinantal variety.

The ensemble matrix, blocked over side A, gives a pencil of linear forms;
the n x n minors cut out a projective algebraic set, the points where
the pencil's rank drops below n.  Membership can be tested two independent
ways - that rank, or the Hermitian determinant built straight from the
density blocks - and the two must always agree.
"""

from detvar import ExactComplex, membership, sample_points
from detvar.catalog import cyclic_cubic_state
from detvar.variety import pencil_matrix, variety_of_state

EC = ExactComplex

state = cyclic_cubic_state(EC(8))  # the t = 2 member of the cyclic family
pen = pencil_matrix(state)
print("pencil entries:")
for row in pen.entry_polys():
    print("  [", ", ".join(p.render() for p in row), "]")

v = variety_of_state(state)
print("generator:", v.essential_generators[0].render())

# two obvious points of the cubic
print("member (0, 1, -1)?", membership(v, [EC(0), EC(1), EC(-1)]))
print("member (1, 1, 1)?", membership(v, [EC(1), EC(1), EC(1)]))
print("member (1, 2, 3)?", membership(v, [EC(1), EC(2), EC(3)]))

pts = sample_points(v, 5, seed=11)
print("five sampled points (max-coordinate normalized):")
for p in pts:
    print("  ", [complex(round(z.real, 4), round(z.imag, 4)) for z in p],
          " residuals: pencil %.1e / hermitian %.1e"
          % (v.generator_residual(p), v.hermitian_residual(p)))
