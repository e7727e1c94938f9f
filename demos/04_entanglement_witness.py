"""The separability criterion in action.

A separable state's variety must be a union of linear subspaces.  The
contrapositive certifies entanglement: find a smooth point whose tangent
space leaves the variety and no union of linear subspaces can cut it out.

Only the witness is a certificate.  Linear or inconclusive outcomes say
nothing - linearity is necessary, not sufficient, for separability.
"""

from detvar import ExactComplex, linearity_decide
from detvar.catalog import cyclic_cubic_state, maximally_mixed
from detvar.states import random_separable
from detvar.variety import variety_of_state

EC = ExactComplex

# a smooth cubic curve: no union of lines can produce it
v = variety_of_state(cyclic_cubic_state(EC(8)))
verdict = linearity_decide(v, seed=42)
print("cyclic family t=2:", verdict.tag, "->", verdict.conclusion)
print("  witness residual:", f"{verdict.residual:.3e}")
print("  witness point:", [complex(round(z.real, 4), round(z.imag, 4))
                           for z in verdict.point])

# a separable state: the determinant splits into linear forms, exactly
sep = random_separable(3, 3, 3, seed=5)
verdict_sep = linearity_decide(variety_of_state(sep), seed=42)
print("separable 3x3:", verdict_sep.tag, "->", verdict_sep.conclusion)
for f in verdict_sep.forms:
    print("  factor:", f.render())


def hyperplane_certificate(cert):
    """The hyperplane x_{m-1} = sum_i h_i x_i that V_A misses, with the
    degree and prime of its Macaulay test."""
    plane = " + ".join(f"({h.render()})*x{i}" for i, h in enumerate(cert.hyperplane))
    return (f"{cert.kind} on x{len(cert.hyperplane)} = {plane}"
            f" in degree {cert.degree} modulo {cert.prime}")


# five product terms in 3x4: V_A is a finite set of points.  Its minors on
# an exact line of CP^2 (a hyperplane) are binary quartics with no common
# zero modulo a prime (their gcd there is constant), so V_A misses that
# line and nothing is sampled; the certificate is the Macaulay test in
# degree 2n - 1 = 7, which decides the same fact
verdict_fin = linearity_decide(variety_of_state(random_separable(3, 4, 5, seed=5)), seed=42)
print("separable 3x4, five terms:", verdict_fin.tag, "->", verdict_fin.conclusion)
print("  certificate:", hyperplane_certificate(verdict_fin.certificate))

# six product terms in 4x4: V_A is finite again; the Macaulay matrix of its
# minors on an exact hyperplane has full rank modulo a prime, so V_A
# misses that hyperplane
verdict_mac = linearity_decide(variety_of_state(random_separable(4, 4, 6, seed=1)), seed=42)
print("separable 4x4, six terms:", verdict_mac.tag, "->", verdict_mac.conclusion)
print("  certificate:", hyperplane_certificate(verdict_mac.certificate))

# the maximally mixed state: empty variety, criterion silent
verdict_mm = linearity_decide(variety_of_state(maximally_mixed(3, 3)))
print("maximally mixed:", verdict_mm.tag, "->", verdict_mm.conclusion)
