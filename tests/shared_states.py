"""States shared by several test modules.

Test modules import the states they share from here, not from one
another, so that no test module imports another for its states.
"""

import random
from fractions import Fraction

import pytest

from detvar import catalog
from detvar.scalars import ExactComplex
from detvar.states import BipartiteState, random_separable

EC = ExactComplex
F = Fraction


def float_copy(s):
    """The state with its weights and entries rounded to floats."""
    return BipartiteState(s.m, s.n, ensemble=[(float(w), [complex(x.to_complex()) for x in v])
                                              for w, v in s.ensemble], validate=False)


def gaussian_integer_state(m, n, t, seed):
    """An exact m x n rank-t ensemble of weight 1/t each, its entries
    Gaussian integers with parts in [-3, 3]."""
    rng = random.Random(seed)
    ensemble = [(F(1, t), tuple(EC(rng.randint(-3, 3), rng.randint(-3, 3))
                                for _ in range(m * n)))
                for _ in range(t)]
    return BipartiteState(m, n, ensemble=ensemble)


def factored_state(form_coeffs, rows=(0,), seed=7, shape=(4, 4, 5)):
    """An exact m x n rank-t ensemble (4x4 rank 5 by default) whose pencil
    row `rows[j]` is forms[j](r) * w, where `form_coeffs` is one form for
    every row or a list of forms, one per row."""
    m, n, t = shape
    rng = random.Random(seed)
    if not isinstance(form_coeffs, list):
        form_coeffs = [form_coeffs] * len(rows)

    def small():
        return EC(rng.randint(-3, 3), rng.randint(-3, 3))

    vectors = []
    for _ in range(t):
        vec = [small() for _ in range(m * n)]
        for k, coeffs in zip(rows, form_coeffs):
            w = small()
            for i, a in enumerate(coeffs):
                vec[i * n + k] = EC.coerce(a) * w
        vectors.append(vec)
    ensemble = [(Fraction(1, t), vec) for vec in vectors]
    return BipartiteState(m, n, ensemble=ensemble, label=f"factored {m}x{n} r{t}")


def shared_direction_state(n_terms, shared_count, seed):
    """A separable 3x3 state of n_terms products a_k (x) b_k whose first
    shared_count terms share one direction a."""
    rng = random.Random(seed)

    def rvec(d):
        return [EC(F(rng.randint(-4, 4), rng.randint(1, 2)),
                   F(rng.randint(-4, 4), rng.randint(1, 2))) for _ in range(d)]

    shared = rvec(3)
    ens = []
    for k in range(n_terms):
        a = shared if k < shared_count else rvec(3)
        b = rvec(3)
        ens.append((F(1, n_terms), tuple(a[i] * b[j]
                                         for i in range(3) for j in range(3))))
    return BipartiteState(3, 3, ensemble=ens)


# exact ensembles for the exact density and its spectra

def gaussian_rational_state(m: int, n: int, rank: int, seed: int) -> BipartiteState:
    """Exact rays with Gaussian-rational entries of small denominators."""
    rng = random.Random(seed)
    ensemble = [(F(1, rank),
                 tuple(EC(F(rng.randint(-5, 5), rng.randint(1, 6)),
                          F(rng.randint(-5, 5), rng.randint(1, 6)))
                       for _ in range(m * n)))
                for _ in range(rank)]
    return BipartiteState(m, n, ensemble=ensemble)


def gaussian_small_denominators_state(m: int, n: int, rank: int, seed: int) -> BipartiteState:
    """Exact rays with Gaussian-rational entries whose denominators divide 12."""
    rng = random.Random(seed)
    ensemble = [(F(1, rank),
                 tuple(EC(F(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6])),
                          F(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6])))
                       for _ in range(m * n)))
                for _ in range(rank)]
    return BipartiteState(m, n, ensemble=ensemble)


def sparse_rays_state() -> BipartiteState:
    # most entries zero, one ray with a single nonzero entry
    z, o = EC(0), EC(1)
    rays = [(z, z, o, z, z, z, z, z, z),
            (EC(F(1, 3), F(-2, 7)), z, z, z, EC(0, 5), z, z, z, EC(F(-4, 9))),
            (z, z, z, z, z, z, z, EC(F(3, 2), 1), z)]
    return BipartiteState(3, 3, ensemble=[(F(1, 2), rays[0]), (F(1, 3), rays[1]),
                                          (F(1, 6), rays[2])])


def large_prime_denominators_state() -> BipartiteState:
    # every ray over its own large primes, one of them inside a single entry
    rays = [tuple(EC(F(k + 1, 10007), F(k - 2, 10009)) for k in range(6)),
            tuple(EC(F(1, 10037), F(k, 10039)) if k % 2 else EC(k) for k in range(6)),
            (EC(F(7, 65537)), EC(0, F(1, 1000003)), EC(0), EC(F(2, 3), F(5, 1000033)),
             EC(1), EC(F(-1, 999983)))]
    return BipartiteState(2, 3, ensemble=[(F(1, 3), r) for r in rays])


def large_weight_denominators_state() -> BipartiteState:
    rng = random.Random(5)
    weights = [F(1, 1000003), F(2, 999983), F(3, 65537)]
    weights.append(1 - sum(weights))
    rays = [tuple(EC(F(rng.randint(-9, 9), rng.randint(1, 40)), rng.randint(-3, 3))
                  for _ in range(8)) for _ in weights]
    return BipartiteState(2, 4, ensemble=list(zip(weights, rays)))


def integer_weight_state() -> BipartiteState:
    # a single ray of weight int 1 (not Fraction), as a state file may give
    return BipartiteState(2, 2, ensemble=[(1, (EC(1), EC(0, 2), EC(F(1, 3)), EC(0)))])


EXACT_STATES = {
    "separable 3x3 t4": lambda: random_separable(3, 3, 4, seed=1),
    "separable 3x4 t5": lambda: random_separable(3, 4, 5, seed=2),
    "separable 4x4 t7": lambda: random_separable(4, 4, 7, seed=3),
    "separable 4x5 t8": lambda: random_separable(4, 5, 8, seed=4),
    "gaussian 3x3 r5": lambda: gaussian_rational_state(3, 3, 5, seed=5),
    "gaussian 4x4 r6": lambda: gaussian_rational_state(4, 4, 6, seed=6),
    "cyclic t^3=27": lambda: catalog.cyclic_cubic_state(catalog.parse_family_parameter("3w")),
    "cyclic t=-2": lambda: catalog.cyclic_cubic_state(catalog.parse_family_parameter("-2")),
    "cyclic t=1/7+2i": lambda: catalog.cyclic_cubic_state(EC(F(1, 7), 2)),
    "maximally mixed 3x3": lambda: catalog.maximally_mixed(3, 3),
    "ppt 4x6": catalog.ppt_4x6_state,
    "bell": lambda: BipartiteState(2, 2, ensemble=[(F(1), (EC(1), EC(0), EC(0), EC(1)))]),
    "rays with zero entries": sparse_rays_state,
    "large prime denominators": large_prime_denominators_state,
    "large weight denominators": large_weight_denominators_state,
    "integer weight": integer_weight_state,
}


def cauchy_binet_cases():
    """(state, side, certified) for the peel's Cauchy-Binet certificate: generic
    states it must certify, and states a hyperplane divides, which it must not."""
    cases = []
    for m, n, t in [(4, 4, 5), (3, 4, 5)]:
        for seed in range(3):
            state = gaussian_integer_state(m, n, t, seed)
            cases += [pytest.param(state, side, True, id=f"gaussian {m}x{n} r{t} #{seed} {side}")
                      for side in "AB"]
    # sides where t > n: both, but for side B of 4x3 t4 (t = n) and 5x3 t4 (t < n)
    for (m, n, t), sides in [((3, 3, 4), "AB"), ((3, 4, 5), "AB"), ((4, 4, 5), "AB"),
                             ((4, 3, 4), "A"), ((5, 3, 4), "A")]:
        for seed in range(3):
            state = random_separable(m, n, t, seed=seed)
            cases += [pytest.param(state, side, True, id=f"sep {m}x{n} t{t} #{seed} {side}")
                      for side in sides]
    ppt = catalog.ppt_4x6_state()
    cases += [pytest.param(ppt, "A", False, id="ppt 4x6 A"),
              pytest.param(ppt, "B", True, id="ppt 4x6 B")]
    planted = [
        ((1, Fraction(1, 2), -3, Fraction(2, 3)), (0,), (4, 4, 5)),
        ((1, EC(2, -1), EC(0, 3), 5), (0,), (4, 4, 5)),
        ([(1, 2, -1, EC(0, 1)), (0, 1, Fraction(-5, 7), 2)], (0, 1), (4, 4, 6)),
        ((2, -1, Fraction(1, 9)), (0,), (3, 3, 4)),
        ((0, 1, Fraction(-5, 7)), (1,), (3, 4, 5)),
    ]
    for k, (forms, rows, shape) in enumerate(planted):
        state = factored_state(forms, rows=rows, seed=k, shape=shape)
        cases.append(pytest.param(state, "A", False, id=f"planted #{k}"))
    return cases
