"""The pairing of lifted roots in exactroots._modular_roots against the old loop.

A root of a squarefree s in Q(i) reduces to one lifted root u of the image
of s under i -> s_p and one lifted root v of the image under i -> -s_p.
The old loop, kept here verbatim, reconstructed x and y for every one of
the d^2 pairs (u, v).  The finder now reconstructs y only once x has
reconstructed, and tries neither u nor v again once a pair is verified.
On every drawn product of distinct Q(i) linear factors both return the
same roots in the same order.
"""

from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from detvar import exactroots
from detvar.exactroots import (
    _gaussian_integer_parts,
    _hensel,
    _horner,
    _images,
    _reconstruct,
    _split_primes,
    ec_eval,
)
from detvar.modp import sqrt_minus_one
from detvar.scalars import ExactComplex
from strategies import ec_mul, gaussians

EC, F = ExactComplex, Fraction
SETTINGS = settings(max_examples=150)


# ---------------------------------------------------------------------------
# The reference (the old exactroots._modular_roots, verbatim)
# ---------------------------------------------------------------------------

def _modular_roots(s):
    """The roots in Q(i) of the squarefree s (see gaussian_rational_roots)."""
    re, im = _gaussian_integer_parts(s)
    norm_lc = re[-1] ** 2 + im[-1] ** 2
    top = max(a * a + b * b for a, b in zip(re[:-1], im[:-1]))
    bound = (2 + isqrt(top // norm_lc)) * norm_lc
    for p in _split_primes():
        images = _images(re, im, p)
        if not all(c[-1] for c in images):
            continue  # pi divides the leading coefficient
        roots = [[t for t in range(p) if _horner(c, t, p) == 0] for c in images]
        if not all(roots):
            return []
        derivs = [[x * k for k, x in enumerate(c)][1:] for c in images]
        if any(_horner(dc, t, p) == 0 for dc, rs in zip(derivs, roots) for t in rs):
            continue  # two roots meet mod pi: p divides the discriminant
        m = p
        while m <= 2 * bound * bound:
            m *= m
        sm = _hensel([1, 0, 1], sqrt_minus_one(p), p, m)
        lifted = [[_hensel([(a + sign * b * sm) % m for a, b in zip(re, im)], t, p, m)
                   for t in rs] for sign, rs in zip((1, -1), roots)]
        half, half_i = pow(2, -1, m), pow(2 * sm, -1, m)
        found = []
        for u in lifted[0]:
            for v in lifted[1]:
                x = _reconstruct((u + v) * half, m, bound)
                y = _reconstruct((u - v) * half_i, m, bound)
                if x is not None and y is not None:
                    z = ExactComplex(x, y)
                    if ec_eval(s, z).is_zero():
                        found.append(z)
        return found
    raise AssertionError("unreachable: the prime walk has no end")


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

def _product(lead, roots):
    p = [lead]
    for r in roots:
        p = ec_mul(p, [-r, EC(1)])
    return p


@SETTINGS
@given(lead=gaussians.filter(lambda c: not c.is_zero()),
       roots=st.lists(gaussians, min_size=1, max_size=5, unique=True))
def test_pairing_matches_the_reference(lead, roots):
    p = _product(lead, roots)
    found = exactroots._modular_roots(p)
    assert found == _modular_roots(p)
    assert sorted(found, key=lambda z: (z.re, z.im)) == sorted(roots, key=lambda z: (z.re, z.im))


def test_pairing_reconstructs_fewer_pairs(monkeypatch):
    # four planted roots: the old loop reconstructs x and y for all 16
    # pairs, the new one stops at each verified pair
    calls = {"old": 0, "new": 0}
    real = _reconstruct

    def counted(key):
        def wrapped(*args):
            calls[key] += 1
            return real(*args)
        return wrapped

    p = _product(EC(1), [EC(1, 2), EC(F(-1, 3), 1), EC(2, -1), EC(F(3, 2), F(1, 5))])
    monkeypatch.setattr(exactroots, "_reconstruct", counted("new"))
    new = exactroots._modular_roots(p)
    monkeypatch.setitem(globals(), "_reconstruct", counted("old"))
    assert _modular_roots(p) == new and len(new) == 4
    assert calls == {"old": 32, "new": 10}
