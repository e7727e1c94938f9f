"""Plane-cubic moduli for the cyclic 3x3 family.

A cubic of shape a*x^3 + b*y^3 + c*z^3 + d*xyz rescales (over an extension
field, harmlessly) to the Hesse form x^3 + y^3 + z^3 - lambda*xyz with
lambda^3 = -d^3/(abc).  Only lambda^3 is well defined, and only lambda^3
is needed: the moduli function

    K(lambda^3) = lambda^3 * (lambda^3 + 216)^3 / (27 - lambda^3)^3

is an exact rational invariant separating local-unitary orbits of the
family (two members can only be locally equivalent when their values
agree).  lambda^3 = 27 degenerates to three lines; there the moduli value
carries a Degenerate marker instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BadParams, NotHesseShape
from .multipoly import Poly
from .scalars import ExactComplex


@dataclass(frozen=True)
class HesseCubic:
    lambda_cubed: ExactComplex
    provenance: str

    def render(self) -> str:
        return self.lambda_cubed.render()


@dataclass(frozen=True)
class ModuliValue:
    """Exact moduli value, or the Degenerate marker at lambda^3 = 27 (value
    None), which equals another Degenerate marker only."""

    value: Optional[ExactComplex]

    @property
    def degenerate(self) -> bool:
        return self.value is None

    def render(self) -> str:
        return "degenerate" if self.degenerate else self.value.render()

    def __repr__(self):
        return f"ModuliValue({self.render()})"


_TWENTY_SEVEN = ExactComplex(27)


def hesse_reduce(p: Poly) -> HesseCubic:
    """Recognize a*x^3 + b*y^3 + c*z^3 + d*xyz and return lambda^3.

    Raises NotHesseShape when other monomials appear or a pure cube is
    missing.  The provenance records the variable rescaling convention so
    the reduction can be replayed.
    """
    if p.kind != "exact":
        raise NotHesseShape("Hesse reduction needs exact coefficients")
    used = p.used_vars()
    if len(used) != 3 or p.degree() != 3 or not p.is_homogeneous():
        raise NotHesseShape("need a homogeneous cubic in exactly three variables")
    x, y, z = used
    cube_exps = []
    for v in used:
        e = [0] * p.nvars
        e[v] = 3
        cube_exps.append(tuple(e))
    mixed = [0] * p.nvars
    for v in used:
        mixed[v] = 1
    mixed = tuple(mixed)
    allowed = set(cube_exps) | {mixed}
    for e in p.terms:
        if e not in allowed:
            raise NotHesseShape(f"unexpected monomial {e}")
    a, b, c = (p.coeff(e) for e in cube_exps)
    if a.is_zero() or b.is_zero() or c.is_zero():
        raise NotHesseShape("all three pure cubes must be present")
    d = p.coeff(mixed)
    lam3 = -(d * d * d) / (a * b * c)
    prov = (f"vars (r{x + 1}, r{y + 1}, r{z + 1}) rescaled to unit cubes; "
            f"lambda^3 = -d^3/(abc)")
    return HesseCubic(lambda_cubed=lam3, provenance=prov)


def moduli_value(h: HesseCubic) -> ModuliValue:
    """K(c) = c*(c+216)^3 / (27-c)^3 with c = lambda^3, exactly."""
    c = h.lambda_cubed
    if c == _TWENTY_SEVEN:
        return ModuliValue(None)
    shifted = c + ExactComplex(216)
    num = c * shifted * shifted * shifted
    den = _TWENTY_SEVEN - c
    return ModuliValue(num / (den * den * den))


def family_lambda_cubed(t_cubed: Union[Fraction, int, ExactComplex]) -> ExactComplex:
    """lambda^3 = (t^3 + 2)^3 / t^3 for the cyclic cubic family."""
    t3 = ExactComplex.coerce(t_cubed) if not isinstance(t_cubed, ExactComplex) else t_cubed
    if t3.is_zero():
        raise BadParams("t^3 = 0 has no Hesse parameter (lambda is undefined)")
    s = t3 + ExactComplex(2)
    return (s * s * s) / t3


@dataclass
class ModuliComparison:
    verdict: str  # "DistinguishedInequivalent" | "NotDistinguished"
    left: ModuliValue
    right: ModuliValue


def moduli_verdict(left: ModuliValue, right: ModuliValue) -> str:
    """DistinguishedInequivalent only when both values exist and differ; equal
    values or any Degenerate marker leave the pair NotDistinguished (the
    invariant is necessary, not sufficient, for local-unitary equivalence)."""
    if not left.degenerate and not right.degenerate and left.value != right.value:
        return "DistinguishedInequivalent"
    return "NotDistinguished"


def lu_compare(t_cubed, s_cubed) -> ModuliComparison:
    """Compare two family members by exact moduli values (moduli_verdict)."""
    left = moduli_value(HesseCubic(family_lambda_cubed(t_cubed), "family t^3"))
    right = moduli_value(HesseCubic(family_lambda_cubed(s_cubed), "family s^3"))
    return ModuliComparison(moduli_verdict(left, right), left, right)
