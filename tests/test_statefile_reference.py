"""Exact literals against the parser they replaced.

``parse_scalar`` reads the literals -?[0-9]+(/[0-9]+)? on ints and leaves
every other string to ``Fraction``.  This file keeps, verbatim, the exact
branches of ``parse_scalar`` and ``parse_weight`` from before, one
``Fraction`` per part: each string must give the same canonical fields,
or fail with the same ``StateFileError`` message.
"""

from fractions import Fraction

import pytest

from detvar.errors import StateFileError
from detvar.scalars import ExactComplex
from detvar.statefile import parse_scalar, parse_weight


# ---------------------------------------------------------------------------
# The reference (the old exact branches, verbatim)
# ---------------------------------------------------------------------------

def reference_scalar(re: str, im: str, path: str) -> ExactComplex:
    try:
        return ExactComplex(Fraction(re), Fraction(im))
    except (ValueError, ZeroDivisionError) as exc:
        raise StateFileError(path, f"bad rational literal: {exc}")


def reference_weight(obj: str, path: str) -> Fraction:
    try:
        return Fraction(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise StateFileError(path, f"bad rational weight: {exc}")


# ---------------------------------------------------------------------------

DIGITS_40 = "1234567890" * 4
LITERALS = ["3", "-0", "+3", " 3/4", "3/4 ", "3/-4", "007/014", "1_000", "1.5", "1e3",
            "1/0", "0/0", "", "٣/٤", DIGITS_40, f"-{DIGITS_40}/{DIGITS_40[::-1]}",
            "-6/4", "0/7", "-", "/3", "3/", "3//4", "1/-0", "-0/0", "0x10", "5" * 5000]


def outcome(parse):
    try:
        got = parse()
    except StateFileError as exc:
        return "error", str(exc)
    return "ok", getattr(got, "fields", got)


@pytest.mark.parametrize("text", LITERALS, ids=lambda t: repr(t)[:20])
def test_literal_matches_fraction(text):
    for re, im in ((text, "1/3"), ("-2/7", text), (text, text)):
        assert outcome(lambda: parse_scalar({"re": re, "im": im}, "x")) == \
            outcome(lambda: reference_scalar(re, im, "x"))
    got, ref = outcome(lambda: parse_weight(text, "w")), outcome(lambda: reference_weight(text, "w"))
    assert got == ref and (got[0] == "error" or type(got[1]) is Fraction)


def test_both_outcomes_occur():
    kinds = {outcome(lambda: reference_scalar(t, "0", "x"))[0] for t in LITERALS}
    assert kinds == {"ok", "error"}
