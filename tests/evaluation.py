"""Exact evaluation of Laurent polynomials and Q(q) scalars at a rational q:
a numeric oracle that does not go through the canonical form."""

from fractions import Fraction


def eval_laurent(p, value) -> Fraction:
    """p at a nonzero rational value of q."""
    value = Fraction(value)
    if value == 0:
        raise ValueError("cannot evaluate a Laurent polynomial at q=0")
    return sum((v * value ** e for e, v in p.items()), Fraction(0))


def eval_scalar(s, value) -> Fraction:
    """s = num/den at a rational value of q where den does not vanish."""
    den = eval_laurent(s.den, value)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at q=%s" % value)
    return eval_laurent(s.num, value) / den
