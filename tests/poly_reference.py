"""Reference for kernel.Poly arithmetic with every coefficient a Fraction, as
Poly kept its coefficients before integral ones became ints.  A reference
polynomial is a sorted tuple of (monomial, Fraction) with nonzero
coefficients, the layout of Poly.m, so a Poly of it is Poly(ref)."""

from fractions import Fraction

ZERO = Fraction(0)


def of(poly) -> tuple:
    """The terms of a Poly, each coefficient made a Fraction."""
    return tuple((mo, Fraction(co)) for mo, co in poly.m)


def _norm(acc: dict) -> tuple:
    return tuple(sorted((mo, co) for mo, co in acc.items() if co))


def add(a: tuple, b: tuple) -> tuple:
    acc = dict(a)
    for mo, co in b:
        acc[mo] = acc.get(mo, ZERO) + co
    return _norm(acc)


def mul(a: tuple, b: tuple) -> tuple:
    acc: dict = {}
    for mo1, co1 in a:
        for mo2, co2 in b:
            ex = dict(mo1)
            for v, e in mo2:
                ex[v] = ex.get(v, 0) + e
            mo = tuple(sorted(ex.items()))
            acc[mo] = acc.get(mo, ZERO) + co1 * co2
    return _norm(acc)


def evaluate(a: tuple, env: dict) -> Fraction:
    total = ZERO
    for mo, co in a:
        term = co
        for v, e in mo:
            term *= Fraction(env[v]) ** e
        total += term
    return total
