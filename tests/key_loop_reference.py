"""References for the induced bracket and for the two table rows that are now
proved on patterns: the bracket written on keys, and the rows
affinize:bracket-table and appendix:restricted-dual:w1-equals-ats read key by
key, pair by pair, over the window."""

from fractions import Fraction

from permlie.cli import _equality_report
from permlie.families import ats_family, finite_catalog
from permlie.kernel import ZERO, Window, add_term, ess, pair, tee


def bracket_by_keys(alg, family):
    """[x1 (x) y1, x2 (x) y2] = x1 x2 (x) y1 y2 - x2 x1 (x) y2 y1 on Pair keys,
    from the finite product and the family's product_one."""

    def bracket(k1, k2) -> dict:
        _, x1, y1 = k1
        _, x2, y2 = k2
        out = {}
        g = family.product_one(y1, y2)
        if g is not None:
            for xk, xc in alg.product(x1, x2).items():
                add_term(out, pair(xk, g[1]), xc * g[0])
        g = family.product_one(y2, y1)
        if g is not None:
            for xk, xc in alg.product(x2, x1).items():
                add_term(out, pair(xk, g[1]), -xc * g[0])
        return out

    return bracket


def bracket_table_by_keys(bound: int, flipped: str = ""):
    """The bracket of ex-1p with ats against its closed form at every key pair:
    [et^i, et^j] = (j-i) et^(i+j-1), [et^i, es^j] = -[es^j, et^i] =
    (i+j-1) es^(i+j-1), [es^i, es^j] = 0.  flipped names one case ("tt",
    "ts", "st" or "ss") whose closed form is read with the opposite sign."""
    alg = finite_catalog()["ex-1p"]
    br = bracket_by_keys(alg, ats_family())
    e = alg.key(0)
    mismatches = []
    checked = 0
    for i in range(-bound, bound + 1):
        for j in range(-bound, bound + 1):
            cases = [
                ("tt", tee(i), tee(j), {pair(e, tee(i + j - 1)): Fraction(j - i)}),
                ("ts", tee(i), ess(j), {pair(e, ess(i + j - 1)): Fraction(i + j - 1)}),
                ("st", ess(j), tee(i), {pair(e, ess(i + j - 1)): Fraction(-(i + j - 1))}),
                ("ss", ess(i), ess(j), {}),
            ]
            for name, ka, kb, want in cases:
                checked += 1
                sign = -1 if name == flipped else 1
                want = {k: sign * c for k, c in want.items() if c}
                got = {k: c for k, c in br(pair(e, ka), pair(e, kb)).items() if c}
                if got != want:
                    diff = ((k, got.get(k, ZERO) - want.get(k, ZERO)) for k in {*got, *want})
                    res = tuple(sorted(diff))
                    mismatches.append(((pair(e, ka), pair(e, kb)), res))
    return _equality_report("AffineBracketTable", Window(bound, 0), checked, mismatches)


def restricted_dual_by_keys(bound: int, w1d):
    """w1d against ats: the partners at every key, the products and the forms
    at every key pair."""
    afam = ats_family()
    keys = afam.keys(Window(bound))
    mismatches = []
    checked = 0
    for a in keys:
        if w1d.form_partners(a) != afam.form_partners(a):
            mismatches.append(((a,), (((a,), Fraction(1)),)))
        for b in keys:
            checked += 1
            same_product = w1d.product_one(a, b) == afam.product_one(a, b)
            if not same_product or w1d.form(a, b) != afam.form(a, b):
                mismatches.append(((a, b), (((a, b), Fraction(1)),)))
    return _equality_report("RestrictedDualEquality", Window(bound, 0), checked, mismatches)
