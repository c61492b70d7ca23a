"""References for the batched reads of cli._doubles_diagram_report and
cli._worked_cobracket_report: the same reports read point by point, one
TemplateSeries.coefficient_at call (and, for the diagram, one
doubles.manin_cobracket_coefficient call) per checked point."""

from fractions import Fraction

from permlie.cli import _equality_report
from permlie.affinize import delta_bullet, induced_lie_bracket
from permlie.doubles import manin_cobracket_coefficient
from permlie.families import ats_family, finite_catalog, tensor_catalog
from permlie.kernel import ZERO, Window, ess, fin, pair, tee
from permlie.ybe import affinize_r, lie_delta_from_r


def diagram_by_points(md, lift, bound: int):
    p1 = finite_catalog()["ex-1p"]
    fam = ats_family()
    pk = [pair(fin(md.total.space, 0), g) for g in fam.keys(Window(bound))]
    mismatches = []
    checked = 0
    for x in pk:
        s = delta_bullet(p1, fam, pair(fin(p1.space, x[1][2]), x[2]))
        for u in pk:
            for v in pk:
                checked += 1
                c1 = s.coefficient_at(
                    (pair(fin(p1.space, 0), u[2]), pair(fin(p1.space, 0), v[2]))
                )
                c2 = manin_cobracket_coefficient(lift, x, u, v)
                if c1 != c2:
                    mismatches.append(((x, u, v), (((u, v), c1 - c2),)))
    return _equality_report("ManinDiagram", Window(bound, 0), checked, mismatches)


def worked_cobracket_by_points(bound: int):
    sd2 = finite_catalog()["ex-sd2"]
    fam = ats_family()
    _, sbr = induced_lie_bracket(sd2, fam)
    rt = affinize_r(tensor_catalog()["r-sd2"][1], fam)
    E, Fk = sd2.key(0), sd2.key(1)
    k = 2
    mismatches = []
    checked = 0

    def expect(series, left, right, want):
        nonlocal checked
        checked += 1
        got = series.coefficient_at((left, right))
        if got != want:
            mismatches.append(((left, right), (((left, right), got - want),)))

    dE = lie_delta_from_r(sbr, rt, pair(E, tee(k)))
    dEs = lie_delta_from_r(sbr, rt, pair(E, ess(k)))
    dF = lie_delta_from_r(sbr, rt, pair(Fk, tee(k)))
    dFs = lie_delta_from_r(sbr, rt, pair(Fk, ess(k)))
    for j in range(-bound, bound + 1):
        s_exp = k + j - 1
        expect(dE, pair(E, tee(-j)), pair(Fk, ess(s_exp)), Fraction(-k))
        expect(dE, pair(Fk, tee(-j)), pair(E, ess(s_exp)), Fraction(-k))
        expect(dE, pair(Fk, ess(s_exp)), pair(E, tee(-j)), Fraction(k))
        expect(dE, pair(E, ess(s_exp)), pair(Fk, tee(-j)), Fraction(k))
        expect(dE, pair(E, tee(-j)), pair(E, ess(s_exp)), ZERO)
        cf = Fraction(2 * j + k - 1)
        expect(dEs, pair(E, ess(-j)), pair(Fk, ess(s_exp)), cf)
        expect(dEs, pair(Fk, ess(-j)), pair(E, ess(s_exp)), cf)
        expect(dEs, pair(E, ess(-j)), pair(E, ess(s_exp)), ZERO)
        expect(dF, pair(Fk, ess(s_exp)), pair(Fk, tee(-j)), Fraction(k))
        expect(dF, pair(Fk, tee(-j)), pair(Fk, ess(s_exp)), Fraction(-k))
        expect(dF, pair(E, tee(-j)), pair(Fk, ess(s_exp)), ZERO)
        expect(dFs, pair(Fk, ess(-j)), pair(Fk, ess(s_exp)), cf)
        expect(dFs, pair(E, ess(-j)), pair(Fk, ess(s_exp)), ZERO)
    return _equality_report("WorkedCobracketTable", Window(bound, 0), checked, mismatches)
