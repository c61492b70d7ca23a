"""Batch front door: verification suites, residual evaluation, JSON export.

Exit codes: 0 all checks pass, 1 a check fails, 2 usage or parse error,
3 window too small for a requested law.
"""

import argparse
import errno
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .kernel import (
    CheckReport,
    Fresh,
    InsufficientWindowError,
    ONE,
    Poly,
    Template,
    TemplateSeries,
    Window,
    ZERO,
    av,
    coproduct_at,
    ess,
    fin,
    key_str,
    pair,
    pat_ess,
    pat_fin,
    pat_pair,
    pat_tee,
    tee,
)
from .families import (
    FiniteAlgebra,
    FormalVector,
    adjoint_representation,
    ats_family,
    combine_tables,
    delta_a_family,
    delta_a_sym,
    delta_p_family,
    finite_catalog,
    perm_p_family,
    random_table,
    tensor_catalog,
    wn_codelta,
    wn_codelta_sym,
    wn_family,
)
from .axioms import (
    LawId,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_form,
    check_matched_pair,
    check_preperm,
)
from .affinize import (
    affinization_probe,
    coproduct_from_form,
    delta_bullet,
    delta_bullet_rule,
    induced_lie_bracket,
    pair_keys,
)
from .ybe import (
    OOperatorError,
    affinize_r,
    coboundary_delta_perm,
    cybe_residual,
    lie_delta_from_r,
    o_to_ybe,
    perm_ybe_residual,
    s_equation_residual,
)
from .doubles import (
    canonical_dual_actions,
    dual_perm_algebra,
    invariant_form_search,
    manin_double_from_bialgebra,
    manin_dual_bracket,
    manin_lie_lift,
    manin_pairing,
    para_kahler_reports,
    prelie_double,
    prelie_to_symplectic,
    restricted_dual_double,
    symplectic_to_prelie,
)
from .serialize import (
    algebra_to_json,
    canonical_json,
    matrix_to_json,
    pattern_to_json,
    report_to_json,
    tensor_from_json,
    three_tensor_to_json,
)

MIN_WINDOW = 3


class SuiteConfig:
    def __init__(self, suite, window, margin, seed, fmt, out):
        self.suite = suite
        self.window = window
        self.margin = margin
        self.seed = seed
        self.fmt = fmt
        self.out = out


# ---------------------------------------------------------------------------
# Row helpers.  A row is one named check with a pass flag and its report.


def _row(name, law, passed, note="", report=None):
    return {
        "name": name,
        "law": law,
        "passed": bool(passed),
        "note": note,
        "report": report,
    }


def _report_row(name, rep: CheckReport, expect_pass: bool = True):
    if expect_pass:
        ok = rep.passed
        note = ""
    else:
        ok = (not rep.passed) and bool(rep.violations)
        note = "expected to fail with witnesses"
    return _row(name, rep.law, ok, note, report_to_json(rep))


def _equality_report(law, window, checked, mismatches) -> CheckReport:
    violations = [("mismatch", at, res) for at, res in mismatches]
    return CheckReport.build(law, window, checked, violations, {})


# ---------------------------------------------------------------------------
# paper-examples: graded laws, coalgebras, forms, affinization pipeline.


def _bracket_table_report(bound: int) -> CheckReport:
    """Induced bracket of the 1-dim idempotent with the two-sequence family
    against its closed form: [et^i, et^j] = (j-i) et^(i+j-1),
    [et^i, es^j] = -[es^j, et^i] = (i+j-1) es^(i+j-1), [es^i, es^j] = 0."""
    alg = finite_catalog()["ex-1p"]
    fam = ats_family()
    br, _ = induced_lie_bracket(alg, fam)
    e = alg.key(0)
    mismatches = []
    checked = 0
    for i in range(-bound, bound + 1):
        for j in range(-bound, bound + 1):
            cases = [
                (tee(i), tee(j), {pair(e, tee(i + j - 1)): Fraction(j - i)}),
                (tee(i), ess(j), {pair(e, ess(i + j - 1)): Fraction(i + j - 1)}),
                (ess(j), tee(i), {pair(e, ess(i + j - 1)): Fraction(-(i + j - 1))}),
                (ess(i), ess(j), {}),
            ]
            for ka, kb, want in cases:
                checked += 1
                want = {k: c for k, c in want.items() if c}
                got = {k: c for k, c in br(pair(e, ka), pair(e, kb)).items() if c}
                if got != want:
                    res = tuple(
                        sorted(
                            (k, got.get(k, ZERO) - want.get(k, ZERO))
                            for k in set(got) | set(want)
                        )
                    )
                    mismatches.append(((pair(e, ka), pair(e, kb)), res))
    return _equality_report("AffineBracketTable", Window(bound, 0), checked, mismatches)


def _expected_cobracket(space: str, key) -> TemplateSeries:
    """The closed-form cobracket rows of the 1-dim idempotent affinization."""
    e = pat_fin(space, 0)
    k = av("k")
    i = key[1]
    if key[0] == "Tee":
        return TemplateSeries(
            2,
            (
                Template(
                    ("k",),
                    Poly.const(Fraction(i)),
                    (pat_pair(e, pat_ess(-k)), pat_pair(e, pat_tee(k + (i - 1)))),
                ),
                Template(
                    ("k",),
                    Poly.const(Fraction(-i)),
                    (pat_pair(e, pat_tee(k + (i - 1))), pat_pair(e, pat_ess(-k))),
                ),
            ),
        )
    return TemplateSeries(
        2,
        (
            Template(
                ("k",),
                Poly.of(2 * k + (i - 1)),
                (pat_pair(e, pat_ess(-k)), pat_pair(e, pat_ess(k + (i - 1)))),
            ),
        ),
    )


def _cobracket_table_report(bound: int, shape: str) -> CheckReport:
    alg = finite_catalog()["ex-1p"]
    fam = ats_family()
    delta, _ = delta_bullet_rule(alg, fam)
    window = Window(bound)
    mismatches = []
    checked = 0
    for g in fam.interior_keys(window, "cobracket-table"):
        if g[0] != ("Tee" if shape == "t" else "Ess"):
            continue
        checked += 1
        key = pair(alg.key(0), g)
        diff = (delta(key) - _expected_cobracket(alg.space, g)).support_in_box(bound)
        if diff:
            mismatches.append(((key,), tuple(sorted(diff.items()))))
    return _equality_report("CobracketTable", window, checked, mismatches)


def _coproduct_from_form_report(fam, delta_named, bound: int) -> CheckReport:
    cf = coproduct_from_form(fam)
    mismatches = []
    checked = 0
    for key in fam.keys(Window(bound)):
        checked += 1
        if not cf(key).equal_on_box(delta_named(key), bound):
            diff = (cf(key) - delta_named(key)).support_in_box(bound)
            mismatches.append(((key,), tuple(sorted(diff.items()))))
    return _equality_report("CoproductFromForm", Window(bound, 0), checked, mismatches)


def suite_paper_examples(cfg: SuiteConfig):
    W = cfg.window
    m = cfg.margin
    rows = []
    pfam = perm_p_family()
    afam = ats_family()
    w1 = wn_family(1)
    w2 = wn_family(2)

    rows.append(
        _report_row(
            "law:perm:graded-p",
            check_algebra(LawId.Perm, family=pfam, window=Window(W), margin=m),
        )
    )
    rows.append(
        _report_row(
            "law:prelie:w1",
            check_algebra(LawId.PreLie, family=w1, window=Window(W), margin=m),
        )
    )
    rows.append(
        _report_row(
            "law:novikov:w1",
            check_algebra(LawId.Novikov, family=w1, window=Window(W), margin=m),
        )
    )
    rows.append(
        _report_row(
            "law:prelie:w2",
            check_algebra(LawId.PreLie, family=w2, window=Window(W), margin=m),
        )
    )
    rows.append(
        _report_row(
            "law:prelie:ats",
            check_algebra(LawId.PreLie, family=afam, window=Window(W), margin=m),
        )
    )

    wc = Window(min(4, W))
    rows.append(
        _report_row(
            "colaw:coperm:graded-p",
            check_coalgebra(
                LawId.CoPerm,
                delta=delta_p_family,
                sym_co=pfam.sym_co,
                keys=pfam.interior_keys(wc, LawId.CoPerm),
                window=wc,
                margin=m,
            ),
        )
    )
    rows.append(
        _report_row(
            "colaw:coprelie:ats",
            check_coalgebra(
                LawId.CoPreLie,
                delta=delta_a_family,
                sym_co=afam.sym_co,
                keys=afam.interior_keys(wc, LawId.CoPreLie),
                window=wc,
                margin=m,
            ),
        )
    )
    rows.append(
        _report_row(
            "colaw:coprelie:w1",
            check_coalgebra(
                LawId.CoPreLie,
                delta=lambda k: wn_codelta(1, k),
                sym_co=wn_codelta_sym(1),
                keys=w1.interior_keys(wc, LawId.CoPreLie),
                window=wc,
                margin=m,
            ),
        )
    )

    rows.append(
        _report_row(
            "form:prelie:ats",
            check_form(LawId.QuadPreLieForm, family=afam, window=Window(W), margin=m),
        )
    )
    rows.append(
        _report_row(
            "form:perm:graded-p",
            check_form(LawId.QuadPermForm, family=pfam, window=Window(W), margin=m),
        )
    )

    rows.append(_report_row("affinize:bracket-table", _bracket_table_report(W)))
    alg = finite_catalog()["ex-1p"]
    probe = affinization_probe(alg, afam, "algebra", Window(min(5, W)))
    rows.append(
        _row(
            "affinize:lie-jacobi",
            probe.window_report.law,
            probe.is_law and probe.direct_report.passed and probe.agree,
            probe.note,
            report_to_json(probe.window_report),
        )
    )

    wp = min(5, W)
    rows.append(
        _report_row("pipeline:cobracket-table:t", _cobracket_table_report(wp, "t"))
    )
    rows.append(
        _report_row("pipeline:cobracket-table:s", _cobracket_table_report(wp, "s"))
    )
    delta, sym_co = delta_bullet_rule(alg, afam)
    br, sbr = induced_lie_bracket(alg, afam)
    pk = pair_keys(alg, afam, Window(wp))
    rows.append(
        _report_row(
            "pipeline:lie-bicocycle",
            check_bialgebra(
                LawId.LieBiCocycle,
                bracket=br,
                delta=delta,
                sym_bracket=sbr,
                keys=pk,
                window=Window(wp),
                margin=m,
            ),
        )
    )
    rows.append(
        _report_row(
            "pipeline:colie-skew",
            check_coalgebra(
                LawId.CoLieSkew,
                delta=delta,
                sym_co=sym_co,
                keys=pk,
                window=Window(wp),
                margin=m,
            ),
        )
    )
    rows.append(
        _report_row(
            "pipeline:colie-jacobi",
            check_coalgebra(
                LawId.CoLieJacobi,
                delta=delta,
                sym_co=sym_co,
                keys=pk,
                window=Window(wp),
                margin=m,
            ),
        )
    )

    we = min(6, W)
    rows.append(
        _report_row(
            "remark:coproduct-from-form:ats",
            _coproduct_from_form_report(afam, delta_a_family, we),
        )
    )
    rows.append(
        _report_row(
            "remark:coproduct-from-form:graded-p",
            _coproduct_from_form_report(pfam, delta_p_family, we),
        )
    )
    return rows


# ---------------------------------------------------------------------------
# ybe: the quadratic-equation pipeline and its negative controls.


def _residual_zero_report(alg, r, law: str) -> CheckReport:
    res = perm_ybe_residual(alg, r)
    violations = [
        ("nonzero", (k1, k2, k3), (((k1, k2, k3), c),)) for k1, k2, k3, c in res.terms
    ]
    return CheckReport.build(law, Window(0, 0), 1, violations, {})


def _worked_cobracket_report(bound: int) -> CheckReport:
    """The four displayed cobracket rows of the 2-dim semidirect example,
    at shape exponent 2, summation index in [-bound, bound]."""
    cat = finite_catalog()
    sd2 = cat["ex-sd2"]
    fam = ats_family()
    _, sbr = induced_lie_bracket(sd2, fam)
    rt = affinize_r(tensor_catalog()["r-sd2"][1], fam)
    E, Fk = sd2.key(0), sd2.key(1)
    k = 2
    mismatches = []
    checked = 0

    def expect(sup, left, right, want):
        nonlocal checked
        checked += 1
        got = sup.get((left, right), ZERO)
        if got != want:
            mismatches.append(((left, right), (((left, right), got - want),)))

    # s_exp = k + j - 1 reaches bound + k - 1, past the -j slots' bound.
    dE, dEs, dF, dFs = (
        lie_delta_from_r(sbr, rt, pair(a, shape(k))).support_in_box(bound + k - 1)
        for a, shape in ((E, tee), (E, ess), (Fk, tee), (Fk, ess))
    )
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


def _ybe_diagram_report(bound: int) -> CheckReport:
    """Affinizing the coboundary bialgebra commutes with taking the
    coboundary cobracket of the affinized tensor."""
    cat = finite_catalog()
    sd2 = cat["ex-sd2"]
    fam = ats_family()
    r = tensor_catalog()["r-sd2"][1]
    work = replace(sd2, delta=coboundary_delta_perm(sd2, r))
    delta, _ = delta_bullet_rule(work, fam)
    _, sbr = induced_lie_bracket(sd2, fam)
    rt = affinize_r(r, fam)
    mismatches = []
    checked = 0
    for key in pair_keys(sd2, fam, Window(bound)):
        checked += 1
        diff = (delta(key) - lie_delta_from_r(sbr, rt, key)).support_in_box(bound)
        if diff:
            mismatches.append(((key,), tuple(sorted(diff.items()))))
    return _equality_report("CoboundaryDiagram", Window(bound, 0), checked, mismatches)


def _perturbed_ats_delta(key) -> TemplateSeries:
    return coproduct_at(_perturbed_ats_sym_co, key)


def _perturbed_ats_sym_co(p, fresh):
    # s-branch coefficient (i+j) instead of (i+j-1)
    out = []
    for v, poly, pats in delta_a_sym(p, fresh):
        if p[0] == "Ess":
            poly = poly + Poly.const(ONE)
        out.append((v, poly, pats))
    return out


_ATS = ats_family()


def _perturbed_ats_product(k1, k2) -> FormalVector:
    # t^i . t^j gains a spurious t^(i+j) term
    out = _ATS.product(k1, k2)
    if k1[0] == "Tee" and k2[0] == "Tee":
        out.add_term(tee(k1[1] + k2[1]), Fraction(1))
    return out


def suite_ybe(cfg: SuiteConfig):
    W = cfg.window
    m = cfg.margin
    cat = finite_catalog()
    tens = tensor_catalog()
    fam = ats_family()
    sd2 = cat["ex-sd2"]
    r_sd2 = tens["r-sd2"][1]
    rows = []

    rows.append(
        _report_row(
            "ybe:residual-zero:semidirect",
            _residual_zero_report(sd2, r_sd2, "PermYbeZero"),
        )
    )
    rows.append(
        _report_row(
            "ybe:coboundary-bialgebra",
            check_bialgebra(
                LawId.PermBi,
                alg=sd2,
                delta_table=coboundary_delta_perm(sd2, r_sd2),
            ),
        )
    )

    rt = affinize_r(r_sd2, fam)
    ws = min(4, W)
    skew_bad = (rt + rt.flip_hat()).support_in_box(ws)
    rows.append(
        _report_row(
            "ybe:affinized-skew",
            _equality_report(
                "AffinizedSkew",
                Window(ws, 0),
                1,
                [((k,), ((k, c),)) for k, c in sorted(skew_bad.items())],
            ),
        )
    )

    _, sbr = induced_lie_bracket(sd2, fam)
    rows.append(
        _report_row("ybe:cybe", cybe_residual(sbr, rt, Window(min(5, W), 0)))
    )
    rows.append(
        _report_row("ybe:worked-cobracket", _worked_cobracket_report(min(3, W)))
    )
    rows.append(_report_row("ybe:diagram", _ybe_diagram_report(min(4, W))))

    # negative controls: each must fail with a nonempty witness list
    nilp = cat["ex-nilp2"]
    r_n = tens["r-nilp2"][1]
    rows.append(
        _report_row(
            "neg:perm-ybe:nilpotent",
            _residual_zero_report(nilp, r_n, "PermYbeZero"),
            expect_pass=False,
        )
    )
    _, sbr_n = induced_lie_bracket(nilp, fam)
    rows.append(
        _report_row(
            "neg:cybe:nilpotent",
            cybe_residual(sbr_n, affinize_r(r_n, fam), Window(min(3, W), 0)),
            expect_pass=False,
        )
    )
    wc = Window(min(4, W))
    rows.append(
        _report_row(
            "neg:coprelie:perturbed-ats",
            check_coalgebra(
                LawId.CoPreLie,
                delta=_perturbed_ats_delta,
                sym_co=_perturbed_ats_sym_co,
                keys=fam.interior_keys(wc, LawId.CoPreLie),
                window=wc,
                margin=m,
            ),
            expect_pass=False,
        )
    )
    rows.append(
        _report_row(
            "neg:prelie:perturbed-ats-product",
            check_algebra(
                LawId.PreLie,
                product=_perturbed_ats_product,
                keys=fam.interior_keys(wc, LawId.PreLie),
            ),
            expect_pass=False,
        )
    )
    rows.append(
        _report_row(
            "neg:preperm:broken",
            check_preperm(cat["ex-preperm-bad"]),
            expect_pass=False,
        )
    )
    onep = cat["ex-1p"]
    try:
        o_to_ybe(((Fraction(1),),), onep, adjoint_representation(onep))
        rows.append(_row("neg:o-operator:adjoint", "OOperator", False, "did not raise"))
    except OOperatorError as err:
        rows.append(
            _row(
                "neg:o-operator:adjoint",
                "OOperator",
                (not err.report.passed) and bool(err.report.violations),
                "expected to fail with witnesses",
                report_to_json(err.report),
            )
        )
    rows.append(
        _report_row(
            "neg:perm:broken-table",
            check_algebra(LawId.Perm, alg=cat["ex-bad2"]),
            expect_pass=False,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# doubles: Manin assembly, Lie lift, diagram, para-Kahler structures.


def _doubles_diagram_report(md, lift, bound: int) -> CheckReport:
    """Cobracket of the assembled double restricted to the first half agrees
    with the coproduct-induced rule on the bialgebra itself."""
    cat = finite_catalog()
    p1 = cat["ex-1p"]
    fam = ats_family()
    pk = [pair(fin(md.total.space, 0), g) for g in fam.keys(Window(bound))]
    e = fin(p1.space, 0)
    duals = [(u, v, manin_dual_bracket(lift, u, v)) for u in pk for v in pk]
    mismatches = []
    for x in pk:
        sup = delta_bullet(p1, fam, pair(e, x[2])).support_in_box(bound)
        for u, v, br in duals:
            c1 = sup.get((pair(e, u[2]), pair(e, v[2])), ZERO)
            c2 = manin_pairing(lift, x, br)
            if c1 != c2:
                mismatches.append(((x, u, v), (((u, v), c1 - c2),)))
    return _equality_report("ManinDiagram", Window(bound, 0), len(pk) ** 3, mismatches)


def suite_doubles(cfg: SuiteConfig):
    W = cfg.window
    cat = finite_catalog()
    fam = ats_family()
    p1 = cat["ex-1p"]
    rows = []

    try:
        md = manin_double_from_bialgebra(p1)
        for name in sorted(md.reports):
            rows.append(_report_row(f"doubles:manin:delta-ee:{name}", md.reports[name]))
    except ValueError as err:
        rows.append(_row("doubles:manin:delta-ee", "ManinAssembly", False, str(err)))
        md = None
    try:
        md0 = manin_double_from_bialgebra(p1, {})
        for name in sorted(md0.reports):
            rows.append(
                _report_row(f"doubles:manin:delta-zero:{name}", md0.reports[name])
            )
    except ValueError as err:
        rows.append(_row("doubles:manin:delta-zero", "ManinAssembly", False, str(err)))

    if md is not None:
        wl = min(4, W)
        lift = manin_lie_lift(md, fam, Window(wl))
        for name in sorted(lift.reports):
            rows.append(_report_row(f"doubles:lie-triple:{name}", lift.reports[name]))
        rows.append(
            _report_row("doubles:diagram", _doubles_diagram_report(md, lift, wl))
        )

    for tag, delta in (("delta-ee", None), ("delta-zero", {})):
        pl1 = cat["ex-prelie-1"]
        pd, pform = prelie_double(pl1) if delta is None else prelie_double(pl1, delta)
        reps = para_kahler_reports(pd, pform)
        for name in sorted(reps):
            rows.append(_report_row(f"doubles:para-kahler:{tag}:{name}", reps[name]))

    dual = dual_perm_algebra(p1, p1.delta)
    l12, r12, l21, r21 = canonical_dual_actions(p1, dual)
    bad_l12 = tuple(
        tuple(tuple(v + Fraction(1) for v in row) for row in mtx) for mtx in l12
    )
    rows.append(
        _report_row(
            "neg:matched-pair:perturbed-action",
            check_matched_pair(p1, dual, bad_l12, r12, l21, r21),
            expect_pass=False,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# appendix: restricted duals, the degeneracy search, symplectic round trips.


def _restricted_dual_equality_report(bound: int) -> CheckReport:
    w1d = restricted_dual_double(wn_family(1))
    afam = ats_family()
    keys = afam.keys(Window(bound))
    mismatches = []
    checked = 0
    for a in keys:
        partners_match = w1d.form_partners(a) == afam.form_partners(a)
        if not partners_match:
            mismatches.append(((a,), (((a,), Fraction(1)),)))
        for b in keys:
            checked += 1
            if w1d.product_one(a, b) != afam.product_one(a, b) or w1d.form(
                a, b
            ) != afam.form(a, b):
                mismatches.append(((a, b), (((a, b), Fraction(1)),)))
    return _equality_report(
        "RestrictedDualEquality", Window(bound, 0), checked, mismatches
    )


def _roundtrip_report(alg) -> CheckReport:
    lie, gform = prelie_to_symplectic(alg)
    n = lie.dim
    gram = tuple(
        tuple(gform(lie.key(i), lie.key(j)) for j in range(n)) for i in range(n)
    )
    back = symplectic_to_prelie(lie, gram)
    diff = combine_tables((1, back.commutator()), (-1, lie.mul))
    mismatches = [(ij, tuple(((k,), c) for k, c in terms)) for ij, terms in diff.items()]
    return _equality_report("SymplecticRoundTrip", Window(0, 0), n * n, mismatches)


def suite_appendix(cfg: SuiteConfig):
    W = cfg.window
    cat = finite_catalog()
    rows = []

    rows.append(
        _report_row(
            "appendix:restricted-dual:w1-equals-ats",
            _restricted_dual_equality_report(min(6, W)),
        )
    )
    w1d = restricted_dual_double(wn_family(1))
    rows.append(
        _report_row(
            "appendix:restricted-dual:w1-form",
            check_form(
                LawId.QuadPreLieForm, family=w1d, window=Window(min(4, W)),
                margin=cfg.margin,
            ),
        )
    )
    fd, fform = restricted_dual_double(cat["ex-prelie-1"])
    rows.append(
        _report_row(
            "appendix:restricted-dual:finite-prelie",
            check_algebra(LawId.PreLie, alg=fd),
        )
    )
    rows.append(
        _report_row(
            "appendix:restricted-dual:finite-form",
            check_form(
                LawId.QuadPreLieForm,
                form=fform,
                product=fd.product,
                keys=fd.basis_keys(),
            ),
        )
    )

    scalar_fields = (
        "keys",
        "unknowns",
        "rows",
        "skipped_triples",
        "rank",
        "solution_dim",
        "forced_zero_count",
        "probe_vanishes",
    )
    for n in (1, 2):
        search = invariant_form_search(n, Window(3))
        rows.append(
            _row(
                f"appendix:form-search:w{n}",
                "InvariantFormSearch",
                search["probe_vanishes"],
                f"rank {search['rank']} of {search['unknowns']} unknowns, "
                f"{search['forced_zero_count']} forced zero",
                {k: search[k] for k in scalar_fields},
            )
        )

    for aid in sorted(a.id for a in cat.values() if a.kind == "PreLie"):
        name = f"appendix:symplectic-roundtrip:{aid}"
        try:
            rows.append(_report_row(name, _roundtrip_report(cat[aid])))
        except ValueError as err:
            rows.append(_row(name, "SymplecticRoundTrip", False, str(err)))
    return rows


# ---------------------------------------------------------------------------
# probes: seeded random finite candidates against the window verdicts.


def suite_probes(cfg: SuiteConfig):
    rng = random.Random(cfg.seed)
    fam = ats_family()
    rows = []

    n_alg = 8
    agree = 0
    laws = 0
    for _ in range(n_alg):
        alg = FiniteAlgebra(
            id="probe",
            space="PR",
            dim=2,
            labels=("a", "b"),
            kind="none",
            mul=random_table(rng, 2),
        )
        v = affinization_probe(alg, fam, "algebra", Window(min(5, cfg.window)))
        agree += 1 if v.agree else 0
        laws += 1 if v.is_law else 0
    rows.append(
        _row(
            "probe:algebra-batch",
            "PairJacobiProbe",
            agree == n_alg,
            f"{agree}/{n_alg} verdicts agree, {laws} satisfy the law",
        )
    )

    n_co = 4
    agree = 0
    laws = 0
    for _ in range(n_co):
        dt = {}
        for src in range(2):
            terms = tuple(
                (i, j, Fraction(rng.randint(-2, 2)))
                for i in range(2)
                for j in range(2)
                if rng.random() < 0.5
            )
            terms = tuple((i, j, c) for i, j, c in terms if c)
            if terms:
                dt[src] = terms
        alg = FiniteAlgebra(
            id="probe",
            space="PR",
            dim=2,
            labels=("a", "b"),
            kind="none",
            mul={},
            delta=dt,
        )
        v = affinization_probe(
            alg, fam, "coalgebra", Window(min(4, cfg.window)), delta_table=dt
        )
        agree += 1 if v.agree else 0
        laws += 1 if v.is_law else 0
    rows.append(
        _row(
            "probe:coalgebra-batch",
            "CoLieJacobiProbe",
            agree == n_co,
            f"{agree}/{n_co} verdicts agree, {laws} satisfy the law",
        )
    )
    return rows


SUITES = {
    "paper-examples": (suite_paper_examples,),
    "ybe": (suite_ybe,),
    "doubles": (suite_doubles,),
    "appendix": (suite_appendix,),
    "all": (
        suite_paper_examples,
        suite_ybe,
        suite_doubles,
        suite_appendix,
        suite_probes,
    ),
}


def _cannot_write(path, reason) -> int:
    print(f"permlie: cannot write {path}: {reason}", file=sys.stderr)
    return 2


def _emit(cfg: SuiteConfig, text: str, code: int) -> int:
    """Write text to --out, or to stdout, and return code; 2 when --out
    cannot be written."""
    if not cfg.out:
        sys.stdout.write(text)
        return code
    try:
        with open(cfg.out, "w") as f:
            f.write(text)
    except OSError as err:
        return _cannot_write(cfg.out, err.strerror or err)
    return code


def _unwritable(path) -> Optional[str]:
    """Why open(path, "w") would fail, found without creating or truncating
    the file; None when it looks writable."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOENT)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def cmd_verify(cfg: SuiteConfig) -> int:
    if cfg.window < MIN_WINDOW:
        err = InsufficientWindowError("Perm", cfg.window, MIN_WINDOW)
        print(str(err), file=sys.stderr)
        return 3
    # Refuse an unwritable --out before the suites spend their time.
    reason = cfg.out and _unwritable(cfg.out)
    if reason:
        return _cannot_write(cfg.out, reason)
    try:
        rows = []
        for builder in SUITES[cfg.suite]:
            rows.extend(builder(cfg))
    except InsufficientWindowError as err:
        print(str(err), file=sys.stderr)
        return 3
    passed = all(r["passed"] for r in rows)
    payload = {
        "suite": cfg.suite,
        "window": cfg.window,
        "margin": cfg.margin,
        "seed": cfg.seed,
        "passed": passed,
        "rows": rows,
    }
    if cfg.fmt == "json":
        text = canonical_json(payload)
    else:
        lines = []
        for r in rows:
            state = "ok  " if r["passed"] else "FAIL"
            note = f"  ({r['note']})" if r["note"] else ""
            lines.append(f"{state}  {r['name']}  [{r['law']}]{note}")
        n_fail = sum(1 for r in rows if not r["passed"])
        tail = "ok" if passed else f"FAIL ({n_fail} of {len(rows)})"
        lines.append(f"suite {cfg.suite}: {tail} ({len(rows)} checks)")
        text = "\n".join(lines) + "\n"
    return _emit(cfg, text, 0 if passed else 1)


# ---------------------------------------------------------------------------
# residual: evaluate one of the three quadratic equations on an input tensor.


def cmd_residual(kind, algebra_id, input_path, cfg: SuiteConfig) -> int:
    cat = finite_catalog()
    if algebra_id not in cat:
        print(
            f"unknown algebra {algebra_id!r}; known: {', '.join(sorted(cat))}",
            file=sys.stderr,
        )
        return 2
    alg = cat[algebra_id]
    try:
        if input_path == "-":
            raw = sys.stdin.read()
        else:
            with open(input_path) as f:
                raw = f.read()
        data = json.loads(raw)
        r = tensor_from_json(data, alg)
    except json.JSONDecodeError as err:
        print(
            f"parse error at line {err.lineno} column {err.colno}: {err.msg}",
            file=sys.stderr,
        )
        return 2
    except (OSError, ValueError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2

    if kind == "cybe":
        fam = ats_family()
        _, sbr = induced_lie_bracket(alg, fam)
        try:
            rep = cybe_residual(sbr, affinize_r(r, fam), Window(cfg.window, 0))
        except InsufficientWindowError as err:
            print(str(err), file=sys.stderr)
            return 3
        payload = {"kind": kind, "algebra": algebra_id, "report": report_to_json(rep)}
        text = canonical_json(payload) if cfg.fmt == "json" else rep.summary() + "\n"
        ok = rep.passed
    else:
        res = (
            perm_ybe_residual(alg, r)
            if kind == "perm-ybe"
            else s_equation_residual(alg, r)
        )
        payload = {
            "kind": kind,
            "algebra": algebra_id,
            "zero": res.is_zero(),
            "residual": three_tensor_to_json(res),
        }
        if cfg.fmt == "json":
            text = canonical_json(payload)
        elif res.is_zero():
            text = "zero\n"
        else:
            text = (
                "\n".join(
                    f"{key_str(k1)} | {key_str(k2)} | {key_str(k3)} : {c}"
                    for k1, k2, k3, c in res.terms
                )
                + "\n"
            )
        ok = res.is_zero()
    return _emit(cfg, text, 0 if ok else 1)


# ---------------------------------------------------------------------------
# export: structure constants and generated tables as canonical JSON.


def _delta_template_payload(which: str) -> dict:
    cat = finite_catalog()
    p1 = cat["ex-1p"]
    fam = ats_family()
    _, sym_co = delta_bullet_rule(p1, fam)
    slot = pat_tee(av("i")) if which == "t" else pat_ess(av("i"))
    inp = pat_pair(pat_fin(p1.space, 0), slot)
    templates = [
        {
            "vars": list(v),
            "coeff": str(poly),
            "keys": [pattern_to_json(a), pattern_to_json(b)],
        }
        for v, poly, (a, b) in sym_co(inp, Fresh("j"))
    ]
    return {
        "id": f"delta:e-{which}",
        "input": pattern_to_json(inp),
        "arity": 2,
        "templates": templates,
    }


def cmd_export(object_id: str, cfg: SuiteConfig) -> int:
    cat = finite_catalog()
    payload = None
    if object_id in cat:
        payload = algebra_to_json(cat[object_id])
    elif object_id.startswith("double:"):
        base = object_id[len("double:") :]
        if base not in cat:
            print(f"unknown algebra {base!r}", file=sys.stderr)
            return 2
        alg = cat[base]
        if alg.kind == "Perm" and alg.delta:
            md = manin_double_from_bialgebra(alg)
            keys = md.total.basis_keys()
            payload = {
                "id": object_id,
                "algebra": algebra_to_json(md.total),
                "kappa": matrix_to_json(
                    [[md.form(a, b) for b in keys] for a in keys]
                ),
            }
        elif alg.kind == "PreLie":
            pd, pform = prelie_double(alg)
            keys = pd.basis_keys()
            payload = {
                "id": object_id,
                "algebra": algebra_to_json(pd),
                "form": matrix_to_json([[pform(a, b) for b in keys] for a in keys]),
            }
        else:
            print(f"no double construction for {base!r}", file=sys.stderr)
            return 2
    elif object_id in ("delta:e-t", "delta:e-s"):
        payload = _delta_template_payload(object_id[-1])
    else:
        known = sorted(cat) + ["double:<algebra-id>", "delta:e-t", "delta:e-s"]
        print(
            f"unknown object {object_id!r}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    text = canonical_json(payload)
    return _emit(cfg, text, 0)


# ---------------------------------------------------------------------------
# argument plumbing.


def _add_common(p):
    p.add_argument("--window", type=int, default=None, help="window bound N")
    p.add_argument("--margin", type=int, default=None, help="margin override")
    p.add_argument("--seed", type=int, default=None, help="seed for randomized rows")
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.add_argument("--out", default=None, help="write the report to this file")
    p.add_argument("--config", default=None, help="JSON config file; flags win")


def _merge_config(args, suite=None) -> SuiteConfig:
    """Each setting from its flag, else from the --config file, else its
    default.  Raises ValueError on an unreadable config or a bad value."""
    fromfile = {}
    if args.config:
        try:
            with open(args.config) as f:
                fromfile = json.load(f)
        except (OSError, ValueError) as err:
            raise ValueError(f"bad config {args.config}: {err}") from None
        if not isinstance(fromfile, dict):
            raise ValueError(f"bad config {args.config}: not a JSON object")

    def pick(name, default, kind):
        # flags arrive typed by argparse; a config value must already be a
        # JSON value of the setting's kind (a bool is not an int)
        v = getattr(args, name, None)
        if v is not None:
            return v
        if name not in fromfile:
            return default
        v = fromfile[name]
        if not isinstance(v, kind) or isinstance(v, bool):
            raise ValueError(
                f"bad {name}: {v!r} (must be a JSON {'integer' if kind is int else 'string'})"
            )
        return v

    cfg = SuiteConfig(
        suite=suite,
        window=pick("window", 6, int),
        margin=pick("margin", None, int),
        seed=pick("seed", 0, int),
        fmt=pick("format", "text", str),
        out=pick("out", None, str),
    )
    if cfg.margin is not None and cfg.margin < 0:
        raise ValueError(f"bad margin: {cfg.margin} (must be at least 0)")
    if cfg.fmt not in ("text", "json"):
        raise ValueError(f"bad format: {cfg.fmt!r}")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="permlie",
        description="Exact window verification of perm/pre-Lie structures "
        "and their affinizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    _add_common(p_verify)

    p_res = sub.add_parser("residual", help="evaluate a quadratic-equation residual")
    p_res.add_argument("kind", choices=("perm-ybe", "s-eq", "cybe"))
    p_res.add_argument(
        "--algebra", required=True, help="catalog algebra id the tensor lives on"
    )
    p_res.add_argument(
        "--input", required=True, help="JSON tensor file, or - for stdin"
    )
    _add_common(p_res)

    p_exp = sub.add_parser("export", help="export an object as canonical JSON")
    p_exp.add_argument("object_id")
    _add_common(p_exp)

    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, suite=getattr(args, "suite", None))
    except ValueError as err:
        print(f"permlie: {err}", file=sys.stderr)
        return 2
    if args.command == "verify":
        return cmd_verify(cfg)
    if args.command == "residual":
        return cmd_residual(args.kind, args.algebra, args.input, cfg)
    return cmd_export(args.object_id, cfg)


if __name__ == "__main__":
    sys.exit(main())
