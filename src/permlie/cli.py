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
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
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
    add_term,
    av,
    coproduct_at,
    ess,
    fin,
    key_str,
    pair,
    pat_const,
    pat_ess,
    pat_tee,
    tee,
)
from .families import (
    FiniteAlgebra,
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
    _Recorder,
    _lifted_violations,
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
    tensor_to_json,
)

MIN_WINDOW = 3


@dataclass
class SuiteConfig:
    suite: Optional[str]
    window: int
    margin: Optional[int]
    seed: int
    fmt: str
    out: Optional[str]


# ---------------------------------------------------------------------------
# Row helpers.  A row is one named check with a pass flag and its report.
# A suite writes each group of rows that repeats one call as a table of the
# parts that vary, looped through that call.


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


def _report_rows(prefix, reports: dict):
    """One row per named report, in name order."""
    return [_report_row(f"{prefix}:{name}", reports[name]) for name in sorted(reports)]


def _equality_report(law, window, checked, mismatches) -> CheckReport:
    violations = [("mismatch", at, res) for at, res in mismatches]
    return CheckReport.build(law, window, checked, violations, {})


def _series_equality_report(law, keys, lhs, rhs, bound: int, arity: int) -> CheckReport:
    """lhs(*xs) = rhs(*xs) for every arity-tuple xs of keys, read on the box
    [-bound, bound]: a tuple whose difference has box support is a mismatch
    carrying that support.  The difference is proved on patterns when it can
    be (see axioms._lifted_violations), and every mismatch is kept."""
    checked = len(keys) ** arity
    rec = _Recorder(cap=checked)  # one row, so at most one mismatch per tuple
    _lifted_violations(keys, arity, lambda *xs: [("mismatch", lhs(*xs) - rhs(*xs))], bound, rec)
    mismatches = [(at, res) for _, at, res in rec.items]
    return _equality_report(law, Window(bound, 0), checked, mismatches)


def _series(rule):
    """rule(*xs) -> [(coeff, key)], on keys and on patterns, as the function
    whose value at xs is the series of those terms, one slot wide."""

    def series(*xs) -> TemplateSeries:
        return TemplateSeries(1, [Template((), Poly.of(c), (pat_const(k),)) for c, k in rule(*xs)])

    return series


# ---------------------------------------------------------------------------
# paper-examples: graded laws, coalgebras, forms, affinization pipeline.


def _bracket_closed_form(p, q):
    """The bracket of the 1-dim idempotent with the two-sequence family, in
    closed form on keys and on patterns e t^i, e s^j: [et^i, et^j] =
    (j-i) et^(i+j-1), [et^i, es^j] = -[es^j, et^i] = (i+j-1) es^(i+j-1),
    [es^i, es^j] = 0."""
    (_, e, (s, i)), (_, _, (t, j)) = p, q
    if s == t:
        return [(j - i, pair(e, tee(i + j - 1)))] if s == "Tee" else []
    return [(i + j - 1 if s == "Tee" else 1 - i - j, pair(e, ess(i + j - 1)))]


def _bracket_table_report(bound: int) -> CheckReport:
    """The induced bracket against _bracket_closed_form at every key pair."""
    alg = finite_catalog()["ex-1p"]
    fam = ats_family()
    _, sbr = induced_lie_bracket(alg, fam)
    keys = [pair(alg.key(0), g) for g in fam.keys(Window(bound))]
    closed = _series(_bracket_closed_form)
    return _series_equality_report("AffineBracketTable", keys, _series(sbr), closed, bound, 2)


def _expected_cobracket(space: str, key) -> TemplateSeries:
    """The closed-form cobracket rows of the 1-dim idempotent affinization."""
    e, k, i = fin(space, 0), av("k"), key[1]
    s = pair(e, pat_ess(-k))
    if key[0] == "Tee":
        t = pair(e, pat_tee(k + (i - 1)))
        return TemplateSeries(
            2,
            (
                Template(("k",), Poly.of(i), (s, t)),
                Template(("k",), Poly.of(-i), (t, s)),
            ),
        )
    s_out = pair(e, pat_ess(k + (i - 1)))
    return TemplateSeries(2, (Template(("k",), Poly.of(2 * k + (i - 1)), (s, s_out)),))


def _cobracket_table_report(bound: int, shape: str) -> CheckReport:
    alg = finite_catalog()["ex-1p"]
    fam = ats_family()
    delta, _ = delta_bullet_rule(alg, fam)
    head = "Tee" if shape == "t" else "Ess"
    keys = [
        pair(alg.key(0), g)
        for g in fam.interior_keys(Window(bound), "cobracket-table")
        if g[0] == head
    ]
    return _series_equality_report(
        "CobracketTable", keys, delta, lambda key: _expected_cobracket(alg.space, key[2]), bound, 1
    )


def _coproduct_from_form_report(fam, delta_named, bound: int) -> CheckReport:
    cf = coproduct_from_form(fam)
    keys = fam.keys(Window(bound))
    return _series_equality_report("CoproductFromForm", keys, cf, delta_named, bound, 1)


def suite_paper_examples(cfg: SuiteConfig):
    W, m = cfg.window, cfg.margin
    pfam, afam, w1, w2 = perm_p_family(), ats_family(), wn_family(1), wn_family(2)

    rows = [
        _report_row(name, check_algebra(law, family=fam, window=Window(W), margin=m))
        for name, law, fam in (
            ("law:perm:graded-p", LawId.Perm, pfam),
            ("law:prelie:w1", LawId.PreLie, w1),
            ("law:novikov:w1", LawId.Novikov, w1),
            ("law:prelie:w2", LawId.PreLie, w2),
            ("law:prelie:ats", LawId.PreLie, afam),
        )
    ]
    wc = Window(min(4, W))
    for name, law, fam, delta, sym_co in (
        ("colaw:coperm:graded-p", LawId.CoPerm, pfam, delta_p_family, pfam.sym_co),
        ("colaw:coprelie:ats", LawId.CoPreLie, afam, delta_a_family, afam.sym_co),
        ("colaw:coprelie:w1", LawId.CoPreLie, w1, partial(wn_codelta, 1), wn_codelta_sym(1)),
    ):
        keys = fam.interior_keys(wc, law)
        rep = check_coalgebra(law, delta=delta, sym_co=sym_co, keys=keys, window=wc, margin=m)
        rows.append(_report_row(name, rep))
    rows += [
        _report_row(name, check_form(law, family=fam, window=Window(W), margin=m))
        for name, law, fam in (
            ("form:prelie:ats", LawId.QuadPreLieForm, afam),
            ("form:perm:graded-p", LawId.QuadPermForm, pfam),
        )
    ]

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

    wp = Window(min(5, W))
    rows += [
        _report_row(f"pipeline:cobracket-table:{shape}", _cobracket_table_report(wp.n, shape))
        for shape in ("t", "s")
    ]
    delta, sym_co = delta_bullet_rule(alg, afam)
    br, sbr = induced_lie_bracket(alg, afam)
    pk = pair_keys(alg, afam, wp)
    rep = check_bialgebra(
        LawId.LieBiCocycle, bracket=br, delta=delta, sym_bracket=sbr, keys=pk, window=wp, margin=m
    )
    rows.append(_report_row("pipeline:lie-bicocycle", rep))
    rows += [
        _report_row(
            f"pipeline:colie-{tag}",
            check_coalgebra(law, delta=delta, sym_co=sym_co, keys=pk, window=wp, margin=m),
        )
        for tag, law in (("skew", LawId.CoLieSkew), ("jacobi", LawId.CoLieJacobi))
    ]

    we = min(6, W)
    rows += [
        _report_row(
            f"remark:coproduct-from-form:{tag}", _coproduct_from_form_report(fam, named, we)
        )
        for tag, fam, named in (("ats", afam, delta_a_family), ("graded-p", pfam, delta_p_family))
    ]
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
    sd2 = finite_catalog()["ex-sd2"]
    fam = ats_family()
    r = tensor_catalog()["r-sd2"][1]
    delta, _ = delta_bullet_rule(replace(sd2, delta=coboundary_delta_perm(sd2, r)), fam)
    _, sbr = induced_lie_bracket(sd2, fam)
    rt = affinize_r(r, fam)
    keys = pair_keys(sd2, fam, Window(bound))
    return _series_equality_report(
        "CoboundaryDiagram", keys, delta, lambda key: lie_delta_from_r(sbr, rt, key), bound, 1
    )


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


def _perturbed_ats_product(k1, k2) -> dict:
    # t^i . t^j gains a spurious t^(i+j) term
    out = _ATS.product(k1, k2)
    if k1[0] == "Tee" and k2[0] == "Tee":
        add_term(out, tee(k1[1] + k2[1]), Fraction(1))
    return out


def suite_ybe(cfg: SuiteConfig):
    W, m = cfg.window, cfg.margin
    cat, tens, fam = finite_catalog(), tensor_catalog(), ats_family()
    sd2, r_sd2 = cat["ex-sd2"], tens["r-sd2"][1]
    rows = [
        _report_row(
            "ybe:residual-zero:semidirect", _residual_zero_report(sd2, r_sd2, "PermYbeZero")
        ),
        _report_row(
            "ybe:coboundary-bialgebra",
            check_bialgebra(
                LawId.PermBi, alg=sd2, delta_table=coboundary_delta_perm(sd2, r_sd2)
            ),
        ),
    ]

    rt = affinize_r(r_sd2, fam)
    ws = min(4, W)
    skew_bad = (rt + rt.flip_hat()).support_in_box(ws)
    skew = [((k,), ((k, c),)) for k, c in sorted(skew_bad.items())]
    rows.append(
        _report_row(
            "ybe:affinized-skew", _equality_report("AffinizedSkew", Window(ws, 0), 1, skew)
        )
    )

    _, sbr = induced_lie_bracket(sd2, fam)
    rows.append(_report_row("ybe:cybe", cybe_residual(sbr, rt, Window(min(5, W), 0))))
    rows.append(_report_row("ybe:worked-cobracket", _worked_cobracket_report(min(3, W))))
    rows.append(_report_row("ybe:diagram", _ybe_diagram_report(min(4, W))))

    nilp, r_n = cat["ex-nilp2"], tens["r-nilp2"][1]
    onep = cat["ex-1p"]
    wc = Window(min(4, W))

    def o_operator_report():
        # the O-operator's failing report, or None when it is accepted
        try:
            o_to_ybe(((Fraction(1),),), onep, adjoint_representation(onep))
        except OOperatorError as err:
            return err.report
        return None

    # negative controls: each must fail with a nonempty witness list
    for name, build in (
        ("neg:perm-ybe:nilpotent", lambda: _residual_zero_report(nilp, r_n, "PermYbeZero")),
        (
            "neg:cybe:nilpotent",
            lambda: cybe_residual(
                induced_lie_bracket(nilp, fam)[1],
                affinize_r(r_n, fam),
                Window(min(3, W), 0),
            ),
        ),
        (
            "neg:coprelie:perturbed-ats",
            lambda: check_coalgebra(
                LawId.CoPreLie,
                delta=_perturbed_ats_delta,
                sym_co=_perturbed_ats_sym_co,
                keys=fam.interior_keys(wc, LawId.CoPreLie),
                window=wc,
                margin=m,
            ),
        ),
        (
            "neg:prelie:perturbed-ats-product",
            lambda: check_algebra(
                LawId.PreLie,
                product=_perturbed_ats_product,
                keys=fam.interior_keys(wc, LawId.PreLie),
            ),
        ),
        ("neg:preperm:broken", lambda: check_preperm(cat["ex-preperm-bad"])),
        ("neg:o-operator:adjoint", o_operator_report),
        ("neg:perm:broken-table", lambda: check_algebra(LawId.Perm, alg=cat["ex-bad2"])),
    ):
        rep = build()
        if rep is None:
            rows.append(_row(name, "OOperator", False, "did not raise"))
        else:
            rows.append(_report_row(name, rep, expect_pass=False))
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
    cat = finite_catalog()
    p1 = cat["ex-1p"]
    # each double is built from the algebra's own coproduct and from zero
    tags = (("delta-ee", None), ("delta-zero", {}))
    rows = []

    manin = {}
    for tag, delta in tags:
        try:
            manin[tag] = manin_double_from_bialgebra(p1, delta)
        except ValueError as err:
            rows.append(_row(f"doubles:manin:{tag}", "ManinAssembly", False, str(err)))
            continue
        rows += _report_rows(f"doubles:manin:{tag}", manin[tag].reports)

    md = manin.get("delta-ee")
    if md is not None:
        wl = min(4, cfg.window)
        lift = manin_lie_lift(md, ats_family(), Window(wl))
        rows += _report_rows("doubles:lie-triple", lift.reports)
        rows.append(_report_row("doubles:diagram", _doubles_diagram_report(md, lift, wl)))

    for tag, delta in tags:
        reports = para_kahler_reports(*prelie_double(cat["ex-prelie-1"], delta))
        rows += _report_rows(f"doubles:para-kahler:{tag}", reports)

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
    """The restricted double of w1 is ats: the same product rule at every key
    pair and the same partner at every key, as two residual rows, so the two
    cannot cancel; equal partners give equal forms (families._form_readings)."""
    law = "RestrictedDualEquality"
    w1d, afam = restricted_dual_double(wn_family(1)), ats_family()
    keys = afam.keys(Window(bound))

    def row(read, arity) -> CheckReport:
        lhs, rhs = _series(read(w1d)), _series(read(afam))
        return _series_equality_report(law, keys, lhs, rhs, bound, arity)

    products = row(lambda fam: fam.sym_product, 2)
    partners = row(lambda fam: lambda a: [fam.partner(a)], 1)
    violations = products.violations + partners.violations
    return CheckReport.build(law, Window(bound, 0), products.checked, violations)


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


_FORM_SEARCH_FIELDS = (
    "keys", "unknowns", "rows", "skipped_triples",
    "rank", "solution_dim", "forced_zero_count", "probe_vanishes",
)


def suite_appendix(cfg: SuiteConfig):
    W = cfg.window
    cat = finite_catalog()
    w1d = restricted_dual_double(wn_family(1))
    fd, fform = restricted_dual_double(cat["ex-prelie-1"])
    rows = [
        _report_row(
            "appendix:restricted-dual:w1-equals-ats",
            _restricted_dual_equality_report(min(6, W)),
        ),
        _report_row(
            "appendix:restricted-dual:w1-form",
            check_form(
                LawId.QuadPreLieForm, family=w1d, window=Window(min(4, W)), margin=cfg.margin
            ),
        ),
        _report_row(
            "appendix:restricted-dual:finite-prelie", check_algebra(LawId.PreLie, alg=fd)
        ),
        _report_row(
            "appendix:restricted-dual:finite-form",
            check_form(
                LawId.QuadPreLieForm, form=fform, product=fd.product, keys=fd.basis_keys()
            ),
        ),
    ]

    for n in (1, 2):
        search = invariant_form_search(n, Window(3))
        rows.append(
            _row(
                f"appendix:form-search:w{n}",
                "InvariantFormSearch",
                search["probe_vanishes"],
                f"rank {search['rank']} of {search['unknowns']} unknowns, "
                f"{search['forced_zero_count']} forced zero",
                {k: search[k] for k in _FORM_SEARCH_FIELDS},
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


def _random_delta_table(rng) -> dict:
    """A random coproduct table on a 2-dim space, coefficients in [-2, 2]."""
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
    return dt


def suite_probes(cfg: SuiteConfig):
    rng = random.Random(cfg.seed)
    fam = ats_family()

    def candidate(mul, delta=None):
        return FiniteAlgebra(
            id="probe", space="PR", dim=2, labels=("a", "b"), kind="none", mul=mul, delta=delta
        )

    def algebra_probe():
        alg = candidate(random_table(rng, 2))
        return affinization_probe(alg, fam, "algebra", Window(min(5, cfg.window)))

    def coalgebra_probe():
        dt = _random_delta_table(rng)
        w = Window(min(4, cfg.window))
        return affinization_probe(candidate({}, dt), fam, "coalgebra", w, delta_table=dt)

    rows = []
    for name, law, count, probe in (
        ("probe:algebra-batch", "PairJacobiProbe", 8, algebra_probe),
        ("probe:coalgebra-batch", "CoLieJacobiProbe", 4, coalgebra_probe),
    ):
        verdicts = [probe() for _ in range(count)]
        agree = sum(1 for v in verdicts if v.agree)
        laws = sum(1 for v in verdicts if v.is_law)
        note = f"{agree}/{count} verdicts agree, {laws} satisfy the law"
        rows.append(_row(name, law, agree == count, note))
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
    except (OSError, ValueError, RecursionError) as err:
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
            "residual": tensor_to_json(res),
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
    inp = pair(fin(p1.space, 0), slot)
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
        except (OSError, ValueError, RecursionError) as err:
            raise ValueError(f"bad config {args.config}: {err}") from None
        if not isinstance(fromfile, dict):
            raise ValueError(f"bad config {args.config}: not a JSON object")
        unknown = sorted(set(fromfile) - {"window", "margin", "seed", "format", "out"})
        if unknown:
            raise ValueError(f"bad config {args.config}: unknown key {unknown[0]!r}")

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
