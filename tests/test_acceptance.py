"""Acceptance gate: one test per criterion, at the stated window sizes.

Run with -v to get one pass/fail line per criterion.  Everything is exact
rational arithmetic; a criterion passes only with zero violations.
"""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

from permlie.kernel import Fresh, Window, add_term, av, ess, fin, pair, pat_const, tee
from permlie.families import (
    FiniteAlgebra,
    ats_family,
    delta_a_family,
    delta_p_family,
    finite_catalog,
    perm_p_family,
    random_table,
    tensor_catalog,
    wn_codelta,
    wn_codelta_sym,
    wn_family,
)
from permlie.axioms import (
    LawId,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_form,
    check_matched_pair,
    check_preperm,
)
from permlie.affinize import (
    affinization_probe,
    coproduct_from_form,
    delta_bullet_rule,
    induced_lie_bracket,
    pair_keys,
)
from permlie.ybe import (
    affinize_r,
    coboundary_delta_perm,
    cybe_residual,
    lie_delta_from_r,
    perm_ybe_residual,
)
from permlie.doubles import (
    canonical_dual_actions,
    dual_perm_algebra,
    invariant_form_search,
    manin_double_from_bialgebra,
    manin_lie_lift,
    prelie_to_symplectic,
    restricted_dual_double,
    symplectic_to_prelie,
)

F = Fraction
ONE = F(1)


def _ok(msg):
    print(f"PASS  {msg}")


def test_criterion_01_graded_families_pass_their_laws():
    w = Window(6)
    assert check_algebra(LawId.Perm, family=perm_p_family(), window=w).passed
    assert check_algebra(LawId.PreLie, family=wn_family(1), window=w).passed
    assert check_algebra(LawId.Novikov, family=wn_family(1), window=w).passed
    assert check_algebra(LawId.PreLie, family=wn_family(2), window=w).passed
    assert check_algebra(LawId.PreLie, family=ats_family(), window=w).passed
    _ok("criterion 1: graded families satisfy their laws at N=6")


def test_criterion_02_coalgebra_families_pass():
    w = Window(4)
    pfam = perm_p_family()
    afam = ats_family()
    assert check_coalgebra(
        LawId.CoPerm,
        delta=delta_p_family,
        sym_co=pfam.sym_co,
        keys=pfam.interior_keys(w, "CoPerm"),
        window=w,
    ).passed
    assert check_coalgebra(
        LawId.CoPreLie,
        delta=delta_a_family,
        sym_co=afam.sym_co,
        keys=afam.interior_keys(w, "CoPreLie"),
        window=w,
    ).passed
    w1 = wn_family(1)
    assert check_coalgebra(
        LawId.CoPreLie,
        delta=lambda k: wn_codelta(1, k),
        sym_co=wn_codelta_sym(1),
        keys=w1.interior_keys(w, "CoPreLie"),
        window=w,
    ).passed
    _ok("criterion 2: coalgebra families satisfy their laws at N=4")


def test_criterion_03_forms():
    w = Window(6)
    rep = check_form(LawId.QuadPreLieForm, family=ats_family(), window=w)
    assert rep.passed and rep.extra["weight"] == -2
    assert rep.extra["gram_rank"] == rep.extra["gram_size"]
    rep = check_form(LawId.QuadPermForm, family=perm_p_family(), window=w)
    assert rep.passed and rep.extra["weight"] == 2
    assert rep.extra["gram_rank"] == rep.extra["gram_size"]
    _ok("criterion 3: both forms invariant and window-nondegenerate at N=6")


def test_criterion_04_affinization_forward():
    alg = finite_catalog()["ex-1p"]
    fam = ats_family()
    br, _ = induced_lie_bracket(alg, fam)
    e = alg.key(0)
    for i in range(-6, 7):
        for j in range(-6, 7):
            got = {k: c for k, c in br(pair(e, tee(i)), pair(e, tee(j))).items() if c}
            want = {pair(e, tee(i + j - 1)): F(j - i)} if i != j else {}
            assert got == want, (i, j)
            c = i + j - 1
            got = {k: v for k, v in br(pair(e, tee(i)), pair(e, ess(j))).items() if v}
            want = {pair(e, ess(c)): F(c)} if c else {}
            assert got == want, (i, j)
            got = {k: v for k, v in br(pair(e, ess(j)), pair(e, tee(i))).items() if v}
            want = {pair(e, ess(c)): F(-c)} if c else {}
            assert got == want, (i, j)
            assert br(pair(e, ess(i)), pair(e, ess(j))) == {}, (i, j)
    v = affinization_probe(alg, fam, "algebra", Window(5))
    assert v.is_law and v.window_report.passed and v.agree
    _ok("criterion 4: induced bracket matches the closed form, |i|,|j| <= 6")


def test_criterion_05_affinization_converse_probes():
    fam = ats_family()
    rng = random.Random(7)
    agree = 0
    for _ in range(100):
        alg = FiniteAlgebra(
            id="probe", space="PR", dim=2, labels=("a", "b"), kind="none",
            mul=random_table(rng, 2),
        )
        v = affinization_probe(alg, fam, "algebra", Window(5))
        agree += 1 if v.agree else 0
    assert agree == 100
    agree = 0
    for _ in range(100):
        dt = {}
        for src in range(2):
            terms = tuple(
                (i, j, F(rng.randint(-2, 2)))
                for i in range(2)
                for j in range(2)
                if rng.random() < 0.5
            )
            terms = tuple((i, j, c) for i, j, c in terms if c)
            if terms:
                dt[src] = terms
        alg = FiniteAlgebra(
            id="probe", space="PR", dim=2, labels=("a", "b"), kind="none",
            mul={}, delta=dt,
        )
        v = affinization_probe(alg, fam, "coalgebra", Window(4), delta_table=dt)
        agree += 1 if v.agree else 0
    assert agree == 100
    _ok("criterion 5: 100/100 probe agreement in both directions")


def _expected_cobracket_rows(alg, fam, key, bound):
    """Closed-form rows of the induced cobracket on the 1-dim idempotent."""
    e = alg.key(0)
    i = key[1]
    rows = {}
    for k in range(-bound - 8, bound + 9):
        if key[0] == "Tee":
            rows[(pair(e, ess(-k)), pair(e, tee(i + k - 1)))] = F(i)
            rows[(pair(e, tee(i + k - 1)), pair(e, ess(-k)))] = F(-i)
        else:
            c = F(i + 2 * k - 1)
            cur = rows.get((pair(e, ess(-k)), pair(e, ess(i + k - 1))), F(0))
            rows[(pair(e, ess(-k)), pair(e, ess(i + k - 1)))] = cur + c
    return {
        kk: c
        for kk, c in rows.items()
        if c and all(abs(p[2][1]) <= bound for p in kk)
    }


def test_criterion_06_affinized_cobracket_rows_and_bialgebra_laws():
    alg = finite_catalog()["ex-1p"]
    fam = ats_family()
    w = Window(5)
    delta, sym_co = delta_bullet_rule(alg, fam)
    br, sbr = induced_lie_bracket(alg, fam)
    for g in fam.interior_keys(w, "cobracket-table"):
        got = {
            kk: c
            for kk, c in delta(pair(alg.key(0), g)).support_in_box(w.n).items()
            if c
        }
        assert got == _expected_cobracket_rows(alg, fam, g, w.n), g
    pk = pair_keys(alg, fam, w)
    assert check_bialgebra(
        LawId.LieBiCocycle, bracket=br, delta=delta, sym_bracket=sbr,
        keys=pk, window=w,
    ).passed
    assert check_coalgebra(
        LawId.CoLieSkew, delta=delta, sym_co=sym_co, keys=pk, window=w
    ).passed
    assert check_coalgebra(
        LawId.CoLieJacobi, delta=delta, sym_co=sym_co, keys=pk, window=w
    ).passed
    _ok("criterion 6: closed-form cobracket rows + Lie bialgebra laws at N=5")


def test_criterion_07_coproduct_from_form():
    afam = ats_family()
    cf = coproduct_from_form(afam)
    for key in afam.keys(Window(6)):
        assert (cf(key) - delta_a_family(key)).support_in_box(6) == {}, key
    pfam = perm_p_family()
    cf = coproduct_from_form(pfam)
    for key in pfam.keys(Window(6)):
        assert (cf(key) - delta_p_family(key)).support_in_box(6) == {}, key
    _ok("criterion 7: form-induced coproducts equal the named ones at N=6")


def test_criterion_08_ybe_pipeline():
    cat = finite_catalog()
    sd2 = cat["ex-sd2"]
    fam = ats_family()
    r = tensor_catalog()["r-sd2"][1]
    assert perm_ybe_residual(sd2, r) == {}
    dt = coboundary_delta_perm(sd2, r)
    assert check_bialgebra(LawId.PermBi, alg=sd2, delta_table=dt).passed
    _, sbr = induced_lie_bracket(sd2, fam)
    rt = affinize_r(r, fam)
    assert cybe_residual(sbr, rt, Window(5, 0)).passed
    # the four displayed cobracket rows at shape exponent 2
    E, Fk = sd2.key(0), sd2.key(1)
    k = m = 2
    dE = lie_delta_from_r(sbr, rt, pair(E, tee(k)))
    dEs = lie_delta_from_r(sbr, rt, pair(E, ess(m)))
    dF = lie_delta_from_r(sbr, rt, pair(Fk, tee(k)))
    dFs = lie_delta_from_r(sbr, rt, pair(Fk, ess(m)))
    for j in range(-3, 4):
        s = k + j - 1
        assert dE.coefficient_at((pair(E, tee(-j)), pair(Fk, ess(s)))) == F(-k)
        assert dE.coefficient_at((pair(Fk, tee(-j)), pair(E, ess(s)))) == F(-k)
        assert dE.coefficient_at((pair(Fk, ess(s)), pair(E, tee(-j)))) == F(k)
        assert dE.coefficient_at((pair(E, ess(s)), pair(Fk, tee(-j)))) == F(k)
        cf = F(2 * j + m - 1)
        assert dEs.coefficient_at((pair(E, ess(-j)), pair(Fk, ess(s)))) == cf
        assert dEs.coefficient_at((pair(Fk, ess(-j)), pair(E, ess(s)))) == cf
        assert dF.coefficient_at((pair(Fk, ess(s)), pair(Fk, tee(-j)))) == F(k)
        assert dF.coefficient_at((pair(Fk, tee(-j)), pair(Fk, ess(s)))) == F(-k)
        assert dFs.coefficient_at((pair(Fk, ess(-j)), pair(Fk, ess(s)))) == cf
    # commutative diagram at N=4
    work = FiniteAlgebra(
        id=sd2.id, space=sd2.space, dim=sd2.dim, labels=sd2.labels,
        kind=sd2.kind, mul=sd2.mul, delta=dt,
    )
    delta, _ = delta_bullet_rule(work, fam)
    for key in pair_keys(sd2, fam, Window(4)):
        diff = (delta(key) - lie_delta_from_r(sbr, rt, key)).support_in_box(4)
        assert diff == {}, key
    _ok("criterion 8: YBE pipeline, CYBE at N=5, diagram at N=4")


def test_criterion_09_negative_controls():
    cat = finite_catalog()
    fam = ats_family()
    nilp = cat["ex-nilp2"]
    r_n = tensor_catalog()["r-nilp2"][1]
    assert perm_ybe_residual(nilp, r_n) != {}
    _, sbr = induced_lie_bracket(nilp, fam)
    rep = cybe_residual(sbr, affinize_r(r_n, fam), Window(3, 0))
    assert not rep.passed and rep.violations

    # perturbed coproduct: s-branch coefficient off by one
    from permlie.kernel import Poly, Template, TemplateSeries
    from permlie.families import delta_a_sym

    def bad_sym(p, fresh):
        out = []
        for v, poly, pats in delta_a_sym(p, fresh):
            if p[0] == "Ess":
                poly = poly + Poly.const(ONE)
            out.append((v, poly, pats))
        return out

    def bad_delta(key):
        return TemplateSeries(
            2,
            tuple(
                Template(tuple(v), poly, pats)
                for v, poly, pats in bad_sym(pat_const(key), Fresh("j"))
            ),
        )

    w = Window(4)
    rep = check_coalgebra(
        LawId.CoPreLie, delta=bad_delta, sym_co=bad_sym,
        keys=fam.interior_keys(w, "CoPreLie"), window=w,
    )
    assert not rep.passed and rep.violations

    # perturbed product: spurious t^(i+j) term
    def bad_prod(a, b):
        out = {}
        r = fam.product_one(a, b)
        if r is not None:
            add_term(out, r[1], r[0])
        if a[0] == "Tee" and b[0] == "Tee":
            add_term(out, tee(a[1] + b[1]), ONE)
        return out

    rep = check_algebra(
        LawId.PreLie, product=bad_prod, keys=fam.interior_keys(w, "PreLie")
    )
    assert not rep.passed and rep.violations

    rep = check_preperm(cat["ex-preperm-bad"])
    assert not rep.passed and rep.violations
    _ok("criterion 9: every negative control fails with witnesses")


def test_criterion_10_three_way_equivalence():
    cat = finite_catalog()
    p1 = cat["ex-1p"]
    fam = ats_family()
    for delta in (p1.delta, {}):
        dt = dict(delta)
        work = FiniteAlgebra(
            id=p1.id, space=p1.space, dim=p1.dim, labels=p1.labels,
            kind=p1.kind, mul=p1.mul, delta=dt,
        )
        assert check_bialgebra(LawId.PermBi, alg=work, delta_table=dt).passed
        dual = dual_perm_algebra(p1, dt)
        l12, r12, l21, r21 = canonical_dual_actions(p1, dual)
        assert check_matched_pair(p1, dual, l12, r12, l21, r21).passed
        md = manin_double_from_bialgebra(p1, dt)
        assert md.passed, md.failing()
    md = manin_double_from_bialgebra(p1)
    lift = manin_lie_lift(md, fam, Window(4))
    for name, rep in lift.reports.items():
        assert rep.passed, name
    _ok("criterion 10: bialgebra = matched pair = Manin triple, lift at N=4")


def test_criterion_11_appendix():
    fam = ats_family()
    w1d = restricted_dual_double(wn_family(1))
    keys = fam.keys(Window(6))
    for a in keys:
        assert w1d.form_partners(a) == fam.form_partners(a)
        for b in keys:
            assert w1d.product_one(a, b) == fam.product_one(a, b)
            assert w1d.form(a, b) == fam.form(a, b)
    for n in (1, 2):
        search = invariant_form_search(n, Window(3))
        assert search["probe_vanishes"], n
        assert search["forced_zero_count"] == search["unknowns"], n
    cat = finite_catalog()
    for aid in sorted(a.id for a in cat.values() if a.kind == "PreLie"):
        alg = cat[aid]
        lie, gram_form = prelie_to_symplectic(alg)
        n = lie.dim
        gram = tuple(
            tuple(gram_form(lie.key(i), lie.key(j)) for j in range(n))
            for i in range(n)
        )
        back = symplectic_to_prelie(lie, gram)
        for i in range(n):
            for j in range(n):
                comm = {}
                for k, c in back.mul.get((i, j), ()):
                    comm[k] = comm.get(k, F(0)) + c
                for k, c in back.mul.get((j, i), ()):
                    comm[k] = comm.get(k, F(0)) - c
                comm = {k: v for k, v in comm.items() if v}
                want = {}
                for k, c in lie.mul.get((i, j), ()):
                    want[k] = want.get(k, F(0)) + c
                want = {k: v for k, v in want.items() if v}
                assert comm == want, (aid, i, j)
    _ok("criterion 11: restricted dual, degeneracy search, round trips")


def test_criterion_12_determinism():
    cmd = [
        sys.executable, "-m", "permlie.cli",
        "verify", "all", "--seed", "7", "--window", "6", "--format", "json",
    ]
    # The CLI runs from this checkout's src, installed or not.
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    a = subprocess.run(cmd, capture_output=True, text=True, env=env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert a.returncode == 0, a.stderr[-500:]
    assert b.returncode == 0
    assert a.stdout == b.stdout
    # The canonical bytes, pinned: a change that alters them on purpose
    # updates this digest and says so.
    digest = hashlib.sha256(a.stdout.encode()).hexdigest()
    assert digest == "caed785c349ed96e574281c6b9fca3b709e99e34b3213ebe3069cb85bdfcca1b"
    payload = json.loads(a.stdout)
    assert payload["passed"] is True
    _ok("criterion 12: two seeded full runs byte-identical")
