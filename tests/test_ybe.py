"""Quadratic equations: perm-YBE, S-equation, CYBE, and coboundary structures."""

import hashlib
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from permlie.kernel import CheckReport, Window, coproduct_at, ess, pair, tee
from permlie.families import (
    FiniteAlgebra,
    TensorElement,
    adjoint_representation,
    ats_family,
    finite_catalog,
    preperm_representation,
    random_table,
    tensor_catalog,
    wn_family,
)
from permlie.axioms import (
    LawId,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_matched_pair,
)
from permlie.affinize import induced_lie_bracket
from permlie.ybe import (
    OOperatorError,
    affinize_r,
    coboundary_coalgebra_report,
    coboundary_delta_perm,
    coboundary_delta_prelie,
    cybe_residual,
    grid_search_symmetric_r,
    lie_delta_from_r,
    o_to_ybe,
    perm_ybe_residual,
    r_sharp,
    s_equation_residual,
)
from permlie.doubles import canonical_dual_actions, dual_perm_algebra
from permlie.serialize import (
    canonical_json,
    encode_value,
    report_to_json,
    tensor_to_json,
)
from permlie.cli import _worked_cobracket_report

from diagram_reference import worked_cobracket_by_points
from finite_reference import r_sharp_closure
from helpers import conjugated_table, random_delta, random_invertible
from ybe_reference import ThreeTensor, cybe_residual_by_loop, three_tensor_to_json

F = Fraction


class TestPermYbeResidual:
    def test_catalog_solutions_are_zero(self):
        cat = finite_catalog()
        tens = tensor_catalog()
        assert perm_ybe_residual(cat["ex-sd2"], tens["r-sd2"][1]).is_zero()
        assert perm_ybe_residual(cat["ex-1p"], tens["r-1p"][1]).is_zero()

    def test_nilpotent_nonsolution_residual(self):
        cat = finite_catalog()
        nilp = cat["ex-nilp2"]
        res = perm_ybe_residual(nilp, tensor_catalog()["r-nilp2"][1])
        k0, k1 = nilp.key(0), nilp.key(1)
        assert res == TensorElement.of([(k0, k1, k0, F(1)), (k0, k0, k1, F(-1))])

    def test_empty_tensor_is_solution(self):
        cat = finite_catalog()
        assert perm_ybe_residual(cat["ex-sd2"], TensorElement.of([])).is_zero()


class TestSEquation:
    def test_known_residual(self):
        cat = finite_catalog()
        pl2 = cat["ex-prelie-n2"]
        res = s_equation_residual(pl2, tensor_catalog()["r-prelie-n2"][1])
        q0, q1 = pl2.key(0), pl2.key(1)
        assert res == TensorElement.of([(q1, q0, q0, F(-1)), (q0, q1, q0, F(1))])


class TestCoboundaryTables:
    def test_perm_tables(self):
        cat = finite_catalog()
        tens = tensor_catalog()
        d = coboundary_delta_perm(cat["ex-1p"], tens["r-1p"][1])
        assert d == {0: ((0, 0, F(1)),)}
        d = coboundary_delta_perm(cat["ex-sd2"], tens["r-sd2"][1])
        assert d == {0: ((0, 1, F(1)), (1, 0, F(1))), 1: ((1, 1, F(1)),)}

    def test_prelie_table(self):
        pl1 = finite_catalog()["ex-prelie-1"]
        r = TensorElement.of([(pl1.key(0), pl1.key(0), F(1))])
        assert coboundary_delta_prelie(pl1, r) == {0: ((0, 0, F(1)),)}

    def test_pb1_automatic_for_any_r(self):
        # the first compatibility never constrains a coboundary coproduct
        cat = finite_catalog()
        rng = random.Random(11)
        for trial in range(30):
            alg = cat["ex-sd2"] if trial % 2 else cat["ex-nilp2"]
            terms = []
            for i in range(2):
                for j in range(2):
                    v = rng.randint(-3, 3)
                    if v:
                        terms.append((alg.key(i), alg.key(j), F(v)))
            dt = coboundary_delta_perm(alg, TensorElement.of(terms))
            rep = check_bialgebra(LawId.PermBi, alg=alg, delta_table=dt)
            assert not [v for v in rep.violations if v[0] == "pb1"]

    def test_symmetric_solution_gives_bialgebra(self):
        cat = finite_catalog()
        tens = tensor_catalog()
        for nm, rnm in (("ex-sd2", "r-sd2"), ("ex-1p", "r-1p")):
            alg, r = cat[nm], tens[rnm][1]
            assert r.is_symmetric()
            dt = coboundary_delta_perm(alg, r)
            assert check_bialgebra(LawId.PermBi, alg=alg, delta_table=dt).passed


class TestCoalgebraCriterion:
    def test_agrees_with_direct_check(self):
        cat = finite_catalog()
        rng = random.Random(11)
        for trial in range(40):
            alg = cat["ex-sd2"] if trial % 2 else cat["ex-nilp2"]
            if trial % 5 == 0:
                s = random_invertible(rng, 2)
                alg = FiniteAlgebra(
                    id="rnd", space="R", dim=2, labels=("a", "b"), kind="Perm",
                    mul=conjugated_table(alg.mul, s, 2),
                )
            terms = []
            for i in range(2):
                for j in range(2):
                    v = rng.randint(-2, 2)
                    if v:
                        terms.append((alg.key(i), alg.key(j), F(v)))
            r = TensorElement.of(terms)
            work = FiniteAlgebra(
                id=alg.id, space=alg.space, dim=alg.dim, labels=alg.labels,
                kind=alg.kind, mul=alg.mul, delta=coboundary_delta_perm(alg, r),
            )
            direct = check_coalgebra(
                LawId.CoPerm,
                delta=lambda k: coproduct_at(work.sym_delta, k),
                sym_co=work.sym_delta,
                keys=work.basis_keys(),
                window=Window(0, 0),
                margin=0,
            )
            crit = coboundary_coalgebra_report(alg, r)
            assert direct.passed == crit.passed, trial


class TestRSharp:
    def test_matrices(self):
        cat = finite_catalog()
        tens = tensor_catalog()
        mat, rep = r_sharp(cat["ex-sd2"], tens["r-sd2"][1])
        assert mat == ((F(0), F(1)), (F(1), F(0)))
        assert rep.passed
        _, rep = r_sharp(cat["ex-nilp2"], tens["r-nilp2"][1])
        assert not rep.passed
        _, rep = r_sharp(cat["ex-1p"], tens["r-1p"][1])
        assert rep.passed

    def test_criterion_matches_residual_for_symmetric_r(self):
        cat = finite_catalog()
        rng = random.Random(7)
        for trial in range(30):
            alg = cat["ex-sd2"] if trial % 2 else cat["ex-nilp2"]
            terms = []
            for i in range(2):
                for j in range(i, 2):
                    v = rng.randint(-2, 2)
                    if v:
                        terms.append((alg.key(i), alg.key(j), F(v)))
                        if i != j:
                            terms.append((alg.key(j), alg.key(i), F(v)))
            r = TensorElement.of(terms)
            assert r.is_symmetric()
            rep = _r_sharp_matches_closure(alg, r)
            assert rep.passed == perm_ybe_residual(alg, r).is_zero(), trial

    def test_catalog_tensors_match_closure(self):
        cat = finite_catalog()
        for alg_id, r in tensor_catalog().values():
            _r_sharp_matches_closure(cat[alg_id], r)


def _r_sharp_matches_closure(alg, r):
    """r_sharp's report, checked against the closure criterion written out:
    the same verdict, the same kept (at, residual) witnesses, the same total."""
    mat, rep = r_sharp(alg, r)
    want = r_sharp_closure(alg, mat)
    assert rep.passed == (not want)
    assert [(at, res) for _, at, res in rep.violations] == want[: len(rep.violations)]
    assert len(rep.violations) == min(len(want), 25)
    assert rep.extra["violations_total"] == len(want)
    return rep


class TestOOperatorRoute:
    def test_identity_on_preperm_gives_solution(self):
        pp = finite_catalog()["ex-preperm-1"]
        rep = preperm_representation(pp)
        double, r = o_to_ybe(((F(1),),), pp, rep)
        assert double.dim == 2
        e, es = double.key(0), double.key(1)
        assert r == TensorElement.of([(e, es, F(1)), (es, e, F(1))])
        assert perm_ybe_residual(double, r).is_zero()

    def test_scaled_map_still_works_here(self):
        pp = finite_catalog()["ex-preperm-1"]
        d2, r2 = o_to_ybe(((F(2),),), pp, preperm_representation(pp))
        assert perm_ybe_residual(d2, r2).is_zero()

    def test_identity_on_adjoint_raises(self):
        onep = finite_catalog()["ex-1p"]
        with pytest.raises(OOperatorError) as err:
            o_to_ybe(((F(1),),), onep, adjoint_representation(onep))
        assert not err.value.report.passed
        assert err.value.report.violations


class TestGridSearch:
    def test_dim1_counts(self):
        sols = grid_search_symmetric_r(finite_catalog()["ex-1p"], 2)
        assert len(sols) == 5

    def test_nilpotent_counts_and_validity(self):
        nilp = finite_catalog()["ex-nilp2"]
        sols = grid_search_symmetric_r(nilp, 1)
        assert len(sols) == 9
        for s in sols:
            assert perm_ybe_residual(nilp, s).is_zero()


class TestAffinizeR:
    def test_coefficients(self):
        onep = finite_catalog()["ex-1p"]
        rt = affinize_r(tensor_catalog()["r-1p"][1], ats_family())
        P = onep.key(0)
        assert rt.coefficient_at((pair(P, tee(2)), pair(P, ess(-2)))) == F(1)
        assert rt.coefficient_at((pair(P, ess(-2)), pair(P, tee(2)))) == F(-1)
        assert rt.coefficient_at((pair(P, tee(2)), pair(P, tee(-2)))) == F(0)

    def test_result_is_skew(self):
        tens = tensor_catalog()
        for name in ("r-sd2", "r-1p", "r-nilp2"):
            r = tens[name][1]
            assert r.is_symmetric()
            rt = affinize_r(r, ats_family())
            assert (rt + rt.flip_hat()).support_in_box(4) == {}, name

    def test_family_without_pairing_rejected(self):
        with pytest.raises(ValueError):
            affinize_r(tensor_catalog()["r-1p"][1], wn_family(1))

    def test_symmetric_pairing_fails_the_skew_self_check(self):
        # a symmetric family pairing affinizes a symmetric r to a symmetric
        # tensor, which the skew check of ybe:affinized-skew reports
        fam = ats_family()
        bent = replace(fam, partner=lambda x: (1, fam.partner(x)[1]))
        rt = affinize_r(tensor_catalog()["r-1p"][1], bent)
        assert (rt + rt.flip_hat()).support_in_box(3) != {}


class TestWorkedCobracket:
    def test_all_four_rows(self):
        cat = finite_catalog()
        sd2 = cat["ex-sd2"]
        fam = ats_family()
        _, sbr = induced_lie_bracket(sd2, fam)
        rt = affinize_r(tensor_catalog()["r-sd2"][1], fam)
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
            assert dE.coefficient_at((pair(E, tee(-j)), pair(E, ess(s)))) == F(0)
            cf = F(2 * j + m - 1)
            assert dEs.coefficient_at((pair(E, ess(-j)), pair(Fk, ess(s)))) == cf
            assert dEs.coefficient_at((pair(Fk, ess(-j)), pair(E, ess(s)))) == cf
            assert dEs.coefficient_at((pair(E, ess(-j)), pair(E, ess(s)))) == F(0)
            assert dF.coefficient_at((pair(Fk, ess(s)), pair(Fk, tee(-j)))) == F(k)
            assert dF.coefficient_at((pair(Fk, tee(-j)), pair(Fk, ess(s)))) == F(-k)
            assert dF.coefficient_at((pair(E, tee(-j)), pair(Fk, ess(s)))) == F(0)
            assert dFs.coefficient_at((pair(Fk, ess(-j)), pair(Fk, ess(s)))) == cf
            assert dFs.coefficient_at((pair(E, ess(-j)), pair(Fk, ess(s)))) == F(0)

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_report_matches_points(self, bound):
        fast = _worked_cobracket_report(bound)
        ref = worked_cobracket_by_points(bound)
        assert fast.passed
        assert canonical_json(report_to_json(fast)) == canonical_json(report_to_json(ref))


class TestCybe:
    def test_solution_passes(self):
        cat = finite_catalog()
        fam = ats_family()
        _, sbr = induced_lie_bracket(cat["ex-sd2"], fam)
        rt = affinize_r(tensor_catalog()["r-sd2"][1], fam)
        assert cybe_residual(sbr, rt, Window(3, 0)).passed

    def test_nonsolution_fails(self):
        cat = finite_catalog()
        fam = ats_family()
        _, sbr = induced_lie_bracket(cat["ex-nilp2"], fam)
        rt = affinize_r(tensor_catalog()["r-nilp2"][1], fam)
        rep = cybe_residual(sbr, rt, Window(3, 0))
        assert not rep.passed and rep.violations

    def test_window_guard(self):
        cat = finite_catalog()
        fam = ats_family()
        _, sbr = induced_lie_bracket(cat["ex-sd2"], fam)
        rt = affinize_r(tensor_catalog()["r-sd2"][1], fam)
        with pytest.raises(Exception):
            cybe_residual(sbr, rt, Window(0, 0))


def _cybe_cases():
    """(name, algebra, r): the catalog solution, the nilpotent non-solution
    and seeded random r, symmetric or not, on the same two algebras."""
    cat = finite_catalog()
    tens = tensor_catalog()
    sd2, nilp = cat["ex-sd2"], cat["ex-nilp2"]
    cases = [("r-sd2", sd2, tens["r-sd2"][1]), ("r-nilp2", nilp, tens["r-nilp2"][1])]
    rng = random.Random(31)
    for i, alg in enumerate((sd2, nilp, sd2, nilp)):
        cases.append((f"random-{i}", alg, _random_r(rng, alg, symmetric=i < 2)))
    return cases


class TestCybeAgainstLoop:
    """cybe_residual, one signed plan through _plan_residual, against the
    loop over the three brackets that it replaced."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_report_equals_loop(self, n):
        fam = ats_family()
        verdicts = {}
        for name, alg, r in _cybe_cases():
            _, sbr = induced_lie_bracket(alg, fam)
            rt = affinize_r(r, fam)
            got = cybe_residual(sbr, rt, Window(n, 0))
            ref = cybe_residual_by_loop(sbr, rt, Window(n, 0))
            for f in fields(CheckReport):
                assert getattr(got, f.name) == getattr(ref, f.name), (name, f.name)
            verdicts[name] = got.passed
        assert verdicts["r-sd2"] and not verdicts["r-nilp2"]
        assert not all(verdicts.values())


class TestTensorAgainstThreeTensor:
    """TensorElement at arity 3 against the three-tensor type it replaced:
    the same canonical terms and the same JSON bytes."""

    def test_random_terms(self):
        cat = finite_catalog()
        pool = [cat["ex-sd2"].key(0), cat["ex-sd2"].key(1), cat["ex-nilp2"].key(0)]
        rng = random.Random(37)
        for _ in range(300):
            terms = [
                (*(rng.choice(pool) for _ in range(3)), F(rng.randint(-2, 2), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 10))
            ]
            got, ref = TensorElement.of(terms), ThreeTensor.of(terms)
            assert got.terms == ref.terms
            assert got.is_zero() == (not ref.terms)
            assert canonical_json(tensor_to_json(got)) == canonical_json(three_tensor_to_json(ref))

    def test_residuals(self):
        rng = random.Random(41)
        for alg in _pin_algebras():
            for symmetric in (True, False, True, False):
                r = _random_r(rng, alg, symmetric)
                for res in (perm_ybe_residual(alg, r), s_equation_residual(alg, r)):
                    ref = ThreeTensor.of(res.terms)
                    assert res.terms == ref.terms
                    assert tensor_to_json(res) == three_tensor_to_json(ref)


class TestPreLieBi:
    def test_catalog_coproduct_passes(self):
        pl1 = finite_catalog()["ex-prelie-1"]
        assert check_bialgebra(LawId.PreLieBi, alg=pl1).passed

    def test_coboundary_coproduct_passes(self):
        pl2 = finite_catalog()["ex-prelie-n2"]
        dt = coboundary_delta_prelie(pl2, tensor_catalog()["r-prelie-n2"][1])
        assert check_bialgebra(LawId.PreLieBi, alg=pl2, delta_table=dt).passed

    def test_bad_coproduct_fails_with_witnesses(self):
        pl2 = finite_catalog()["ex-prelie-n2"]
        rep = check_bialgebra(LawId.PreLieBi, alg=pl2, delta_table={1: ((0, 0, F(1)),)})
        assert not rep.passed
        labels = {v[0] for v in rep.violations}
        assert labels == {"plb-flip", "plb-sym"}
        for _, at, res in rep.violations:
            assert all(isinstance(i, int) for i in at)
            assert res and all(isinstance(i, int) for (ij, _) in res for i in ij)


def _random_r(rng, alg, symmetric=False):
    terms = []
    for i in range(alg.dim):
        for j in range(i if symmetric else 0, alg.dim):
            v = rng.randint(-2, 2)
            if v:
                terms.append((alg.key(i), alg.key(j), F(v)))
                if symmetric and i != j:
                    terms.append((alg.key(j), alg.key(i), F(v)))
    return TensorElement.of(terms)


class TestPermBiMatchedPairOracle:
    """A perm bialgebra is the same thing as a matched pair of the algebra and
    its dual under the canonical transposed actions, so the two checks must
    give the same verdict on every (A, Delta) whose dual is perm."""

    def test_verdicts_agree(self):
        cat = finite_catalog()
        algs = [cat[n] for n in ("ex-1p", "ex-sd2", "ex-nilp2")]
        rng = random.Random(5)
        seen = {True: 0, False: 0}
        while sum(seen.values()) < 200:
            alg = rng.choice(algs)
            delta = random_delta(rng, alg.dim, -1, 1, density=2)
            dual = dual_perm_algebra(alg, delta)
            if not check_algebra(LawId.Perm, alg=dual).passed:
                continue
            bi = check_bialgebra(LawId.PermBi, alg=alg, delta_table=delta)
            mp = check_matched_pair(alg, dual, *canonical_dual_actions(alg, dual))
            assert bi.passed == mp.passed, (alg.id, delta)
            seen[bi.passed] += 1
        assert seen[True] and seen[False]


def _pin_algebras():
    cat = finite_catalog()
    algs = [
        cat[n]
        for n in ("ex-1p", "ex-sd2", "ex-nilp2", "ex-bad2", "ex-prelie-n2", "ex-prelie-1")
    ]
    rng = random.Random(13)
    for base in (cat["ex-sd2"], cat["ex-prelie-n2"]):
        s = random_invertible(rng, 2)
        algs.append(
            FiniteAlgebra(
                id=f"{base.id}-conj", space=f"{base.space}C", dim=2, labels=("a", "b"),
                kind=base.kind, mul=conjugated_table(base.mul, s, 2),
            )
        )
    # ex-sd2 (+) ex-1p, a three-dimensional perm algebra, and two random tables
    algs.append(
        FiniteAlgebra(
            id="sd2+1p", space="S3", dim=3, labels=("e", "f", "g"), kind="Perm",
            mul={**cat["ex-sd2"].mul, (2, 2): ((2, F(1)),)},
        )
    )
    for t in range(2):
        algs.append(
            FiniteAlgebra(
                id=f"rnd3-{t}", space=f"R{t}", dim=3, labels=("a", "b", "c"),
                kind="none", mul=random_table(rng, 3, density=F(1, 3)),
            )
        )
    return algs


def _finite_outputs_payload():
    """Canonical JSON of the finite bialgebra reports, Yang-Baxter residuals,
    coboundary tables and coboundary coalgebra reports on a seeded corpus."""
    algs = _pin_algebras()
    tens = tensor_catalog()
    rng = random.Random(29)
    out = {"bialgebra": [], "ybe": []}
    for alg in algs:
        deltas = [alg.delta] if alg.delta else []
        deltas += [coboundary_delta_perm(alg, _random_r(rng, alg, True)) for _ in range(3)]
        deltas += [coboundary_delta_prelie(alg, _random_r(rng, alg)) for _ in range(3)]
        while len(deltas) < 24:
            deltas.append(random_delta(rng, alg.dim, density=rng.choice((2, 3, 5))))
        for delta in deltas:
            out["bialgebra"].append(
                [
                    alg.id,
                    encode_value(delta),
                    report_to_json(check_bialgebra(LawId.PermBi, alg=alg, delta_table=delta)),
                    report_to_json(check_bialgebra(LawId.PreLieBi, alg=alg, delta_table=delta)),
                ]
            )
        rs = [t for a, t in tens.values() if a == alg.id]
        while len(rs) < 24:
            rs.append(_random_r(rng, alg, symmetric=len(rs) % 3 == 0))
        for r in rs:
            out["ybe"].append(
                [
                    alg.id,
                    tensor_to_json(r),
                    tensor_to_json(perm_ybe_residual(alg, r)),
                    tensor_to_json(s_equation_residual(alg, r)),
                    encode_value(coboundary_delta_perm(alg, r)),
                    encode_value(coboundary_delta_prelie(alg, r)),
                    report_to_json(coboundary_coalgebra_report(alg, r)),
                ]
            )
    return out


class TestFiniteOutputsPin:
    """Byte pin of the finite outputs, failing witnesses included."""

    def test_canonical_json_digest(self):
        payload = _finite_outputs_payload()
        bi, yb = payload["bialgebra"], payload["ybe"]
        assert len(bi) >= 250 and len(yb) >= 250
        for idx in (2, 3):
            verdicts = {row[idx]["passed"] for row in bi}
            assert verdicts == {True, False}
        assert {row[6]["passed"] for row in yb} == {True, False}
        assert any(row[2] for row in yb) and any(not row[2] for row in yb)
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        assert digest == "f9ff68d5de8d0d4a169dedf394b35a94c133ad6cf513ec34da65195bd420fde1"
