"""Affinization: induced brackets, cobracket rules, probes, form coproducts."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from permlie import affinize
from permlie.kernel import Window, add_term, av, ess, fin, pair, pat_const, tee, with_slots
from permlie.families import (
    FiniteAlgebra,
    ats_family,
    delta_a_family,
    delta_p_family,
    finite_catalog,
    perm_p_family,
    random_table,
    wn_family,
)
from permlie.axioms import LawId, _holds_on_patterns, check_bialgebra, check_coalgebra
from permlie.affinize import (
    _pair_jacobi_report,
    affinization_probe,
    coproduct_from_form,
    delta_bullet,
    delta_bullet_rule,
    induced_lie_bracket,
    pair_keys,
)
from helpers import conjugated_table, pat_eval, random_invertible
from key_loop_reference import bracket_by_keys

F = Fraction


def _e():
    return finite_catalog()["ex-1p"].key(0)


class TestInducedBracket:
    def test_tee_tee_rows(self):
        alg = finite_catalog()["ex-1p"]
        br, _ = induced_lie_bracket(alg, ats_family())
        e = _e()
        for i, j in ((2, 3), (-1, 4), (0, 0), (2, 2)):
            got = dict(br(pair(e, tee(i)), pair(e, tee(j))).items())
            want = {pair(e, tee(i + j - 1)): F(j - i)} if i != j else {}
            got = {k: c for k, c in got.items() if c}
            assert got == want, (i, j)

    def test_tee_ess_rows(self):
        alg = finite_catalog()["ex-1p"]
        br, _ = induced_lie_bracket(alg, ats_family())
        e = _e()
        for i, j in ((2, 3), (-1, 4), (1, 0)):
            got = {k: c for k, c in br(pair(e, tee(i)), pair(e, ess(j))).items() if c}
            c = i + j - 1
            want = {pair(e, ess(c)): F(c)} if c else {}
            assert got == want, (i, j)
            # and skew on the flip
            got = {k: c for k, c in br(pair(e, ess(j)), pair(e, tee(i))).items() if c}
            want = {pair(e, ess(c)): F(-c)} if c else {}
            assert got == want, (i, j)

    def test_ess_ess_vanishes(self):
        alg = finite_catalog()["ex-1p"]
        br, _ = induced_lie_bracket(alg, ats_family())
        e = _e()
        assert br(pair(e, ess(2)), pair(e, ess(-2))) == {}

    def test_bracket_skew(self):
        alg = finite_catalog()["ex-sd2"]
        br, _ = induced_lie_bracket(alg, ats_family())
        ks = pair_keys(alg, ats_family(), Window(2))
        for x in ks[:6]:
            for y in ks[:6]:
                a = {k: c for k, c in br(x, y).items() if c}
                b = {k: -c for k, c in br(y, x).items() if c}
                assert a == b


class TestBracketAgainstKeyReference:
    """induced_lie_bracket reads one rule on keys and on patterns; both
    readings against the bracket written on keys."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "family", [ats_family, lambda: wn_family(1), perm_p_family], ids=["ats", "w1", "permP"]
    )
    def test_random_tables(self, dim, family):
        rng = random.Random(7100 + dim)
        fam = family()
        nonzero = 0
        for t in range(4):
            alg = FiniteAlgebra(
                id=f"rnd{t}", space=f"R{t}", dim=dim, labels=tuple("abc"[:dim]), kind="none",
                mul=random_table(rng, dim),
            )
            br, sbr = induced_lie_bracket(alg, fam)
            ref = bracket_by_keys(alg, fam)
            keys = pair_keys(alg, fam, Window(2))
            for _ in range(150):
                x, y = rng.choice(keys), rng.choice(keys)
                want = ref(x, y)
                got = br(x, y)
                assert list(got.items()) == list(want.items()), (x, y)
                read = {}
                for c, p in sbr(pat_const(x), pat_const(y)):
                    add_term(read, pat_eval(p, {}), c.eval({}))
                assert sorted(read.items()) == sorted(want.items()), (x, y)
                nonzero += bool(want)
        assert nonzero >= 100, nonzero


class TestDeltaBullet:
    def test_tee_row_coefficients(self):
        alg = finite_catalog()["ex-1p"]
        fam = ats_family()
        e = _e()
        i = 2
        d = delta_bullet(alg, fam, pair(e, tee(i)))
        # sum_k i (e s^-k (x) e t^(i+k-1) - e t^(i+k-1) (x) e s^-k)
        for k in (-2, 0, 1, 3):
            assert d.coefficient_at(
                (pair(e, ess(-k)), pair(e, tee(i + k - 1)))
            ) == F(i)
            assert d.coefficient_at(
                (pair(e, tee(i + k - 1)), pair(e, ess(-k)))
            ) == F(-i)

    def test_ess_row_coefficients(self):
        alg = finite_catalog()["ex-1p"]
        fam = ats_family()
        e = _e()
        i = 2
        d = delta_bullet(alg, fam, pair(e, ess(i)))
        for k in (-2, 0, 1, 3):
            assert d.coefficient_at(
                (pair(e, ess(-k)), pair(e, ess(i + k - 1)))
            ) == F(i + 2 * k - 1)

    def test_rule_matches_pointwise(self):
        alg = finite_catalog()["ex-1p"]
        fam = ats_family()
        delta, _ = delta_bullet_rule(alg, fam)
        for key in pair_keys(alg, fam, Window(2)):
            diff = (delta(key) - delta_bullet(alg, fam, key)).support_in_box(3)
            assert diff == {}

    def test_pipeline_laws_small_window(self):
        alg = finite_catalog()["ex-1p"]
        fam = ats_family()
        delta, sym_co = delta_bullet_rule(alg, fam)
        br, sbr = induced_lie_bracket(alg, fam)
        w = Window(4)
        pk = pair_keys(alg, fam, w)
        assert check_bialgebra(
            LawId.LieBiCocycle,
            bracket=br,
            delta=delta,
            sym_bracket=sbr,
            keys=pk,
            window=w,
        ).passed
        assert check_coalgebra(
            LawId.CoLieSkew, delta=delta, sym_co=sym_co, keys=pk, window=w
        ).passed
        assert check_coalgebra(
            LawId.CoLieJacobi, delta=delta, sym_co=sym_co, keys=pk, window=w
        ).passed


class TestPairKeys:
    def test_count(self):
        alg = finite_catalog()["ex-sd2"]
        fam = ats_family()
        w = Window(2)
        assert len(pair_keys(alg, fam, w)) == alg.dim * len(fam.keys(w))


class TestProbes:
    def test_algebra_direction_on_perm(self):
        v = affinization_probe(
            finite_catalog()["ex-1p"], ats_family(), "algebra", Window(4)
        )
        assert v.is_law and v.agree
        assert v.direct_report.passed and v.window_report.passed

    def test_algebra_direction_on_broken(self):
        v = affinization_probe(
            finite_catalog()["ex-bad2"], ats_family(), "algebra", Window(3)
        )
        assert (not v.is_law) and v.agree
        assert not v.direct_report.passed
        assert not v.window_report.passed

    def test_coalgebra_direction(self):
        alg = finite_catalog()["ex-1p"]
        v = affinization_probe(
            alg, ats_family(), "coalgebra", Window(3), delta_table=alg.delta
        )
        assert v.is_law and v.agree


class TestCoproductFromForm:
    def test_matches_delta_a(self):
        fam = ats_family()
        cf = coproduct_from_form(fam)
        for key in fam.keys(Window(4)):
            assert (cf(key) - delta_a_family(key)).support_in_box(4) == {}

    def test_matches_delta_p(self):
        fam = perm_p_family()
        cf = coproduct_from_form(fam)
        for key in fam.keys(Window(3)):
            assert (cf(key) - delta_p_family(key)).support_in_box(3) == {}

    def test_family_without_form_raises(self):
        # a ValueError, which python -O keeps, unlike an assert
        with pytest.raises(ValueError, match="w1 has no form partner"):
            coproduct_from_form(wn_family(1))


# ---------------------------------------------------------------------------
# The pair-key Jacobi probe against the textbook identity of the induced
# bracket, with no LAW_PLANS row and no shared product words.


def _jacobi_oracle(alg, fam, window):
    """(passed, checked, extra, violations) of
    [[a, b], c] + [[b, c], a] + [[c, a], b] = 0 for induced_lie_bracket,
    swept over (ga, gb, gc, x, y, z) and stopped at the first failure."""
    bracket, _ = induced_lie_bracket(alg, fam)
    br = functools.lru_cache(maxsize=None)(lambda a, b: tuple(bracket(a, b).items()))

    def nested(a, b, c):
        out = {}
        for k, v in br(a, b):
            for k2, v2 in br(k, c):
                out[k2] = out.get(k2, 0) + v * v2
        return out

    checked = 0
    for gs in itertools.product(fam.keys(window), repeat=3):
        for xs in itertools.product(alg.basis_keys(), repeat=3):
            checked += 1
            a, b, c = (pair(x, g) for x, g in zip(xs, gs))
            total = {}
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                for k, val in nested(u, v, w).items():
                    total[k] = total.get(k, 0) + val
            res = tuple(sorted((k, v) for k, v in total.items() if v))
            if res:
                extra = {"early_exit": True, "violations_total": 1}
                return False, checked, extra, [("jacobi", (a, b, c), res)]
    return True, checked, {"violations_total": 0}, []


def _jacobi_inputs():
    """The catalog, then seeded random tables of dimension 1-3.  Every third
    is a random basis change of a catalog perm algebra, so passing sweeps of
    dimension 2 run in full; one-dimensional tables are perm and pass too."""
    cat = finite_catalog()
    out = list(cat.values())
    perms = [cat["ex-1p"], cat["ex-sd2"], cat["ex-nilp2"]]
    rng = random.Random(2903)
    for t in range(12):
        if t % 3 == 0:
            base = perms[t // 3 % 3]
            d = base.dim
            mul = conjugated_table(base.mul, random_invertible(rng, d), d)
        else:
            d = 1 + t % 3
            mul = random_table(rng, d)
        labels = tuple(f"x{i}" for i in range(d))
        out.append(FiniteAlgebra(id=f"rnd{t}", space=f"R{t}", dim=d, labels=labels, kind="none", mul=mul))
    return out


class TestPairJacobiOracle:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("fam", [ats_family(), wn_family(1)], ids=["ats", "w1"])
    def test_probe_matches_oracle(self, fam, n):
        outcomes = set()
        for alg in _jacobi_inputs():
            rep = _pair_jacobi_report(alg, fam, Window(n))
            got = (rep.passed, rep.checked, rep.extra, rep.violations)
            assert got == _jacobi_oracle(alg, fam, Window(n)), alg.id
            outcomes.add((alg.dim, rep.passed))
        # passing and failing sweeps at every dimension the inputs reach
        assert {(1, True), (2, True), (2, False), (3, False)} <= outcomes

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("fam", [ats_family(), wn_family(1)], ids=["ats", "w1"])
    def test_proof_closes_exactly_when_the_sweep_passes(self, fam, n, monkeypatch):
        window = Window(n)
        reports = {alg.id: _pair_jacobi_report(alg, fam, window) for alg in _jacobi_inputs()}
        monkeypatch.setattr(affinize, "_holds_on_patterns", lambda *args: False)
        outcomes = set()
        for alg in _jacobi_inputs():
            _, sym_bracket = induced_lie_bracket(alg, fam)
            proved = _holds_on_patterns(LawId.LieJacobi, sym_bracket, pair_keys(alg, fam, window))
            sweep = _pair_jacobi_report(alg, fam, window)
            assert proved == sweep.passed, alg.id
            assert reports[alg.id] == sweep, alg.id
            outcomes.add((alg.dim, sweep.passed))
        # the sweep still runs in full on passing inputs of dimension 1 and 2
        assert {(1, True), (2, True)} <= outcomes

    def test_proof_beyond_the_sweep(self):
        # 162 graded keys at N=40: up to 3.4e7 Pair-key triples, proved on
        # patterns without a sweep
        fam = ats_family()
        window = Window(40)
        cat = finite_catalog()
        for alg in (cat["ex-1p"], cat["ex-sd2"]):
            _, sym_bracket = induced_lie_bracket(alg, fam)
            pkeys = pair_keys(alg, fam, window)
            assert _holds_on_patterns(LawId.LieJacobi, sym_bracket, pkeys), alg.id
            rep = _pair_jacobi_report(alg, fam, window)
            assert rep.passed and rep.n == 40
            assert rep.checked == (alg.dim * len(fam.keys(window))) ** 3 == (alg.dim * 162) ** 3
            assert rep.extra == {"violations_total": 0}

    # A slot value has no answer on a pattern: the rule raises TypeError
    # there, and the probe sweeps the window.
    @pytest.mark.parametrize("scale", [1, 2], ids=["same-product", "scaled-at-zero"])
    def test_rule_branching_on_a_slot_falls_back_to_the_sweep(self, scale):
        base = ats_family().rule

        def rule(x, y):
            r = base(x, y)
            if r is not None and x[1] == 0:
                return (scale * r[0], r[1])
            return r

        fam = dataclasses.replace(ats_family(), rule=rule)
        pat = with_slots(tee(0), [av("a")])
        with pytest.raises(TypeError):
            fam.sym_product(pat, pat)
        alg = finite_catalog()["ex-sd2"]
        rep = _pair_jacobi_report(alg, fam, Window(2))
        got = (rep.passed, rep.checked, rep.extra, rep.violations)
        assert got == _jacobi_oracle(alg, fam, Window(2))
        assert rep.passed == (scale == 1)
