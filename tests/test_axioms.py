"""Law checkers: algebra, coalgebra, form, matched pair, O-operator."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from permlie.kernel import (
    InsufficientWindowError,
    Poly,
    Template,
    TemplateSeries,
    Window,
    ess,
    key_degree,
    mono,
    pat_const,
    tee,
)
from permlie.families import (
    FiniteAlgebra,
    FormalVector,
    a_ts_product,
    adjoint_representation,
    ats_family,
    delta_a_family,
    delta_a_sym,
    delta_p_family,
    finite_catalog,
    perm_p_family,
    random_table,
    wn_family,
)
from permlie.axioms import (
    LawId,
    check_algebra,
    check_coalgebra,
    check_form,
    check_matched_pair,
    check_o_operator,
    check_preperm,
    check_representation,
)
from permlie.cli import _perturbed_ats_product
from permlie.doubles import (
    canonical_dual_actions,
    dual_perm_algebra,
    restricted_dual_double,
)

F = Fraction
ONE = F(1)


class TestAlgebraPaths:
    def test_family_path(self):
        rep = check_algebra(LawId.Perm, family=perm_p_family(), window=Window(3))
        assert rep.passed and rep.checked > 0

    def test_family_needs_window(self):
        with pytest.raises(ValueError):
            check_algebra(LawId.Perm, family=perm_p_family())

    def test_alg_path(self):
        rep = check_algebra(LawId.Perm, alg=finite_catalog()["ex-sd2"])
        assert rep.passed

    def test_product_keys_path(self):
        fam = ats_family()

        def product(a, b):
            r = a_ts_product(a, b)
            out = FormalVector()
            if r is not None:
                out.add_term(r[1], r[0])
            return out

        w = Window(3)
        rep = check_algebra(
            LawId.PreLie,
            product=product,
            keys=fam.interior_keys(w, LawId.PreLie.value),
        )
        assert rep.passed

    def test_missing_inputs_raise(self):
        with pytest.raises(ValueError):
            check_algebra(LawId.Perm)

    def test_insufficient_window(self):
        with pytest.raises(InsufficientWindowError):
            check_algebra(LawId.Perm, family=perm_p_family(), window=Window(1))


class TestAlgebraNegatives:
    def test_broken_perm_table(self):
        rep = check_algebra(LawId.Perm, alg=finite_catalog()["ex-bad2"])
        assert not rep.passed
        assert rep.violations
        labels = {v[0] for v in rep.violations}
        assert labels <= {"assoc", "left-comm"}

    def test_perturbed_ats_product_fails_prelie(self):
        # spurious t^(i+j) term added to t^i . t^j
        def bad(a, b):
            out = FormalVector()
            r = a_ts_product(a, b)
            if r is not None:
                out.add_term(r[1], r[0])
            if a[0] == "Tee" and b[0] == "Tee":
                out.add_term(tee(a[1] + b[1]), ONE)
            return out

        fam = ats_family()
        w = Window(4)
        rep = check_algebra(
            LawId.PreLie, product=bad, keys=fam.interior_keys(w, "PreLie")
        )
        assert not rep.passed
        assert len(rep.violations) == 25
        assert rep.violations[0][0] == "pre-lie"


def _oracle(law, keys, product):
    """A law checked straight from its textbook identity, with plain
    FormalVector sums: (passed, checked, extra, violations) as check_algebra
    reports them, keeping the first 25 violations in (a, b, c, label) order."""
    memo = {}

    def mul(u, v):
        out = FormalVector()
        for ka, ca in u.items():
            for kb, cb in v.items():
                if (ka, kb) not in memo:
                    memo[(ka, kb)] = product(ka, kb)
                out.add_vec(memo[(ka, kb)], ca * cb)
        return out

    def identities(a, b, c=None):
        if law == LawId.LieSkew:
            return [("skew", mul(a, b) + mul(b, a))]
        abc = mul(mul(a, b), c)
        if law == LawId.LieJacobi:
            return [("jacobi", abc + mul(mul(b, c), a) + mul(mul(c, a), b))]
        if law == LawId.Perm:
            return [
                ("assoc", abc - mul(a, mul(b, c))),
                ("left-comm", abc - mul(mul(b, a), c)),
            ]
        rows = [("pre-lie", abc - mul(a, mul(b, c)) - mul(mul(b, a), c) + mul(b, mul(a, c)))]
        if law == LawId.Novikov:
            rows.append(("right-comm", abc - mul(mul(a, c), b)))
        return rows

    arity = 2 if law == LawId.LieSkew else 3
    found = []
    for at in itertools.product(keys, repeat=arity):
        for label, res in identities(*(FormalVector.single(k) for k in at)):
            if res:
                found.append((label, at, tuple(res.sorted_items())))
    extra = {"violations_total": len(found)}
    if len(found) > 25:
        extra["violations_truncated"] = True
    kept = sorted(found[:25], key=lambda v: (v[0], v[1]))
    return (not found, len(keys) ** arity, extra, kept)


def _vector_product(one):
    def product(a, b):
        r = one(a, b)
        return FormalVector() if r is None else FormalVector.single(r[1], r[0])

    return product


ALGEBRA_LAWS = [LawId.Perm, LawId.PreLie, LawId.Novikov, LawId.LieJacobi, LawId.LieSkew]


def _random_algebras():
    rng = random.Random(2409)
    return [
        FiniteAlgebra(
            id=f"rand{t}",
            space=f"R{t}",
            dim=2 + t % 2,
            labels=tuple(f"e{i}" for i in range(2 + t % 2)),
            kind="none",
            mul=random_table(rng, 2 + t % 2),
        )
        for t in range(40)
    ]


class TestLawOracle:
    """check_algebra against the oracle on every input kind."""

    def assert_matches(self, rep, law, keys, product):
        assert (rep.passed, rep.checked, rep.extra, rep.violations) == _oracle(
            law, keys, product
        )

    @pytest.mark.parametrize("law", ALGEBRA_LAWS)
    def test_catalog_and_random_tables(self, law):
        algs = list(finite_catalog().values()) + _random_algebras()
        for alg in algs:
            rep = check_algebra(law, alg=alg)
            self.assert_matches(rep, law, alg.basis_keys(), alg.product)

    @pytest.mark.parametrize("law", ALGEBRA_LAWS)
    def test_perturbed_ats_product(self, law):
        keys = ats_family().interior_keys(Window(4), law.value)
        rep = check_algebra(law, product=_perturbed_ats_product, keys=keys)
        self.assert_matches(rep, law, keys, _perturbed_ats_product)

    # One passing and one failing two-row law: the oracle needs about ten
    # seconds for each of these 125,000-triple cubes.
    @pytest.mark.parametrize(
        "fam, law",
        [(perm_p_family(), LawId.Perm), (wn_family(2), LawId.Novikov)],
        ids=["permP-Perm", "w2-Novikov"],
    )
    def test_families_at_margin_zero(self, fam, law):
        rep = check_algebra(law, family=fam, window=Window(2), margin=0)
        keys = fam.keys(Window(2))
        self.assert_matches(rep, law, keys, _vector_product(fam.product_one))


class TestCoalgebra:
    def test_coperm_passes(self):
        fam = perm_p_family()
        w = Window(3)
        rep = check_coalgebra(
            LawId.CoPerm,
            delta=delta_p_family,
            sym_co=fam.sym_co,
            keys=fam.interior_keys(w, LawId.CoPerm.value),
            window=w,
        )
        assert rep.passed

    def test_coprelie_passes(self):
        fam = ats_family()
        w = Window(3)
        rep = check_coalgebra(
            LawId.CoPreLie,
            delta=delta_a_family,
            sym_co=fam.sym_co,
            keys=fam.interior_keys(w, LawId.CoPreLie.value),
            window=w,
        )
        assert rep.passed

    def test_perturbed_s_branch_fails_coprelie(self):
        # coefficient (i + j) instead of (i + j - 1) on the s-output branches
        def bad_sym(p, fresh):
            out = []
            for v, poly, pats in delta_a_sym(p, fresh):
                if p[0] == "Ess":
                    poly = poly + Poly.const(ONE)
                out.append((v, poly, pats))
            return out

        def bad_delta(key):
            from permlie.kernel import Fresh

            return TemplateSeries(
                2,
                tuple(
                    Template(tuple(v), poly, pats)
                    for v, poly, pats in bad_sym(pat_const(key), Fresh("j"))
                ),
            )

        fam = ats_family()
        w = Window(4)
        rep = check_coalgebra(
            LawId.CoPreLie,
            delta=bad_delta,
            sym_co=bad_sym,
            keys=fam.interior_keys(w, "CoPreLie"),
            window=w,
        )
        assert not rep.passed
        assert rep.violations
        assert all(v[0] == "co-pre-lie" for v in rep.violations)


FORM_LAWS = [
    LawId.QuadPermForm,
    LawId.QuadPreLieForm,
    LawId.ManinPermKd,
    LawId.ManinLieB,
    LawId.SymplecticLie,
]


def _form_oracle(law, box, inner, form, product, weight=None):
    """A form law checked straight from its textbook identities, with plain
    FormalVector sums: (passed, checked, extra, violations) as check_form
    reports them without the Gram rank, keeping the first 25 violations in
    pair order, then (a, b, c) order."""
    memo = {}

    def mul(x, y):
        if (x, y) not in memo:
            memo[(x, y)] = product(x, y)
        return memo[(x, y)]

    def pairing(u, v):
        return sum(
            (cu * cv * form(ku, kv) for ku, cu in u.items() for kv, cv in v.items()),
            F(0),
        )

    found = []
    for a, b in itertools.product(box, repeat=2):
        v = form(a, b)
        if law == LawId.ManinLieB:
            label, bad = "symmetric", v - form(b, a)
        else:
            label, bad = "skew", v + form(b, a)
        if bad:
            found.append((label, (a, b), ((("scalar",), bad),)))
        if v and weight is not None and key_degree(a) + key_degree(b) != weight:
            found.append(("graded-weight", (a, b), ((("scalar",), v),)))
    for a, b, c in itertools.product(inner, repeat=3):
        ea, eb, ec = (FormalVector.single(k) for k in (a, b, c))
        ab, bc, cb, ac, ca = mul(a, b), mul(b, c), mul(c, b), mul(a, c), mul(c, a)
        label = "invariance"
        if law in (LawId.QuadPermForm, LawId.ManinPermKd):
            # B(ab, c) = B(a, bc - cb)
            res = pairing(ab, ec) - pairing(ea, bc - cb)
        elif law == LawId.QuadPreLieForm:
            # B(ab, c) = -B(b, [a, c])
            res = pairing(ab, ec) + pairing(eb, ac - ca)
        elif law == LawId.ManinLieB:
            # B([a, b], c) = B(a, [b, c])
            res = pairing(ab, ec) - pairing(ea, bc)
        else:
            # dB = 0: B([a, b], c) + B([b, c], a) + B([c, a], b) = 0
            label = "closed"
            res = pairing(ab, ec) + pairing(bc, ea) + pairing(ca, eb)
        if res:
            found.append((label, (a, b, c), ((("scalar",), res),)))
    extra = {"violations_total": len(found)}
    if len(found) > 25:
        extra["violations_truncated"] = True
    if weight is not None:
        extra["weight"] = weight
    kept = sorted(found[:25], key=lambda v: (v[0], v[1]))
    return (not found, len(box) ** 2 + len(inner) ** 3, extra, kept)


def _random_grams(dims):
    """One seeded random Gram matrix per dimension, every other one skew."""
    rng = random.Random(3001)
    grams = []
    for t, d in enumerate(dims):
        g = [[F(rng.randint(-2, 2)) if rng.random() < 0.5 else F(0) for _ in range(d)]
             for _ in range(d)]
        if t % 2:
            g = [[g[i][j] - g[j][i] for j in range(d)] for i in range(d)]
        grams.append(g)
    return grams


def _perturbed_perm_p():
    """permP, except that a d1-left product lands on the other derivation."""

    def one(k1, k2):
        _, i1, i2, s = k1
        _, j1, j2, t = k2
        if s == 1:
            return (ONE, mono(i1 + j1 + 1, i2 + j2, 3 - t))
        return (ONE, mono(i1 + j1, i2 + j2 + 1, t))

    return dataclasses.replace(perm_p_family(), product_one=one)


class TestFormOracle:
    """check_form against the oracle on every input kind."""

    def assert_matches(self, rep, law, box, inner, form, product, weight=None):
        assert (rep.passed, rep.checked, rep.extra, rep.violations) == _form_oracle(
            law, box, inner, form, product, weight
        )

    @pytest.mark.parametrize("law", FORM_LAWS)
    def test_catalog_and_random_tables(self, law):
        algs = [a for a in finite_catalog().values() for _ in range(5)]
        algs += _random_algebras()
        for alg, gram in zip(algs, _random_grams([a.dim for a in algs])):

            def form(k1, k2, gram=gram):
                return gram[k1[2]][k2[2]]

            keys = alg.basis_keys()
            rep = check_form(
                law, form=form, product=alg.product, keys=keys, check_nondegenerate=False
            )
            self.assert_matches(rep, law, keys, keys, form, alg.product)

    @pytest.mark.parametrize("law", FORM_LAWS)
    @pytest.mark.parametrize(
        "fam",
        [ats_family(), restricted_dual_double(wn_family(1))],
        ids=["ats", "w1-restricted-dual"],
    )
    def test_families(self, fam, law):
        rep = check_form(law, family=fam, window=Window(3), check_nondegenerate=False)
        box = fam.keys(Window(3))
        inner = fam.interior_keys(Window(3, rep.margin), law.value)
        self.assert_matches(rep, law, box, inner, fam.form, fam.product, fam.form_m)

    def test_perturbed_perm_p_keeps_its_name(self):
        fam = _perturbed_perm_p()
        assert fam.name == "permP"
        law = LawId.QuadPermForm
        rep = check_form(law, family=fam, window=Window(3), check_nondegenerate=False)
        box = fam.keys(Window(3))
        inner = fam.interior_keys(Window(3, 1), law.value)
        self.assert_matches(rep, law, box, inner, fam.form, fam.product, fam.form_m)


class TestForms:
    def test_ats_form(self):
        rep = check_form(LawId.QuadPreLieForm, family=ats_family(), window=Window(4))
        assert rep.passed
        assert rep.extra["weight"] == -2
        assert rep.extra["gram_rank"] == rep.extra["gram_size"]

    def test_perm_p_form(self):
        rep = check_form(LawId.QuadPermForm, family=perm_p_family(), window=Window(3))
        assert rep.passed
        assert rep.extra["weight"] == 2

    def test_degenerate_form_flagged(self):
        alg = finite_catalog()["ex-sd2"]

        def zero_form(a, b):
            return F(0)

        rep = check_form(
            LawId.QuadPermForm,
            form=zero_form,
            product=alg.product,
            keys=alg.basis_keys(),
        )
        assert not rep.passed
        assert any(v[0] == "degenerate" for v in rep.violations)

    def test_wn_has_no_form(self):
        assert wn_family(1).form is None


class TestMatchedPair:
    def test_canonical_actions_pass(self):
        cat = finite_catalog()
        p1 = cat["ex-1p"]
        dual = dual_perm_algebra(p1, p1.delta)
        l12, r12, l21, r21 = canonical_dual_actions(p1, dual)
        rep = check_matched_pair(p1, dual, l12, r12, l21, r21)
        assert rep.passed

    def test_perturbed_action_fails(self):
        cat = finite_catalog()
        p1 = cat["ex-1p"]
        dual = dual_perm_algebra(p1, p1.delta)
        l12, r12, l21, r21 = canonical_dual_actions(p1, dual)
        bad = tuple(
            tuple(tuple(v + ONE for v in row) for row in mtx) for mtx in l12
        )
        rep = check_matched_pair(p1, dual, bad, r12, l21, r21)
        assert not rep.passed
        labels = {v[0] for v in rep.violations}
        assert labels & {"pmp6", "pmp8", "assembled-assoc", "assembled-left-comm"}


class TestOOperator:
    def test_identity_on_preperm_passes(self):
        pp = finite_catalog()["ex-preperm-1"]
        from permlie.doubles import preperm_representation

        rep = check_o_operator(pp, preperm_representation(pp), ((ONE,),))
        assert rep.passed

    def test_identity_on_adjoint_fails(self):
        onep = finite_catalog()["ex-1p"]
        rep = check_o_operator(onep, adjoint_representation(onep), ((ONE,),))
        assert not rep.passed and rep.violations

    def test_representation_validates(self):
        onep = finite_catalog()["ex-1p"]
        rep = check_representation(onep, adjoint_representation(onep))
        assert rep.passed


class TestPrePerm:
    def test_good_and_bad(self):
        cat = finite_catalog()
        assert check_preperm(cat["ex-preperm-1"]).passed
        rep = check_preperm(cat["ex-preperm-bad"])
        assert not rep.passed
        assert len(rep.violations) == 2
