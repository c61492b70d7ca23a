"""Doubling constructions: semidirect products, Manin assembly, duals."""

import gc
import itertools
import os
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from permlie.kernel import (
    CheckReport,
    Window,
    fin,
    forced_zero_columns,
    key_degree,
    key_str,
    pair,
    sparse_rref,
    wn,
)
from permlie.families import (
    FiniteAlgebra,
    adjoint_representation,
    ats_family,
    finite_catalog,
    preperm_representation,
    random_table,
    wn_family,
)
from permlie.axioms import (
    LawId,
    _assemble_matched_pair,
    _mul,
    check_algebra,
    check_form,
    check_representation,
)
from permlie.affinize import delta_bullet
from permlie import cli, doubles as D
from permlie.serialize import canonical_json, report_to_json

from diagram_reference import diagram_by_points
from form_search_reference import blocks_by_plan
from helpers import conjugated_table, random_invertible

F = Fraction
ONE = F(1)


class TestDualRep:
    def test_adjoint_dual_and_involution(self):
        p1 = finite_catalog()["ex-1p"]
        ad = adjoint_representation(p1)
        dr = D.dual_rep(ad)
        assert dr.l == (((ONE,),),)
        assert dr.r == (((F(0),),),)
        ddr = D.dual_rep(dr)
        assert ddr.l == ad.l and ddr.r == ad.r


class TestSemidirect:
    def test_adjoint_semidirect_matches_catalog(self):
        cat = finite_catalog()
        p1 = cat["ex-1p"]
        sd = D.semidirect_perm(p1, adjoint_representation(p1), module_labels=("f",))
        assert sd.mul == cat["ex-sd2"].mul

    def test_preperm_route(self):
        pp = finite_catalog()["ex-preperm-1"]
        rep = preperm_representation(pp)
        sdd = D.semidirect_perm(pp, D.dual_rep(rep), module_labels=("e*",))
        assert sdd.mul == {
            (0, 0): ((0, ONE),),
            (0, 1): ((1, ONE),),
            (1, 0): ((1, ONE),),
        }


class TestManinDouble:
    def test_assembled_table_delta_ee(self):
        p1 = finite_catalog()["ex-1p"]
        md = D.manin_double_from_bialgebra(p1, {0: ((0, 0, ONE),)})
        assert md.total.mul == {
            (0, 0): ((0, ONE),),
            (0, 1): ((1, ONE),),
            (1, 0): ((0, ONE),),
            (1, 1): ((1, ONE),),
        }
        assert md.passed
        assert set(md.reports) == {
            "bialgebra",
            "dual-perm",
            "matched-pair",
            "double-perm",
            "pairing",
            "halves",
        }

    def test_default_delta_comes_from_algebra(self):
        p1 = finite_catalog()["ex-1p"]
        assert D.manin_double_from_bialgebra(p1).total.mul == \
            D.manin_double_from_bialgebra(p1, p1.delta).total.mul

    def test_assembled_table_delta_zero(self):
        p1 = finite_catalog()["ex-1p"]
        md0 = D.manin_double_from_bialgebra(p1, {})
        assert md0.total.mul == {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),)}
        assert md0.passed

    def test_broken_bialgebra_rejected(self):
        bad = finite_catalog()["ex-bad2"]
        with pytest.raises(ValueError):
            D.manin_double_from_bialgebra(bad, {})


# ---------------------------------------------------------------------------
# Every finite double against its defining formula.  The references read
# products through alg.product only, and evaluate a starred operator through
# the pairing <e_i*, x> = (coefficient of e_i in x):
#     L*(a) e_j* = sum_k <e_j*, a e_k> e_k*,   R*(a) e_j* = sum_k <e_j*, e_k a> e_k*.


def _dense(alg, vec):
    out = [F(0)] * alg.dim
    for k, c in vec.items():
        out[k[2]] += c
    return out


def _table(alg):
    """(i, j) -> coefficient list of e_i e_j."""
    keys = alg.basis_keys()
    return {
        (i, j): _dense(alg, alg.product(a, b))
        for i, a in enumerate(keys)
        for j, b in enumerate(keys)
    }


def _dual_table(delta, d):
    """(i, j) -> coefficient list of e_i* e_j*, with <e_i* e_j*, x> the
    coefficient of e_i (x) e_j in delta(x)."""
    out = {(i, j): [F(0)] * d for i in range(d) for j in range(d)}
    for k, terms in delta.items():
        for i, j, c in terms:
            out[(i, j)][k] += c
    return out


def _stars(table, d):
    """L*(e_i) e_j* and R*(e_i) e_j* as coefficient lists over the e_k*."""

    def left(i, j):
        return [table[(i, k)][j] for k in range(d)]

    def right(i, j):
        return [table[(k, i)][j] for k in range(d)]

    return left, right


def _minus(u, v):
    return [x - y for x, y in zip(u, v)]


def _ref_sum(d1, d2, p11, p22, ef, fe):
    """Table on A + B from its four blocks; ef(i, j) = e_i f_j and
    fe(j, i) = f_j e_i, each as (A part, B part)."""
    out = {}
    for x in range(d1 + d2):
        for y in range(d1 + d2):
            if x < d1 and y < d1:
                a, b = p11(x, y), [F(0)] * d2
            elif x >= d1 and y >= d1:
                a, b = [F(0)] * d1, p22(x - d1, y - d1)
            elif x < d1:
                a, b = ef(x, y - d1)
            else:
                a, b = fe(x - d1, y)
            out[(x, y)] = list(a) + list(b)
    return out


def _ref_prelie_double(alg, delta):
    """(a + a*)(b + b*) = (a b - (L* - R*)(a*) b + R*(b*) a)
    + (a* b* - (L* - R*)(a) b* + R*(b) a*)."""
    d = alg.dim
    p, q = _table(alg), _dual_table(delta, d)
    la, ra = _stars(p, d)
    lq, rq = _stars(q, d)
    return _ref_sum(
        d,
        d,
        lambda i, j: p[(i, j)],
        lambda i, j: q[(i, j)],
        lambda i, j: (rq(j, i), _minus(ra(i, j), la(i, j))),
        lambda j, i: (_minus(rq(j, i), lq(j, i)), ra(i, j)),
    )


def _ref_perm_double(alg, delta):
    """e_i f_j = L*(e_i) f_j + (L* - R*)(f_j) e_i and
    f_j e_i = L*(f_j) e_i + (L* - R*)(e_i) f_j, with f_j = e_j*."""
    d = alg.dim
    p, q = _table(alg), _dual_table(delta, d)
    la, ra = _stars(p, d)
    lq, rq = _stars(q, d)
    return _ref_sum(
        d,
        d,
        lambda i, j: p[(i, j)],
        lambda i, j: q[(i, j)],
        lambda i, j: (_minus(lq(j, i), rq(j, i)), la(i, j)),
        lambda j, i: (lq(j, i), _minus(la(i, j), ra(i, j))),
    )


def _ref_cotangent(alg):
    """[a, b] = a b - b a, [a, b*] = -L*(a) b*, [a*, b*] = 0."""
    d = alg.dim
    p = _table(alg)
    la, _ = _stars(p, d)
    return _ref_sum(
        d,
        d,
        lambda i, j: _minus(p[(i, j)], p[(j, i)]),
        lambda i, j: [F(0)] * d,
        lambda i, j: ([F(0)] * d, [-c for c in la(i, j)]),
        lambda j, i: ([F(0)] * d, la(i, j)),
    )


def _ref_semidirect(alg, act_l, act_r, m):
    """(p1 + v1)(p2 + v2) = p1 p2 + l(p1) v2 + r(p2) v1."""
    d = alg.dim
    p = _table(alg)
    return _ref_sum(
        d,
        m,
        lambda i, j: p[(i, j)],
        lambda a, b: [F(0)] * m,
        lambda i, b: ([F(0)] * d, act_l(i, b)),
        lambda b, i: ([F(0)] * d, act_r(i, b)),
    )


def _random_delta(rng, d):
    delta = {}
    for k in range(d):
        terms = []
        for i in range(d):
            for j in range(d):
                c = rng.randint(-2, 2) if rng.random() < 0.4 else 0
                if c:
                    terms.append((i, j, F(c)))
        if terms:
            delta[k] = tuple(terms)
    return delta


def _double_inputs():
    """(algebra, coproduct table): the catalog, then 30 seeded random tables
    of dimension 1-3.  Every third random table is a random basis change of
    a catalog perm algebra, so the perm-only constructors see passing
    inputs beyond the catalog."""
    cat = finite_catalog()
    out = [(alg, alg.delta or {}) for alg in cat.values()]
    perms = [cat["ex-1p"], cat["ex-sd2"], cat["ex-nilp2"]]
    rng = random.Random(4177)
    for t in range(30):
        if t % 3 == 0:
            base = perms[t // 3 % 3]
            d = base.dim
            s = random_invertible(rng, d)
            mul, kind = conjugated_table(base.mul, s, d), "Perm"
        else:
            d = 1 + t % 3
            mul, kind = random_table(rng, d), "none"
        alg = FiniteAlgebra(
            id=f"rnd{t}",
            space=f"R{t}",
            dim=d,
            labels=tuple(f"x{i}" for i in range(d)),
            kind=kind,
            mul=mul,
        )
        if t % 2:
            alg = replace(alg, tri_left=random_table(rng, d), tri_right=random_table(rng, d))
        out.append((alg, _random_delta(rng, d)))
    return out


def _assert_table(out, want):
    assert _table(out) == want, out.id


class TestDoubleTables:
    def test_product_is_the_table(self):
        # alg.product on basis keys is the table e_i e_j = sum_k c_ij^k e_k,
        # and _mul through it is the bilinear product
        # (sum_i u_i e_i)(sum_j v_j e_j) = sum_(i, j) u_i v_j e_i e_j
        rng = random.Random(61)
        for alg, _ in _double_inputs():
            keys = alg.basis_keys()
            for i, j in itertools.product(range(alg.dim), repeat=2):
                want = {}
                for k, c in alg.mul.get((i, j), ()):
                    want[keys[k]] = want.get(keys[k], 0) + c
                got = alg.product(keys[i], keys[j])
                assert got == {k: c for k, c in want.items() if c}, alg.id
                assert all(type(c) is Fraction for c in got.values())
            u = {k: F(rng.randint(-3, 3), rng.randint(1, 2)) for k in keys}
            v = {k: F(rng.randint(-3, 3), rng.randint(1, 2)) for k in keys}
            want = [F(0)] * alg.dim
            for (i, j), row in _table(alg).items():
                want = [w + u[keys[i]] * v[keys[j]] * c for w, c in zip(want, row)]
            got = _mul(lambda p, q: [(c, k) for k, c in alg.product(p, q).items()], F(0), u, v)
            assert [got.get(k, 0) for k in keys] == want, alg.id

    def test_prelie_double(self):
        for alg, delta in _double_inputs():
            out, _ = D.prelie_double(alg, delta)
            assert (out.kind, out.dim) == ("PreLie", 2 * alg.dim)
            _assert_table(out, _ref_prelie_double(alg, delta))

    def test_restricted_dual_double(self):
        for alg, _ in _double_inputs():
            out, _ = D.restricted_dual_double(replace(alg, kind="PreLie"))
            assert out.labels[alg.dim:] == tuple(f"{x}°" for x in alg.labels)
            # a° b° = 0 makes this the pre-Lie double of the zero coproduct.
            _assert_table(out, _ref_prelie_double(alg, {}))

    def test_perm_double_of_canonical_actions(self):
        for alg, delta in _double_inputs():
            dual = D.dual_perm_algebra(alg, delta)
            out = _assemble_matched_pair(
                alg, dual, *D.canonical_dual_actions(alg, dual)
            )
            _assert_table(out, _ref_perm_double(alg, delta))
        p1 = finite_catalog()["ex-1p"]
        for delta in (p1.delta, {}):
            md = D.manin_double_from_bialgebra(p1, delta)
            _assert_table(md.total, _ref_perm_double(p1, delta))

    def test_prelie_to_symplectic(self):
        seen = 0
        for alg, _ in _double_inputs():
            alg = replace(alg, kind="PreLie")
            if not check_algebra(LawId.PreLie, alg=alg).passed:
                continue
            seen += 1
            out, _ = D.prelie_to_symplectic(alg)
            assert (out.kind, out.dim) == ("Lie", 2 * alg.dim)
            _assert_table(out, _ref_cotangent(alg))
        assert seen >= 10

    def test_semidirect_perm(self):
        seen = 0
        for alg, _ in _double_inputs():
            if not check_algebra(LawId.Perm, alg=alg).passed:
                continue
            d = alg.dim
            p = _table(alg)
            la, ra = _stars(p, d)
            for rep, act_l, act_r in (
                # adjoint: l(e_i) v = e_i v, r(e_i) v = v e_i
                (
                    adjoint_representation(alg),
                    lambda i, b: p[(i, b)],
                    lambda i, b: p[(b, i)],
                ),
                # its dual: (L*, L* - R*)
                (
                    D.dual_rep(adjoint_representation(alg)),
                    la,
                    lambda i, b: _minus(la(i, b), ra(i, b)),
                ),
            ):
                if not check_representation(alg, rep).passed:
                    continue
                seen += 1
                out = D.semidirect_perm(alg, rep)
                assert (out.id, out.kind) == (f"{alg.id}+mod", "Perm")
                _assert_table(out, _ref_semidirect(alg, act_l, act_r, d))
        assert seen >= 20

    def test_preperm_representation(self):
        seen = 0
        for alg, _ in _double_inputs():
            if alg.tri_left is None:
                continue
            seen += 1
            rep = preperm_representation(alg)
            left = _table(replace(alg, mul=alg.tri_left))
            right = _table(replace(alg, mul=alg.tri_right))
            for i in range(alg.dim):
                for j in range(alg.dim):
                    # l(e_i) e_j = e_i > e_j and r(e_i) e_j = e_j < e_i
                    assert [row[j] for row in rep.l[i]] == left[(i, j)]
                    assert [row[j] for row in rep.r[i]] == right[(j, i)]
        assert seen >= 10


class TestInputChecks:
    """Each input check raises ValueError, which python -O keeps, unlike an
    assert."""

    def _double(self):
        return D.manin_double_from_bialgebra(finite_catalog()["ex-1p"])

    def test_lie_lift_needs_a_permkd_double(self):
        lift = D.manin_lie_lift(self._double(), ats_family(), Window(2))
        with pytest.raises(ValueError, match="PermKd double"):
            D.manin_lie_lift(lift, ats_family(), Window(2))

    def test_lie_lift_needs_a_family_with_a_form(self):
        with pytest.raises(ValueError, match="family with a form"):
            D.manin_lie_lift(self._double(), wn_family(1), Window(2))

    def test_dual_bracket_needs_a_lie_lift(self):
        md = self._double()
        u = pair(fin(md.total.space, 0), ats_family().keys(Window(2))[0])
        with pytest.raises(ValueError, match="needs a LieB lift, not PermKd"):
            D.manin_dual_bracket(md, u, u)

    def test_dual_needs_a_single_graded_partner(self):
        lift = D.manin_lie_lift(self._double(), ats_family(), Window(2))
        bent = replace(lift, family=SimpleNamespace(form_partners=lambda g: []))
        u = lift.sub1[0]
        with pytest.raises(ValueError, match="needs a single graded partner"):
            D.manin_dual_bracket(bent, u, u)

    def test_dual_needs_halves_that_pair(self):
        lift = D.manin_lie_lift(self._double(), ats_family(), Window(2))
        bent = replace(lift, form=lambda k1, k2: F(0))
        u = lift.sub1[0]
        with pytest.raises(ValueError, match="halves do not pair"):
            D.manin_dual_bracket(bent, u, u)


class TestLieLift:
    def test_reports_pass(self):
        p1 = finite_catalog()["ex-1p"]
        md = D.manin_double_from_bialgebra(p1)
        lift = D.manin_lie_lift(md, ats_family(), Window(3))
        assert set(lift.reports) == {
            "halves",
            "lie-jacobi",
            "lie-skew",
            "pairing",
            "pairing-nondegenerate",
        }
        for name, rep in lift.reports.items():
            assert rep.passed, name

    def test_cobracket_diagram(self):
        p1 = finite_catalog()["ex-1p"]
        fam = ats_family()
        md = D.manin_double_from_bialgebra(p1)
        lift = D.manin_lie_lift(md, fam, Window(3))
        dbl = md.total
        pk = [pair(fin(dbl.space, 0), g) for g in fam.keys(Window(3))]
        for x in pk:
            s = delta_bullet(p1, fam, pair(fin(p1.space, x[1][2]), x[2]))
            for u in pk:
                for v in pk:
                    c1 = s.coefficient_at(
                        (pair(fin(p1.space, 0), u[2]), pair(fin(p1.space, 0), v[2]))
                    )
                    c2 = D.manin_cobracket_coefficient(lift, x, u, v)
                    assert c1 == c2, (x, u, v)

    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_diagram_report_matches_points(self, bound):
        md = D.manin_double_from_bialgebra(finite_catalog()["ex-1p"])
        lift = D.manin_lie_lift(md, ats_family(), Window(bound))
        fast = cli._doubles_diagram_report(md, lift, bound)
        ref = diagram_by_points(md, lift, bound)
        assert fast.passed
        assert canonical_json(report_to_json(fast)) == canonical_json(report_to_json(ref))

    def test_diagram_fails_on_scaled_bracket(self):
        # Double the lift's bracket [u°, .] for the B-dual u° of one
        # first-half key u; delta(x) read off the pairing then disagrees with
        # delta bullet wherever x pairs with a doubled [u°, v°].
        md = D.manin_double_from_bialgebra(finite_catalog()["ex-1p"])
        fam = ats_family()
        lift = D.manin_lie_lift(md, fam, Window(3))
        pk = [pair(fin(md.total.space, 0), g) for g in fam.keys(Window(3))]
        u = next(
            u for u in pk
            if any(D.manin_cobracket_coefficient(lift, x, u, v) for x in pk for v in pk)
        )
        ku = D._b_dual(lift, u)[1]

        def scaled(a, b):
            out = lift.bracket(a, b)
            return {k: 2 * c for k, c in out.items()} if a == ku else out

        bad = replace(lift, bracket=scaled)
        fast = cli._doubles_diagram_report(md, bad, 3)
        ref = diagram_by_points(md, bad, 3)
        assert not fast.passed and len(fast.violations) > 1
        assert canonical_json(report_to_json(fast)) == canonical_json(report_to_json(ref))


    def test_halves_keep_the_first_25_violations(self):
        # ats at N=3 split by the parity of the exponent: neither half is
        # closed, and the odd half is not isotropic
        fam = ats_family()
        keys = fam.keys(Window(3))
        even = lambda k: k[1] % 2 == 0
        halves = ([k for k in keys if even(k)], [k for k in keys if not even(k)])
        found = []
        for name, half, member in (("half1", halves[0], even), ("half2", halves[1], lambda k: not even(k))):
            for x, y in itertools.product(half, repeat=2):
                found += [(f"{name}-closure", (x, y), ((k, c),)) for k, c in fam.product(x, y).items() if not member(k)]
                if v := fam.form(x, y):
                    found.append((f"{name}-isotropy", (x, y), ((("scalar",), v),)))
        assert len(found) == 35
        rep = D._halves_report("split", *halves, fam.product, fam.form, even, Window(3))
        assert rep == CheckReport.build(
            "split", Window(3), 2 * sum(len(h) ** 2 for h in halves),
            found[:25], {"violations_total": 35, "violations_truncated": True},
        )


class TestRestrictedDual:
    def test_w1_double_equals_ats(self):
        w1d = D.restricted_dual_double(wn_family(1))
        fam = ats_family()
        keys = fam.keys(Window(4))
        for a in keys:
            assert w1d.form_partners(a) == fam.form_partners(a)
            for b in keys:
                assert w1d.product_one(a, b) == fam.product_one(a, b)
                assert w1d.form(a, b) == fam.form(a, b)

    def test_w1_double_form_law(self):
        w1d = D.restricted_dual_double(wn_family(1))
        assert check_form(
            LawId.QuadPreLieForm, family=w1d, window=Window(3)
        ).passed

    def test_finite_prelie_dual(self):
        pl1 = finite_catalog()["ex-prelie-1"]
        fd, fform = D.restricted_dual_double(pl1)
        assert fd.mul == {(0, 0): ((0, ONE),), (1, 0): ((1, ONE),)}
        assert check_algebra(LawId.PreLie, alg=fd).passed
        assert check_form(
            LawId.QuadPreLieForm, form=fform, product=fd.product,
            keys=fd.basis_keys(),
        ).passed


class TestPreLieDouble:
    def test_table_and_para_kahler(self):
        pl1 = finite_catalog()["ex-prelie-1"]
        pd, pform = D.prelie_double(pl1)
        assert pd.mul == {
            (0, 0): ((0, ONE),),
            (0, 1): ((0, ONE),),
            (1, 0): ((1, ONE),),
            (1, 1): ((1, ONE),),
        }
        reps = D.para_kahler_reports(pd, pform)
        assert set(reps) == {"halves", "lie-jacobi", "pre-lie", "symplectic"}
        for name, rep in reps.items():
            assert rep.passed, name

    def test_delta_zero_case(self):
        pl1 = finite_catalog()["ex-prelie-1"]
        pd0, pform0 = D.prelie_double(pl1, {})
        reps = D.para_kahler_reports(pd0, pform0)
        for name, rep in reps.items():
            assert rep.passed, name


class TestSymplecticRoundTrip:
    def test_one_dim_prelie(self):
        pl1 = finite_catalog()["ex-prelie-1"]
        lie, gram_form = D.prelie_to_symplectic(pl1)
        assert lie.mul == {(0, 1): ((1, -ONE),), (1, 0): ((1, ONE),)}
        gram = tuple(
            tuple(gram_form(lie.key(i), lie.key(j)) for j in range(lie.dim))
            for i in range(lie.dim)
        )
        back = D.symplectic_to_prelie(lie, gram)
        assert back.mul == {(0, 0): ((0, ONE),), (1, 0): ((1, ONE),)}

    def test_nilpotent_two_dim(self):
        pl2 = finite_catalog()["ex-prelie-n2"]
        lie, gram_form = D.prelie_to_symplectic(pl2)
        assert lie.dim == 4
        gram = tuple(
            tuple(gram_form(lie.key(i), lie.key(j)) for j in range(lie.dim))
            for i in range(lie.dim)
        )
        back = D.symplectic_to_prelie(lie, gram)
        assert back.mul == {(0, 0): ((1, ONE),), (3, 0): ((2, ONE),)}

    def test_commutator_recovered(self):
        for aid in ("ex-prelie-1", "ex-prelie-n2"):
            alg = finite_catalog()[aid]
            lie, gram_form = D.prelie_to_symplectic(alg)
            n = lie.dim
            gram = tuple(
                tuple(gram_form(lie.key(i), lie.key(j)) for j in range(n))
                for i in range(n)
            )
            back = D.symplectic_to_prelie(lie, gram)
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

    def test_commutator_table(self):
        # a repeated output index is summed; an entry that cancels is dropped
        alg = FiniteAlgebra(
            id="t", space="T", dim=2, labels=("a", "b"), kind="none",
            mul={(0, 0): ((1, ONE),), (0, 1): ((0, ONE), (0, ONE), (1, ONE)), (1, 0): ((1, ONE),)},
        )
        assert alg.commutator() == {(0, 1): ((0, F(2)),), (1, 0): ((0, F(-2)),)}

    def test_perturbed_roundtrip_lists_only_nonzero_entries(self, monkeypatch):
        from permlie import cli

        solve = D.symplectic_to_prelie

        def perturbed(lie, gram):
            # e3 e0 gains an e1 term: [e3, e0] = e2 + e1 against the bracket's e2
            back = solve(lie, gram)
            return replace(back, mul={**back.mul, (3, 0): back.mul[(3, 0)] + ((1, ONE),)})

        monkeypatch.setattr(cli, "symplectic_to_prelie", perturbed)
        rep = cli._roundtrip_report(finite_catalog()["ex-prelie-n2"])
        assert not rep.passed and rep.checked == 16
        assert rep.violations == [
            ("mismatch", (0, 3), (((1,), F(-1)),)),
            ("mismatch", (3, 0), (((1,), ONE),)),
        ]


def _form_search_oracle(n, window, fam=None):
    """invariant_form_search's report from rows written out naively: for
    every key triple whose products stay on the window, the row
    w(ab, c) + w(b, ac) - w(b, ca) over skew unknowns w(x, y), x < y,
    normalised by its lead Fraction to drop proportional copies.  fam
    defaults to wn_family(n)."""
    fam = fam or wn_family(n)
    keys = fam.keys(window)
    m = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    rows, seen, skipped = [], set(), 0
    for a, b, c in itertools.product(keys, repeat=3):
        ab, ac, ca = (
            [(k, v) for k, v in fam.product(x, y).items() if v] for x, y in ((a, b), (a, c), (c, a))
        )
        if any(k not in index for k, _ in ab + ac + ca):
            skipped += 1
            continue
        row = {}
        terms = [(v, k, c) for k, v in ab] + [(v, b, k) for k, v in ac] + [(-v, b, k) for k, v in ca]
        for v, x, y in terms:
            i, j = index[x], index[y]
            if i < j:
                row[i * m + j] = row.get(i * m + j, 0) + v
            elif i > j:
                row[j * m + i] = row.get(j * m + i, 0) - v
        items = sorted((col, v) for col, v in row.items() if v)
        if items:
            key = tuple((col, F(v) / items[0][1]) for col, v in items)
            if key not in seen:
                seen.add(key)
                rows.append(dict(key))
    rows.sort(key=len)
    basis = sparse_rref(rows)
    forced = forced_zero_columns(basis)
    probe = wn((1,) + (0,) * (n - 1), 1)
    p = index[probe]
    unforced = [
        key_str(k)
        for i, k in enumerate(keys)
        if i != p and min(i, p) * m + max(i, p) not in forced
    ]
    unknowns = m * (m - 1) // 2
    return {
        "family": fam.name,
        "window": window.n,
        "keys": m,
        "unknowns": unknowns,
        "rows": len(rows),
        "skipped_triples": skipped,
        "rank": len(basis),
        "solution_dim": unknowns - len(basis),
        "forced_zero_count": len(forced),
        "probe": key_str(probe),
        "probe_pairs_unforced": unforced,
        "probe_vanishes": not unforced,
    }


class TestInvariantFormSearch:
    @pytest.mark.parametrize("n, size", [(1, 2), (1, 3), (1, 4), (2, 2)])
    def test_matches_naive_rows(self, n, size):
        assert D.invariant_form_search(n, Window(size)) == _form_search_oracle(n, Window(size))

    def test_rows_vanish_on_ats_form(self):
        # ats carries an invariant skew form: every row of every block must
        # vanish on it (ats is graded by degree; any weight split is exact)
        fam = ats_family()
        keys = fam.keys(Window(3))
        m = len(keys)
        _, built, blocks = D._form_search_blocks(fam, keys, lambda k: (key_degree(k),))
        rows = [row for _, block, _ in blocks(built) for row in block]
        touched = 0
        for row in rows:
            values = [v * fam.form(keys[col // m], keys[col % m]) for col, v in row.items()]
            assert sum(values) == 0, row
            touched += any(values)
        assert touched > 0 and len(rows) > touched

    @pytest.mark.parametrize("n, size", [(1, 4), (2, 2)])
    def test_blocks_split_the_whole_system(self, n, size):
        fam = wn_family(n)
        keys = fam.keys(Window(size))
        m = len(keys)
        wt = [D._wn_weight(k) for k in keys]
        skipped, built, blocks = D._form_search_blocks(fam, keys, D._wn_weight)
        blocks = [(w, block) for w, block, _ in blocks(built)]
        assert [w for w, _ in blocks] == sorted({w for w, _ in blocks})
        seen = set()
        for w, block in blocks:
            cols = {col for row in block for col in row}
            # every unknown of the block has the block's pair weight
            assert {tuple(map(sum, zip(wt[c // m], wt[c % m]))) for c in cols} == {w}
            assert not cols & seen
            seen |= cols
            assert [len(r) for r in block] == sorted(len(r) for r in block)
        # the block totals against one reduction of all rows together
        rows = [row for _, block in blocks for row in block]
        whole = sparse_rref(sorted(rows, key=len))
        bases = [sparse_rref(block) for _, block in blocks]
        assert sum(map(len, bases)) == len(whole)
        assert set().union(*map(forced_zero_columns, bases)) == forced_zero_columns(whole)
        report = D.invariant_form_search(n, Window(size))
        assert (report["rows"], report["rank"], report["skipped_triples"]) == (
            len(rows), len(whole), skipped,
        )
        assert report["forced_zero_count"] == len(forced_zero_columns(whole))

    def test_inhomogeneous_product_raises(self, monkeypatch):
        fam = wn_family(1)

        def rule(x, y):
            # x d1 x d1 = x d1 holds in w1; move it to x^2 d1, off its weight
            r = fam.rule(x, y)
            return (1, wn((2,), 1)) if x == y == wn((1,), 1) else r

        monkeypatch.setattr(D, "wn_family", lambda n: replace(fam, rule=rule))
        with pytest.raises(ValueError, match="not graded"):
            D.invariant_form_search(1, Window(3))

    def test_w2_window_3_pinned(self):
        r = D.invariant_form_search(2, Window(3))
        assert (r["keys"], r["unknowns"], r["rows"], r["skipped_triples"]) == (
            98, 4753, 196819, 618248,
        )
        assert (r["rank"], r["solution_dim"], r["forced_zero_count"]) == (4753, 0, 4753)
        assert r["probe_vanishes"] and r["probe_pairs_unforced"] == []

    def test_w1_everything_forced_zero(self):
        r1 = D.invariant_form_search(1, Window(3))
        assert r1["rank"] == r1["unknowns"]
        assert r1["forced_zero_count"] == r1["unknowns"]
        assert r1["probe_vanishes"]

    def test_guards(self):
        with pytest.raises(ValueError):
            D.invariant_form_search(3, Window(3))
        from permlie.kernel import InsufficientWindowError

        with pytest.raises(InsufficientWindowError):
            D.invariant_form_search(1, Window(1))
        with pytest.raises(ValueError, match="too slow for N >= 5"):
            D.invariant_form_search(1, Window(5))


def _full_search(monkeypatch, n, size):
    """invariant_form_search with the trivial group: every block built."""
    with monkeypatch.context() as mp:
        mp.setattr(D, "_wn_mirrors", lambda n: [])
        return D.invariant_form_search(n, Window(size))


def _counting_blocks(monkeypatch, path):
    """Patch doubles._form_search_blocks to record each block it yields as a
    line "pid weight" appended to path, by the process that builds it (a
    forked worker too); returns a reader of the lines so far."""
    build = D._form_search_blocks

    def counted(*args):
        skipped, built, blocks = build(*args)

        def each(ws):
            for block in blocks(ws):
                with open(path, "a") as f:
                    f.write(f"{os.getpid()} {block[0]}\n")
                yield block

        return skipped, built, each

    monkeypatch.setattr(D, "_form_search_blocks", counted)
    return lambda: path.read_text().splitlines() if path.exists() else []


def _patch_cpus(monkeypatch, count):
    """Let invariant_form_search see count CPUs in this process's affinity set."""
    monkeypatch.setattr(D.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _counting_forks(monkeypatch) -> list:
    """Patch os.fork to record each fork in the calling process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(D.os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# w2 with one product scaled; each keeps the grading but breaks the swap of the variables
_BENT_SWAPS = [
    # x1 d1 x1 d2 = 3 x1 d2 on the window; its mirror x2 d2 x2 d1 = x2 d1
    pytest.param(wn((1, 0), 1), wn((1, 0), 2), 3, 21157, id="scaled-on-window"),
    # x1^2 d1 x1^2 d1 = 0 where it left the window; its mirror still leaves
    pytest.param(wn((2, 0), 1), wn((2, 0), 1), 0, 21156, id="zeroed-off-window"),
]


def _bent_w2(a, b, scale):
    """wn_family(2) with the product a b multiplied by scale."""
    fam = wn_family(2)

    def rule(x, y):
        r = fam.rule(x, y)
        return (scale * r[0], r[1]) if (x, y) == (a, b) else r

    return replace(fam, rule=rule)


class TestFormSearchOrbits:
    """One block per mirror orbit of the variable permutations of w_n,
    against every block built and against the plan read triple by triple."""

    @pytest.mark.parametrize("n, size", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
    def test_orbits_match_full_build(self, monkeypatch, n, size):
        assert D.invariant_form_search(n, Window(size)) == _full_search(monkeypatch, n, size)

    def test_swap_is_used_on_w2(self, monkeypatch, tmp_path):
        # each yielded block is reduced once, in whichever process built it
        lines = _counting_blocks(monkeypatch, tmp_path / "blocks")
        report = D.invariant_form_search(2, Window(2))
        orbit = len(lines())
        assert _full_search(monkeypatch, 2, 2) == report
        assert (orbit, len(lines()) - orbit, report["rows"]) == (59, 109, 21156)
        assert len({line.split(" ", 1)[1] for line in lines()[:orbit]}) == orbit

    def test_swap_maps_keys(self):
        (s0, same), (s1, swap) = D._wn_mirrors(2)
        assert (s0, s1) == ((0, 1), (1, 0))
        assert same(wn((2, 1), 1)) == wn((2, 1), 1)
        assert swap(wn((2, 1), 1)) == wn((1, 2), 2) and swap(wn((0, 3), 2)) == wn((3, 0), 1)

    @pytest.mark.parametrize("a, b, scale, rows", _BENT_SWAPS)
    def test_broken_swap_is_dropped(self, monkeypatch, tmp_path, a, b, scale, rows):
        # both keep the grading but break the swap, which must not be used
        bent = _bent_w2(a, b, scale)
        monkeypatch.setattr(D, "wn_family", lambda n: bent)
        lines = _counting_blocks(monkeypatch, tmp_path / "blocks")
        report = D.invariant_form_search(2, Window(2))
        assert len(lines()) == 109
        assert report == _form_search_oracle(2, Window(2), bent)
        assert report["rows"] == rows

    @pytest.mark.parametrize(
        "mirror",
        [
            ((1, 0), lambda k: k),  # the keys stay, the weights would swap
            ((0, 1), lambda k: wn((k[1][0] + 1, k[1][1]), k[2])),  # leaves the window
            ((0, 1), lambda k: wn((0, 0), 1)),  # not a permutation
        ],
    )
    def test_bad_mirrors_are_dropped(self, mirror):
        fam = wn_family(2)
        keys = fam.keys(Window(2))
        _, built, blocks = D._form_search_blocks(fam, keys, D._wn_weight, [mirror])
        assert [len(images) for _, _, images in blocks(built)] == [1] * 109

    @pytest.mark.parametrize("n, size", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
    def test_blocks_match_plan_reference(self, n, size):
        fam = wn_family(n)
        keys = fam.keys(Window(size))
        skipped, built, blocks = D._form_search_blocks(fam, keys, D._wn_weight)
        expected = blocks_by_plan(fam, keys, D._wn_weight)
        assert (skipped, [(w, rows) for w, rows, _ in blocks(built)]) == expected
        # the orbit path builds the same rows on each block it builds
        _, built, blocks = D._form_search_blocks(fam, keys, D._wn_weight, D._wn_mirrors(n))
        by_weight = dict(expected[1])
        for w, rows, _ in blocks(built):
            assert rows == by_weight[w]

    @pytest.mark.parametrize("a, b, scale, rows", _BENT_SWAPS)
    def test_bent_blocks_match_plan_reference(self, a, b, scale, rows):
        # each block's rows, in order, on a family with a scaled coefficient;
        # the broken swap is dropped, so every block is built, alone in its orbit
        fam = _bent_w2(a, b, scale)
        keys = fam.keys(Window(2))
        expected = blocks_by_plan(fam, keys, D._wn_weight)
        for mirrors in ([], D._wn_mirrors(2)):
            skipped, built, blocks = D._form_search_blocks(fam, keys, D._wn_weight, mirrors)
            got = list(blocks(built))
            assert (skipped, [(w, rows) for w, rows, _ in got]) == expected
            assert [len(images) for _, _, images in got] == [1] * len(got)
        assert sum(len(block) for _, block in expected[1]) == rows

    def test_ats_blocks_match_plan_reference(self):
        fam = ats_family()
        keys = fam.keys(Window(3))
        weight = lambda k: (key_degree(k),)
        skipped, built, blocks = D._form_search_blocks(fam, keys, weight)
        assert (skipped, [(w, rows) for w, rows, _ in blocks(built)]) == blocks_by_plan(
            fam, keys, weight
        )


class TestFormSearchSplit:
    """The built blocks are split over the CPUs, one share in this process
    and each other in a forked worker; the report does not depend on it."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n, size", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
    def test_split_matches_one_cpu(self, monkeypatch, tmp_path, n, size, cpus):
        lines = _counting_blocks(monkeypatch, tmp_path / "blocks")
        _patch_cpus(monkeypatch, cpus)
        split = D.invariant_form_search(n, Window(size))
        _assert_no_children()
        forked = lines()
        _patch_cpus(monkeypatch, 1)
        monkeypatch.setattr(D.os, "fork", lambda: pytest.fail("one CPU must not fork"))
        assert D.invariant_form_search(n, Window(size)) == split
        alone = lines()[len(forked):]
        # the same blocks, each built once, by one process per share
        weights = lambda ls: sorted(line.split(" ", 1)[1] for line in ls)
        assert weights(forked) == weights(alone) and len(set(weights(alone))) == len(alone)
        assert {line.split()[0] for line in alone} == {str(os.getpid())}
        assert len({line.split()[0] for line in forked}) == cpus
        if (n, size) == (2, 3):
            assert (split["keys"], split["unknowns"], split["rows"], split["skipped_triples"]) == (
                98, 4753, 196819, 618248,
            )

    def test_worker_error_is_raised_here(self, monkeypatch):
        here, rref = os.getpid(), D.sparse_rref

        def failing(rows):
            if os.getpid() != here:
                raise ZeroDivisionError("reduced in a worker")
            return rref(rows)

        _patch_cpus(monkeypatch, 2)
        monkeypatch.setattr(D, "sparse_rref", failing)
        with pytest.raises(ZeroDivisionError) as err:
            D.invariant_form_search(2, Window(2))
        assert err.type is ZeroDivisionError and str(err.value) == "reduced in a worker"
        _assert_no_children()

    def test_own_share_error_reaps_the_worker(self, monkeypatch):
        here, rref = os.getpid(), D.sparse_rref

        def failing(rows):
            if os.getpid() == here:
                raise KeyError("reduced here")
            return rref(rows)

        _patch_cpus(monkeypatch, 3)
        monkeypatch.setattr(D, "sparse_rref", failing)
        forks = _counting_forks(monkeypatch)
        with pytest.raises(KeyError, match="reduced here"):
            D.invariant_form_search(2, Window(3))
        _assert_no_children()
        assert len(forks) == 2

    @pytest.mark.parametrize("collect", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("fails", [None, "worker", "here"])
    def test_collector_is_left_as_found(self, monkeypatch, collect, fails):
        # the collector is off while the shares are built, and is left as the
        # caller had it: on a return, on a worker's error and on an error here
        here, rref, seen = os.getpid(), D.sparse_rref, []

        def reduce(rows):
            if os.getpid() == here:
                seen.append(gc.isenabled())
            if fails == ("here" if os.getpid() == here else "worker"):
                raise ZeroDivisionError(fails)
            return rref(rows)

        _patch_cpus(monkeypatch, 2)
        monkeypatch.setattr(D, "sparse_rref", reduce)
        was = gc.isenabled()
        (gc.enable if collect else gc.disable)()
        try:
            if fails:
                with pytest.raises(ZeroDivisionError, match=fails):
                    D.invariant_form_search(2, Window(2))
            else:
                assert D.invariant_form_search(2, Window(2))["rows"] == 21156
            assert gc.isenabled() is collect
        finally:
            (gc.enable if was else gc.disable)()
        _assert_no_children()
        assert seen and not any(seen)

    def test_cpus_cap_at_built_blocks(self, monkeypatch):
        _patch_cpus(monkeypatch, 1000)
        forks = _counting_forks(monkeypatch)
        r = D.invariant_form_search(1, Window(2))
        _assert_no_children()
        assert r == _form_search_oracle(1, Window(2))
        fam = wn_family(1)
        _, built, _ = D._form_search_blocks(fam, fam.keys(Window(2)), D._wn_weight)
        assert len(forks) == len(built) - 1 < 1000

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(D.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(D.os, "cpu_count", lambda: 2)
        forks = _counting_forks(monkeypatch)
        assert D.invariant_form_search(1, Window(3)) == _form_search_oracle(1, Window(3))
        _assert_no_children()
        assert len(forks) == 1
