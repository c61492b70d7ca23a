"""Concrete graded families and the finite catalog."""

import dataclasses
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from permlie.kernel import (
    Fresh,
    Template,
    TemplateSeries,
    Window,
    add_term,
    av,
    ess,
    fin,
    key_degree,
    key_slots,
    mono,
    pat_const,
    pat_tee,
    tee,
    with_slots,
    wn,
)
from permlie.families import (
    FiniteAlgebra,
    ats_family,
    delta_a_family,
    delta_p_family,
    finite_catalog,
    mat_inv,
    mat_mul,
    perm_p_family,
    preperm_representation,
    random_table,
    tensor_catalog,
    wn_codelta,
    wn_family,
)
from permlie.affinize import induced_lie_bracket, pair_keys
from permlie.axioms import LawId, check_algebra, check_bialgebra, check_preperm
from permlie.cli import _perturbed_ats_product
from permlie.doubles import manin_double_from_bialgebra, restricted_dual_double
from helpers import conjugated_table, pat_eval, random_invertible

F = Fraction


class TestAtsProduct:
    def test_tee_tee(self):
        assert ats_family().product_one(tee(2), tee(3)) == (F(3), tee(4))
        assert ats_family().product_one(tee(2), tee(0)) is None

    def test_tee_ess(self):
        # coefficient 2i + j - 1
        assert ats_family().product_one(tee(2), ess(3)) == (F(6), ess(4))
        assert ats_family().product_one(tee(1), ess(-1)) is None

    def test_ess_tee(self):
        assert ats_family().product_one(ess(2), tee(3)) == (F(3), ess(4))

    def test_ess_ess_vanishes(self):
        assert ats_family().product_one(ess(2), ess(3)) is None

    def test_product_degree_additive(self):
        # the grading constants are chosen so every family multiplies
        # degree-additively
        for fam in (ats_family(), perm_p_family(), wn_family(1), wn_family(2)):
            for a in fam.keys(Window(2)):
                for b in fam.keys(Window(2)):
                    r = fam.product_one(a, b)
                    if r is not None:
                        assert key_degree(r[1]) == key_degree(a) + key_degree(b)


class TestPermPProduct:
    def test_unit_coefficients_and_shift(self):
        fam = perm_p_family()
        r = fam.product_one(mono(1, 2, 1), mono(0, 3, 2))
        assert r == (F(1), mono(2, 5, 2))
        r = fam.product_one(mono(1, 2, 2), mono(0, 3, 1))
        assert r == (F(1), mono(1, 6, 1))

    def test_target_slot_from_left_factor(self):
        fam = perm_p_family()
        # direction slot of the output always copies the right factor
        for s in (1, 2):
            for t in (1, 2):
                r = fam.product_one(mono(0, 0, s), mono(0, 0, t))
                assert r[1][3] == t


class TestWnProduct:
    def test_w1_matches_single_variable_rule(self):
        fam = wn_family(1)
        assert fam.product_one(wn((2,), 1), wn((3,), 1)) == (F(3), wn((4,), 1))
        assert fam.product_one(wn((2,), 1), wn((0,), 1)) is None

    def test_w2_coefficient_is_left_slot_exponent(self):
        fam = wn_family(2)
        assert fam.product_one(wn((1, 2), 1), wn((2, 3), 2)) == (F(2), wn((2, 5), 2))
        assert fam.product_one(wn((1, 2), 1), wn((0, 3), 2)) is None

    def test_w1_is_novikov_w2_is_not(self):
        assert check_algebra(
            LawId.Novikov, family=wn_family(1), window=Window(3)
        ).passed
        rep = check_algebra(LawId.Novikov, family=wn_family(2), window=Window(3))
        assert not rep.passed and rep.violations
        # but W2 still satisfies the weaker law
        assert check_algebra(
            LawId.PreLie, family=wn_family(2), window=Window(3)
        ).passed


class TestCoproducts:
    def test_delta_a_tee_coefficients(self):
        d = delta_a_family(tee(2))
        # branch (i + j - 1) s-right, branch (i - j) s-left
        assert d.coefficient_at((tee(-1), ess(2))) == F(2)
        assert d.coefficient_at((ess(-1), tee(2))) == F(1)

    def test_delta_a_ess_single_branch(self):
        d = delta_a_family(ess(2))
        assert d.coefficient_at((ess(-1), ess(2))) == F(2)
        assert d.coefficient_at((tee(-1), ess(2))) == F(0)

    def test_delta_p_lands_in_both_directions(self):
        d = delta_p_family(mono(0, 0, 1))
        sup = d.support_in_box(2)
        assert sup
        dirs = {k1[3] for (k1, k2) in sup}
        assert dirs <= {1, 2}

    def test_wn_codelta_exists_on_interior(self):
        d = wn_codelta(1, wn((1,), 1))
        assert d.support_in_box(3)

    def test_family_without_coproduct_raises(self):
        # a ValueError, which python -O keeps, unlike an assert
        fam = dataclasses.replace(ats_family(), sym_co=None)
        with pytest.raises(ValueError, match="ats has no coproduct"):
            fam.delta(tee(0))

    def test_preperm_representation_without_tables_raises(self):
        with pytest.raises(ValueError, match="ex-1p has no pre-perm tables"):
            preperm_representation(finite_catalog()["ex-1p"])


class TestForms:
    def test_omega_values(self):
        fam = ats_family()
        assert fam.form(ess(2), tee(-2)) == F(1)
        assert fam.form(tee(-2), ess(2)) == F(-1)
        assert fam.form(ess(2), tee(1)) == F(0)
        assert fam.form(tee(1), tee(-1)) == F(0)
        assert fam.form_m == -2

    def test_kappa_weight(self):
        fam = perm_p_family()
        assert fam.form_m == 2
        w = Window(2)
        for a in fam.keys(w):
            for b in fam.keys(w):
                if fam.form(a, b):
                    assert key_degree(a) + key_degree(b) == 2

    def test_form_partners_agree_with_form(self):
        for fam in (ats_family(), perm_p_family()):
            for a in fam.keys(Window(2)):
                for b, c in fam.form_partners(a):
                    assert fam.form(a, b) == c


def _cross_check_families():
    return [
        ats_family(),
        perm_p_family(),
        wn_family(1),
        wn_family(2),
        restricted_dual_double(wn_family(1)),
    ]


class TestConcreteMatchesSymbolic:
    """The readings of each family's rules on keys against their readings on
    patterns: the product on every Window(2) key pair, the form partners on
    every Window(2) key, the dual pairs on the Window(3) box."""

    @pytest.mark.parametrize("fam", _cross_check_families(), ids=lambda f: f.name)
    def test_product_one_is_sym_product_at_constants(self, fam):
        keys = fam.keys(Window(2))
        for a in keys:
            for b in keys:
                want = {}
                for poly, p in fam.sym_product(pat_const(a), pat_const(b)):
                    add_term(want, pat_eval(p, {}), poly.eval({}))
                r = fam.product_one(a, b)
                got = {} if r is None else {r[1]: r[0]}
                assert got == want, (a, b)

    @pytest.mark.parametrize("fam", _cross_check_families(), ids=lambda f: f.name)
    def test_product_one_is_sym_product_on_variable_patterns(self, fam):
        # One symbolic product per shape pair, evaluated at every Window(2)
        # slot assignment: a rule that branched on a slot value would give a
        # pattern product that disagrees with some key product.
        shapes = fam.keys_fn(0)
        for x, y in itertools.product(shapes, shapes):
            xs = [f"a{i}" for i in range(len(key_slots(x)))]
            ys = [f"b{i}" for i in range(len(key_slots(y)))]
            px, py = with_slots(x, map(av, xs)), with_slots(y, map(av, ys))
            sym = fam.sym_product(px, py)
            for vals in itertools.product(range(-2, 3), repeat=len(xs) + len(ys)):
                env = dict(zip(xs + ys, vals))
                want = {}
                for poly, p in sym:
                    add_term(want, pat_eval(p, env), poly.eval(env))
                a, b = pat_eval(px, env), pat_eval(py, env)
                r = fam.product_one(a, b)
                got = {} if r is None else {r[1]: r[0]}
                assert got == want, (a, b)

    @pytest.mark.parametrize(
        "fam",
        [f for f in _cross_check_families() if f.form is not None],
        ids=lambda f: f.name,
    )
    def test_dual_pairs_sum_to_the_form_once(self, fam):
        box = fam.keys(Window(3))
        got = {}
        for names, e, f, value in fam.dual_pairs(Fresh("j")):
            one = TemplateSeries(2, [Template(names, value, (f, e))])
            for fe, c in one.support_in_box(3).items():
                assert fe not in got, fe
                got[fe] = c
        assert got == {(x, y): fam.form(x, y) for x in box for y in box if fam.form(x, y)}

    @pytest.mark.parametrize(
        "fam",
        [f for f in _cross_check_families() if f.form is not None],
        ids=lambda f: f.name,
    )
    def test_form_partners_are_the_nonzero_form_entries(self, fam):
        keys = fam.keys(Window(2))
        inside = set(keys)
        for a in keys:
            partners = {b: c for b, c in fam.form_partners(a) if b in inside}
            assert partners == {b: fam.form(a, b) for b in keys if fam.form(a, b)}, a


class TestCatalog:
    def test_ids_and_kinds(self):
        cat = finite_catalog()
        kinds = {aid: alg.kind for aid, alg in cat.items()}
        assert kinds["ex-1p"] == "Perm"
        assert kinds["ex-sd2"] == "Perm"
        assert kinds["ex-nilp2"] == "Perm"
        assert kinds["ex-bad2"] == "none"
        assert kinds["ex-prelie-1"] == "PreLie"
        assert kinds["ex-prelie-n2"] == "PreLie"

    def test_perm_members_pass_bad_fails(self):
        cat = finite_catalog()
        for aid in ("ex-1p", "ex-sd2", "ex-nilp2"):
            assert check_algebra(LawId.Perm, alg=cat[aid]).passed, aid
        rep = check_algebra(LawId.Perm, alg=cat["ex-bad2"])
        assert not rep.passed and rep.violations

    def test_preperm_entries(self):
        cat = finite_catalog()
        assert check_preperm(cat["ex-preperm-1"]).passed
        rep = check_preperm(cat["ex-preperm-bad"])
        assert not rep.passed and rep.violations

    def test_tensor_catalog_targets(self):
        tens = tensor_catalog()
        cat = finite_catalog()
        for name, (aid, r) in tens.items():
            assert aid in cat, name
            assert r and type(r) is dict, name
            for (k1, k2), c in r.items():
                assert type(c) is Fraction and c != 0
                assert {k1, k2} <= set(cat[aid].basis_keys()), name

    def test_algebra_accessors(self):
        alg = finite_catalog()["ex-sd2"]
        assert alg.dim == 2
        assert len(alg.basis_keys()) == 2
        v = alg.product(alg.key(0), alg.key(1))
        assert dict(v.items()) == {alg.key(1): F(1)}


def _assert_vector(v):
    """The contract of a product on keys: a dict with no zero entry whose
    every value is a Fraction (the JSON writer prints an int as a number)."""
    assert type(v) is dict, type(v)
    assert all(type(c) is Fraction and c for c in v.values()), v


# int coefficients, and cells whose repeated terms cancel in part or in full
_INT_TABLE = FiniteAlgebra(
    id="ints",
    space="I",
    dim=2,
    labels=("a", "b"),
    kind="none",
    mul={
        (0, 0): ((0, 2), (1, 3)),
        (0, 1): ((1, 1), (0, 5), (1, -1)),
        (1, 0): ((0, 1), (0, 1)),
        (1, 1): ((0, 1), (0, -1)),
    },
)


class TestKeyProducts:
    """Every product on keys returns a plain {key: Fraction} dict with no
    zero entries, built term by term in table order."""

    def test_finite_table_with_int_coefficients(self):
        e0, e1 = _INT_TABLE.basis_keys()
        want = {
            (0, 0): [(e0, F(2)), (e1, F(3))],
            (0, 1): [(e0, F(5))],
            (1, 0): [(e0, F(2))],
            (1, 1): [],
        }
        for (i, j), items in want.items():
            v = _INT_TABLE.product(fin("I", i), fin("I", j))
            _assert_vector(v)
            assert list(v.items()) == items, (i, j)

    @pytest.mark.parametrize("fam", _cross_check_families(), ids=lambda f: f.name)
    def test_graded_family(self, fam):
        keys = fam.keys(Window(2))
        nonzero = 0
        for a in keys:
            for b in keys:
                v = fam.product(a, b)
                _assert_vector(v)
                nonzero += bool(v)
        assert nonzero

    @pytest.mark.parametrize("alg_id", ["ex-1p", "ex-sd2", "ints"])
    def test_induced_bracket(self, alg_id):
        # ats's rule carries int coefficients, and so does the ints table
        alg = _INT_TABLE if alg_id == "ints" else finite_catalog()[alg_id]
        fam = ats_family()
        br, _ = induced_lie_bracket(alg, fam)
        keys = pair_keys(alg, fam, Window(2))
        nonzero = 0
        for x in keys:
            assert br(x, x) == {}, x  # xx (x) ff - xx (x) ff cancels
            for y in keys:
                v = br(x, y)
                _assert_vector(v)
                nonzero += bool(v)
        assert nonzero

    def test_perturbed_ats_product(self):
        keys = ats_family().keys(Window(2))
        for a in keys:
            for b in keys:
                _assert_vector(_perturbed_ats_product(a, b))
        # t^2 t^0 has no term of its own: only the spurious t^2 is left
        assert _perturbed_ats_product(tee(2), tee(0)) == {tee(2): F(1)}
        assert _perturbed_ats_product(tee(2), tee(3)) == {tee(4): F(3), tee(5): F(1)}


class TestRandomTables:
    def test_deterministic_for_seed(self):
        import random

        t1 = random_table(random.Random(5), 2)
        t2 = random_table(random.Random(5), 2)
        assert t1 == t2

    def test_mat_inv(self):
        import random

        rng = random.Random(4)
        for dim in (1, 2, 3, 4):
            for _ in range(5):
                a = random_invertible(rng, dim)
                eye = tuple(tuple(F(i == j) for j in range(dim)) for i in range(dim))
                assert mat_mul(a, mat_inv(a)) == eye
        assert mat_inv(((F(1), F(2)), (F(2), F(4)))) is None
        assert mat_inv(((F(0), F(0)), (F(0), F(0)))) is None

    def test_conjugation_preserves_perm(self):
        import random

        rng = random.Random(3)
        cat = finite_catalog()
        base = cat["ex-sd2"]
        s = random_invertible(rng, 2)
        alg = FiniteAlgebra(
            id="conj",
            space="C2",
            dim=2,
            labels=("a", "b"),
            kind="Perm",
            mul=conjugated_table(base.mul, s, 2),
        )
        assert check_algebra(LawId.Perm, alg=alg).passed


class TestFiniteInputChecks:
    """A finite table rejects graded patterns and a singular basis change with
    ValueError, which python -O keeps, unlike an assert."""

    def test_sym_product_needs_fin_patterns(self):
        with pytest.raises(ValueError, match="ex-1p has only Fin keys"):
            finite_catalog()["ex-1p"].sym_product(pat_tee(0), pat_tee(1))

    def test_sym_delta_needs_a_fin_pattern(self):
        with pytest.raises(ValueError, match="ex-1p has only Fin keys"):
            finite_catalog()["ex-1p"].sym_delta(pat_tee(0), Fresh("q"))

    def test_conjugated_table_needs_an_invertible_matrix(self):
        ones = ((F(1), F(1)), (F(1), F(1)))
        with pytest.raises(ValueError, match="basis change is singular"):
            conjugated_table(finite_catalog()["ex-sd2"].mul, ones, 2)

    # A table entry that leaves range(dim) is refused where the table is
    # built, so no check reads it: before, the first call passed, the second
    # ended in an IndexError and the third passed on a key the basis lacks.
    def test_bialgebra_delta_table_outside_the_basis(self):
        with pytest.raises(ValueError, match=r"ex-1p: delta\[3\] leaves range\(1\)"):
            check_bialgebra(
                LawId.PermBi, alg=finite_catalog()["ex-1p"], delta_table={3: ((0, 0, F(1)),)}
            )

    def test_manin_double_delta_outside_the_basis(self):
        with pytest.raises(ValueError, match=r"delta\[3\] leaves range\(1\)"):
            manin_double_from_bialgebra(finite_catalog()["ex-1p"], {3: ((0, 0, F(1)),)})

    def test_product_outside_the_basis(self):
        with pytest.raises(ValueError, match=r"one: mul\[\(0, 0\)\] leaves range\(1\)"):
            check_algebra(
                LawId.Perm,
                alg=FiniteAlgebra(
                    id="one", space="O", dim=1, labels=("e",), kind="Perm",
                    mul={(0, 0): ((4, F(1)),)},
                ),
            )

    @pytest.mark.parametrize(
        "tables",
        [
            {"mul": {(0, 2): ((0, F(1)),)}},
            {"tri_left": {(0, 0): ((2, F(1)),)}},
            {"tri_right": {(-1, 0): ((0, F(1)),)}},
            {"delta": {0: ((0, 2, F(1)),)}},
        ],
        ids=["mul-input", "tri_left-output", "tri_right-negative", "delta-leg"],
    )
    def test_every_table_index_is_checked(self, tables):
        with pytest.raises(ValueError, match="leaves range"):
            FiniteAlgebra(id="two", space="T", dim=2, labels=("a", "b"), kind="none", **tables)

    def test_sym_product_check_survives_python_O(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "from permlie.families import finite_catalog\n"
            "from permlie.kernel import pat_tee\n"
            "try:\n"
            "    finite_catalog()['ex-1p'].sym_product(pat_tee(0), pat_tee(1))\n"
            "except ValueError as e:\n"
            "    print('ValueError', e)\n"
        )
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.startswith("ValueError ex-1p has only Fin keys"), out.stderr
