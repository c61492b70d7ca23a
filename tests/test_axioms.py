"""Law checkers: algebra, coalgebra, form, matched pair, O-operator."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from permlie.kernel import (
    Fresh,
    InsufficientWindowError,
    Poly,
    Template,
    TemplateSeries,
    Window,
    add_term,
    apply_product_slot,
    av,
    ess,
    expand_slot,
    key_degree,
    key_shape,
    key_slots,
    mono,
    pair,
    pat_const,
    tee,
    with_slots,
)
from permlie.families import (
    FiniteAlgebra,
    Representation,
    adjoint_representation,
    ats_family,
    combine_tables,
    delta_a_family,
    delta_a_sym,
    delta_p_family,
    finite_catalog,
    mat_inv,
    perm_p_family,
    preperm_representation,
    random_table,
    tensor_catalog,
    wn_codelta,
    wn_codelta_sym,
    wn_family,
)
from permlie import axioms, kernel
from permlie.axioms import (
    BI_PLANS,
    FORM_PLANS,
    LawId,
    _assemble_matched_pair,
    _form_row_holds,
    _form_weight_holds,
    _gram_rank,
    _holds_on_patterns,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    coalgebra_residuals,
    check_form,
    check_matched_pair,
    check_o_operator,
    check_preperm,
    check_representation,
)
from permlie.serialize import canonical_json, report_to_json
from box_reference import support_by_solving
from finite_reference import o_operator_by_tuples, preperm_by_chains, representation_by_matrices
from permlie.affinize import affinization_probe, delta_bullet_rule, induced_lie_bracket, pair_keys
from permlie.cli import _perturbed_ats_delta, _perturbed_ats_product, _perturbed_ats_sym_co
from permlie.ybe import affinize_r, coboundary_delta_perm, coboundary_delta_prelie, cybe_residual
from permlie.doubles import (
    canonical_dual_actions,
    dual_perm_algebra,
    dual_rep,
    manin_double_from_bialgebra,
    restricted_dual_double,
)
from bialgebra_reference import check_bialgebra_by_hand
from law_cube_reference import law_residuals_by_cube
from helpers import (
    conjugated_delta,
    conjugated_table,
    criterion_5_bank,
    mat_vec,
    random_delta,
    random_invertible,
    signed_sum,
    times,
    unit,
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

    @pytest.mark.parametrize("margin", [None, 0, 2])
    def test_alg_path_is_the_product_keys_call(self, margin):
        # a window of N = margin, so that the margin leaves an interior
        window = Window(margin or 0)
        for alg in (finite_catalog()["ex-sd2"], finite_catalog()["ex-bad2"]):
            rep = check_algebra(LawId.Perm, alg=alg, window=window, margin=margin)
            by_keys = check_algebra(
                LawId.Perm, product=alg.product, keys=alg.basis_keys(), window=window,
                margin=margin,
            )
            assert rep == by_keys and rep.margin == (margin or 0), alg.id

    @pytest.mark.parametrize("how", ["alg", "product", "form", "perm-bi", "prelie-bi"])
    def test_finite_margin_without_interior_raises(self, how):
        # a margin past the window leaves no interior on the finite path too,
        # as on the graded path: the report would claim a margin no window holds
        cat = finite_catalog()
        alg = cat["ex-1p"]
        if how == "form":
            fd, fform = restricted_dual_double(cat["ex-prelie-1"])
            kw = {"form": fform, "product": fd.product, "keys": fd.basis_keys()}
            check = functools.partial(check_form, LawId.QuadPreLieForm, **kw)
        elif how.endswith("-bi"):
            law, alg = (LawId.PermBi, alg) if how == "perm-bi" else (LawId.PreLieBi, cat["ex-prelie-1"])
            check = functools.partial(check_bialgebra, law, alg=alg)
        else:
            kw = {"alg": alg} if how == "alg" else {"product": alg.product, "keys": alg.basis_keys()}
            check = functools.partial(check_algebra, LawId.Perm, **kw)
        with pytest.raises(InsufficientWindowError) as err:
            check(margin=3)
        assert (err.value.n, err.value.margin) == (0, 3)
        with pytest.raises(InsufficientWindowError):
            check(window=Window(2), margin=3)
        with pytest.raises(InsufficientWindowError):
            check(window=Window(5), margin=9)
        if how == "form":  # check_form takes its margin from margin= alone
            assert check(window=Window(2, 5)).margin == 0
        else:
            with pytest.raises(InsufficientWindowError):
                check(window=Window(2, 5))
        rep = check(window=Window(3), margin=3)
        assert rep.passed and (rep.n, rep.margin) == (3, 3)

    def test_product_keys_path(self):
        fam = ats_family()

        def product(a, b):
            r = fam.product_one(a, b)
            out = {}
            if r is not None:
                add_term(out, r[1], r[0])
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
        fam = ats_family()

        def bad(a, b):
            out = {}
            r = fam.product_one(a, b)
            if r is not None:
                add_term(out, r[1], r[0])
            if a[0] == "Tee" and b[0] == "Tee":
                add_term(out, tee(a[1] + b[1]), ONE)
            return out

        w = Window(4)
        rep = check_algebra(
            LawId.PreLie, product=bad, keys=fam.interior_keys(w, "PreLie")
        )
        assert not rep.passed
        assert len(rep.violations) == 25
        assert rep.violations[0][0] == "pre-lie"


def _oracle(law, keys, product):
    """A law checked straight from its textbook identity, with plain signed
    sums of {key: coeff} dicts: (passed, checked, extra, violations) as
    check_algebra reports them, keeping the first 25 violations in
    (a, b, c, label) order."""
    memo = {}

    def prod(ka, kb):
        if (ka, kb) not in memo:
            memo[(ka, kb)] = product(ka, kb)
        return memo[(ka, kb)]

    def mul(u, v):
        return signed_sum(
            *((ca * cb, prod(ka, kb)) for ka, ca in u.items() for kb, cb in v.items())
        )

    def identities(a, b, c=None):
        if law == LawId.LieSkew:
            return [("skew", signed_sum((1, mul(a, b)), (1, mul(b, a))))]
        abc = mul(mul(a, b), c)
        if law == LawId.LieJacobi:
            jacobi = signed_sum((1, abc), (1, mul(mul(b, c), a)), (1, mul(mul(c, a), b)))
            return [("jacobi", jacobi)]
        if law == LawId.Perm:
            return [
                ("assoc", signed_sum((1, abc), (-1, mul(a, mul(b, c))))),
                ("left-comm", signed_sum((1, abc), (-1, mul(mul(b, a), c)))),
            ]
        prelie = signed_sum(
            (1, abc), (-1, mul(a, mul(b, c))), (-1, mul(mul(b, a), c)), (1, mul(b, mul(a, c)))
        )
        rows = [("pre-lie", prelie)]
        if law == LawId.Novikov:
            rows.append(("right-comm", signed_sum((1, abc), (-1, mul(mul(a, c), b)))))
        return rows

    arity = 2 if law == LawId.LieSkew else 3
    found = []
    for at in itertools.product(keys, repeat=arity):
        for label, res in identities(*({k: ONE} for k in at)):
            if res:
                found.append((label, at, tuple(sorted(res.items()))))
    extra = {"violations_total": len(found)}
    if len(found) > 25:
        extra["violations_truncated"] = True
    kept = sorted(found[:25], key=lambda v: (v[0], v[1]))
    return (not found, len(keys) ** arity, extra, kept)


def _vector_product(one):
    def product(a, b):
        r = one(a, b)
        return {} if r is None else {r[1]: r[0]}

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


class TestResidualsAreFractions:
    """Coefficients stay ints inside the kernel and the law cube; every
    residual coefficient a failing report carries is a Fraction, which
    serialize writes as a string, where a bare int would be a JSON number."""

    @staticmethod
    def _assert_fractions(rep):
        assert not rep.passed and rep.violations
        coeffs = [c for _, _, res in rep.violations for _, c in res]
        assert coeffs and all(c.__class__ is Fraction for c in coeffs)

    def test_check_coalgebra(self):
        window = Window(4)
        self._assert_fractions(check_coalgebra(
            LawId.CoPreLie, delta=_perturbed_ats_delta, sym_co=_perturbed_ats_sym_co,
            keys=ats_family().keys(window), window=window, margin=0,
        ))

    def test_check_algebra(self):
        self._assert_fractions(check_algebra(LawId.Perm, alg=finite_catalog()["ex-bad2"]))
        keys = ats_family().keys(Window(4))
        self._assert_fractions(
            check_algebra(LawId.PreLie, product=_perturbed_ats_product, keys=keys)
        )

    def test_cybe_residual(self):
        nilp = finite_catalog()["ex-nilp2"]
        fam = ats_family()
        _, sym_bracket = induced_lie_bracket(nilp, fam)
        rtilde = affinize_r(tensor_catalog()["r-nilp2"][1], fam)
        self._assert_fractions(cybe_residual(sym_bracket, rtilde, Window(3)))

    def test_pair_jacobi(self):
        bad2 = finite_catalog()["ex-bad2"]
        verdict = affinization_probe(bad2, ats_family(), "algebra", Window(2))
        self._assert_fractions(verdict.window_report)


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
    # seconds for each of these 125,000-triple cubes, so each is computed once
    # for both paths.  On the family path permP's Perm is proved on patterns;
    # the product path runs the cube on the same keys.
    _margin_zero_oracles: dict = {}

    def assert_matches_at_margin_zero(self, rep, fam, law):
        keys = fam.keys(Window(2))
        cached = self._margin_zero_oracles
        if (fam.name, law) not in cached:
            cached[(fam.name, law)] = _oracle(law, keys, _vector_product(fam.product_one))
        assert _fields(rep) == cached[(fam.name, law)]

    _MARGIN_ZERO_CASES = pytest.mark.parametrize(
        "fam, law",
        [(perm_p_family(), LawId.Perm), (wn_family(2), LawId.Novikov)],
        ids=["permP-Perm", "w2-Novikov"],
    )

    @_MARGIN_ZERO_CASES
    def test_families_at_margin_zero(self, fam, law):
        rep = check_algebra(law, family=fam, window=Window(2), margin=0)
        self.assert_matches_at_margin_zero(rep, fam, law)

    @_MARGIN_ZERO_CASES
    def test_family_products_at_margin_zero(self, fam, law):
        keys = fam.keys(Window(2))
        rep = check_algebra(law, product=fam.product, keys=keys, window=Window(2), margin=0)
        self.assert_matches_at_margin_zero(rep, fam, law)


_FAMILIES = {
    "permP": perm_p_family(),
    "ats": ats_family(),
    "w1": wn_family(1),
    "w2": wn_family(2),
}


def _cube_report(law, fam, keys, window):
    """check_algebra on fam's keys through the product path: the cube, never
    patterns."""
    return check_algebra(law, product=fam.product, keys=keys, window=window, margin=window.margin)


def _fields(rep):
    return (rep.passed, rep.checked, rep.extra, rep.violations)


def _shape_perturbed(fam, signs, scale, offsets, moved, skew):
    """fam with a rule that still branches on key shapes only: each product's
    coefficient is scaled, then multiplied by the signs of its two input
    shapes and its output shape, and with skew by the difference of the two
    inputs' first slots, then offset per input shape pair; for the shape
    pairs in moved, the output takes the family's next shape with as many
    slots.  Signs and scale alone rescale the basis (or the product), so
    every law the family satisfies still holds.  The skew factor vanishes
    where the inputs' slots agree, so a proof that gave every input the same
    variables would pass it."""
    shapes = [key_shape(k) for k in fam.keys_fn(0)]
    examples = {key_shape(k): k for k in fam.keys_fn(0)}
    base = fam.rule

    def rule(x, y):
        r = base(x, y)
        if r is None:
            return None
        c, z = r
        xy = (key_shape(x), key_shape(y))
        if xy in moved:
            nxt = shapes[(shapes.index(key_shape(z)) + 1) % len(shapes)]
            if len(key_slots(examples[nxt])) == len(key_slots(z)):
                z = with_slots(examples[nxt], key_slots(z))
        c = c * (scale * signs[xy[0]] * signs[xy[1]] * signs[key_shape(z)])
        if skew:  # an Aff coefficient (ats, wn) times an Aff raises TypeError
            c = c * (key_slots(x)[0] - key_slots(y)[0])
        return (c + offsets.get(xy, 0), z)

    return dataclasses.replace(fam, rule=rule)


@st.composite
def _perturbations(draw):
    name = draw(st.sampled_from(sorted(_FAMILIES)))
    fam = _FAMILIES[name]
    shapes = [key_shape(k) for k in fam.keys_fn(0)]
    pairs = list(itertools.product(shapes, repeat=2))
    signs = {sh: draw(st.sampled_from([1, -1])) for sh in shapes}
    scale = draw(st.sampled_from([1, -1, 2]))
    offsets = draw(
        st.just({})
        | st.dictionaries(st.sampled_from(pairs), st.sampled_from([-1, 1]), min_size=1, max_size=2)
    )
    moved = draw(st.just(frozenset()) | st.frozensets(st.sampled_from(pairs), min_size=1, max_size=1))
    skew = draw(st.booleans())
    law = draw(st.sampled_from(ALGEBRA_LAWS))
    return law, _shape_perturbed(fam, signs, scale, offsets, moved, skew)


def _lift_bracket_cases():
    """(window, law, bracket, keys) for the Manin lift of ex-1p's double
    through ats at Window(3) and Window(4): its Pair-key bracket, whose
    products have several terms, on the interior keys of each algebra law
    at its default margin (LieSkew and LieJacobi pass, the others fail)."""
    fam = ats_family()
    double = manin_double_from_bialgebra(finite_catalog()["ex-1p"]).total
    bracket, _ = induced_lie_bracket(double, fam)
    out = []
    for n in (3, 4):
        for law in ALGEBRA_LAWS:
            window = Window(n, axioms.default_margin(law, graded=True))
            keys = [pair(f, g) for f in double.basis_keys() for g in fam.interior_keys(window, law.value)]
            out.append((window, law, bracket, keys))
    return out


class TestLawCubeReference:
    """check_algebra and check_matched_pair against the hand-vectorized cube
    they ran before the slot program (law_cube_reference), field for field,
    including violations_total and truncation."""

    @pytest.fixture
    def same(self, monkeypatch):
        def check(call):
            rep = call()
            with monkeypatch.context() as m:
                m.setattr(axioms, "_law_residuals", law_residuals_by_cube)
                assert rep == call()
            return rep

        return check

    def test_random_tables(self, same):
        # every third table is a random basis change of a perm or a pre-Lie
        # table (plus e e = e in dimension 3), the others are random
        rng = random.Random(2707)
        cat = finite_catalog()
        laws = [cat["ex-sd2"].mul, cat["ex-prelie-n2"].mul]
        bases = {2: laws, 3: [{**mul, (2, 2): ((2, ONE),)} for mul in laws]}
        seen = set()
        for t in range(30):
            d = 2 + t % 2
            if t % 3 == 0:
                mul = conjugated_table(rng.choice(bases[d]), random_invertible(rng, d), d)
            else:
                mul = random_table(rng, d)
            alg = FiniteAlgebra(
                id=f"rand{t}", space=f"R{t}", dim=d, labels=tuple("abc"[:d]), kind="none", mul=mul
            )
            for law in ALGEBRA_LAWS:
                seen.add((d, same(lambda: check_algebra(law, alg=alg)).passed))
        assert seen == {(2, True), (2, False), (3, True), (3, False)}

    @pytest.mark.parametrize("law", ALGEBRA_LAWS)
    def test_perturbed_ats_product_past_the_cap(self, same, law):
        # 18 interior keys, whose products leave the key list
        keys = ats_family().interior_keys(Window(4), LawId.PreLie.value)
        assert len(keys) == 18
        rep = same(lambda: check_algebra(law, product=_perturbed_ats_product, keys=keys))
        assert rep.extra["violations_total"] > 25 and rep.extra["violations_truncated"]

    def test_lift_bracket(self, same):
        passed = set()
        for window, law, bracket, keys in _lift_bracket_cases():
            rep = same(lambda: check_algebra(law, product=bracket, keys=keys, window=window))
            if rep.passed:
                passed.add(law)
        assert passed == {LawId.LieSkew, LawId.LieJacobi}

    def test_repeated_keys(self, same):
        ats = ats_family()
        for alg in finite_catalog().values():
            keys = alg.basis_keys()
            for law in ALGEBRA_LAWS:
                same(lambda: check_algebra(law, product=alg.product, keys=keys + keys[:1]))
        keys = ats.keys(Window(1))
        for law in ALGEBRA_LAWS:
            rep = same(lambda: check_algebra(law, product=_perturbed_ats_product, keys=keys + keys[::2]))
            assert not rep.passed

    def test_matched_pairs(self, same):
        for name, alg1, alg2, actions in _matched_pair_inputs():
            same(lambda: check_matched_pair(alg1, alg2, *actions))


class TestPatternCertificate:
    """check_algebra on a family proves a law on patterns when it can; the
    report must be the one the cube gives on the same keys."""

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_matches_cube(self, name):
        fam = _FAMILIES[name]
        window = Window(2, 0)
        keys = fam.keys(window)
        for law in ALGEBRA_LAWS:
            cube = _cube_report(law, fam, keys, window)
            # Every law these families satisfy closes on patterns.
            assert _holds_on_patterns(law, fam.sym_product, keys) == cube.passed, law
            rep = check_algebra(law, family=fam, window=window, margin=0)
            assert _fields(rep) == _fields(cube), law

    def test_shape_only_perturbations_match_cube(self):
        seen = set()

        @settings(
            max_examples=60,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(_perturbations())
        def check(case):
            law, fam = case
            window = Window(1, 0)
            keys = fam.keys(window)
            proved = _holds_on_patterns(law, fam.sym_product, keys)
            rep = check_algebra(law, family=fam, window=window, margin=0)
            assert _fields(rep) == _fields(_cube_report(law, fam, keys, window))
            assert rep.passed or not proved
            seen.add((proved, rep.passed))

        check()
        assert (True, True) in seen and (False, False) in seen

    # A slot value has no answer on a pattern, so each branch raises there.
    @pytest.mark.parametrize(
        "branch",
        [lambda a: a < 0, lambda a: a == 0, lambda a: not a],
        ids=["less-than", "equals", "truth"],
    )
    def test_rule_branching_on_a_slot_falls_back_to_the_cube(self, branch):
        base = perm_p_family().rule

        def rule(x, y):
            if branch(x[1]):
                return (2, base(x, y)[1])
            return base(x, y)

        fam = dataclasses.replace(perm_p_family(), rule=rule)
        pat = with_slots(mono(0, 0, 1), [av("a"), av("b")])
        with pytest.raises(TypeError):
            fam.sym_product(pat, pat)
        window = Window(2, 0)
        keys = fam.keys(window)
        rep = check_algebra(LawId.Perm, family=fam, window=window, margin=0)
        assert not rep.passed
        assert _fields(rep) == _fields(_cube_report(LawId.Perm, fam, keys, window))

    def test_prelie_on_w3_beyond_the_cube(self):
        # 6,591 interior keys: about 2.9e11 triples, far beyond the cube.
        fam = wn_family(3)
        window = Window(8)
        keys = fam.interior_keys(Window(8, 2), LawId.PreLie.value)
        rep = check_algebra(LawId.PreLie, family=fam, window=window)
        assert rep.passed and rep.margin == 2
        assert rep.checked == len(keys) ** 3 == 6591**3
        assert rep.extra == {"violations_total": 0}


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


def _coalgebra_case(name):
    """(law, delta, sym_co, keys) of a coalgebra row at Window(2)."""
    w = Window(2)
    if name == "coperm:permP":
        fam = perm_p_family()
        return LawId.CoPerm, delta_p_family, fam.sym_co, fam.interior_keys(w, "CoPerm")
    if name == "coprelie:ats":
        fam = ats_family()
        return LawId.CoPreLie, delta_a_family, fam.sym_co, fam.interior_keys(w, "CoPreLie")
    if name == "coprelie:w1":
        return (
            LawId.CoPreLie,
            lambda k: wn_codelta(1, k),
            wn_codelta_sym(1),
            wn_family(1).interior_keys(w, "CoPreLie"),
        )
    return (
        LawId.CoPreLie,
        _perturbed_ats_delta,
        _perturbed_ats_sym_co,
        ats_family().interior_keys(w, "CoPreLie"),
    )


def _co_identities(law, d, sym_co):
    """The co-side identities at one key x, given d = Delta(x), written out
    with expand_slot and permuted: a = (Delta (x) 1) Delta(x),
    b = (1 (x) Delta) Delta(x), and tau12 swaps the first two legs."""
    if law == LawId.CoLieSkew:
        return [("co-skew", d + d.permuted((1, 0)))]
    fresh = Fresh("k")
    a = expand_slot(d, 0, sym_co, fresh)
    b = expand_slot(d, 1, sym_co, fresh)
    tau12 = (1, 0, 2)
    return {
        # coassociativity, and a = tau12 a
        LawId.CoPerm: [("coassoc", a - b), ("left-cosym", a - a.permuted(tau12))],
        # (1 - tau12)(a - b) = 0
        LawId.CoPreLie: [("co-pre-lie", a - a.permuted(tau12) - b + b.permuted(tau12))],
        # the Leibniz form of co-Jacobi: (1 - tau12) b = a
        LawId.CoLieJacobi: [("co-jacobi", b - b.permuted(tau12) - a)],
    }[law]


class TestCoalgebraCollapse:
    """The paper's co-side identities cancel template by template, so
    support_in_box is left nothing to enumerate."""

    @pytest.mark.parametrize("name", ["coperm:permP", "coprelie:ats", "coprelie:w1"])
    def test_residuals_collapse_to_nothing(self, name):
        law, delta, sym_co, keys = _coalgebra_case(name)
        assert keys
        for x in keys:
            for label, res in _co_identities(law, delta(x), sym_co):
                assert res.templates, (label, x)
                assert res.collapsed().templates == (), (label, x)

    def test_plan_rows_are_the_written_identities(self):
        # coalgebra_residuals reads its rows from the law plans; at every key
        # of the CLI rows and of ten criterion-5 coproducts, each row must be
        # the identity written out above, as a series
        names = ("coperm:permP", "coprelie:ats", "coprelie:w1", "neg:perturbed-ats")
        cases = [_coalgebra_case(name)[1:] for name in names]
        fam = ats_family()
        for dt in criterion_5_bank(10)[1]:
            alg = FiniteAlgebra(
                id="probe", space="PR", dim=2, labels=("a", "b"), kind="none", mul={}, delta=dt
            )
            cases.append(delta_bullet_rule(alg, fam) + (pair_keys(alg, fam, Window(2)),))
        for delta, sym_co, keys in cases:
            for law in (LawId.CoPerm, LawId.CoPreLie, LawId.CoLieSkew, LawId.CoLieJacobi):
                for x in keys:
                    got = coalgebra_residuals(law, delta(x), sym_co)
                    want = _co_identities(law, delta(x), sym_co)
                    assert [label for label, _ in got] == [label for label, _ in want]
                    for (label, res), (_, ref) in zip(got, want):
                        assert (res - ref).collapsed().templates == (), (law, label, x)

    def test_perturbed_ats_keeps_templates_and_witnesses(self):
        law, delta, sym_co, keys = _coalgebra_case("neg:perturbed-ats")
        expected = []
        for x in keys:
            for label, res in _co_identities(law, delta(x), sym_co):
                support = support_by_solving(res, 2)
                if support:
                    assert res.collapsed().templates, (label, x)
                    expected.append((label, (x,), tuple(sorted(support.items()))))
        assert expected
        rep = check_coalgebra(law, delta=delta, sym_co=sym_co, keys=keys, window=Window(2))
        assert not rep.passed
        assert rep.violations == sorted(expected, key=lambda v: (v[0], v[1]))


def _recorded(found, checked):
    """(passed, checked, extra, violations) as a check reports the violations
    found by a loop over its inputs: the first 25 kept, all counted."""
    extra = {"violations_total": len(found)}
    if len(found) > 25:
        extra["violations_truncated"] = True
    return (not found, checked, extra, sorted(found[:25], key=lambda v: (v[0], v[1])))


def _colaw_oracle(law, delta, sym_co, keys, window):
    """check_coalgebra read key by key: each key's written-out identities,
    enumerated on the window's box."""
    found = []
    for x in keys:
        for label, res in _co_identities(law, delta(x), sym_co):
            support = res.support_in_box(window.n)
            if support:
                found.append((label, (x,), tuple(sorted(support.items()))))
    return _recorded(found, len(keys))


def _cocycle_oracle(bracket, delta, sym_bracket, keys, window):
    """The LieBiCocycle row read pair by pair:
    Delta([x, y]) - (ad x (x) 1 + 1 (x) ad x) Delta(y) + (ad y (x) 1 + 1 (x) ad y) Delta(x)."""

    def ad(t, x):
        p = pat_const(x)
        return apply_product_slot(t, 0, sym_bracket, p, "left") + apply_product_slot(
            t, 1, sym_bracket, p, "left"
        )

    found = []
    for x in keys:
        for y in keys:
            lhs = TemplateSeries.zero(2)
            for k, c in bracket(x, y).items():
                lhs = lhs + delta(k).scale(c)
            support = (lhs - ad(delta(y), x) + ad(delta(x), y)).support_in_box(window.n)
            if support:
                found.append(("cocycle", (x, y), tuple(sorted(support.items()))))
    return _recorded(found, len(keys) ** 2)


def _cocycle_cases():
    """(name, alg, family, passes): ex-1p with its coproduct scaled at
    random, on the ats family and on ats with the coefficient (i - j) of
    its second t-branch raised by 1."""

    def bad_sym(p, fresh):
        out = delta_a_sym(p, fresh)
        if p[0] == "Tee":
            v, poly, pats = out[1]
            out[1] = (v, poly + Poly.const(ONE), pats)
        return out

    rng = random.Random(12)
    one = finite_catalog()["ex-1p"]
    fam = ats_family()
    bad = dataclasses.replace(fam, sym_co=bad_sym)
    for _ in range(3):
        c = F(rng.choice([-2, -1, 1, 2]))
        alg = dataclasses.replace(one, delta={0: ((0, 0, c),)})
        yield f"ex-1p*{c}", alg, fam, True
        yield f"ex-1p*{c}:perturbed", alg, bad, False


def _keys_only(delta):
    """delta refusing patterns, as a rule that branches on a slot value does."""

    def call(key):
        if not all(isinstance(s, int) for s in key_slots(key)):
            raise TypeError("a key, not a pattern")
        return delta(key)

    return call


class TestCoLawOracle:
    """check_coalgebra and the LieBiCocycle row, read off the lifted
    residuals, against the loop over input keys."""

    @pytest.mark.parametrize(
        "name", ["coperm:permP", "coprelie:ats", "coprelie:w1", "neg:perturbed-ats"]
    )
    def test_cli_rows(self, name):
        # the colaw:* and neg:coprelie rows: keys of Window(4), reported at margin 2
        law, delta, sym_co, _ = _coalgebra_case(name)
        fam = {"coperm:permP": perm_p_family(), "coprelie:w1": wn_family(1)}.get(
            name, ats_family()
        )
        keys = fam.interior_keys(Window(4), law.value)
        rep = check_coalgebra(law, delta=delta, sym_co=sym_co, keys=keys, window=Window(4), margin=2)
        assert _fields(rep) == _colaw_oracle(law, delta, sym_co, keys, Window(4, 2))
        assert rep.passed == (name != "neg:perturbed-ats")

    @pytest.mark.parametrize("window", [Window(2), Window(3)], ids=["box-2", "box-3"])
    def test_keys_outside_the_box(self, window):
        # a vanishing residual is proved whatever the keys; the perturbed one
        # is read key by key, its keys reaching past the box
        keys = ats_family().interior_keys(Window(4), "CoPreLie")
        for name in ("coprelie:ats", "neg:perturbed-ats"):
            law, delta, sym_co, _ = _coalgebra_case(name)
            rep = check_coalgebra(law, delta=delta, sym_co=sym_co, keys=keys, window=window)
            assert _fields(rep) == _colaw_oracle(law, delta, sym_co, keys, window), name

    def test_no_interior_raises(self):
        # a margin past the window leaves no interior, as in check_algebra and
        # check_form; the keys are given, so nothing else would refuse them
        law, delta, sym_co, keys = _coalgebra_case("coprelie:ats")
        with pytest.raises(InsufficientWindowError, match="law CoPreLie .margin 3."):
            check_coalgebra(law, delta=delta, sym_co=sym_co, keys=keys, window=Window(2), margin=3)
        _, alg, fam, _ = next(_cocycle_cases())
        delta, _ = delta_bullet_rule(alg, fam)
        _, sbr = induced_lie_bracket(alg, fam)
        keys = pair_keys(alg, fam, Window(2))
        with pytest.raises(InsufficientWindowError, match="law LieBiCocycle .margin 3."):
            check_bialgebra(
                LawId.LieBiCocycle, delta=delta, sym_bracket=sbr, keys=keys, window=Window(2),
                margin=3,
            )

    def test_criterion_5_probes(self):
        fam = ats_family()
        window = Window(3, 0)
        passed = 0
        for dt in criterion_5_bank(40)[1]:
            alg = FiniteAlgebra(
                id="probe", space="PR", dim=2, labels=("a", "b"), kind="none", mul={}, delta=dt
            )
            delta, sym_co = delta_bullet_rule(alg, fam)
            keys = pair_keys(alg, fam, window)
            rep = check_coalgebra(
                LawId.CoLieJacobi, delta=delta, sym_co=sym_co, keys=keys, window=window, margin=0
            )
            oracle = _colaw_oracle(LawId.CoLieJacobi, delta, sym_co, keys, window)
            assert _fields(rep) == oracle, dt
            passed += rep.passed
        assert 0 < passed < 40

    def test_lifted_grouping_on_failing_probes(self, monkeypatch):
        # The probe's own check, at criterion 5's Window(4), on its first two
        # failing co-direction candidates: the live path enumerates each
        # lifted residual once and groups its points by input key, and must
        # give the violations, their sorted residuals and violations_total of
        # the read at each input key.
        fam = ats_family()
        window = Window(4, 0)
        calls = []
        box = TemplateSeries.support_in_box

        def counted(series, bound):
            calls.append(bound)
            return box(series, bound)

        failing = 0
        for dt in criterion_5_bank(10)[1]:
            alg = FiniteAlgebra(
                id="probe", space="PR", dim=2, labels=("a", "b"), kind="none", mul={}, delta=dt
            )
            delta, sym_co = delta_bullet_rule(alg, fam)
            keys = pair_keys(alg, fam, window)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(TemplateSeries, "support_in_box", counted)
                rep = check_coalgebra(
                    LawId.CoLieJacobi, delta=delta, sym_co=sym_co, keys=keys, window=window,
                    margin=0,
                )
            if rep.passed:
                continue
            assert 0 < len(calls) < len(keys), "not the live path"
            oracle = _colaw_oracle(LawId.CoLieJacobi, delta, sym_co, keys, window)
            assert _fields(rep) == oracle, dt
            failing += 1
            if failing == 2:
                break
        assert failing == 2

    def test_live_series_merged_once(self, monkeypatch):
        # Each lifted series is merged into canonical forms once, by the
        # collapsed() that _lifted tests it with; the box walk of a live one
        # reads the forms that series kept instead of merging them again.
        fam = ats_family()
        window = Window(4, 0)
        merges, collapses, walks = [], [], []
        merge, collapse = kernel._merged_forms, TemplateSeries.collapsed
        box = TemplateSeries.support_in_box

        def counted_collapse(series):
            collapses.append(len(series.templates))
            return collapse(series)

        def counted_box(series, bound):
            walks.append(series._forms is not None)
            return box(series, bound)

        for dt in criterion_5_bank(10)[1]:
            alg = FiniteAlgebra(
                id="probe", space="PR", dim=2, labels=("a", "b"), kind="none", mul={}, delta=dt
            )
            delta, sym_co = delta_bullet_rule(alg, fam)
            keys = pair_keys(alg, fam, window)
            merges.clear(), collapses.clear(), walks.clear()
            with monkeypatch.context() as m:
                m.setattr(kernel, "_merged_forms", lambda ts: merges.append(1) or merge(ts))
                m.setattr(TemplateSeries, "collapsed", counted_collapse)
                m.setattr(TemplateSeries, "support_in_box", counted_box)
                rep = check_coalgebra(
                    LawId.CoLieJacobi, delta=delta, sym_co=sym_co, keys=keys, window=window,
                    margin=0,
                )
            if not rep.passed:
                break
        assert not rep.passed and walks and all(walks), "not the live path"
        assert len(merges) == len(collapses)
        oracle = _colaw_oracle(LawId.CoLieJacobi, delta, sym_co, keys, window)
        assert _fields(rep) == oracle

    @pytest.mark.parametrize("law", [LawId.CoPreLie, LawId.CoLieJacobi])
    def test_patterns_refused(self, law):
        # a delta that cannot run on patterns is read key by key
        _, delta, sym_co, keys = _coalgebra_case("neg:perturbed-ats")
        rep = check_coalgebra(law, delta=_keys_only(delta), sym_co=sym_co, keys=keys, window=Window(2))
        assert _fields(rep) == _colaw_oracle(law, delta, sym_co, keys, Window(2, 2))
        assert _fields(rep) == _fields(
            check_coalgebra(law, delta=delta, sym_co=sym_co, keys=keys, window=Window(2))
        )

    @pytest.mark.parametrize("patterns", [True, False], ids=["lifted", "key-by-key"])
    def test_cap_keeps_the_first_sorted_supports(self, patterns):
        # both branches of _lifted_violations sort a support only when the
        # recorder keeps it: the kept ones, in loop order, are still sorted,
        # and every violation past the cap is still counted
        law, delta, sym_co, keys = _coalgebra_case("neg:perturbed-ats")
        found = []
        for x in keys:
            for label, res in _co_identities(law, delta(x), sym_co):
                if support := res.support_in_box(2):
                    found.append((label, (x,), tuple(sorted(support.items()))))
        read = delta if patterns else _keys_only(delta)
        rec = axioms._Recorder(cap=3)
        axioms._lifted_violations(
            keys, 1, lambda x: coalgebra_residuals(law, read(x), sym_co), 2, rec
        )
        assert len(found) > 3
        assert (rec.items, rec.total) == (found[:3], len(found))

    def test_cocycle(self):
        window = Window(3, 2)
        for name, alg, fam, passes in _cocycle_cases():
            delta, _ = delta_bullet_rule(alg, fam)
            br, sbr = induced_lie_bracket(alg, fam)
            keys = pair_keys(alg, fam, window)
            oracle = _cocycle_oracle(br, delta, sbr, keys, window)
            for d in (delta, _keys_only(delta)):
                rep = check_bialgebra(
                    LawId.LieBiCocycle, bracket=br, delta=d, sym_bracket=sbr, keys=keys,
                    window=window,
                )
                assert _fields(rep) == oracle, name
            assert rep.passed == passes, name
            # read at the keys, [x, y] comes from sym_bracket, not from bracket
            rep = check_bialgebra(
                LawId.LieBiCocycle, delta=_keys_only(delta), sym_bracket=sbr, keys=keys,
                window=window,
            )
            assert _fields(rep) == oracle, name


class TestBialgebraPlans:
    """check_bialgebra, every row read off BI_PLANS by one evaluator, against
    the rows written by hand in bialgebra_reference, field for field."""

    @staticmethod
    def _finite_cases():
        """(dim, product table, coproduct table): a perm and a pre-Lie
        bialgebra of dimension 2, and each summed with the one-dimensional
        e e = e, Delta(e) = e (x) e, in a seeded random basis, alone and with
        a random coproduct added; then random product and coproduct tables."""
        cat, tens = finite_catalog(), tensor_catalog()
        sd2, n2 = cat["ex-sd2"], cat["ex-prelie-n2"]
        bases = [
            (2, sd2.mul, coboundary_delta_perm(sd2, tens["r-sd2"][1])),
            (2, n2.mul, coboundary_delta_prelie(n2, tens["r-prelie-n2"][1])),
        ]
        for _, mul, dt in list(bases):
            bases.append((3, {**mul, (2, 2): ((2, ONE),)}, {**dt, 2: ((2, 2, ONE),)}))
        rng = random.Random(26)
        for dim, mul, dt in bases * 2:
            s = random_invertible(rng, dim)
            mul, dt = conjugated_table(mul, s, dim), conjugated_delta(dt, s, dim)
            yield dim, mul, dt
            extra = random_delta(rng, dim)
            yield dim, mul, {i: dt.get(i, ()) + extra.get(i, ()) for i in range(dim)}
        for dim in (2, 3, 2, 3):
            yield dim, random_table(rng, dim, density=F(1, 3)), random_delta(rng, dim)

    def test_finite_rows(self):
        seen = set()
        for n, (dim, mul, dt) in enumerate(self._finite_cases()):
            alg = FiniteAlgebra(
                id=f"bi{n}", space=f"BI{n}", dim=dim, labels=tuple("abc"[:dim]), kind="none",
                mul=mul,
            )
            for law in (LawId.PermBi, LawId.PreLieBi):
                rep = check_bialgebra(law, alg=alg, delta_table=dt)
                by_hand = check_bialgebra_by_hand(law, alg=alg, delta_table=dt)
                assert _fields(rep) == _fields(by_hand), (law, mul, dt)
                seen.add((law, dim, rep.passed))
        assert len(seen) == 8, seen  # each law passes and fails in dimensions 2 and 3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cocycle_on_ex_1p_ats(self, n):
        alg, fam = finite_catalog()["ex-1p"], ats_family()
        delta, _ = delta_bullet_rule(alg, fam)
        _, sbr = induced_lie_bracket(alg, fam)
        args = dict(sym_bracket=sbr, keys=pair_keys(alg, fam, Window(n)), window=Window(n))
        for d in (delta, _keys_only(delta)):  # on patterns, and pair by pair
            rep = check_bialgebra(LawId.LieBiCocycle, delta=d, **args)
            assert rep.passed
            assert _fields(rep) == _fields(
                check_bialgebra_by_hand(LawId.LieBiCocycle, delta=d, **args)
            )

    def test_failing_cocycle(self):
        name, alg, fam, passes = next(c for c in _cocycle_cases() if not c[3])
        delta, _ = delta_bullet_rule(alg, fam)
        _, sbr = induced_lie_bracket(alg, fam)
        window = Window(3, 2)
        args = dict(sym_bracket=sbr, keys=pair_keys(alg, fam, window), window=window)
        for d in (delta, _keys_only(delta)):
            rep = check_bialgebra(LawId.LieBiCocycle, delta=d, **args)
            assert not rep.passed and rep.violations, name
            assert all(label == "cocycle" and res for label, _, res in rep.violations)
            assert _fields(rep) == _fields(
                check_bialgebra_by_hand(LawId.LieBiCocycle, delta=d, **args)
            )


class TestPlanParsers:
    """Each plan parser reads the whole text or raises ValueError: a term it
    skipped would leave a weaker law that still passes."""

    def test_side(self):
        assert axioms._side("(ab)c - a(bc)") == ((1, ((0, 1), 2)), (-1, (0, (1, 2))))
        for text in ("(ab)c - a(bc) * (ba)c", "(ab)c - a(bc) + [ba]c", "abc", "(ab)c (ba)c"):
            with pytest.raises(ValueError, match="cannot read"):
                axioms._side(text)

    def test_pairings(self):
        assert axioms._pairings("(ab|c) - (a|bc)") == ((1, "ab", "c"), (-1, "a", "bc"))
        with pytest.raises(ValueError, match="cannot read"):
            axioms._pairings("(ab|c) - (a|bc) + (a|c b)")

    def test_words(self):
        words = functools.partial(axioms._signed_terms, term=axioms._WORD)
        assert words("D(ab) - R(a)~D(b)L(b)") == [
            (1, (None, None, "", "ab", None, None)),
            (-1, ("R", "a", "~", "b", "L", "b")),
        ]
        for text in ("D(ab) - L(a)D(b) * D(a)", "D(ab) - L(a)L(b)D(b)", "D(abc)", "D(ab) -"):
            with pytest.raises(ValueError, match="cannot read"):
                words(text)

    def test_every_plan_row_appears_once(self):
        texts = [text for rows in BI_PLANS.values() for _, text in rows]
        labels = [label for rows in BI_PLANS.values() for label, _ in rows]
        assert labels == ["pb1", "pb2", "pb3", "plb-sym", "plb-flip", "cocycle"]
        assert len(set(texts)) == len(texts)


def _missing_input_cases():
    """(id, check, law, inputs) for each check_bialgebra and check_form call
    that leaves out an input the check reads."""
    alg, fam = finite_catalog()["ex-1p"], ats_family()
    delta, _ = delta_bullet_rule(alg, fam)
    _, sbr = induced_lie_bracket(alg, fam)
    keys = pair_keys(alg, fam, Window(2))
    cocycle = dict(delta=delta, sym_bracket=sbr, keys=keys, window=Window(2))
    finite = dict(form=lambda a, b: F(0), product=alg.product, keys=alg.basis_keys())
    cases = [
        ("PermBi:alg", check_bialgebra, LawId.PermBi, {}),
        ("PreLieBi:alg", check_bialgebra, LawId.PreLieBi, {"delta_table": {}}),
        ("QuadPreLieForm:window", check_form, LawId.QuadPreLieForm, {"family": fam}),
    ]
    for check, law, full in (
        (check_bialgebra, LawId.LieBiCocycle, cocycle),
        (check_form, LawId.QuadPermForm, finite),
    ):
        for missing in full:
            inputs = {k: v for k, v in full.items() if k != missing}
            cases.append((f"{law.value}:{missing}", check, law, inputs))
    return cases


@pytest.mark.parametrize(
    "check, law, inputs", [pytest.param(*case[1:], id=case[0]) for case in _missing_input_cases()]
)
def test_missing_inputs_raise_value_error(check, law, inputs):
    # a missing input is refused with ValueError, as check_algebra does,
    # and not with an assert, which python -O drops
    with pytest.raises(ValueError, match="need"):
        check(law, **inputs)


FORM_LAWS = [
    LawId.QuadPermForm,
    LawId.QuadPreLieForm,
    LawId.ManinPermKd,
    LawId.ManinLieB,
    LawId.SymplecticLie,
]


def _form_oracle(law, box, inner, form, product, weight=None):
    """A form law checked straight from its textbook identities, with plain
    {key: coeff} dicts: (passed, checked, extra, violations) as check_form
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
        ea, eb, ec = ({k: ONE} for k in (a, b, c))
        ab, bc, cb, ac, ca = mul(a, b), mul(b, c), mul(c, b), mul(a, c), mul(c, a)
        label = "invariance"
        if law in (LawId.QuadPermForm, LawId.ManinPermKd):
            # B(ab, c) = B(a, bc - cb)
            res = pairing(ab, ec) - pairing(ea, signed_sum((1, bc), (-1, cb)))
        elif law == LawId.QuadPreLieForm:
            # B(ab, c) = -B(b, [a, c])
            res = pairing(ab, ec) + pairing(eb, signed_sum((1, ac), (-1, ca)))
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

    def rule(x, y):
        _, a1, a2, s = x
        _, b1, b2, t = y
        if s == 1:
            return (1, mono(a1 + b1 + 1, a2 + b2, 3 - t))
        return (1, mono(a1 + b1, a2 + b2 + 1, t))

    return dataclasses.replace(perm_p_family(), rule=rule)


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


# Each graded family with a form, with the form law it carries.
FORM_FAMILIES = [
    ("ats", ats_family, LawId.QuadPreLieForm),
    ("permP", perm_p_family, LawId.QuadPermForm),
    ("w1-restricted-dual", lambda: restricted_dual_double(wn_family(1)), LawId.QuadPreLieForm),
]


def _window_form_report(law, fam, window):
    """check_form at the window and its margin with every pattern proof
    refused, so each row runs its window loop (_form_residuals for the
    triple row)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "_form_row_holds", lambda *args: False)
        return check_form(law, family=fam, window=window, margin=window.margin)


def _proof_closes(law, fam, window):
    """Whether both rows of FORM_PLANS[law] and the graded weight are proved
    on patterns over the window's keys."""
    (_, pair_text), (_, triple_text) = FORM_PLANS[law]
    box = fam.keys(window)
    inner = fam.interior_keys(window, law.value)
    return (
        _form_row_holds(pair_text, box, 2, fam.partner, fam.sym_product)
        and _form_weight_holds(box, fam.partner, fam.form_m)
        and _form_row_holds(triple_text, inner, 3, fam.partner, fam.sym_product)
    )


def _scaled_rule(fam, shapes, k):
    """fam with the product of the shape pair shapes scaled by k."""
    rule = fam.rule

    def scaled(x, y):
        r = rule(x, y)
        if r is None or (key_shape(x), key_shape(y)) != shapes:
            return r
        return (r[0] * k, r[1])

    return dataclasses.replace(fam, rule=scaled)


def _flipped_partner(fam, shape):
    """fam with the partner value of every key of the given shape negated."""
    partner = fam.partner

    def flipped(x):
        v, z = partner(x)
        return (-v, z) if key_shape(x) == shape else (v, z)

    return dataclasses.replace(fam, partner=flipped)


class TestFormProof:
    """The pattern proof of check_form against its window loops."""

    @pytest.mark.parametrize("name, make, law", FORM_FAMILIES, ids=[f[0] for f in FORM_FAMILIES])
    def test_proof_closes_and_reports_the_window(self, name, make, law):
        fam = make()
        for window in (Window(3, 1), Window(4, 2)):
            assert _proof_closes(law, fam, window)
            rep = check_form(law, family=fam, window=window, margin=window.margin)
            assert rep.passed and rep == _window_form_report(law, fam, window)
            box = fam.keys(window)
            inner = fam.interior_keys(window, law.value)
            assert rep.checked == len(box) ** 2 + len(inner) ** 3

    def test_doubled_perm_p_product_fails_both_ways(self):
        fam = _scaled_rule(perm_p_family(), (("Mono", 2), ("Mono", 1)), 2)
        law = LawId.QuadPermForm
        assert not _proof_closes(law, fam, Window(3, 1))
        rep = check_form(law, family=fam, window=Window(3))
        assert not rep.passed
        assert rep == _window_form_report(law, fam, Window(3, 1))

    @pytest.mark.parametrize("name, make, law", FORM_FAMILIES, ids=[f[0] for f in FORM_FAMILIES])
    def test_shape_perturbations_keep_the_window_witnesses(self, name, make, law):
        rng = random.Random(1501)
        base = make()
        shapes = sorted({key_shape(k) for k in base.keys(Window(0))})
        cases = [_flipped_partner(base, s) for s in shapes]
        for _ in range(4):
            pair = (rng.choice(shapes), rng.choice(shapes))
            cases.append(_scaled_rule(base, pair, rng.choice((-1, 2, 3))))
        failed = 0
        for fam in cases:
            rep = check_form(law, family=fam, window=Window(3))
            ref = _window_form_report(law, fam, Window(3, 1))
            assert rep == ref
            if _proof_closes(law, fam, Window(3, 1)):
                assert rep.passed
            failed += not rep.passed
        assert failed >= len(shapes)  # every partner flip breaks the skew row

    def test_no_interior_still_raises(self):
        fam = perm_p_family()
        law = LawId.QuadPermForm
        assert _proof_closes(law, fam, Window(3, 1))
        with pytest.raises(InsufficientWindowError):
            check_form(law, family=fam, window=Window(1), margin=2)

    def test_branching_partner_falls_back(self):
        base = ats_family()
        partner = base.partner

        def branching(x):
            v, z = partner(x)
            return (v if x[1] >= 0 else v, z)  # compares a slot with a number

        fam = dataclasses.replace(base, partner=branching)
        law = LawId.QuadPreLieForm
        assert not _proof_closes(law, fam, Window(3, 1))
        rep = check_form(law, family=fam, window=Window(3))
        assert rep.passed and rep == _window_form_report(law, fam, Window(3, 1))

    def test_non_unimodular_partner_falls_back(self):
        # s^i pairs with t^(-2i) here: solving (a|bc) for a's slot divides by 2
        base = ats_family()

        def partner(x):
            tag, i = x
            return (1, tee(-2 * i)) if tag == "Ess" else (-1, ess(-2 * i))

        fam = dataclasses.replace(base, partner=partner)
        law = LawId.QuadPreLieForm
        (_, triple_text) = FORM_PLANS[law][1]
        inner = fam.interior_keys(Window(3, 1), law.value)
        assert not _form_row_holds(triple_text, inner, 3, fam.partner, fam.sym_product)
        rep = check_form(law, family=fam, window=Window(3))
        assert rep == _window_form_report(law, fam, Window(3, 1))

    @pytest.mark.parametrize("name, make, law", FORM_FAMILIES, ids=[f[0] for f in FORM_FAMILIES])
    def test_gram_rank_through_partners(self, name, make, law):
        base = make()
        shapes = sorted({key_shape(k) for k in base.keys(Window(0))})
        for fam in [base] + [_flipped_partner(base, s) for s in shapes]:
            for n in (0, 2, 4):
                keys = fam.keys(Window(n))
                assert _gram_rank(keys, fam.form, fam.form_partners) == _gram_rank(keys, fam.form)


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


def _matched_pair_oracle(alg1, alg2, l12, r12, l21, r21):
    """check_matched_pair from the paper's ten equations, written with
    mat_vec and the product of coefficient tuples (helpers.times): (passed,
    checked, extra, violations).  pmp3, 4, 6, 8
    and 10 are pmp1, 2, 5, 7 and 9 with the two algebras' roles swapped."""

    def on(mats, x, v):
        """The action of the vector x, through one matrix per basis index, on v."""
        out = (F(0),) * len(v)
        for k, c in enumerate(x):
            if c:
                out = tuple(a + c * b for a, b in zip(out, mat_vec(mats[k], v)))
        return out

    def plus(u, v):
        return tuple(a + b for a, b in zip(u, v))

    found = []
    checked = 0
    # (A, B, lA, rA acting on B's space, lB, rB acting on A's space, labels)
    halves = (
        (alg1, alg2, l12, r12, l21, r21, ("pmp1", "pmp2", "pmp5", "pmp7", "pmp9")),
        (alg2, alg1, l21, r21, l12, r12, ("pmp3", "pmp4", "pmp6", "pmp8", "pmp10")),
    )
    for A, B, lA, rA, lB, rB, labels in halves:
        for i, a, b in itertools.product(range(A.dim), range(B.dim), range(B.dim)):
            checked += 1
            p, q, q2 = unit(A.dim, i), unit(B.dim, a), unit(B.dim, b)
            qq = times(B, q, q2)
            sides = (
                # lA(p)(q q') = (lA(p) q) q' + lA(rB(q) p) q'
                (on(lA, p, qq), plus(times(B, on(lA, p, q), q2), on(lA, on(rB, q, p), q2))),
                # rA(p)(q q') = q (rA(p) q') + rA(lB(q') p) q
                (on(rA, p, qq), plus(times(B, q, on(rA, p, q2)), on(rA, on(lB, q2, p), q))),
                # (rA(p) q) q' + lA(lB(q) p) q' = q (lA(p) q') + rA(rB(q') p) q
                (
                    plus(times(B, on(rA, p, q), q2), on(lA, on(lB, q, p), q2)),
                    plus(times(B, q, on(lA, p, q2)), on(rA, on(rB, q2, p), q)),
                ),
                # (lA(p) q) q' + lA(rB(q) p) q' = (rA(p) q) q' + lA(lB(q) p) q'
                (
                    plus(times(B, on(lA, p, q), q2), on(lA, on(rB, q, p), q2)),
                    plus(times(B, on(rA, p, q), q2), on(lA, on(lB, q, p), q2)),
                ),
                # rA(p)(q q') = rA(p)(q' q)
                (on(rA, p, qq), on(rA, p, times(B, q2, q))),
            )
            for label, (lhs, rhs) in zip(labels, sides):
                d = [x - y for x, y in zip(lhs, rhs)]
                if any(d):
                    found.append((label, (i, a, b), tuple(((k,), v) for k, v in enumerate(d) if v)))
    # then the Perm law of the assembled product: its kept violations, and
    # its uncapped count
    sub = check_algebra(LawId.Perm, alg=_assemble_matched_pair(alg1, alg2, l12, r12, l21, r21))
    found += [(f"assembled-{label}", at, res) for label, at, res in sub.violations]
    passed, checked, extra, kept = _recorded(found, checked + sub.checked)
    total = len(found) + sub.extra["violations_total"] - len(sub.violations)
    if total > len(found):
        extra = {"violations_total": total, "violations_truncated": True}
    return passed, checked, extra, kept


def _conjugated_delta(delta, s, dim):
    """A coproduct table in the basis e'_j = sum_a s[a][j] e_a."""
    sinv = mat_inv(s)
    out = {}
    for j in range(dim):
        acc = {}
        for a in range(dim):
            for m, n, c in delta.get(a, ()):
                for k, l in itertools.product(range(dim), repeat=2):
                    acc[k, l] = acc.get((k, l), F(0)) + s[a][j] * c * sinv[k][m] * sinv[l][n]
        terms = tuple((k, l, v) for (k, l), v in sorted(acc.items()) if v)
        if terms:
            out[j] = terms
    return out


def _matched_pair_inputs():
    """(name, alg1, alg2, actions): every catalog perm algebra and its dual
    under the canonical actions, the neg:matched-pair row's perturbed l12,
    then 48 seeded random inputs of dimension 1-3.  Every fourth is a random
    basis change of a perm bialgebra with its canonical actions, so it
    passes; the others are random tables with random actions.  Last, two
    random 3-dim tables with no action at all: no pmp row fails there, and
    the assembled Perm rows alone fill the cap with both of their labels."""
    cat = finite_catalog()
    out = []
    for alg in cat.values():
        if alg.kind == "Perm":
            dual = dual_perm_algebra(alg, alg.delta or {})
            out.append((alg.id, alg, dual, canonical_dual_actions(alg, dual)))
    p1 = cat["ex-1p"]
    dual = dual_perm_algebra(p1, p1.delta)
    l12, r12, l21, r21 = canonical_dual_actions(p1, dual)
    bad = tuple(tuple(tuple(v + ONE for v in row) for row in mtx) for mtx in l12)
    out.append(("neg:perturbed-l12", p1, dual, (bad, r12, l21, r21)))
    sd2 = cat["ex-sd2"]
    bialgebras = [
        (p1.mul, p1.delta, 1),
        (sd2.mul, {}, 2),
        (cat["ex-nilp2"].mul, {}, 2),
        # ex-sd2 (+) ex-1p, with ex-1p's coproduct on the third basis vector
        ({**sd2.mul, (2, 2): ((2, ONE),)}, {2: ((2, 2, ONE),)}, 3),
    ]
    rng = random.Random(2113)

    def matrices(count, dim):
        return tuple(
            tuple(tuple(F(rng.choice((0, 0, 1, -1, 2))) for _ in range(dim)) for _ in range(dim))
            for _ in range(count)
        )

    for t in range(48):
        if t % 4 == 0:
            mul, delta, d = bialgebras[t // 4 % 4]
            s = random_invertible(rng, d)
            alg = FiniteAlgebra(
                id=f"conj{t}", space=f"C{t}", dim=d, labels=tuple("abc"[:d]), kind="Perm",
                mul=conjugated_table(mul, s, d), delta=_conjugated_delta(delta, s, d),
            )
            dual = dual_perm_algebra(alg, alg.delta)
            out.append((alg.id, alg, dual, canonical_dual_actions(alg, dual)))
            continue
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        alg1, alg2 = (
            FiniteAlgebra(
                id=f"rnd{t}{x}", space=f"R{t}{x}", dim=d, labels=tuple("abc"[:d]), kind="none",
                mul=random_table(rng, d),
            )
            for x, d in (("a", d1), ("b", d2))
        )
        actions = (matrices(d1, d2), matrices(d1, d2), matrices(d2, d1), matrices(d2, d1))
        out.append((f"rnd{t}", alg1, alg2, actions))
    zero = tuple(tuple((F(0),) * 3 for _ in range(3)) for _ in range(3))
    alg1, alg2 = (
        FiniteAlgebra(
            id=f"zero{x}", space=f"Z{x}", dim=3, labels=tuple("abc"), kind="none",
            mul=random_table(rng, 3),
        )
        for x in "ab"
    )
    out.append(("zero-actions", alg1, alg2, (zero,) * 4))
    return out


class TestMatchedPairOracle:
    """check_matched_pair, read off the assembled product's Perm rows,
    against the paper's ten equations."""

    def test_matches_the_ten_equations(self):
        seen = {"passed": 0, "failed": 0, "truncated": 0}
        for name, alg1, alg2, actions in _matched_pair_inputs():
            rep = check_matched_pair(alg1, alg2, *actions)
            assert _fields(rep) == _matched_pair_oracle(alg1, alg2, *actions), name
            seen["passed" if rep.passed else "failed"] += 1
            seen["truncated"] += rep.extra.get("violations_truncated", False)
        assert seen["passed"] >= 14 and seen["failed"] >= 30 and seen["truncated"] >= 3, seen

    def test_total_counts_the_uncapped_assembled_check(self):
        # rnd1: 66 pmp violations, and 94 from the assembled Perm check of
        # which that check keeps 25
        alg1, alg2, actions = {name: rest for name, *rest in _matched_pair_inputs()}["rnd1"]
        mp = _assemble_matched_pair(alg1, alg2, *actions)
        assert check_algebra(LawId.Perm, alg=mp).extra["violations_total"] == 94
        rep = check_matched_pair(alg1, alg2, *actions)
        assert rep.extra == {"violations_total": 160, "violations_truncated": True}


class TestOOperator:
    def test_identity_on_preperm_passes(self):
        pp = finite_catalog()["ex-preperm-1"]
        from permlie.families import preperm_representation

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

    def test_matches_chain_reference(self):
        rng = random.Random(18)
        truncated = 0
        for trial in range(300):
            dim = rng.randint(1, 3)
            alg = FiniteAlgebra(
                id=f"pp{trial}",
                space="PP",
                dim=dim,
                labels=tuple(f"e{i}" for i in range(dim)),
                kind="PrePerm",
                mul=random_table(rng, dim),
                tri_left=random_table(rng, dim),
                tri_right=random_table(rng, dim),
            )
            rep = check_preperm(alg)
            got = canonical_json(report_to_json(rep))
            assert got == canonical_json(report_to_json(preperm_by_chains(alg))), trial
            truncated += rep.extra["violations_total"] > 25
        assert truncated


def _module_inputs():
    """(alg, rep, t): 320 seeded inputs of dimension 1-3, four kinds in turn.
    A random basis change of a catalog perm algebra, with its adjoint or its
    dual adjoint representation: a representation.  A random table with its
    adjoint representation.  A random pre-perm split, whose own actions are
    its left and right products; a scalar multiple of the identity is then an
    O-operator.  Random actions on a module of dimension 1-6.  T is random,
    or zero in every fifth input."""
    rng = random.Random(3030)
    cat = finite_catalog()
    perms = [cat[name] for name in ("ex-1p", "ex-sd2", "ex-nilp2")]

    def mats(count, dim):
        return tuple(
            tuple(tuple(F(rng.choice((0, 0, 1, -1, 2))) for _ in range(dim)) for _ in range(dim))
            for _ in range(count)
        )

    out = []
    for trial in range(320):
        d = rng.randint(1, 3)
        alg = FiniteAlgebra(
            id=f"m{trial}", space="M", dim=d, labels=tuple("abc"[:d]), kind="Perm",
            mul=random_table(rng, d),
        )
        kind = trial % 4
        if kind == 0:
            base = perms[trial // 4 % 3]
            mul = conjugated_table(base.mul, random_invertible(rng, base.dim), base.dim)
            alg = dataclasses.replace(alg, dim=base.dim, labels=base.labels, mul=mul)
            rep = adjoint_representation(alg)
            rep = dual_rep(rep) if trial % 8 else rep
        elif kind == 1:
            rep = adjoint_representation(alg)
        elif kind == 2:
            left, right = random_table(rng, d), random_table(rng, d)
            alg = dataclasses.replace(
                alg, kind="PrePerm", mul=combine_tables((1, left), (1, right)),
                tri_left=left, tri_right=right,
            )
            rep = preperm_representation(alg)
        else:
            m = rng.randint(1, 6)
            rep = Representation(m, mats(alg.dim, m), mats(alg.dim, m))
        m = rep.module_dim
        if trial % 5 == 0:
            t = ((F(0),) * m,) * alg.dim
        elif kind == 2:
            c = F(rng.choice((1, -1, 2)))
            t = tuple(tuple(c * (k == u) for u in range(m)) for k in range(alg.dim))
        else:
            t = tuple(tuple(F(rng.choice((0, 0, 1, -1))) for _ in range(m)) for _ in range(alg.dim))
        out.append((alg, rep, t))
    return out


class TestModuleReferences:
    """check_representation and check_o_operator, read off the semidirect
    table's cube, against the identities written out directly."""

    @staticmethod
    def _compare(check, reference, inputs):
        seen = {"passed": 0, "failed": 0, "truncated": 0}
        for n, args in enumerate(inputs):
            rep = check(*args)
            got = canonical_json(report_to_json(rep))
            assert got == canonical_json(report_to_json(reference(*args))), n
            seen["passed" if rep.passed else "failed"] += 1
            seen["truncated"] += rep.extra.get("violations_truncated", False)
        return seen

    def test_representation_matches_matrix_identities(self):
        inputs = [(alg, rep) for alg, rep, _ in _module_inputs()]
        seen = self._compare(check_representation, representation_by_matrices, inputs)
        assert seen["passed"] >= 100 and seen["failed"] >= 150 and seen["truncated"] >= 50, seen

    def test_o_operator_matches_coefficient_tuples(self):
        seen = self._compare(check_o_operator, o_operator_by_tuples, _module_inputs())
        assert seen["passed"] >= 150 and seen["failed"] >= 120 and seen["truncated"] >= 10, seen
