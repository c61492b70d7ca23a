"""Kernel layer: affine indices, polynomials, template series, windows."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from permlie.kernel import (
    Aff,
    CheckReport,
    IllPosedTemplateError,
    InsufficientWindowError,
    Poly,
    Template,
    TemplateSeries,
    Window,
    _solve_affine,
    add_term,
    av,
    ess,
    fin,
    key_degree,
    key_str,
    mono,
    pair,
    pat_const,
    pat_ess,
    pat_mono,
    pat_subst,
    pat_tee,
    place_product,
    sparse_rref,
    forced_zero_columns,
    tee,
    wn,
)
from permlie.families import delta_a_family
from box_reference import support_by_solving
import poly_reference

F = Fraction


class TestAff:
    def test_str_forms(self):
        k = av("k")
        assert str(2 * k + 1) == "2k+1"
        assert str(k + 2) == "k+2"
        assert str(-k) == "-k"
        assert str(Aff.of(3)) == "3"

    def test_arithmetic_matches_eval(self):
        k = av("k")
        e = 3 * k - 2 + k
        assert e.eval({"k": 5}) == 18

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    def test_linear_eval(self, a, b, x):
        e = a * av("x") + b
        assert e.eval({"x": x}) == a * x + b


class TestPoly:
    def test_of_and_add(self):
        p = Poly.of(av("i") + 2) + Poly.const(F(1))
        assert p.eval({"i": 4}) == 7

    def test_const(self):
        assert Poly.const(F(5)).eval({}) == 5


class TestKeys:
    def test_total_order_and_str(self):
        ks = [tee(1), ess(-2), mono(0, 1, 2), pair(fin("A", 0), tee(3))]
        assert sorted(ks) == sorted(ks, key=lambda k: k)
        for k in ks:
            assert isinstance(key_str(k), str) and key_str(k)

    def test_degree_additive_on_pair(self):
        assert key_degree(pair(fin("A", 0), tee(3))) == key_degree(tee(3))


class TestTemplateSeries:
    def test_coefficient_at_delta_a(self):
        d = delta_a_family(tee(2))
        assert d.coefficient_at((tee(-1), ess(2))) == F(2)
        d = delta_a_family(ess(1))
        assert d.coefficient_at((ess(-3), ess(3))) == F(3)

    def test_flip_hat_involution(self):
        d = delta_a_family(tee(2))
        dd = d.flip_hat().flip_hat()
        assert (d - dd).support_in_box(4) == {}

    def test_permuted_support(self):
        d = delta_a_family(tee(1))
        sup = d.support_in_box(3)
        flipped = d.permuted((1, 0)).support_in_box(3)
        assert flipped == {(b, a): c for (a, b), c in sup.items()}

    def test_scale_and_sub(self):
        d = delta_a_family(tee(2))
        assert (d.scale(F(2)) - d - d).support_in_box(4) == {}

    def test_equal_on_box(self):
        d = delta_a_family(tee(2))
        assert (d - d.scale(F(1))).support_in_box(4) == {}
        assert (d - d.scale(F(2))).support_in_box(4) != {}

    def test_support_respects_box(self):
        d = delta_a_family(tee(0))
        for (a, b), c in d.support_in_box(3).items():
            assert abs(a[1]) <= 3 and abs(b[1]) <= 3
            assert c != 0


# Random template series for the support_in_box cross-check.  Each template
# has k <= 3 variables and a slot map of rank k, on two keys of 2 to 4 slots
# in all: Tee, Ess and Mono keys, bare or paired with a Fin key.  Half are
# triangular: k of the slots ("pivots") are triangular in the variables with
# a diagonal of +-1 or +-2 (slots like 2j), the others arbitrary.  The rest
# draw every slot at random and keep the maps whose first k independent slots
# F have 1 <= |det A_F| <= 4, so A_F is in general neither triangular nor
# unimodular.  Either way a slot may have a negative coefficient on the last
# lattice variable, and a Mono key may move with it.
BOX = 2
SHAPES = {"Tee": 1, "Ess": 1, "Mono": 2}
SWAP = {"Tee": "Ess", "Ess": "Tee"}


def _pattern(tag, slots):
    """The pattern of tag on the slots; tag "A:..." or "B:..." pairs it with
    the Fin key ("A", 0) or ("A", 1)."""
    if ":" in tag:
        fin_tag, tag = tag.split(":")
        return pair(fin("A", "AB".index(fin_tag)), _pattern(tag, slots))
    if tag == "Mono":
        return pat_mono(slots[0], slots[1], 1)
    return (pat_tee if tag == "Tee" else pat_ess)(slots[0])


def _det(m):
    """The determinant of a square integer matrix, by the Leibniz formula."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        total += sign * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


def _free_det(rows, k):
    """det A_F for the first k linearly independent rows F, or 0 when the
    rows have rank below k.  Rows are independent when their Gram
    determinant is nonzero."""
    free = []
    for r in rows:
        gram = [[sum(a * b for a, b in zip(x, y)) for y in free + [r]] for x in free + [r]]
        if len(free) < k and _det(gram):
            free.append(r)
    return _det(free) if len(free) == k else 0


@st.composite
def _template(draw, names):
    shapes = draw(st.sampled_from([("Tee", "Ess"), ("Ess", "Tee"), ("Tee", "Tee"),
                                   ("Mono", "Tee"), ("Ess", "Mono"), ("Ess", "Ess"),
                                   ("A:Tee", "B:Ess"), ("A:Mono", "Tee"), ("Mono", "B:Tee"),
                                   ("B:Ess", "A:Mono"), ("Mono", "Mono")]))
    m = sum(SHAPES[s.split(":")[-1]] for s in shapes)
    k = draw(st.integers(0, min(3, m)))
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        pivots = sorted(draw(st.permutations(range(m)))[:k])
        rows = []
        for s in range(m):
            if s in pivots:
                i = pivots.index(s)
                diag = draw(st.sampled_from([1, -1, 2, -2]))
                rows.append([draw(small) for _ in range(i)] + [diag] + [0] * (k - i - 1))
            else:
                rows.append([draw(small) for _ in range(k)])
    else:
        rows = [[draw(small) for _ in range(k)] for _ in range(m)]
        assume(1 <= abs(_free_det(rows, k)) <= 4)
    slots = []
    for row in rows:
        slot = Aff.of(draw(small))
        for v, c in zip(names, row):
            slot = slot + c * av(v)
        slots.append(slot)
    coeff = Poly()
    for _ in range(draw(st.integers(1, 3))):
        mono_ = Poly.const(F(draw(st.integers(-3, 3)), draw(st.integers(1, 2))))
        for _ in range(draw(st.integers(0, 3))):
            if k:
                mono_ = mono_ * Poly.var(names[draw(st.integers(0, k - 1))])
        coeff = coeff + mono_
    it = iter(slots)
    keys = tuple(_pattern(s, [next(it) for _ in range(SHAPES[s.split(":")[-1]])]) for s in shapes)
    return Template(tuple(names[:k]), coeff, keys)


@st.composite
def _reparametrised(draw, t, names):
    """t over new variables w, with v = U w + d for a random unimodular U."""
    k = len(t.vars)
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 3)) if k else 0):
        i, j = draw(st.permutations(range(k)))[:2] if k >= 2 else (0, None)
        if j is None or draw(st.booleans()):
            u[i] = [-a for a in u[i]]
        else:
            f = draw(st.integers(-2, 2))
            u[i] = [a + f * b for a, b in zip(u[i], u[j])]
    env = {}
    for v, row in zip(t.vars, u):
        e = Aff.of(draw(st.integers(-2, 2)))
        for w, c in zip(names, row):
            e = e + c * av(w)
        env[v] = e
    return _substituted(t, names, env)


def _substituted(t, names, env):
    """t over the variables names[:k], with each of its variables v replaced
    by the Aff env[v] in those names."""
    coeff = Poly()
    for mo, co in t.coeff.m:
        term = Poly.const(co)
        for v, e in mo:
            for _ in range(e):
                term = term * Poly.of(env[v])
        coeff = coeff + term
    return Template(tuple(names[:len(t.vars)]), coeff, tuple(pat_subst(p, env) for p in t.keys))


def _negated(t, factor=-1):
    return Template(t.vars, t.coeff * Poly.const(F(factor)), t.keys)


def _reshape(p):
    """p on another slot shape: Tee and Ess swapped, Mono d1 made d2, the
    Fin key of a Pair kept."""
    if p[0] == "Pair":
        return pair(p[1], _reshape(p[2]))
    return pat_mono(p[1], p[2], 2) if p[0] == "Mono" else _pattern(SWAP[p[0]], [p[1]])


def _reshaped(t):
    return Template(t.vars, t.coeff, tuple(map(_reshape, t.keys)))


@st.composite
def _series(draw):
    """(series, the most templates it can have once collapsed): a template
    alone keeps one; with its reshaped copy, or minus its restriction to the
    sublattice of even variables (same slot map, another lattice), two; minus
    a reparametrised copy of itself none; and minus twice such a copy one."""
    templates = []
    most = 0
    for n in range(draw(st.integers(1, 3))):
        names, copy = (f"a{n}", f"b{n}", f"c{n}"), (f"d{n}", f"e{n}", f"f{n}")
        kind = draw(st.sampled_from(["alone", "cancel", "double", "reshape", "sublattice"]))
        t = draw(_template(names))
        templates.append(t)
        most += {"alone": 1, "cancel": 0, "double": 1, "reshape": 2, "sublattice": 2}[kind]
        if kind == "cancel":
            templates.append(_negated(draw(_reparametrised(t, copy))))
        elif kind == "double":
            templates.append(_negated(draw(_reparametrised(t, copy)), 2))
        elif kind == "reshape":
            templates.append(_negated(_reshaped(t)))
        elif kind == "sublattice":
            env = {v: 2 * av(w) for v, w in zip(t.vars, copy)}
            templates.append(_negated(_substituted(t, copy, env)))
    return TemplateSeries(2, draw(st.permutations(templates))), most


class TestArityChecks:
    """Each arity check raises ValueError, which python -O keeps, unlike an
    assert."""

    ONE_SLOT = Template((), Poly.const(F(1)), (pat_tee(0),))

    def test_template_of_another_arity(self):
        with pytest.raises(ValueError, match="another arity"):
            TemplateSeries(2, (self.ONE_SLOT,))

    def test_sum_of_two_arities(self):
        with pytest.raises(ValueError, match="arity mismatch: 2 and 1"):
            delta_a_family(tee(2)) + TemplateSeries(1, (self.ONE_SLOT,))

    def test_permuted_by_a_non_permutation(self):
        with pytest.raises(ValueError, match=r"\(0, 0\) is not a permutation of 2 slots"):
            delta_a_family(tee(2)).permuted((0, 0))

    def test_flip_hat_of_arity_one(self):
        with pytest.raises(ValueError, match="not a permutation of 1 slots"):
            TemplateSeries(1, (self.ONE_SLOT,)).flip_hat()

    @pytest.mark.parametrize(
        "legs_a, legs_b", [((1,), (2, 3)), ((1, 2), (2, 1))], ids=["arity", "bare-leg"]
    )
    def test_place_product_legs(self, legs_a, legs_b):
        d = delta_a_family(tee(2))
        with pytest.raises(ValueError, match=r"do not fit arities 2, 2"):
            place_product(d, d, legs_a, legs_b, None)


class TestCollapse:
    """support_in_box merges equal templates before enumerating; the merge
    must leave the box support exactly as coefficient_at reads it, and must
    merge every template with its reparametrised copies."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_series())
    def test_support_matches_coefficient_at(self, drawn):
        series, most = drawn
        support = series.support_in_box(BOX)
        assert support == support_by_solving(series, BOX)
        assert all(c.__class__ is Fraction for c in support.values())
        assert len(series.collapsed().templates) <= most

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_series())
    def test_collapsed_series_walks_its_forms(self, drawn):
        # a collapsed series walks the forms it was built from, not a merge
        # of its own templates, and reads the same support
        series, _ = drawn
        collapsed = series.collapsed()
        assert collapsed._forms is not None
        assert collapsed.support_in_box(BOX) == support_by_solving(series, BOX)

    def test_mixed_slots_support(self):
        a, b = av("a"), av("b")
        t = Template(("a", "b"), Poly.const(F(1)), (pat_tee(a + b), pat_ess(a - b)))
        series = TemplateSeries(2, (t,))
        support = series.support_in_box(2)
        assert support == support_by_solving(series, 2)
        assert support[(tee(2), ess(0))] == 1

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_reparametrised_copy_cancels(self, data):
        t = data.draw(_template(("a", "b", "c")))
        copy = data.draw(_reparametrised(t, ("d", "e", "f")))
        series = TemplateSeries(2, (t, _negated(copy)))
        assert series.collapsed().templates == ()
        assert series.support_in_box(BOX) == {}

    def test_non_unimodular_copy_cancels(self):
        j, w = av("j"), av("w")
        t = Template(("j",), Poly.var("j"), (pat_tee(2 * j), pat_ess(j + 1)))
        assert TemplateSeries(2, (t,)).support_in_box(3) == {
            (tee(2 * v), ess(v + 1)): F(v) for v in (-1, 1)
        }
        # the same sum under j = 1 - w
        copy = Template(("w",), Poly.of(1 - w), (pat_tee(2 - 2 * w), pat_ess(2 - w)))
        series = TemplateSeries(2, (t, _negated(copy)))
        assert series.collapsed().templates == ()
        assert series.support_in_box(3) == {}

    def test_sublattice_is_kept_apart(self):
        # sum_j t^j s^j - sum_j t^2j s^2j: equal slot maps in the free slot,
        # over the lattices Z and 2Z, so only the odd j are left
        j = av("j")
        series = TemplateSeries(2, (
            Template(("j",), Poly.const(F(1)), (pat_tee(j), pat_ess(j))),
            Template(("j",), Poly.const(F(-1)), (pat_tee(2 * j), pat_ess(2 * j))),
        ))
        assert series.support_in_box(3) == {
            (tee(v), ess(v)): F(1) for v in (-3, -1, 1, 3)
        }


class TestBoxWalk:
    """support_in_box walks each form's last lattice variable x as a range;
    each case is read against coefficient_at, key tuple by key tuple."""

    @staticmethod
    def _check(series, bound):
        support = series.support_in_box(bound)
        assert support == support_by_solving(series, bound)
        assert all(c.__class__ is Fraction for c in support.values())
        return support

    def test_negative_step_and_moving_mono(self):
        # free slots a, c, b become u0, u1, u2 = x; the last slot a - b - c
        # steps by -1 in x, the Mono key of b and a - b - c moves with x, and
        # the coefficient is cubic in x
        a, b, c = av("a"), av("b"), av("c")
        t = Template(
            ("a", "b", "c"),
            Poly.var("a") * Poly.var("b") * Poly.var("b") * Poly.var("b") + Poly.const(F(1, 2)),
            (pair(fin("A", 0), pat_mono(a, c, 1)), pat_mono(b, a - b - c, 2)),
        )
        series = TemplateSeries(2, (t,))
        (form,) = series.collapsed().templates
        assert form.keys[1][2] == Aff.of(0) + av("u0") - av("u1") - av("u2")
        support = self._check(series, 2)
        assert support[(pair(fin("A", 0), mono(1, 0, 1)), mono(1, 0, 2))] == F(3, 2)

    def test_one_and_zero_variable_forms(self):
        # j^2 at (t^j, A1 s^(2-3j)): j = 0 and 1 are in the box, and j = 1
        # meets the constant term
        j = av("j")
        a1 = fin("A", 1)
        squared = Poly.var("j") * Poly.var("j")
        series = TemplateSeries(2, (
            Template((), Poly.const(F(3)), (pat_tee(1), pair(a1, pat_ess(-1)))),
            Template(("j",), squared, (pat_tee(j), pair(a1, pat_ess(2 - 3 * j)))),
        ))
        assert self._check(series, 2) == {(tee(1), pair(fin("A", 1), ess(-1))): F(4)}

    def test_two_forms_cancel(self):
        # sum_j t^j s^j against its even and odd parts, forms of their own
        j = av("j")
        series = TemplateSeries(2, (
            Template(("j",), Poly.var("j"), (pat_tee(j), pat_ess(-j))),
            Template(("j",), -Poly.of(2 * j), (pat_tee(2 * j), pat_ess(-2 * j))),
            Template(("j",), -Poly.of(2 * j + 1), (pat_tee(2 * j + 1), pat_ess(-2 * j - 1))),
        ))
        assert len(series.collapsed().templates) == 3
        assert self._check(series, 4) == {}


class TestIllPosed:
    def test_unused_variable_raises(self):
        t = Template(("k",), Poly.const(F(1)), (pat_tee(0), pat_tee(1)))
        s = TemplateSeries(2, (t,))
        with pytest.raises(IllPosedTemplateError):
            s.support_in_box(2)
        with pytest.raises(IllPosedTemplateError):
            s.coefficient_at((tee(5), tee(1)))

    def test_rank_deficient_raises(self):
        t = Template(
            ("a", "b"),
            Poly.const(F(1)),
            (pat_tee(av("a") + av("b")), pat_ess(0)),
        )
        s = TemplateSeries(2, (t,))
        with pytest.raises(IllPosedTemplateError):
            s.support_in_box(2)
        # Refused at every key of the template's shapes, also where the slots
        # cannot match (ess(1) against the constant slot 0).
        for keys in ((tee(0), ess(0)), (tee(0), ess(1))):
            with pytest.raises(IllPosedTemplateError):
                s.coefficient_at(keys)

    def test_stray_coefficient_variable_raises(self):
        j = av("j")
        t = Template(("j",), Poly.var("k"), (pat_tee(j), pat_ess(-j)))
        s = TemplateSeries(2, (t,))
        with pytest.raises(IllPosedTemplateError, match="stray variable k"):
            s.support_in_box(2)
        with pytest.raises(IllPosedTemplateError, match="stray variable k"):
            s.coefficient_at((tee(1), ess(-1)))


_exact = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-4, 4), st.integers(1, 3)))
_monomial = st.dictionaries(st.sampled_from("abc"), st.integers(1, 2), max_size=3).map(
    lambda ex: tuple(sorted(ex.items()))
)


@st.composite
def _poly(draw, coeffs=_exact):
    """(Poly built through const, var, of and +, its Fraction reference)."""
    poly, ref = Poly(), ()
    for mo, c in draw(st.lists(st.tuples(_monomial, coeffs), max_size=4)):
        term = Poly.const(c)
        for v, e in mo:
            for _ in range(e):
                term = term * Poly.var(v)
        poly, ref = poly + term, poly_reference.add(ref, ((mo, F(c)),))
    const, a = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    aff = Poly.of(Aff.of(const) + a * av("a"))
    ref = poly_reference.add(ref, (((), F(const)), ((("a", 1),), F(a))))
    return poly + aff, ref


def _fraction_only(series):
    """series with every template coefficient a Fraction (poly_reference)."""
    return TemplateSeries(
        series.arity,
        (Template(t.vars, Poly(poly_reference.of(t.coeff)), t.keys) for t in series.templates),
    )


class TestIntCoefficients:
    """Poly and TemplateSeries keep integral coefficients as ints, and give
    back Fractions: each operation agrees with the Fraction-only reference
    (poly_reference), and every value leaving the kernel is a Fraction, which
    is what serialize writes as a string (a bare int would be a JSON number)."""

    def test_integral_coefficients_are_ints(self):
        ((_, two),) = Poly.const(F(4, 2)).m
        assert two == 2 and two.__class__ is int
        assert Poly.const(F(1, 2)).m[0][1].__class__ is F
        assert Poly.var("a").m[0][1].__class__ is int
        assert all(co.__class__ is int for _, co in Poly.of(av("a") - 3).m)
        t = Template(("j",), Poly.var("j"), (pat_tee(av("j")),))
        (scaled,) = TemplateSeries(1, (t,)).scale(F(-6, 3)).templates
        assert all(co.__class__ is int for _, co in scaled.coeff.m)

    @settings(max_examples=200, deadline=None)
    @given(_poly(), _poly(), st.dictionaries(st.sampled_from("abc"), st.integers(-3, 3),
                                             min_size=3, max_size=3))
    def test_arithmetic_matches_reference(self, a, b, env):
        (pa, ra), (pb, rb) = a, b
        assert pa.m == ra
        assert (pa + pb).m == poly_reference.add(ra, rb)
        assert (pa * pb).m == poly_reference.mul(ra, rb)
        assert (pa - pb).m == poly_reference.add(ra, tuple((mo, -co) for mo, co in rb))
        for p, r in ((pa, ra), (pa * pb, poly_reference.mul(ra, rb))):
            value = p.eval(env)
            assert value == poly_reference.evaluate(r, env) and value.__class__ is F

    @settings(max_examples=100, deadline=None)
    @given(_poly(st.integers(-4, 4)), _poly(st.integers(-4, 4)))
    def test_int_arithmetic_stays_int(self, a, b):
        (pa, _), (pb, _) = a, b
        for p in (pa, pb, pa + pb, pa - pb, pa * pb, -pa):
            assert all(co.__class__ is int for _, co in p.m)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_series())
    def test_series_matches_reference(self, drawn):
        series, _ = drawn
        ref = _fraction_only(series)
        support = series.support_in_box(BOX)
        assert support == ref.support_in_box(BOX)
        assert all(c.__class__ is F for c in support.values())
        collapsed = series.collapsed()
        assert collapsed.templates == ref.collapsed().templates
        assert all(co.__class__ is F for t in collapsed.templates for _, co in t.coeff.m)
        for keys in list(support)[:5] + [(tee(0), ess(0)), (mono(1, -1, 1), tee(2))]:
            c = series.coefficient_at(keys)
            assert c == ref.coefficient_at(keys) and c.__class__ is F


class TestWindow:
    def test_interior_guard(self):
        w = Window(2, 5)
        with pytest.raises(InsufficientWindowError) as err:
            w.require_interior("Perm")
        assert "Perm" in str(err.value)
        assert err.value.n == 2

    def test_margin_defaulted(self):
        assert Window(3).n == 3


class TestCheckReport:
    def test_build_sorts_violations(self):
        v = [("z", (tee(2),), ()), ("a", (tee(1),), ())]
        rep = CheckReport.build("X", Window(3, 0), 2, v, {})
        assert [x[0] for x in rep.violations] == ["a", "z"]
        assert not rep.passed
        assert "fail" in rep.summary().lower() or "FAIL" in rep.summary()

    def test_passed_summary(self):
        rep = CheckReport.build("X", Window(3, 0), 10, [], {})
        assert rep.passed and "pass" in rep.summary()


class TestAddTerm:
    def test_add_and_zero(self):
        v = {}
        add_term(v, tee(1), F(2))
        add_term(v, tee(1), F(-2))
        assert v == {}

    def test_single(self):
        v = {}
        add_term(v, tee(1), 3)
        assert v == {tee(1): F(3)} and type(v[tee(1)]) is Fraction

    def test_zero_coefficient_is_skipped(self):
        v = {}
        for c in (0, F(0)):
            add_term(v, tee(1), c)
        assert v == {}

    def test_merges_in_place_in_first_insert_order(self):
        v = {}
        terms = ((tee(2), 1), (ess(0), F(1, 2)), (tee(2), 2), (tee(1), -1), (ess(0), -F(1, 2)))
        for key, c in terms:
            add_term(v, key, c)
        assert list(v.items()) == [(tee(2), F(3)), (tee(1), F(-1))]
        assert all(type(c) is Fraction for c in v.values())

    def test_coerces_on_first_insert_only(self, monkeypatch):
        # a later sum is cur + coeff, already a Fraction: no second call
        from permlie import kernel

        calls = []

        def counted(x):
            calls.append(x)
            return Fraction(x)

        monkeypatch.setattr(kernel, "Fraction", counted)
        v = {}
        for key, c in ((tee(0), 2), (tee(0), F(5)), (tee(1), F(1, 2)), (tee(0), 3)):
            add_term(v, key, c)
        assert v == {tee(0): F(10), tee(1): F(1, 2)}
        assert calls == [2, F(1, 2)]


class TestPublicNames:
    def test_every_listed_name_resolves(self):
        import permlie

        assert sorted(permlie.__all__) == permlie.__all__
        assert all(hasattr(permlie, name) for name in permlie.__all__)

    @pytest.mark.parametrize("name", ["FormalVector", "pat_fin", "pat_pair"])
    def test_retired_names_are_gone(self, name):
        import permlie
        from permlie import kernel

        assert name not in permlie.__all__
        assert not hasattr(permlie, name) and not hasattr(kernel, name)

    def test_aff_has_no_vars(self):
        assert not hasattr(Aff, "vars")


class TestLinearAlgebra:
    def test_sparse_rref_rank(self):
        # x + y = 0, x - y = 0 forces x = y = 0
        rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
        basis = sparse_rref(rows)
        assert len(basis) == 2
        assert forced_zero_columns(basis) == {0, 1}

    def test_underdetermined(self):
        rows = [{0: F(1), 1: F(1)}]
        basis = sparse_rref(rows)
        assert len(basis) == 1
        assert forced_zero_columns(basis) == set()

    def test_solve_affine_outcomes(self):
        # rows (coefficients, right-hand side); each case has a zero right side
        assert _solve_affine([([1, 1], 2), ([1, -1], 0)], 2) == ("one", [1, 1])
        assert _solve_affine([([1], 0), ([2], 1)], 1) == ("none", None)
        assert _solve_affine([([1, 1], 0), ([2, 2], 0)], 2) == ("many", None)
        assert _solve_affine([([1, 1], 0), ([1, 1], 1)], 2) == ("many", None)

    def test_rref_rows_reduced_against_pivots(self):
        rows = [{0: F(2), 1: F(2)}, {1: F(3), 2: F(3)}]
        basis = sparse_rref(rows)
        for lead, row in basis.items():
            assert row[lead] == 1
            for other in basis:
                if other != lead:
                    assert other not in row


def _dense_rref(rows, ncols):
    """{pivot: row} of the reduced row echelon form, by dense Gauss-Jordan."""
    m = [[F(r.get(c, 0)) for c in range(ncols)] for r in rows]
    out, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        out.append(c)
        r += 1
    return {c: {j: x for j, x in enumerate(m[i]) if x} for i, c in enumerate(out)}


_sparse_rows = st.lists(
    st.dictionaries(
        st.integers(0, 5), st.integers(-3, 3).filter(bool).map(F), max_size=4
    ),
    max_size=9,
)


class TestSparseRrefReference:
    # The second row makes the first a lone pivot {0: 1} only by
    # back-substitution; the third then reduces to zero unread.
    @example([{0: F(1), 1: F(1)}, {1: F(2)}, {0: F(3)}, {0: F(1), 1: F(5)}])
    @example([{2: F(1), 3: F(1)}, {0: F(1), 2: F(2)}, {3: F(1)}, {0: F(4), 2: F(1)}])
    @given(_sparse_rows)
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_rref_and_forced_zeros(self, rows):
        basis = sparse_rref(rows)
        ref = _dense_rref(rows, 6)
        assert basis == ref
        rank = len(ref)
        forced = {
            c for c in range(6) if len(_dense_rref(rows + [{c: F(1)}], 6)) == rank
        }
        assert forced_zero_columns(basis) == forced


class TestPatConst:
    def test_round_trip_tags(self):
        for k in (tee(2), ess(-1), mono(1, 0, 2), wn((1, 2), 1),
                  fin("A", 0), pair(fin("A", 0), tee(1))):
            assert pat_const(k)[0] == k[0]
