"""Kernel layer: affine indices, polynomials, template series, windows."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from permlie.kernel import (
    Aff,
    CheckReport,
    FormalVector,
    IllPosedTemplateError,
    InsufficientWindowError,
    Poly,
    Template,
    TemplateSeries,
    Window,
    _solve_affine,
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
    sparse_rref,
    forced_zero_columns,
    tee,
    wn,
)
from permlie.families import delta_a_family
from box_reference import support_by_solving

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
        assert d.equal_on_box(d.scale(F(1)), 4)
        assert not d.equal_on_box(d.scale(F(2)), 4)

    def test_support_respects_box(self):
        d = delta_a_family(tee(0))
        for (a, b), c in d.support_in_box(3).items():
            assert abs(a[1]) <= 3 and abs(b[1]) <= 3
            assert c != 0


# Random template series for the support_in_box cross-check.  Each template
# has k <= 2 variables and a slot map of rank k.  Half are triangular: k of
# the slots ("pivots") are triangular in the variables with a diagonal of +-1
# or +-2 (slots like 2j), the others arbitrary.  The rest draw every slot at
# random and keep the maps whose first k independent slots F have
# 1 <= |det A_F| <= 4, so A_F is in general neither triangular nor unimodular.
BOX = 2
SHAPES = {"Tee": 1, "Ess": 1, "Mono": 2}
SWAP = {"Tee": "Ess", "Ess": "Tee"}


def _pattern(tag, slots):
    if tag == "Mono":
        return pat_mono(slots[0], slots[1], 1)
    return (pat_tee if tag == "Tee" else pat_ess)(slots[0])


def _free_det(rows, k):
    """det A_F for the first k linearly independent rows F (k <= 2), or 0
    when the rows have rank below k."""
    if k == 0:
        return 1
    first = next((r for r in rows if any(r)), None)
    if first is None or k == 1:
        return first[0] if first else 0
    return next((first[0] * r[1] - first[1] * r[0] for r in rows
                 if first[0] * r[1] != first[1] * r[0]), 0)


@st.composite
def _template(draw, names):
    shapes = draw(st.sampled_from([("Tee", "Ess"), ("Ess", "Tee"), ("Tee", "Tee"),
                                   ("Mono", "Tee"), ("Ess", "Mono"), ("Ess", "Ess")]))
    m = sum(SHAPES[s] for s in shapes)
    k = draw(st.integers(0, 2))
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
        for _ in range(draw(st.integers(0, 2))):
            if k:
                mono_ = mono_ * Poly.var(names[draw(st.integers(0, k - 1))])
        coeff = coeff + mono_
    it = iter(slots)
    keys = tuple(_pattern(s, [next(it) for _ in range(SHAPES[s])]) for s in shapes)
    return Template(tuple(names[:k]), coeff, keys)


@st.composite
def _reparametrised(draw, t, names):
    """t over new variables w, with v = U w + d for a random unimodular U."""
    k = len(t.vars)
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 3)) if k else 0):
        i, j = draw(st.permutations(range(k)))[:2] if k == 2 else (0, None)
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


def _reshaped(t):
    """t on other slot shapes: Tee and Ess swapped, Mono d1 made d2."""
    return Template(
        t.vars,
        t.coeff,
        tuple(
            pat_mono(p[1], p[2], 2) if p[0] == "Mono" else _pattern(SWAP[p[0]], [p[1]])
            for p in t.keys
        ),
    )


@st.composite
def _series(draw):
    """(series, the most templates it can have once collapsed): a template
    alone keeps one; with its reshaped copy, or minus its restriction to the
    sublattice of even variables (same slot map, another lattice), two; minus
    a reparametrised copy of itself none; and minus twice such a copy one."""
    templates = []
    most = 0
    for n in range(draw(st.integers(1, 3))):
        names = (f"a{n}", f"b{n}")
        kind = draw(st.sampled_from(["alone", "cancel", "double", "reshape", "sublattice"]))
        t = draw(_template(names))
        templates.append(t)
        most += {"alone": 1, "cancel": 0, "double": 1, "reshape": 2, "sublattice": 2}[kind]
        if kind == "cancel":
            templates.append(_negated(draw(_reparametrised(t, (f"c{n}", f"d{n}")))))
        elif kind == "double":
            templates.append(_negated(draw(_reparametrised(t, (f"c{n}", f"d{n}"))), 2))
        elif kind == "reshape":
            templates.append(_negated(_reshaped(t)))
        elif kind == "sublattice":
            env = {v: 2 * av(w) for v, w in zip(t.vars, (f"c{n}", f"d{n}"))}
            templates.append(_negated(_substituted(t, (f"c{n}", f"d{n}"), env)))
    return TemplateSeries(2, draw(st.permutations(templates))), most


class TestCollapse:
    """support_in_box merges equal templates before enumerating; the merge
    must leave the box support exactly as coefficient_at reads it, and must
    merge every template with its reparametrised copies."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_series())
    def test_support_matches_coefficient_at(self, drawn):
        series, most = drawn
        assert series.support_in_box(BOX) == support_by_solving(series, BOX)
        assert len(series.collapsed().templates) <= most

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
        t = data.draw(_template(("a", "b")))
        copy = data.draw(_reparametrised(t, ("c", "d")))
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


class TestFormalVector:
    def test_add_and_zero(self):
        v = FormalVector()
        v.add_term(tee(1), F(2))
        v.add_term(tee(1), F(-2))
        assert v.is_zero()

    def test_single(self):
        v = FormalVector.single(tee(1), F(3))
        assert dict(v.items()) == {tee(1): F(3)}


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
