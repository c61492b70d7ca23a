"""Yang-Baxter machinery.

Finite side: the four leg placements of r against itself, residuals of the
perm Yang-Baxter equation and of its pre-Lie mirror, coboundary coproducts,
the dual-window map induced by r with its closure criterion, O-operator
embeddings, and a small exhaustive search.  Graded side: affinizing a finite
solution into a completed 2-tensor and the completed classical Yang-Baxter
residual with its coboundary Lie cobracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

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
    apply_product_slot,
    pat_const,
    pat_fin,
    pat_pair,
    place_product,
)
from .families import (
    FiniteAlgebra,
    GradedFamily,
    Representation,
    TensorElement,
    adjoint_representation,
)
from .axioms import check_o_operator
from .doubles import dual_rep, semidirect_perm


# ---------------------------------------------------------------------------
# Finite three-tensors and leg placement.


@dataclass(frozen=True)
class ThreeTensor:
    """Finite 3-tensor: canonically ordered zero-free (k1, k2, k3, coeff)."""

    terms: tuple

    @staticmethod
    def of(terms) -> "ThreeTensor":
        acc = {}
        for k1, k2, k3, c in terms:
            key = (k1, k2, k3)
            acc[key] = acc.get(key, ZERO) + Fraction(c)
        return ThreeTensor(
            tuple((k1, k2, k3, c) for (k1, k2, k3), c in sorted(acc.items()) if c)
        )

    def __add__(self, other: "ThreeTensor") -> "ThreeTensor":
        return ThreeTensor.of(self.terms + other.terms)

    def __sub__(self, other: "ThreeTensor") -> "ThreeTensor":
        return ThreeTensor.of(
            self.terms + tuple((k1, k2, k3, -c) for k1, k2, k3, c in other.terms)
        )

    def __neg__(self) -> "ThreeTensor":
        return ThreeTensor.of((k1, k2, k3, -c) for k1, k2, k3, c in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def swap12(self) -> "ThreeTensor":
        return ThreeTensor.of((k2, k1, k3, c) for k1, k2, k3, c in self.terms)


def place_finite(
    x: TensorElement, y: TensorElement, legs_x, legs_y, product: Callable
) -> ThreeTensor:
    """Multiply two 2-tensors into three legs: the shared leg carries
    product(x component, y component), unique legs pass through unchanged.
    The same convention drives the completed placements in the kernel."""
    assert sorted(set(legs_x) | set(legs_y)) == [1, 2, 3]
    shared = set(legs_x) & set(legs_y)
    assert len(shared) == 1
    s = shared.pop()
    out = []
    for xl, xr, cx in x.terms:
        xcomp = {legs_x[0]: xl, legs_x[1]: xr}
        for yl, yr, cy in y.terms:
            ycomp = {legs_y[0]: yl, legs_y[1]: yr}
            slot = dict(xcomp)
            slot.update({leg: k for leg, k in ycomp.items() if leg != s})
            for k, c in product(xcomp[s], ycomp[s]).items():
                slot[s] = k
                out.append((slot[1], slot[2], slot[3], cx * cy * c))
    return ThreeTensor.of(out)


# Signed placement plans: r12 r23 - r13 r23 + r12 r13 - r13 r12 for the perm
# equation, -r12 r13 + r12 r23 + r13 r23 - r23 r13 for its pre-Lie mirror.
_PERM_PLAN = (
    (ONE, (1, 2), (2, 3)),
    (-ONE, (1, 3), (2, 3)),
    (ONE, (1, 2), (1, 3)),
    (-ONE, (1, 3), (1, 2)),
)
_S_PLAN = (
    (-ONE, (1, 2), (1, 3)),
    (ONE, (1, 2), (2, 3)),
    (ONE, (1, 3), (2, 3)),
    (-ONE, (2, 3), (1, 3)),
)


def _plan_residual(alg: FiniteAlgebra, r: TensorElement, plan) -> ThreeTensor:
    total = ThreeTensor.of(())
    for sign, legs_x, legs_y in plan:
        t = place_finite(r, r, legs_x, legs_y, alg.product)
        total = total + (t if sign == ONE else -t)
    return total


def perm_ybe_residual(alg: FiniteAlgebra, r: TensorElement) -> ThreeTensor:
    return _plan_residual(alg, r, _PERM_PLAN)


def s_equation_residual(alg: FiniteAlgebra, r: TensorElement) -> ThreeTensor:
    return _plan_residual(alg, r, _S_PLAN)


# ---------------------------------------------------------------------------
# Coboundary coproducts.


def coboundary_delta_perm(alg: FiniteAlgebra, r: TensorElement) -> dict:
    """Coproduct table Delta(p) = (id (x) R(p) - (L - R)(p) (x) id)(r)."""
    delta = {}
    for i in range(alg.dim):
        acc = {}
        for ka, kb, c in r.terms:
            for k, cc in alg.mul.get((kb[2], i), ()):
                _acc(acc, (ka[2], k), c * cc)
            for k, cc in alg.mul.get((i, ka[2]), ()):
                _acc(acc, (k, kb[2]), -c * cc)
            for k, cc in alg.mul.get((ka[2], i), ()):
                _acc(acc, (k, kb[2]), c * cc)
        terms = tuple((j, k, v) for (j, k), v in sorted(acc.items()) if v)
        if terms:
            delta[i] = terms
    return delta


def coboundary_delta_prelie(alg: FiniteAlgebra, r: TensorElement) -> dict:
    """Coproduct table Delta(a) = (L(a) (x) id + id (x) (L - R)(a))(r)."""
    delta = {}
    for i in range(alg.dim):
        acc = {}
        for ka, kb, c in r.terms:
            for k, cc in alg.mul.get((i, ka[2]), ()):
                _acc(acc, (k, kb[2]), c * cc)
            for k, cc in alg.mul.get((i, kb[2]), ()):
                _acc(acc, (ka[2], k), c * cc)
            for k, cc in alg.mul.get((kb[2], i), ()):
                _acc(acc, (ka[2], k), -c * cc)
        terms = tuple((j, k, v) for (j, k), v in sorted(acc.items()) if v)
        if terms:
            delta[i] = terms
    return delta


def _acc(acc: dict, key, v):
    cur = acc.get(key, ZERO) + v
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


# ---------------------------------------------------------------------------
# The coalgebra conditions for a coboundary coproduct from arbitrary r.


def coboundary_coalgebra_report(alg: FiniteAlgebra, r: TensorElement) -> CheckReport:
    """Two residuals, per basis element, that vanish exactly when the
    coboundary coproduct is a perm coalgebra (r need not be symmetric):

    coassociativity:
      (id (x) id (x) R(p) - ((L-R)(p) (x) id (x) id)(swap12)) Y
        = ((L-R)(p) (x) id (x) id)(swap12)(m12 r23 + m12 r13 - r13 m12)
    left cosymmetry:
      (id (x) id (x) R(p))(id - swap12) Y
        = (id (x) (L-R)(p) (x) id)(n12 r23) + ((L-R)(p) (x) id (x) id)(n12 r13)

    with Y the perm equation residual, m = flip(r) - r and n = r - flip(r).
    """
    ybe = perm_ybe_residual(alg, r)
    m = r.flip() - r
    n = r - r.flip()
    rhs_ca = (
        place_finite(m, r, (1, 2), (2, 3), alg.product)
        + place_finite(m, r, (1, 2), (1, 3), alg.product)
        - place_finite(r, m, (1, 3), (1, 2), alg.product)
    )
    n_23 = place_finite(n, r, (1, 2), (2, 3), alg.product)
    n_13 = place_finite(n, r, (1, 2), (1, 3), alg.product)
    violations = []
    checked = 0
    for i in range(alg.dim):
        checked += 2

        def rp(key):
            return alg.product(key, alg.key(i))

        def lmr(key):
            return alg.product(alg.key(i), key) - alg.product(key, alg.key(i))

        res = (
            _apply_leg(ybe, 3, rp)
            - _apply_leg(ybe.swap12(), 1, lmr)
            - _apply_leg(rhs_ca.swap12(), 1, lmr)
        )
        if not res.is_zero():
            violations.append(("pcass", (i,), _tt_items(res)))
        res = (
            _apply_leg(ybe - ybe.swap12(), 3, rp)
            - _apply_leg(n_23, 2, lmr)
            - _apply_leg(n_13, 1, lmr)
        )
        if not res.is_zero():
            violations.append(("pclc", (i,), _tt_items(res)))
    return CheckReport.build(
        "CoboundaryPermCoalgebra",
        Window(0, 0),
        checked,
        violations,
        {"violations_total": len(violations)},
    )


def _apply_leg(t: ThreeTensor, leg: int, op: Callable) -> ThreeTensor:
    out = []
    for term in t.terms:
        ks = list(term[:3])
        c = term[3]
        for k, cc in op(ks[leg - 1]).items():
            ks2 = list(ks)
            ks2[leg - 1] = k
            out.append((ks2[0], ks2[1], ks2[2], c * cc))
    return ThreeTensor.of(out)


def _tt_items(t: ThreeTensor):
    return tuple(((k1, k2, k3), c) for k1, k2, k3, c in t.terms)


# ---------------------------------------------------------------------------
# The dual-window map induced by r and its closure criterion.


def r_sharp(alg: FiniteAlgebra, r: TensorElement):
    """Matrix of p* -> sum <p*, p_a> q_a over r = sum p_a (x) q_a, plus the
    report of the closure criterion

        r#(p*) r#(q*) = r#( L*(r#(p*)) q* + (L* - R*)(r#(q*)) p* )

    which, for symmetric r, holds exactly when r solves the perm equation."""
    d = alg.dim
    m = [[ZERO] * d for _ in range(d)]
    for ka, kb, c in r.terms:
        m[kb[2]][ka[2]] += c
    mat = tuple(tuple(row) for row in m)
    star = dual_rep(adjoint_representation(alg))  # (L*, L* - R*)
    violations = []
    checked = 0
    for a in range(d):
        xa = tuple(mat[k][a] for k in range(d))
        for b in range(d):
            checked += 1
            xb = tuple(mat[k][b] for k in range(d))
            lhs = alg.times(xa, xb)
            arg = [ZERO] * d
            for i in range(d):
                if xa[i]:
                    arg = [u + xa[i] * star.l[i][k][b] for k, u in enumerate(arg)]
                if xb[i]:
                    arg = [u + xb[i] * star.r[i][k][a] for k, u in enumerate(arg)]
            rhs = [ZERO] * d
            for u in range(d):
                if arg[u]:
                    rhs = [x + arg[u] * mat[k][u] for k, x in enumerate(rhs)]
            diff = tuple(x - y for x, y in zip(lhs, rhs))
            if any(diff):
                violations.append(
                    ("r-sharp", (a, b), tuple(((k,), v) for k, v in enumerate(diff) if v))
                )
    report = CheckReport.build(
        "RSharpCriterion", Window(0, 0), checked, violations,
        {"violations_total": len(violations)},
    )
    return mat, report


# ---------------------------------------------------------------------------
# O-operators.


class OOperatorError(ValueError):
    """Raised when T fails the O-operator identity; carries the report."""

    def __init__(self, report: CheckReport):
        super().__init__(f"not an O-operator: {report.summary()}")
        self.report = report


def o_to_ybe(t, alg: FiniteAlgebra, rep: Representation):
    """Embed an O-operator T : V -> P as r = T + flip(T) inside the
    semidirect product of P by the dual module V*.  Returns (double, r)."""
    ok = check_o_operator(alg, rep, t)
    if not ok.passed:
        raise OOperatorError(ok)
    labels = None
    if rep.module_dim == alg.dim:
        labels = tuple(f"{x}*" for x in alg.labels)
    double = semidirect_perm(alg, dual_rep(rep), module_labels=labels)
    d = alg.dim
    terms = []
    for i in range(d):
        for u in range(rep.module_dim):
            if t[i][u]:
                terms.append((double.key(i), double.key(d + u), t[i][u]))
    half = TensorElement.of(terms)
    return double, half + half.flip()


def grid_search_symmetric_r(alg: FiniteAlgebra, height: int = 1):
    """Exhaustive search for symmetric solutions with integer entries of
    bounded height.  Dimensions above 2 are out of scope."""
    if alg.dim > 2:
        raise ValueError("grid search supports dimension <= 2 only")
    rng = range(-height, height + 1)
    ks = alg.basis_keys()
    out = []
    if alg.dim == 1:
        grids = (((0, 0, v),) for v in rng)
    else:
        grids = (
            ((0, 0, a), (0, 1, b), (1, 0, b), (1, 1, c))
            for a in rng
            for b in rng
            for c in rng
        )
    for entries in grids:
        r = TensorElement.of(
            (ks[i], ks[j], Fraction(v)) for i, j, v in entries if v
        )
        if perm_ybe_residual(alg, r).is_zero():
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# Affinization of finite solutions.


def affinize_r(
    r: TensorElement, family: GradedFamily, window: Optional[Window] = None
) -> TemplateSeries:
    """Pair every finite term of r with the family's graded dual pairs:

        r = sum c p (x) q   ->   sum c sum_t (p e_t) (x) (q f_t)

    emitted as a closed 2-leg template series.  When a window is given and r
    is symmetric, the output is verified pointwise skew on that window."""
    if family.form is None:
        raise ValueError("family has no invertible pairing")
    fresh = Fresh("i")
    tpls = []
    for ka, kb, c in r.terms:
        for dvars, e_pat, f_pat, sign in family.dual_pairs(fresh):
            tpls.append(
                Template(
                    tuple(dvars),
                    Poly.const(c) * sign,
                    (
                        pat_pair(pat_fin(ka[1], ka[2]), e_pat),
                        pat_pair(pat_fin(kb[1], kb[2]), f_pat),
                    ),
                )
            )
    out = TemplateSeries(2, tpls)
    if window is not None and r.is_symmetric():
        bad = (out + out.flip_hat()).support_in_box(window.n)
        assert not bad, "affinized symmetric solution must be skew"
    return out


def lie_delta_from_r(sym_bracket: Callable, rtilde: TemplateSeries, key) -> TemplateSeries:
    """Coboundary cobracket of the completed 2-tensor:
    delta(x) = (ad(x) (x) id + id (x) ad(x))(rtilde)."""
    p = pat_const(key)
    out = apply_product_slot(rtilde, 0, sym_bracket, p, "left")
    return out + apply_product_slot(rtilde, 1, sym_bracket, p, "left")


def cybe_residual(
    sym_bracket: Callable, rtilde: TemplateSeries, window: Window
) -> CheckReport:
    """[r12, r13] + [r12, r23] + [r13, r23] accumulated on the window box.

    The restriction of the residual series to the box is exact, so an empty
    support certifies the identity for every output key inside the box."""
    if window.n < 1:
        raise InsufficientWindowError("CYBE", window.n, 1)
    fresh = Fresh("y")
    total = None
    for legs_a, legs_b in (((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))):
        t = place_product(rtilde, rtilde, legs_a, legs_b, sym_bracket, fresh=fresh)
        u = place_product(rtilde, rtilde, legs_b, legs_a, sym_bracket, fresh=fresh)
        part = t - u
        total = part if total is None else total + part
    res = total.support_in_box(window.n)
    violations = [("cybe", ks, ((ks, c),)) for ks, c in sorted(res.items())]
    return CheckReport.build(
        "CYBE",
        window,
        1,
        violations,
        {"box_terms": len(res)},
    )
