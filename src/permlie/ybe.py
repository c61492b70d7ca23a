"""Yang-Baxter machinery.

Finite side: residuals of the perm Yang-Baxter equation and of its pre-Lie
mirror, coboundary coproducts, the dual-window map induced by r with its
closure criterion, O-operator embeddings, and a small exhaustive search.
Graded side: affinizing a finite solution into a completed 2-tensor and the
completed classical Yang-Baxter residual with its coboundary Lie cobracket.

Each Yang-Baxter style equation is a signed plan of leg placements of r
against itself, summed by _plan_residual through the kernel's place_product;
apply_product_slot puts a product in one slot.  A finite 2-tensor enters as
r.series(); a finite result is read back exactly with support_in_box(0),
since finite keys have no integer slots.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable

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
    _finite_terms,
    apply_product_slot,
    pair,
    pat_const,
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
# Signed leg-placement plans and the finite Yang-Baxter residuals.


# Each entry (sign, legs of the first r, legs of the second r): r12 r23 -
# r13 r23 + r12 r13 - r13 r12 for the perm equation, -r12 r13 + r12 r23 +
# r13 r23 - r23 r13 for its pre-Lie mirror, and [r12, r13] + [r12, r23] +
# [r13, r23] for the classical equation.
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
_CYBE_PLAN = (
    (ONE, (1, 2), (1, 3)),
    (-ONE, (1, 3), (1, 2)),
    (ONE, (1, 2), (2, 3)),
    (-ONE, (2, 3), (1, 2)),
    (ONE, (1, 3), (2, 3)),
    (-ONE, (2, 3), (1, 3)),
)


def _plan_residual(product: Callable, r: TemplateSeries, plan) -> TemplateSeries:
    """The sum over the plan of sign * (r on legs_x) (r on legs_y), the shared
    legs multiplied by the symbolic product."""
    fresh = Fresh("y")
    total = TemplateSeries.zero(3)
    for sign, legs_x, legs_y in plan:
        total = total + place_product(r, r, legs_x, legs_y, product, fresh).scale(sign)
    return total


def _finite_residual(alg: FiniteAlgebra, r: TensorElement, plan) -> TensorElement:
    series = _plan_residual(alg.sym_product, r.series(), plan)
    return TensorElement(tuple((*ks, c) for ks, c in _finite_terms(series)))


def perm_ybe_residual(alg: FiniteAlgebra, r: TensorElement) -> TensorElement:
    return _finite_residual(alg, r, _PERM_PLAN)


def s_equation_residual(alg: FiniteAlgebra, r: TensorElement) -> TensorElement:
    return _finite_residual(alg, r, _S_PLAN)


# ---------------------------------------------------------------------------
# Coboundary coproducts.


def _coboundary_table(alg: FiniteAlgebra, r: TensorElement, actions) -> dict:
    """Coproduct table Delta(e_i) = sum of sign * (e_i multiplied into the
    given slot of r, on the given side)."""
    rs = r.series()
    delta = {}
    for i, key in enumerate(alg.basis_keys()):
        p = pat_const(key)
        d = TemplateSeries.zero(2)
        for sign, slot, side in actions:
            d = d + apply_product_slot(rs, slot, alg.sym_product, p, side).scale(sign)
        terms = tuple((a[2], b[2], c) for (a, b), c in _finite_terms(d))
        if terms:
            delta[i] = terms
    return delta


def coboundary_delta_perm(alg: FiniteAlgebra, r: TensorElement) -> dict:
    """Coproduct table Delta(p) = (id (x) R(p) - (L - R)(p) (x) id)(r)."""
    return _coboundary_table(alg, r, ((1, 1, "right"), (-1, 0, "left"), (1, 0, "right")))


def coboundary_delta_prelie(alg: FiniteAlgebra, r: TensorElement) -> dict:
    """Coproduct table Delta(a) = (L(a) (x) id + id (x) (L - R)(a))(r)."""
    return _coboundary_table(alg, r, ((1, 0, "left"), (1, 1, "left"), (-1, 1, "right")))


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

    def place(x, y, legs_x, legs_y):
        return place_product(x, y, legs_x, legs_y, alg.sym_product)

    rs = r.series()
    ybe = _plan_residual(alg.sym_product, rs, _PERM_PLAN).collapsed()
    m = rs.flip_hat() - rs
    n = -m
    rhs_ca = (
        place(m, rs, (1, 2), (2, 3))
        + place(m, rs, (1, 2), (1, 3))
        - place(rs, m, (1, 3), (1, 2))
    )
    # The parts that do not depend on p, each collapsed once.
    swapped_ca = (ybe + rhs_ca).permuted((1, 0, 2)).collapsed()
    ybe_clc = (ybe - ybe.permuted((1, 0, 2))).collapsed()
    n_23 = place(n, rs, (1, 2), (2, 3)).collapsed()
    n_13 = place(n, rs, (1, 2), (1, 3)).collapsed()
    violations = []
    checked = 0
    for i, key in enumerate(alg.basis_keys()):
        checked += 2
        p = pat_const(key)

        def rp(t, slot):
            return apply_product_slot(t, slot, alg.sym_product, p, "right")

        def lmr(t, slot):
            return apply_product_slot(t, slot, alg.sym_product, p, "left") - rp(t, slot)

        for label, res in (
            ("pcass", rp(ybe, 2) - lmr(swapped_ca, 0)),
            ("pclc", rp(ybe_clc, 2) - lmr(n_23, 1) - lmr(n_13, 0)),
        ):
            terms = _finite_terms(res)
            if terms:
                violations.append((label, (i,), terms))
    return CheckReport.build(
        "CoboundaryPermCoalgebra",
        Window(0, 0),
        checked,
        violations,
        {"violations_total": len(violations)},
    )


# ---------------------------------------------------------------------------
# The dual-window map induced by r and its closure criterion.


def r_sharp(alg: FiniteAlgebra, r: TensorElement):
    """Matrix of p* -> sum <p*, p_a> q_a over r = sum p_a (x) q_a, plus the
    report of check_o_operator on it for the dual representation
    (L*, L* - R*): r# is an O-operator exactly when

        r#(p*) r#(q*) = r#( L*(r#(p*)) q* + (L* - R*)(r#(q*)) p* )

    which, for symmetric r, holds exactly when r solves the perm equation."""
    d = alg.dim
    m = [[ZERO] * d for _ in range(d)]
    for ka, kb, c in r.terms:
        m[kb[2]][ka[2]] += c
    mat = tuple(tuple(row) for row in m)
    return mat, check_o_operator(alg, dual_rep(adjoint_representation(alg)), mat)


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
    ks = alg.basis_keys()
    cells = [(i, j) for i in range(alg.dim) for j in range(i, alg.dim)]
    out = []
    for vals in itertools.product(range(-height, height + 1), repeat=len(cells)):
        r = TensorElement.of(
            (ks[a], ks[b], Fraction(v))
            for (i, j), v in zip(cells, vals)
            if v
            for a, b in {(i, j), (j, i)}
        )
        if perm_ybe_residual(alg, r).is_zero():
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# Affinization of finite solutions.


def affinize_r(r: TensorElement, family: GradedFamily) -> TemplateSeries:
    """Pair every finite term of r with the family's graded dual pairs:

        r = sum c p (x) q   ->   sum c sum_t (p e_t) (x) (q f_t)

    emitted as a closed 2-leg template series."""
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
                    (pair(ka, e_pat), pair(kb, f_pat)),
                )
            )
    return TemplateSeries(2, tpls)


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
    res = _plan_residual(sym_bracket, rtilde, _CYBE_PLAN).support_in_box(window.n)
    violations = [("cybe", ks, ((ks, c),)) for ks, c in sorted(res.items())]
    return CheckReport.build(
        "CYBE",
        window,
        1,
        violations,
        {"box_terms": len(res)},
    )
