"""Tensor-space constructions over Pair keys.

A Pair key always stores the finite-dimensional component on the left and the
graded component on the right, whichever side of the tensor product the
finite algebra sits on mathematically.  The induced bracket, the cobracket,
and the probes below are all expressed through that layout.  The algebra
probe's Jacobi sweep runs the law's slot program (axioms._program) on the
bracket's commutator words, once per finite triple and once per graded
triple.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .kernel import (
    CheckReport,
    Fresh,
    Poly,
    Template,
    TemplateSeries,
    Window,
    _int,
    add_term,
    coproduct_at,
    pair,
    pat_const,
)
from .families import FiniteAlgebra, GradedFamily
from .axioms import (
    LawId,
    check_algebra,
    check_coalgebra,
    _holds_on_patterns,
    _mul,
    _program,
    _run,
)


def pair_keys(alg: FiniteAlgebra, family: GradedFamily, window: Window):
    gkeys = family.keys(window)
    return [pair(f, g) for f in alg.basis_keys() for g in gkeys]


# ---------------------------------------------------------------------------
# Induced Lie bracket.


def induced_lie_bracket(alg: FiniteAlgebra, family: GradedFamily):
    """Bracket and its symbolic rule on Pair keys:
    [x1 (x) y1, x2 (x) y2] = x1 x2 (x) y1 y2 - x2 x1 (x) y2 y1.

    One rule, read two ways: alg.mul and family.rule run on keys and on
    patterns alike, so the terms below are the bracket's at keys or at
    patterns, as GradedFamily reads rule as product_one and sym_product."""

    def terms(p1, p2):
        """(finite coeff, graded coeff, key or pattern) per term."""
        _, x1, y1 = p1
        _, x2, y2 = p2
        for s, xa, xb, ya, yb in ((1, x1, x2, y1, y2), (-1, x2, x1, y2, y1)):
            mul = alg.mul.get((xa[2], xb[2]))
            r = mul and family.rule(ya, yb)
            if r:
                for k, c in mul:
                    yield s * c, r[0], pair(alg.key(k), r[1])

    def bracket(k1, k2) -> dict:
        out = {}
        for c, g, k in terms(k1, k2):
            add_term(out, k, c * g)
        return out

    def sym_bracket(p1, p2):
        return [(Poly.of(g) * c, p) for c, g, p in terms(p1, p2)]

    return bracket, sym_bracket


# ---------------------------------------------------------------------------
# The positionwise cobracket.


def delta_bullet(alg: FiniteAlgebra, family: GradedFamily, key) -> TemplateSeries:
    """(id - flip) of the positionwise pairing of the finite coproduct with
    the graded coproduct, at one Pair key."""
    return coproduct_at(_delta_bullet_sym(alg, family), key)


def delta_bullet_rule(alg: FiniteAlgebra, family: GradedFamily):
    """(key -> TemplateSeries, symbolic coproduct) pair for the cobracket."""

    def delta(key) -> TemplateSeries:
        return delta_bullet(alg, family, key)

    return delta, _delta_bullet_sym(alg, family)


def _delta_bullet_sym(alg: FiniteAlgebra, family: GradedFamily):
    def sym_co(p, fresh: Fresh):
        _, pf, pa = p
        out = []
        for _, c, (fl, fr) in alg.sym_delta(pf, fresh):
            for new_vars, poly, (pl, pr) in family.sym_co(pa, fresh):
                kl, kr = pair(fl, pl), pair(fr, pr)
                out.append((new_vars, c * poly, (kl, kr)))
                out.append((new_vars, -c * poly, (kr, kl)))
        return out

    return sym_co


# ---------------------------------------------------------------------------
# Form-induced coproducts.


def coproduct_from_form(family: GradedFamily):
    """Coproduct induced by the invariant form via the graded dual basis.

    pre-Lie family: delta(a) = -sum (a e_t) (x) f_t over dual pairs (e_t, f_t).
    perm family:    delta(p) = sum (p e_t - e_t p) (x) f_t.
    Both are finite template series because the products are single closed
    forms in the summation index.
    """
    if family.partner is None:
        raise ValueError(f"{family.name} has no form partner")
    # (sign, whether the key is the left factor) for each word of the sum
    words = ((1, True), (-1, False)) if family.kind == "Perm" else ((-1, True),)

    def delta(key) -> TemplateSeries:
        fresh = Fresh("j")
        tpls = []
        p = pat_const(key)
        for dvars, e_pat, f_pat, sign in family.dual_pairs(fresh):
            for word_sign, key_left in words:
                x, y = (p, e_pat) if key_left else (e_pat, p)
                for cy, py in family.sym_product(x, y):
                    tpls.append(Template(tuple(dvars), word_sign * sign * cy, (py, f_pat)))
        return TemplateSeries(2, tpls)

    return delta


# ---------------------------------------------------------------------------
# Affinization probes.


@dataclass
class ProbeVerdict:
    is_law: bool
    direct_report: CheckReport
    window_report: CheckReport
    agree: bool
    note: str


def affinization_probe(
    alg: FiniteAlgebra,
    family: GradedFamily,
    direction: str,
    window: Window,
    delta_table: Optional[dict] = None,
) -> ProbeVerdict:
    """Window Jacobi (or co-Jacobi) of the induced structure, cross-checked
    against the direct law on the finite candidate.  The finite side's law is
    the one matching the graded family: a perm family affinizes pre-Lie
    candidates and vice versa."""
    finite_law = LawId.Perm if family.kind == "PreLie" else LawId.PreLie
    if direction == "algebra":
        window_report = _pair_jacobi_report(alg, family, window)
        direct_report = check_algebra(finite_law, alg=alg)
    elif direction == "coalgebra":
        work = alg if delta_table is None else replace(alg, delta=delta_table)
        delta, sym_co = delta_bullet_rule(work, family)
        window_report = check_coalgebra(
            LawId.CoLieJacobi,
            delta=delta,
            sym_co=sym_co,
            keys=pair_keys(work, family, window),
            window=window,
            margin=0,
        )
        colaw = LawId.CoPerm if family.kind == "PreLie" else LawId.CoPreLie
        direct_report = check_coalgebra(
            colaw,
            delta=lambda k: coproduct_at(work.sym_delta, k),
            sym_co=work.sym_delta,
            keys=work.basis_keys(),
            window=Window(0, 0),
            margin=0,
        )
    else:
        raise ValueError(f"unknown probe direction {direction!r}")
    agree = window_report.passed == direct_report.passed
    note = (
        f"consistent with law up to N={window.n}"
        if window_report.passed
        else "violation inside window"
    )
    return ProbeVerdict(
        is_law=window_report.passed,
        direct_report=direct_report,
        window_report=window_report,
        agree=agree,
        note=note,
    )


def _commutator_words(t) -> list:
    """The signed product words of a bracketing, each bracket [u, v] read as
    uv - vu: ((0, 1), 2) -> (ab)c - c(ab) - (ba)c + c(ba)."""
    if t.__class__ is int:
        return [(1, t)]
    return [
        w
        for s, u in _commutator_words(t[0])
        for r, v in _commutator_words(t[1])
        for w in ((s * r, (u, v)), (-s * r, (v, u)))
    ]


def _pair_jacobi_report(alg: FiniteAlgebra, family: GradedFamily, window: Window) -> CheckReport:
    """LAW_PLANS[LieJacobi] of the induced bracket over Pair-key triples.

    The law is first proved on patterns through the bracket's symbolic rule:
    a finite key is its own shape, so each finite triple is one tuple of
    shapes, and a proof holds at every graded triple, in any window.  When
    the proof does not close, the window is swept.  Each bracket expands into
    product words, and a word on Pair keys is the same word on the finite
    keys tensored with it on the graded keys.  The words compile into one
    slot program (axioms._program), run once per finite triple and once per
    graded triple; the sweep is graded-major and stops at the first
    violation."""
    law = LawId.LieJacobi.value
    _, sym_bracket = induced_lie_bracket(alg, family)
    pkeys = pair_keys(alg, family, window)
    if _holds_on_patterns(LawId.LieJacobi, sym_bracket, pkeys):
        return CheckReport.build(law, window, len(pkeys) ** 3, [], {"violations_total": 0})
    steps, ((label, words),), _ = _program(LawId.LieJacobi, _commutator_words)

    def run(inputs, mul):
        vals = _run(steps, list(inputs) + [None] * len(steps), mul)
        return [vals[w] for _, w in words]

    def one(ka, kb):
        p = family.product_one(ka, kb)
        return p and (_int(p[0]), p[1])

    prod = functools.cache(one)

    def graded(u, v):
        p = u and v and prod(u[1], v[1])
        return p and (u[0] * v[0] * p[0], p[1])

    def fin_product(p, q):
        return [(_int(c), k) for k, c in alg.product(p, q).items()]

    fin_mul = functools.partial(_mul, fin_product, 0)
    fin_triples = [
        (xyz, [[kc for kc in f.items() if kc[1]] for f in run([{x: 1} for x in xyz], fin_mul)])
        for xyz in itertools.product(alg.basis_keys(), repeat=3)
    ]
    checked = 0
    for gs in itertools.product(family.keys(window), repeat=3):
        gvals = run([(1, k) for k in gs], graded)
        live = [(f, s * g[0], g[1]) for f, ((s, _), g) in enumerate(zip(words, gvals)) if g]
        if not live:
            checked += len(fin_triples)
            continue
        for xyz, fvals in fin_triples:
            checked += 1
            acc = {}
            for f, s, gk in live:
                for k, c in fvals[f]:
                    acc[k, gk] = acc.get((k, gk), 0) + s * c
            if any(acc.values()):
                at = tuple(pair(x, g) for x, g in zip(xyz, gs))
                res = tuple((pair(k, g), Fraction(v)) for (k, g), v in sorted(acc.items()) if v)
                extra = {"early_exit": True, "violations_total": 1}
                return CheckReport.build(law, window, checked, [(label, at, res)], extra)
    return CheckReport.build(law, window, checked, [], {"violations_total": 0})
