"""Tensor-space constructions over Pair keys.

A Pair key always stores the finite-dimensional component on the left and the
graded component on the right, whichever side of the tensor product the
finite algebra sits on mathematically.  The induced bracket, the cobracket,
and the probes below are all expressed through that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .kernel import (
    CheckReport,
    FormalVector,
    Fresh,
    ONE,
    Poly,
    Template,
    TemplateSeries,
    Window,
    ZERO,
    coproduct_at,
    pair,
    pat_const,
    pat_fin,
    pat_pair,
)
from .families import FiniteAlgebra, GradedFamily
from .axioms import LawId, check_algebra, check_coalgebra, _Recorder, _memo_one


def pair_keys(alg: FiniteAlgebra, family: GradedFamily, window: Window):
    gkeys = family.keys(window)
    return [pair(f, g) for f in alg.basis_keys() for g in gkeys]


# ---------------------------------------------------------------------------
# Induced Lie bracket.


def induced_lie_bracket(alg: FiniteAlgebra, family: GradedFamily):
    """Bracket and its symbolic rule on Pair keys:
    [x1 (x) y1, x2 (x) y2] = x1 x2 (x) y1 y2 - x2 x1 (x) y2 y1."""

    def bracket(k1, k2) -> FormalVector:
        _, x1, y1 = k1
        _, x2, y2 = k2
        out = FormalVector()
        g = family.product_one(y1, y2)
        if g is not None:
            for xk, xc in alg.product(x1, x2).items():
                out.add_term(pair(xk, g[1]), xc * g[0])
        g = family.product_one(y2, y1)
        if g is not None:
            for xk, xc in alg.product(x2, x1).items():
                out.add_term(pair(xk, g[1]), -xc * g[0])
        return out

    def sym_bracket(p1, p2):
        _, x1, y1 = p1
        _, x2, y2 = p2
        out = []
        for px, cx in _fin_branches(alg, x1, x2):
            for cy, py in family.sym_product(y1, y2):
                out.append((Poly.const(cx) * cy, pat_pair(px, py)))
        for px, cx in _fin_branches(alg, x2, x1):
            for cy, py in family.sym_product(y2, y1):
                out.append((Poly.const(-cx) * cy, pat_pair(px, py)))
        return out

    return bracket, sym_bracket


def _fin_branches(alg: FiniteAlgebra, p1, p2):
    assert p1[0] == "Fin" and p2[0] == "Fin"
    return [
        (pat_fin(alg.space, k), c) for k, c in alg.mul.get((p1[2], p2[2]), ())
    ]


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
        assert pf[0] == "Fin"
        out = []
        for i, j, c in alg.delta_terms(pf[2]):
            for new_vars, poly, (pl, pr) in family.sym_co(pa, fresh):
                kl = pat_pair(pat_fin(alg.space, i), pl)
                kr = pat_pair(pat_fin(alg.space, j), pr)
                out.append((new_vars, Poly.const(c) * poly, (kl, kr)))
                out.append((new_vars, Poly.const(-c) * poly, (kr, kl)))
        return out

    return sym_co


# ---------------------------------------------------------------------------
# Form-induced coproducts and graded dual bases.


def graded_dual_basis(family: GradedFamily, window: Window):
    """For each window key e a vector f with form(f, e) = 1 and form(f, e') = 0
    for every other window key e'.  Requires the single-partner property that
    both shipped forms have; the defining property is re-verified exactly."""
    assert family.form is not None and family.form_partners is not None
    out = []
    keys = family.keys(window)
    for e in keys:
        partners = family.form_partners(e)
        assert len(partners) == 1, "dual basis needs a single pairing partner"
        k, val = partners[0]  # val = form(e, k)
        out.append((e, FormalVector.single(k, -ONE / val)))
    return out


def coproduct_from_form(family: GradedFamily, side: Optional[str] = None):
    """Coproduct induced by the invariant form via the graded dual basis.

    side="PreLie": delta(a) = -sum (a e_t) (x) f_t over dual pairs (e_t, f_t).
    side="Perm":   delta(p) = sum (p e_t - e_t p) (x) f_t.
    Both are finite template series because the products are single closed
    forms in the summation index.
    """
    if side is None:
        side = "Perm" if family.kind == "Perm" else "PreLie"
    assert family.partner is not None

    def delta(key) -> TemplateSeries:
        fresh = Fresh("j")
        tpls = []
        p = pat_const(key)
        for dvars, e_pat, f_pat, sign in family.dual_pairs(fresh):
            if side == "PreLie":
                for cy, py in family.sym_product(p, e_pat):
                    tpls.append(
                        Template(tuple(dvars), Poly.const(-1) * sign * cy, (py, f_pat))
                    )
            else:
                for cy, py in family.sym_product(p, e_pat):
                    tpls.append(Template(tuple(dvars), sign * cy, (py, f_pat)))
                for cy, py in family.sym_product(e_pat, p):
                    tpls.append(
                        Template(tuple(dvars), Poly.const(-1) * sign * cy, (py, f_pat))
                    )
        return TemplateSeries(2, tpls)

    return delta


def pairing_defect(
    family: GradedFamily, delta_fn: Callable, a, b, c
) -> Fraction:
    """Defect of the defining pairing at (a; b, c):

    PreLie side: form~(delta(a), b (x) c) + form(a, b c)
    Perm side:   form~(delta(p), q (x) r) + form(p, q r)

    where form~ pairs slot 1 against b and slot 2 against c.  The slot-wise
    pairing of delta(a) against (b, c) has finitely many contributing terms,
    recovered exactly through the partner keys.
    """
    assert family.form is not None and family.form_partners is not None
    total = ZERO
    d = delta_fn(a)
    # form~(x (x) y, b (x) c) = form(x, b) form(y, c): only the key pair
    # (partner of b, partner of c) can contribute.
    for kb, vb in family.form_partners(b):
        for kc, vc in family.form_partners(c):
            coeff = d.coefficient_at((kb, kc))
            if coeff:
                # form(kb, b) = -vb since vb = form(b, kb)
                total += coeff * (-vb) * (-vc)
    prod = family.product_one(b, c)
    if prod is not None:
        total += prod[0] * family.form(a, prod[1])
    return total


# ---------------------------------------------------------------------------
# Affinization probes.


@dataclass
class ProbeVerdict:
    is_law: bool
    witness: Optional[tuple]
    direct_report: CheckReport
    window_report: CheckReport
    agree: bool
    note: str

    def summary(self) -> str:
        state = "pass" if self.is_law else "FAIL"
        return (
            f"probe {self.window_report.law}: {state}, direct "
            f"{'pass' if self.direct_report.passed else 'FAIL'}, "
            f"agree={self.agree}"
        )


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
        work = alg
        if delta_table is not None:
            work = FiniteAlgebra(
                id=alg.id,
                space=alg.space,
                dim=alg.dim,
                labels=alg.labels,
                kind=alg.kind,
                mul=alg.mul,
                delta=delta_table,
            )
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
            delta=lambda k: _finite_delta_series(work, k),
            sym_co=work.sym_delta,
            keys=work.basis_keys(),
            window=Window(0, 0),
            margin=0,
        )
    else:
        raise ValueError(f"unknown probe direction {direction!r}")
    witness = None
    if window_report.violations:
        witness = window_report.violations[0][1]
    agree = window_report.passed == direct_report.passed
    note = (
        f"consistent with law up to N={window.n}"
        if window_report.passed
        else "violation inside window"
    )
    return ProbeVerdict(
        is_law=window_report.passed,
        witness=witness,
        direct_report=direct_report,
        window_report=window_report,
        agree=agree,
        note=note,
    )


def _finite_delta_series(alg: FiniteAlgebra, key) -> TemplateSeries:
    return TemplateSeries.from_terms(
        2,
        (
            ((alg.key(i), alg.key(j)), c)
            for i, j, c in alg.delta_terms(key[2])
        ),
    )


def _pair_jacobi_report(
    alg: FiniteAlgebra, family: GradedFamily, window: Window
) -> CheckReport:
    """Jacobi sweep over Pair-key triples, organized graded-major so the
    twelve finite-side composites are precomputed once per finite triple."""
    rec = _Recorder()
    gkeys = family.keys(window)
    dim = alg.dim
    prod = _memo_one(family.product_one)
    e = [alg.unit(i) for i in range(dim)]

    # For a finite triple (x, y, z) the Jacobi expansion uses, per cyclic
    # rotation, the four composites (uv)w, w(uv), (vu)w, w(vu).
    fin_data = {}
    for x in range(dim):
        for y in range(dim):
            for z in range(dim):
                rows = []
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                    uv = alg.times(e[u], e[v])
                    vu = alg.times(e[v], e[u])
                    rows.append(
                        (
                            alg.times(uv, e[w]),  # (u v) w
                            alg.times(e[w], uv),  # w (u v)
                            alg.times(vu, e[w]),  # (v u) w
                            alg.times(e[w], vu),  # w (v u)
                        )
                    )
                fin_data[(x, y, z)] = rows

    fin_triples = list(fin_data.items())
    checked = 0
    for ga in gkeys:
        for gb in gkeys:
            for gc in gkeys:
                # Graded composites per rotation, mirroring fin_data rows.
                grows = []
                for u, v, w in ((ga, gb, gc), (gb, gc, ga), (gc, ga, gb)):
                    uv = prod(u, v)
                    vu = prod(v, u)
                    grows.append(
                        (
                            _compose2(prod, uv, w, True),  # (u v) w
                            _compose2(prod, uv, w, False),  # w (u v)
                            _compose2(prod, vu, w, True),  # (v u) w
                            _compose2(prod, vu, w, False),  # w (v u)
                        )
                    )
                if not any(any(g is not None for g in row) for row in grows):
                    checked += len(fin_triples)
                    continue
                for fidx, frows in fin_triples:
                    checked += 1
                    acc = {}
                    for rot in range(3):
                        g1, g2, g3, g4 = grows[rot]
                        f1, f2, f3, f4 = frows[rot]
                        # [[u, v], w] = (uv)w - w(uv) - (vu)w + w(vu)
                        for sign, gpart, fpart in (
                            (ONE, g1, f1),
                            (-ONE, g2, f2),
                            (-ONE, g3, f3),
                            (ONE, g4, f4),
                        ):
                            if gpart is None:
                                continue
                            gc_, gk = gpart
                            s = sign * gc_
                            for k in range(dim):
                                if fpart[k]:
                                    kk = (k, gk)
                                    cur = acc.get(kk, ZERO) + s * fpart[k]
                                    if cur:
                                        acc[kk] = cur
                                    else:
                                        del acc[kk]
                    if acc:
                        x, y, z = fidx
                        at = (
                            pair(alg.key(x), ga),
                            pair(alg.key(y), gb),
                            pair(alg.key(z), gc),
                        )
                        res = tuple(
                            (pair(alg.key(k), g), v)
                            for (k, g), v in sorted(acc.items())
                        )
                        rec.add("jacobi", at, res)
                        if rec.total >= 1:
                            return CheckReport.build(
                                LawId.LieJacobi.value,
                                window,
                                checked,
                                rec.items,
                                {"early_exit": True, **rec.extra()},
                            )
    return CheckReport.build(
        LawId.LieJacobi.value, window, checked, rec.items, rec.extra()
    )


def _compose2(prod, t, other, left: bool):
    if t is None:
        return None
    nxt = prod(t[1], other) if left else prod(other, t[1])
    if nxt is None:
        return None
    return (t[0] * nxt[0], nxt[1])
