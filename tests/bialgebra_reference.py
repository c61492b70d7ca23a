"""Reference for the bialgebra rows, which are now read off axioms.BI_PLANS:
check_bialgebra with each row written out by hand as slot actions on the
coproduct series, PermBi and PreLieBi on the basis pairs of a finite table
and the Lie bialgebra cocycle through the same lift and box as the package."""

from dataclasses import replace
from typing import Optional

from permlie.axioms import LawId, _lifted_violations, _Recorder, default_margin
from permlie.kernel import (
    CheckReport,
    Template,
    TemplateSeries,
    Window,
    _finite_terms,
    apply_product_slot,
    coproduct_at,
    pat_const,
)


def check_bialgebra_by_hand(
    law: LawId,
    *,
    alg=None,
    delta_table: Optional[dict] = None,
    delta=None,
    sym_bracket=None,
    keys=None,
    window: Optional[Window] = None,
    margin: Optional[int] = None,
) -> CheckReport:
    rec = _Recorder()
    if law in (LawId.PermBi, LawId.PreLieBi):
        work = alg if delta_table is None else replace(alg, delta=delta_table)
        window = window or Window(0, 0)
        xs = work.basis_keys()
        ds = [coproduct_at(work.sym_delta, x) for x in xs]

        def act(t, slot, i, side):
            return apply_product_slot(t, slot, work.sym_product, pat_const(xs[i]), side)

        def lmr(t, slot, i):
            return act(t, slot, i, "left") - act(t, slot, i, "right")

        def d_prod(i, j):
            out = TemplateSeries.zero(2)
            for k, c in work.mul.get((i, j), ()):
                out = out + ds[k].scale(c)
            return out

        def zeta(i, j):
            """Pre-Lie compatibility defect of the pair (e_i, e_j)."""
            return (
                d_prod(i, j)
                - act(ds[j], 0, i, "left")
                - act(ds[j], 1, i, "left")
                - act(ds[i], 1, j, "right")
            )

        checked = 0
        for i in range(work.dim):
            for j in range(work.dim):
                checked += 1
                if law == LawId.PermBi:
                    # x = e_i, y = e_j:
                    # Delta(xy) = ((L-R)(x) (x) id) Delta(y) + (id (x) R(y)) Delta(x),
                    # flip((R(y) (x) id) Delta(x)) = (R(x) (x) id) Delta(y),
                    # Delta(xy) = (id (x) L(x)) Delta(y) + ((L-R)(y) (x) id)(1 - flip) Delta(x)
                    di, dj, dij = ds[i], ds[j], d_prod(i, j)
                    rows = (
                        ("pb1", dij - lmr(dj, 0, i) - act(di, 1, j, "right")),
                        ("pb2", act(di, 0, j, "right").flip_hat() - act(dj, 0, i, "right")),
                        ("pb3", dij - act(dj, 1, i, "left") - lmr(di - di.flip_hat(), 0, j)),
                    )
                else:
                    zij = zeta(i, j)
                    rows = (("plb-sym", zij - zeta(j, i)), ("plb-flip", zij - zij.flip_hat()))
                for label, res in rows:
                    terms = _finite_terms(res)
                    if terms:
                        rec.add(label, (i, j), tuple(((a[2], b[2]), c) for (a, b), c in terms))
        return CheckReport.build(law.value, window, checked, rec.items, rec.extra())

    if margin is None:
        margin = default_margin(law, graded=True)
    window = Window(window.n, margin)
    ks = list(keys)

    def ad(t, x):
        """(ad(x) (x) id + id (x) ad(x)) t."""
        p = pat_const(x)
        left = apply_product_slot(t, 0, sym_bracket, p, "left")
        return left + apply_product_slot(t, 1, sym_bracket, p, "left")

    def cocycle(x, y):
        """Delta([x, y]) - ad(x) Delta(y) + ad(y) Delta(x), at keys or at
        patterns."""
        lhs = TemplateSeries.zero(2)
        for h, z in sym_bracket(x, y):
            dz = delta(z).templates
            lhs = lhs + TemplateSeries(2, (Template(t.vars, h * t.coeff, t.keys) for t in dz))
        return [("cocycle", lhs - ad(delta(y), x) + ad(delta(x), y))]

    _lifted_violations(ks, 2, cocycle, window.n, rec)
    return CheckReport.build(law.value, window, len(ks) ** 2, rec.items, rec.extra())
