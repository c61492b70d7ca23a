"""References for the finite layer's shared evaluators, used by the axioms and
ybe tests: the five pre-perm chains composed product by product on formal
vectors (axioms.check_preperm reads them as representation identities), and
the closure criterion of r# written out for the dual adjoint representation
(ybe.r_sharp reads it through axioms.check_o_operator)."""

from permlie.axioms import LawId, _Recorder
from permlie.doubles import dual_rep
from permlie.families import adjoint_representation
from permlie.kernel import ONE, ZERO, CheckReport, Window, add_term
from helpers import signed_sum


def preperm_by_chains(alg) -> CheckReport:
    """check_preperm's report, each chain (p1, p2, p3) composed in turn."""
    rec = _Recorder()
    dim = alg.dim

    def vec(i):
        return {alg.key(i): ONE}

    def table_apply(table, va, vb):
        out = {}
        for ka, ca in va.items():
            for kb, cb in vb.items():
                for k, c in table.get((ka[2], kb[2]), ()):
                    add_term(out, alg.key(k), ca * cb * c)
        return out

    def tri_l(a, b):
        return table_apply(alg.tri_left, a, b)  # a > b

    def tri_r(a, b):
        return table_apply(alg.tri_right, a, b)  # a < b

    checked = 0
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                checked += 1
                p1, p2, p3 = vec(i), vec(j), vec(k)
                both23 = signed_sum((1, tri_r(p2, p3)), (1, tri_l(p2, p3)))
                a = tri_r(p1, both23)  # p1 < (p2 < p3 + p2 > p3)
                b = tri_r(tri_r(p1, p2), p3)  # (p1 < p2) < p3
                c = tri_r(tri_l(p2, p1), p3)  # (p2 > p1) < p3
                d = tri_l(p2, tri_r(p1, p3))  # p2 > (p1 < p3)
                both12 = signed_sum((1, tri_r(p1, p2)), (1, tri_l(p1, p2)))
                e = tri_l(both12, p3)  # (p1 < p2 + p1 > p2) > p3
                f = tri_l(p1, tri_l(p2, p3))  # p1 > (p2 > p3)
                g = tri_l(p2, tri_l(p1, p3))  # p2 > (p1 > p3)
                for label, x, y in (
                    ("pp-right-1", a, b),
                    ("pp-right-2", b, c),
                    ("pp-right-3", c, d),
                    ("pp-left-1", e, f),
                    ("pp-left-2", f, g),
                ):
                    res = signed_sum((1, x), (-1, y))
                    if res:
                        rec.add(label, (i, j, k), tuple(sorted(res.items())))
    return CheckReport.build(
        LawId.PrePerm.value, Window(0, 0), checked, rec.items, rec.extra()
    )


def r_sharp_closure(alg, mat) -> list:
    """Every ((a, b), residual) where the r# matrix mat breaks
    r#(p*) r#(q*) = r#( L*(r#(p*)) q* + (L* - R*)(r#(q*)) p* ) at the dual
    basis vectors (p_a*, p_b*), in (a, b) order."""
    d = alg.dim
    star = dual_rep(adjoint_representation(alg))  # (L*, L* - R*)
    violations = []
    for a in range(d):
        xa = tuple(mat[k][a] for k in range(d))
        for b in range(d):
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
                violations.append(((a, b), tuple(((k,), v) for k, v in enumerate(diff) if v)))
    return violations
