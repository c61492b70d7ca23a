"""References for the finite layer's shared evaluators, used by the axioms and
ybe tests.  axioms reads representations, pre-perm chains and O-operators off
the semidirect table A + V; these write them out directly: the five
representation identities as matrix products, the five pre-perm chains
composed product by product on formal vectors, the O-operator identity on
coefficient tuples, and the closure criterion of r# written out for the
dual adjoint representation (ybe.r_sharp reads it through
axioms.check_o_operator)."""

from permlie.axioms import LawId, _Recorder
from permlie.doubles import dual_rep
from permlie.families import adjoint_representation, mat_mul, mat_sub
from permlie.kernel import ONE, ZERO, CheckReport, Window, add_term
from helpers import signed_sum, times


def _matrix_residuals(mul, l, r, dim):
    """(label, i, j, D) for each identity of a representation (l, r) of the
    product table mul on dim basis vectors whose residual matrix D at
    (e_i, e_j) is nonzero: l(e_i e_j) = l(e_i) l(e_j) = l(e_j) l(e_i) and
    r(e_i e_j) = r(e_j) r(e_i) = r(e_j) l(e_i) = l(e_i) r(e_j)."""

    def act(mats, terms):
        """The sum of c mats[k] over the terms (k, c)."""
        out = [[ZERO] * len(row) for row in mats[0]]
        for k, c in terms:
            for ro, rm in zip(out, mats[k]):
                for col, y in enumerate(rm):
                    ro[col] += c * y
        return out

    for i in range(dim):
        for j in range(dim):
            terms = mul.get((i, j), ())
            li_lj = mat_mul(l[i], l[j])
            rj_ri = mat_mul(r[j], r[i])
            rj_li = mat_mul(r[j], l[i])
            for label, x, y in (
                ("rep-l-hom", act(l, terms), li_lj),
                ("rep-l-swap", li_lj, mat_mul(l[j], l[i])),
                ("rep-r-antihom", act(r, terms), rj_ri),
                ("rep-r-lmix", rj_ri, rj_li),
                ("rep-r-commute", rj_li, mat_mul(l[i], r[j])),
            ):
                d = mat_sub(x, y)
                if any(any(row) for row in d):
                    yield label, i, j, d


def representation_by_matrices(alg, rep) -> CheckReport:
    """check_representation's report, each identity a product of matrices."""
    rec = _Recorder()
    for label, i, j, d in _matrix_residuals(alg.mul, rep.l, rep.r, alg.dim):
        items = tuple(((r, c), v) for r, row in enumerate(d) for c, v in enumerate(row) if v)
        rec.add(label, (i, j), items)
    return CheckReport.build(
        LawId.Representation.value, Window(0, 0), alg.dim**2, rec.items, rec.extra()
    )


def o_operator_by_tuples(alg, rep, t) -> CheckReport:
    """check_o_operator's report from T(a) T(b) = T(l(T a) b + r(T b) a) at
    the module's basis vectors (a, b), on coefficient tuples."""
    rec = _Recorder()
    m, dim = rep.module_dim, alg.dim
    tcols = [tuple(t[r][c] for r in range(dim)) for c in range(m)]
    for a in range(m):
        for b in range(m):
            ta, tb = tcols[a], tcols[b]
            lhs = times(alg, ta, tb)
            w = [ZERO] * m
            for k in range(dim):
                if ta[k]:
                    w = [x + ta[k] * rep.l[k][r][b] for r, x in enumerate(w)]
                if tb[k]:
                    w = [x + tb[k] * rep.r[k][r][a] for r, x in enumerate(w)]
            rhs = [ZERO] * dim
            for c, wc in enumerate(w):
                if wc:
                    rhs = [x + wc * y for x, y in zip(rhs, tcols[c])]
            d = tuple(x - y for x, y in zip(lhs, rhs))
            if any(d):
                rec.add("o-op", (a, b), tuple(((k,), v) for k, v in enumerate(d) if v))
    return CheckReport.build(LawId.OOperator.value, Window(0, 0), m * m, rec.items, rec.extra())


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
            lhs = times(alg, xa, xb)
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
