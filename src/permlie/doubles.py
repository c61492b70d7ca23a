"""Structure-doubling constructions.

Finite side: semidirect extensions of perm algebras by modules, dual modules,
matched-pair assembly on a direct sum, the double of a perm bialgebra with
its skew pairing, and the pre-Lie double with its symplectic split.  Graded
side: lifting a finite double through a quadratic graded family into a
completed Lie algebra with a symmetric invariant pairing, reading the
cobracket back off that pairing, the restricted graded dual of the rank-one
derivation family, finite symplectic <-> pre-Lie conversions, and an exact
search for invariant skew forms on derivation families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .kernel import (
    CheckReport,
    InsufficientWindowError,
    ONE,
    Window,
    ZERO,
    ess,
    fin,
    forced_zero_columns,
    key_str,
    pair,
    pat_ess,
    pat_tee,
    pat_wn,
    sparse_rref,
    tee,
    wn,
)
from .families import (
    FiniteAlgebra,
    GradedFamily,
    Representation,
    _ats_keys,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    mul_of_dual_delta,
    sym_wn_product,
    wn_family,
    wn_product,
)
from .axioms import (
    LawId,
    _assemble_matched_pair,
    _gram_rank,
    check_algebra,
    check_bialgebra,
    check_form,
    check_matched_pair,
    check_representation,
)
from .affinize import induced_lie_bracket, pair_keys


# ---------------------------------------------------------------------------
# Modules and semidirect products.


def dual_rep(rep: Representation) -> Representation:
    """Action on the dual module: (l, r) becomes (l^T, l^T - r^T).

    The naive pair (l^T, r^T) fails the right-action identities; the
    corrected right action does not.
    """
    lt = tuple(mat_transpose(m) for m in rep.l)
    rt = tuple(mat_transpose(m) for m in rep.r)
    return Representation(
        alg_id=rep.alg_id,
        module_dim=rep.module_dim,
        l=lt,
        r=tuple(mat_sub(a, b) for a, b in zip(lt, rt)),
    )


def preperm_representation(alg: FiniteAlgebra) -> Representation:
    """The two partial actions of a pre-perm table on its own space:
    l(e_i) v = e_i > v and r(e_i) v = v < e_i."""
    assert alg.tri_left is not None and alg.tri_right is not None
    dim = alg.dim

    def mats(table, flip):
        out = []
        for i in range(dim):
            rows = [[ZERO] * dim for _ in range(dim)]
            for j in range(dim):
                ij = (j, i) if flip else (i, j)
                for k, c in table.get(ij, ()):
                    rows[k][j] += c
            out.append(tuple(tuple(r) for r in rows))
        return tuple(out)

    return Representation(
        alg_id=alg.id,
        module_dim=dim,
        l=mats(alg.tri_left, flip=False),
        r=mats(alg.tri_right, flip=True),
    )


def semidirect_perm(
    alg: FiniteAlgebra,
    rep: Representation,
    space: Optional[str] = None,
    module_labels: Optional[tuple] = None,
) -> FiniteAlgebra:
    """Perm product on algebra (+) module:

    (p1 + v1)(p2 + v2) = p1 p2 + l(p1) v2 + r(p2) v1.

    The representation is validated first and the assembled table is
    re-checked against the perm law before it is returned.
    """
    ok = check_representation(alg, rep)
    if not ok.passed:
        bad = ", ".join(sorted({v[0] for v in ok.violations}))
        raise ValueError(f"not a representation of {alg.id}: {bad}")
    d, m = alg.dim, rep.module_dim
    mul = {ij: tuple(terms) for ij, terms in alg.mul.items()}
    for i in range(d):
        for b in range(m):
            terms = tuple((d + k, rep.l[i][k][b]) for k in range(m) if rep.l[i][k][b])
            if terms:
                mul[(i, d + b)] = terms
            terms = tuple((d + k, rep.r[i][k][b]) for k in range(m) if rep.r[i][k][b])
            if terms:
                mul[(d + b, i)] = terms
    out = FiniteAlgebra(
        id=f"{alg.id}+mod",
        space=space or f"{alg.space}V",
        dim=d + m,
        labels=tuple(alg.labels) + tuple(module_labels or (f"v{b}" for b in range(m))),
        kind="Perm",
        mul=mul,
    )
    perm = check_algebra(LawId.Perm, alg=out)
    if not perm.passed:
        raise ValueError(f"semidirect table fails the perm law: {perm.summary()}")
    return out


# ---------------------------------------------------------------------------
# Manin doubles at the finite perm level.


def dual_half_form(dim_half: int) -> Callable:
    """Skew pairing <a°, b> - <b°, a> on a space whose first dim_half basis
    vectors are paired one-on-one against the second dim_half."""
    d = dim_half

    def form(k1, k2) -> Fraction:
        i, j = k1[2], k2[2]
        if i < d <= j and j - d == i:
            return -ONE
        if j < d <= i and i - d == j:
            return ONE
        return ZERO

    return form


@dataclass
class ManinData:
    """A double split into two halves with an invariant pairing.

    level "PermKd": total is the finite double, sub1/sub2 its half key sets,
    form the skew pairing of the halves.  level "LieB": total is still the
    finite double, bracket/sym_bracket give the lifted bracket on Pair keys,
    form is the symmetric pairing, and sub1/sub2 hold one window's Pair keys
    of each half.
    """

    level: str
    total: FiniteAlgebra
    sub1: tuple
    sub2: tuple
    form: Callable
    reports: dict = field(default_factory=dict)
    family: Optional[GradedFamily] = None
    bracket: Optional[Callable] = None
    sym_bracket: Optional[Callable] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports.values())

    def failing(self) -> tuple:
        return tuple(sorted(n for n, r in self.reports.items() if not r.passed))


def _halves_report(label, keys1, keys2, product, form, member1, member2, window):
    """Each half closed under the product and isotropic for the form."""
    violations = []
    checked = 0
    for keys, member, name in ((keys1, member1, "half1"), (keys2, member2, "half2")):
        for x in keys:
            for y in keys:
                checked += 2
                for k, c in product(x, y).items():
                    if not member(k):
                        violations.append((f"{name}-closure", (x, y), ((k, c),)))
                v = form(x, y)
                if v:
                    violations.append((f"{name}-isotropy", (x, y), ((("scalar",), v),)))
    return CheckReport.build(
        label, window, checked, violations, {"violations_total": len(violations)}
    )


def dual_perm_algebra(alg: FiniteAlgebra, delta: Optional[dict] = None) -> FiniteAlgebra:
    """Product table on the dual basis read off a coproduct table."""
    table = alg.delta if delta is None else delta
    return FiniteAlgebra(
        id=f"{alg.id}*",
        space=f"{alg.space}*",
        dim=alg.dim,
        labels=tuple(f"{x}*" for x in alg.labels),
        kind="Perm",
        mul=mul_of_dual_delta(table or {}, alg.dim),
    )


def canonical_dual_actions(alg: FiniteAlgebra, dual: FiniteAlgebra):
    """The four transposed-multiplication actions that pair a bialgebra's two
    halves: (L^T, L^T - R^T) of each algebra acting on the other's space."""
    d = alg.dim
    l12 = tuple(mat_transpose(alg.left_matrix(i)) for i in range(d))
    r12 = tuple(
        mat_sub(l12[i], mat_transpose(alg.right_matrix(i))) for i in range(d)
    )
    l21 = tuple(mat_transpose(dual.left_matrix(j)) for j in range(d))
    r21 = tuple(
        mat_sub(l21[j], mat_transpose(dual.right_matrix(j))) for j in range(d)
    )
    return l12, r12, l21, r21


def manin_double_from_bialgebra(
    alg: FiniteAlgebra, delta: Optional[dict] = None
) -> ManinData:
    """Double a perm bialgebra: dual table, canonical actions, matched pair,
    direct-sum product, skew pairing.  Every stage is checked and any failure
    raises with the stage name."""
    table = alg.delta if delta is None else delta
    bi = check_bialgebra(LawId.PermBi, alg=alg, delta_table=table)
    if not bi.passed:
        raise ValueError(f"not a perm bialgebra: {bi.summary()}")
    dual = dual_perm_algebra(alg, table)
    dual_perm = check_algebra(LawId.Perm, alg=dual)
    if not dual_perm.passed:
        raise ValueError(f"dual table is not a perm algebra: {dual_perm.summary()}")
    actions = canonical_dual_actions(alg, dual)
    mp = check_matched_pair(alg, dual, *actions)
    if not mp.passed:
        bad = ", ".join(sorted({v[0] for v in mp.violations}))
        raise ValueError(f"canonical actions are not a matched pair: {bad}")
    double = _assemble_matched_pair(alg, dual, *actions, space=f"D{alg.space}")
    d = alg.dim
    form = dual_half_form(d)
    keys = double.basis_keys()
    reports = {
        "bialgebra": bi,
        "dual-perm": dual_perm,
        "matched-pair": mp,
        "double-perm": check_algebra(LawId.Perm, alg=double),
        "pairing": check_form(
            LawId.ManinPermKd, form=form, product=double.product, keys=keys
        ),
        "halves": _halves_report(
            "manin-halves",
            keys[:d],
            keys[d:],
            double.product,
            form,
            lambda k: k[2] < d,
            lambda k: k[2] >= d,
            Window(0, 0),
        ),
    }
    data = ManinData(
        level="PermKd",
        total=double,
        sub1=tuple(keys[:d]),
        sub2=tuple(keys[d:]),
        form=form,
        reports=reports,
    )
    if not data.passed:
        raise ValueError("double fails: " + ", ".join(data.failing()))
    return data


# ---------------------------------------------------------------------------
# Lifting a finite double through a quadratic graded family.


def manin_lie_lift(data: ManinData, family: GradedFamily, window: Window) -> ManinData:
    """Tensor a finite perm double with a quadratic graded pre-Lie family.

    The induced bracket on Pair keys splits into two halves (finite index
    below / at-or-above the original dimension).  Both halves are checked to
    be isotropic subalgebras for the symmetric pairing

        B(x (x) a, y (x) b) = kappa(x, y) w(a, b)

    and the pairing is checked symmetric, invariant, and window-nondegenerate.
    """
    assert data.level == "PermKd"
    assert family.form is not None and family.form_m is not None
    double = data.total
    d = len(data.sub1)
    bracket, sym_bracket = induced_lie_bracket(double, family)
    kd = data.form

    def form_b(k1, k2) -> Fraction:
        v = kd(k1[1], k2[1])
        return v * family.form(k1[2], k2[2]) if v else ZERO

    keys = pair_keys(double, family, window)
    sub1 = tuple(k for k in keys if k[1][2] < d)
    sub2 = tuple(k for k in keys if k[1][2] >= d)

    def inner(margin, law):
        gk = family.interior_keys(Window(window.n, margin), law)
        return [pair(f, g) for f in double.basis_keys() for g in gk]

    reports = {
        "lie-skew": check_algebra(
            LawId.LieSkew,
            product=bracket,
            keys=inner(1, "LieSkew"),
            window=Window(window.n, 1),
        ),
        "lie-jacobi": check_algebra(
            LawId.LieJacobi,
            product=bracket,
            keys=inner(2, "LieJacobi"),
            window=Window(window.n, 2),
        ),
        "pairing": check_form(
            LawId.ManinLieB,
            form=form_b,
            product=bracket,
            keys=inner(1, "ManinLieB"),
            window=Window(window.n, 1),
            weight=family.form_m,
            check_nondegenerate=False,
        ),
        "halves": _halves_report(
            "manin-halves",
            sub1,
            sub2,
            bracket,
            form_b,
            lambda k: k[1][2] < d,
            lambda k: k[1][2] >= d,
            Window(window.n, 0),
        ),
    }
    # Nondegeneracy runs on the full window box, not the interior inputs.
    rank = _gram_rank(keys, form_b)
    nd = []
    if rank < len(keys):
        nd.append(("degenerate", (), ((("rank",), Fraction(rank)),)))
    reports["pairing-nondegenerate"] = CheckReport.build(
        "ManinLieB-nondegenerate",
        Window(window.n, 0),
        len(keys),
        nd,
        {"gram_rank": rank, "gram_size": len(keys)},
    )
    lift = ManinData(
        level="LieB",
        total=double,
        sub1=sub1,
        sub2=sub2,
        form=form_b,
        reports=reports,
        family=family,
        bracket=bracket,
        sym_bracket=sym_bracket,
    )
    if not lift.passed:
        raise ValueError("lift fails: " + ", ".join(lift.failing()))
    return lift


def _b_dual(lift: ManinData, u):
    """The unique (coeff, key) in the opposite half with B(coeff key, u) = 1
    and B(coeff key, u') = 0 for every other same-half window key u'."""
    _, f, g = u
    d = lift.total.dim // 2
    partners = lift.family.form_partners(g)
    assert len(partners) == 1, "pairing read-off needs a single graded partner"
    h, _ = partners[0]
    idx = f[2] + d if f[2] < d else f[2] - d
    cand = pair(fin(lift.total.space, idx), h)
    val = lift.form(cand, u)
    assert val, "halves do not pair"
    return (ONE / val, cand)


def manin_cobracket_coefficient(lift: ManinData, x, u, v) -> Fraction:
    """Coefficient of delta(x) on u (x) v read off the lift's pairing:
    B(x, [u°, v°]) with u° the B-dual of u in the opposite half."""
    assert lift.level == "LieB"
    cu, ku = _b_dual(lift, u)
    cv, kv = _b_dual(lift, v)
    out = ZERO
    for k, c in lift.bracket(ku, kv).items():
        b = lift.form(x, k)
        if b:
            out += cu * cv * c * b
    return out


def manin_cobracket_table(lift: ManinData, x, window: Window) -> dict:
    """All (u, v) coefficients of delta(x) over the window's first-half keys."""
    d = lift.total.dim // 2
    keys = [k for k in pair_keys(lift.total, lift.family, window) if k[1][2] < d]
    out = {}
    for u in keys:
        for v in keys:
            c = manin_cobracket_coefficient(lift, x, u, v)
            if c:
                out[(u, v)] = c
    return out


# ---------------------------------------------------------------------------
# Restricted graded dual: quadratic pre-Lie structure on A + A°.


def restricted_dual_double(arg):
    """Quadratic pre-Lie structure on A + (restricted dual of A).

    Products are computed from the pairing transposes

        <L*(a) a°, b> = <a°, a b>,   <R*(a) a°, b> = <a°, b a>,

    as a x b = a b, a x b° = (R* - L*)(a) b°, a° x b = R*(b) a°,
    a° x b° = 0, with the skew pairing w(a + a°, b + b°) = <a°, b> - <b°, a>.

    Supported inputs: the n=1 derivation family (duals s^i with
    <s^i, t^j> = delta_(i+j,0)) returning a GradedFamily, and finite pre-Lie
    tables returning (FiniteAlgebra, form).
    """
    if isinstance(arg, GradedFamily):
        if arg.name != "w1":
            raise ValueError(f"unsupported family: {arg.name}")
        return _w1_restricted_double()
    if isinstance(arg, FiniteAlgebra):
        if arg.kind != "PreLie":
            raise ValueError(f"not a pre-Lie table: {arg.id}")
        return _finite_restricted_double(arg)
    raise ValueError("unsupported input")


def _w1_restricted_double() -> GradedFamily:
    def pairing(s_exp, t_exp) -> Fraction:
        return ONE if s_exp + t_exp == 0 else ZERO

    def _dual_action(a_exp, s_exp, minus_left):
        # Transpose against the probe t^c the pairing can see; both products
        # land on exponent a_exp + c - 1, so c is forced to 1 - a_exp - s_exp.
        c = 1 - a_exp - s_exp
        val = ZERO
        p = wn_product(wn((c,), 1), wn((a_exp,), 1))
        if p is not None:
            val += p[0] * pairing(s_exp, p[1][1][0])
        if minus_left:
            p = wn_product(wn((a_exp,), 1), wn((c,), 1))
            if p is not None:
                val -= p[0] * pairing(s_exp, p[1][1][0])
        return val

    def product_one(k1, k2):
        t1, i = k1[0], k1[1]
        t2, j = k2[0], k2[1]
        if t1 == "Tee" and t2 == "Tee":
            r = wn_product(wn((i,), 1), wn((j,), 1))
            if r is None:
                return None
            return (r[0], tee(r[1][1][0]))
        if t1 == "Tee" and t2 == "Ess":
            val = _dual_action(i, j, minus_left=True)
            return (val, ess(i + j - 1)) if val else None
        if t1 == "Ess" and t2 == "Tee":
            val = _dual_action(j, i, minus_left=False)
            return (val, ess(i + j - 1)) if val else None
        return None

    def sym_product(p1, p2):
        t1, a = p1[0], p1[1]
        t2, b = p2[0], p2[1]
        if t1 == "Tee" and t2 == "Tee":
            return [
                (c, pat_tee(p[1][0]))
                for c, p in sym_wn_product(pat_wn((a,), 1), pat_wn((b,), 1))
            ]
        if t1 == "Tee" and t2 == "Ess":
            c = 1 - a - b
            r_part = sym_wn_product(pat_wn((c,), 1), pat_wn((a,), 1))
            l_part = sym_wn_product(pat_wn((a,), 1), pat_wn((c,), 1))
            return [(r_part[0][0] - l_part[0][0], pat_ess(a + b - 1))]
        if t1 == "Ess" and t2 == "Tee":
            c = 1 - a - b
            r_part = sym_wn_product(pat_wn((c,), 1), pat_wn((b,), 1))
            return [(r_part[0][0], pat_ess(a + b - 1))]
        return []

    def form(k1, k2) -> Fraction:
        if k1[0] == "Ess" and k2[0] == "Tee":
            return pairing(k1[1], k2[1])
        if k1[0] == "Tee" and k2[0] == "Ess":
            return -pairing(k2[1], k1[1])
        return ZERO

    def form_partners(key):
        tag, i = key[0], key[1]
        if tag == "Ess":
            return [(tee(-i), pairing(i, -i))]
        return [(ess(-i), -pairing(-i, i))]

    return GradedFamily(
        name="w1-dual-double",
        kind="PreLie",
        keys_fn=_ats_keys,
        product_one=product_one,
        sym_product=sym_product,
        form=form,
        # pairing support: deg s^i + deg t^(-i) = (i - 1) + (-i - 1)
        form_m=-2,
        form_partners=form_partners,
    )


def _finite_restricted_double(alg: FiniteAlgebra):
    """2d-dim quadratic pre-Lie table on e_0..e_(d-1), e_0°..e_(d-1)°."""
    d = alg.dim
    mul = {ij: tuple(terms) for ij, terms in alg.mul.items()}
    lmats = [alg.left_matrix(i) for i in range(d)]
    rmats = [alg.right_matrix(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            # e_i x e_j° = (R* - L*)(e_i) e_j°; (M^T)[k][j] = M[j][k]
            terms = tuple(
                (d + k, rmats[i][j][k] - lmats[i][j][k])
                for k in range(d)
                if rmats[i][j][k] != lmats[i][j][k]
            )
            if terms:
                mul[(i, d + j)] = terms
            # e_i° x e_j = R*(e_j) e_i°
            terms = tuple((d + k, rmats[j][i][k]) for k in range(d) if rmats[j][i][k])
            if terms:
                mul[(d + i, j)] = terms
    out = FiniteAlgebra(
        id=f"{alg.id}+dual",
        space=f"{alg.space}D",
        dim=2 * d,
        labels=tuple(alg.labels) + tuple(f"{x}°" for x in alg.labels),
        kind="PreLie",
        mul=mul,
    )
    return out, dual_half_form(d)


# ---------------------------------------------------------------------------
# Pre-Lie double with its symplectic split.


def prelie_double(alg: FiniteAlgebra, delta: Optional[dict] = None):
    """Pre-Lie product on A + A* from a pre-Lie coproduct table:

        (a + a*)(b + b*) = (a b - (L* - R*)(a*) b + R*(b*) a)
                         + (a* b* - (L* - R*)(a) b* + R*(b) a*)

    where the starred operators are the transposed one-sided multiplications
    of the opposite half.  Returns (table, skew pairing)."""
    table = alg.delta if delta is None else delta
    dual = dual_perm_algebra(alg, table)
    d = alg.dim
    lt = [mat_transpose(alg.left_matrix(i)) for i in range(d)]
    rt = [mat_transpose(alg.right_matrix(i)) for i in range(d)]
    ldt = [mat_transpose(dual.left_matrix(j)) for j in range(d)]
    rdt = [mat_transpose(dual.right_matrix(j)) for j in range(d)]
    mul = {ij: tuple(terms) for ij, terms in alg.mul.items()}
    for (i, j), terms in dual.mul.items():
        mul[(d + i, d + j)] = tuple((d + k, c) for k, c in terms)
    for i in range(d):
        for j in range(d):
            # e_i e_j* = -(L* - R*)(e_i) e_j* + R*(e_j*) e_i
            terms = [
                (d + k, rt[i][k][j] - lt[i][k][j])
                for k in range(d)
                if rt[i][k][j] != lt[i][k][j]
            ]
            terms += [(k, rdt[j][k][i]) for k in range(d) if rdt[j][k][i]]
            if terms:
                mul[(i, d + j)] = tuple(terms)
            # e_j* e_i = -(L* - R*)(e_j*) e_i + R*(e_i) e_j*
            terms = [
                (k, rdt[j][k][i] - ldt[j][k][i])
                for k in range(d)
                if rdt[j][k][i] != ldt[j][k][i]
            ]
            terms += [(d + k, rt[i][k][j]) for k in range(d) if rt[i][k][j]]
            if terms:
                mul[(d + j, i)] = tuple(terms)
    out = FiniteAlgebra(
        id=f"{alg.id}+dbl",
        space=f"{alg.space}P",
        dim=2 * d,
        labels=tuple(alg.labels) + tuple(f"{x}*" for x in alg.labels),
        kind="PreLie",
        mul=mul,
    )
    return out, dual_half_form(d)


def para_kahler_reports(double: FiniteAlgebra, form) -> dict:
    """Commutator Lie + symplectic pairing + isotropic closed halves."""
    d = double.dim // 2

    def bracket(k1, k2):
        return double.product(k1, k2) - double.product(k2, k1)

    keys = double.basis_keys()
    return {
        "pre-lie": check_algebra(LawId.PreLie, alg=double),
        "lie-jacobi": check_algebra(
            LawId.LieJacobi, product=bracket, keys=keys, window=Window(0, 0)
        ),
        "symplectic": check_form(
            LawId.SymplecticLie, form=form, product=bracket, keys=keys
        ),
        "halves": _halves_report(
            "para-kahler-halves",
            keys[:d],
            keys[d:],
            double.product,
            form,
            lambda k: k[2] < d,
            lambda k: k[2] >= d,
            Window(0, 0),
        ),
    }


# ---------------------------------------------------------------------------
# Symplectic <-> pre-Lie conversions on finite tables.


def prelie_to_symplectic(alg: FiniteAlgebra):
    """Lie bracket on A + A* with the dual half abelian:

        [a, b] = a b - b a,   [a, b*] = -L*(a) b*,   [a*, b*] = 0,

    plus the skew pairing, which the bracket keeps symplectic."""
    d = alg.dim
    lmats = [alg.left_matrix(i) for i in range(d)]
    mul = {}
    for i in range(d):
        for j in range(d):
            acc = {}
            for k, c in alg.mul.get((i, j), ()):
                acc[k] = acc.get(k, ZERO) + c
            for k, c in alg.mul.get((j, i), ()):
                acc[k] = acc.get(k, ZERO) - c
            terms = tuple((k, c) for k, c in sorted(acc.items()) if c)
            if terms:
                mul[(i, j)] = terms
            terms = tuple((d + k, -lmats[i][j][k]) for k in range(d) if lmats[i][j][k])
            if terms:
                mul[(i, d + j)] = terms
                mul[(d + j, i)] = tuple((k2, -c) for k2, c in terms)
    out = FiniteAlgebra(
        id=f"{alg.id}+cot",
        space=f"{alg.space}T",
        dim=2 * d,
        labels=tuple(alg.labels) + tuple(f"{x}*" for x in alg.labels),
        kind="Lie",
        mul=mul,
    )
    form = dual_half_form(d)
    jac = check_algebra(LawId.LieJacobi, alg=out)
    sym = check_form(LawId.SymplecticLie, form=form, product=out.product, keys=out.basis_keys())
    if not (jac.passed and sym.passed):
        raise ValueError("constructed bracket is not symplectic Lie")
    return out, form


def symplectic_to_prelie(alg: FiniteAlgebra, gram) -> FiniteAlgebra:
    """Compatible pre-Lie product on a symplectic Lie algebra, solving

        w(e_i v, u) = -w(v, [e_i, u])   for each left operator,

    i.e. X_i = -(G ad_i G^(-1))^T with G the form's matrix."""

    def form(k1, k2):
        return gram[k1[2]][k2[2]]

    sym = check_form(
        LawId.SymplecticLie, form=form, product=alg.product, keys=alg.basis_keys()
    )
    if not sym.passed:
        raise ValueError(f"form is not symplectic for the bracket: {sym.summary()}")
    ginv = mat_inv(gram)
    if ginv is None:
        raise ValueError("degenerate form")
    d = alg.dim
    mul = {}
    for i in range(d):
        ad = alg.left_matrix(i)
        x = mat_scale(-ONE, mat_transpose(mat_mul(mat_mul(gram, ad), ginv)))
        for j in range(d):
            terms = tuple((k, x[k][j]) for k in range(d) if x[k][j])
            if terms:
                mul[(i, j)] = terms
    out = FiniteAlgebra(
        id=f"{alg.id}+cmp",
        space=f"{alg.space}C",
        dim=d,
        labels=alg.labels,
        kind="PreLie",
        mul=mul,
    )
    pl = check_algebra(LawId.PreLie, alg=out)
    if not pl.passed:
        raise ValueError(f"solved product is not pre-Lie: {pl.summary()}")

    def norm(terms):
        acc = {}
        for k, c in terms:
            acc[k] = acc.get(k, ZERO) + c
        return tuple((k, c) for k, c in sorted(acc.items()) if c)

    for i in range(d):
        for j in range(d):
            com = norm(mul.get((i, j), ()) + tuple((k, -c) for k, c in mul.get((j, i), ())))
            if com != norm(alg.mul.get((i, j), ())):
                raise ValueError("solved product's commutator differs from the bracket")
    return out


# ---------------------------------------------------------------------------
# Exact search for invariant skew forms on derivation families.


def invariant_form_search(n: int, window: Window) -> dict:
    """Solve for all skew forms on the window of the n-variable derivation
    family satisfying w(a b, c) + w(b, a c) - w(b, c a) = 0.

    Unknowns are the form values on window key pairs; every key triple whose
    nonzero products stay on the window contributes one linear row.  Returns
    a report of the reduced system: rank, solution dimension, how many pair
    values every solution kills, and whether all pairs against the probe key
    x1 d1 are among them (the degeneracy witness)."""
    if n not in (1, 2):
        raise ValueError("only the first two derivation families are supported")
    if window.n < 2:
        raise InsufficientWindowError("invariant-form-search", window.n, 2)
    if window.n > 4:
        raise ValueError("window too large for the exact dense solve")
    fam = wn_family(n)
    keys = fam.keys(window)
    index = {k: i for i, k in enumerate(keys)}
    m = len(keys)

    # products resolved to window indices up front; OUT flags a product whose
    # single term leaves the window, making any row that mentions it unusable
    OUT = object()
    pr = []
    for a in keys:
        rowp = []
        for b in keys:
            p = fam.product_one(a, b)
            if p is None:
                rowp.append(None)
            else:
                ip = index.get(p[1])
                rowp.append(OUT if ip is None else (p[0], ip))
        pr.append(rowp)

    rows = []
    seen = set()
    skipped = 0
    for ia in range(m):
        pra = pr[ia]
        for ib in range(m):
            pab = pra[ib]
            if pab is OUT:
                skipped += m
                continue
            for ic in range(m):
                pac = pra[ic]
                if pac is OUT:
                    skipped += 1
                    continue
                pca = pr[ic][ia]
                if pca is OUT:
                    skipped += 1
                    continue
                row = {}
                # w(a b, c) + w(b, a c) - w(b, c a), on skew unknowns stored
                # at the (min, max) index pair with mirrored sign
                if pab is not None and pab[1] != ic:
                    ip = pab[1]
                    if ip < ic:
                        row[ip * m + ic] = pab[0]
                    else:
                        row[ic * m + ip] = -pab[0]
                for p, sgn in ((pac, ONE), (pca, -ONE)):
                    if p is None or p[1] == ib:
                        continue
                    ip = p[1]
                    if ib < ip:
                        cid = ib * m + ip
                        v = sgn * p[0]
                    else:
                        cid = ip * m + ib
                        v = -sgn * p[0]
                    cur = row.get(cid, ZERO) + v
                    if cur:
                        row[cid] = cur
                    else:
                        row.pop(cid, None)
                if row:
                    items = sorted(row.items())
                    leadv = items[0][1]
                    fingerprint = tuple((c, v / leadv) for c, v in items)
                    if fingerprint not in seen:
                        seen.add(fingerprint)
                        rows.append(dict(fingerprint))

    # short rows first: singleton rows kill their column immediately and keep
    # the later eliminations sparse
    rows.sort(key=len)
    basis = sparse_rref(rows)
    forced = forced_zero_columns(basis)
    probe = wn((1,) + (0,) * (n - 1), 1)
    ip = index[probe]
    unforced = []
    for k in keys:
        ik = index[k]
        if ik == ip:
            continue
        cid = ip * m + ik if ip < ik else ik * m + ip
        if cid not in forced:
            unforced.append(key_str(k))
    return {
        "family": fam.name,
        "window": window.n,
        "keys": m,
        "unknowns": m * (m - 1) // 2,
        "rows": len(rows),
        "skipped_triples": skipped,
        "rank": len(basis),
        "solution_dim": m * (m - 1) // 2 - len(basis),
        "forced_zero_count": len(forced),
        "probe": key_str(probe),
        "probe_pairs_unforced": unforced,
        "probe_vanishes": not unforced,
    }
