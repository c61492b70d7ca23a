"""Structure-doubling constructions.

Finite side: every finite double is one matched-pair assembly on a direct
sum A + B (``axioms._assemble_matched_pair``); each construction supplies
only its two summands and its four actions.  The transposed actions L*, R*
come from ``dual_rep`` of an adjoint representation, and a module or an
abelian half enters as a zero-product algebra acting by zero
(``axioms._semidirect``).  Built this way: the semidirect extension of a
perm algebra by a module, the double of a perm bialgebra with its skew
pairing, the restricted dual of a finite pre-Lie table, the pre-Lie double
with its symplectic split, and the Lie algebra A + A* of a pre-Lie table.
Graded side: lifting a finite double through a quadratic graded family into
a completed Lie algebra with a symmetric invariant pairing, reading the
cobracket back off that pairing, the restricted graded dual of the rank-one
derivation family, finite symplectic <-> pre-Lie conversions, and an exact
search for invariant skew forms on derivation families.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import signal
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .kernel import (
    CheckReport,
    InsufficientWindowError,
    ONE,
    Window,
    ZERO,
    _int,
    ess,
    fin,
    forced_zero_columns,
    key_str,
    pair,
    sparse_rref,
    tee,
    wn,
)
from .families import (
    FiniteAlgebra,
    GradedFamily,
    Representation,
    _ats_keys,
    adjoint_representation,
    combine_tables,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    mul_of_dual_delta,
    wn_family,
)
from .axioms import (
    FORM_PLANS,
    LawId,
    _assemble_matched_pair,
    _gram_rank,
    _semidirect,
    _Recorder,
    _pairings,
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
        module_dim=rep.module_dim,
        l=lt,
        r=tuple(mat_sub(a, b) for a, b in zip(lt, rt)),
    )


def _prelie_actions(alg: FiniteAlgebra) -> tuple:
    """(R* - L*, R*): the transposed actions of a pre-Lie algebra on its dual."""
    star = dual_rep(adjoint_representation(alg))
    return (
        tuple(mat_scale(-ONE, m) for m in star.r),
        tuple(mat_sub(lm, rm) for lm, rm in zip(star.l, star.r)),
    )


def semidirect_perm(
    alg: FiniteAlgebra,
    rep: Representation,
    space: Optional[str] = None,
    module_labels: Optional[tuple] = None,
) -> FiniteAlgebra:
    """Perm product on algebra (+) module:

    (p1 + v1)(p2 + v2) = p1 p2 + l(p1) v2 + r(p2) v1,

    the matched pair (alg, V, l, r, 0, 0) with V the module as a zero-product
    algebra.  The representation is validated first and the assembled table
    is re-checked against the perm law before it is returned.
    """
    ok = check_representation(alg, rep)
    if not ok.passed:
        bad = ", ".join(sorted({v[0] for v in ok.violations}))
        raise ValueError(f"not a representation of {alg.id}: {bad}")
    labels = module_labels or (f"v{b}" for b in range(rep.module_dim))
    out = _semidirect(alg, rep.l, rep.r, labels, space=space or f"{alg.space}V")
    out = replace(out, id=f"{alg.id}+mod", kind="Perm")
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
    finite double, bracket gives the lifted bracket on Pair keys, form is the
    symmetric pairing, and sub1/sub2 hold one window's Pair keys of each half.
    """

    level: str
    total: FiniteAlgebra
    sub1: tuple
    sub2: tuple
    form: Callable
    reports: dict = field(default_factory=dict)
    family: Optional[GradedFamily] = None
    bracket: Optional[Callable] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports.values())

    def failing(self) -> tuple:
        return tuple(sorted(n for n, r in self.reports.items() if not r.passed))


def _halves_report(label, keys1, keys2, product, form, member1, window):
    """Each half closed under the product and isotropic for the form; member1
    tells the first half's keys, the second half holds every other key."""
    rec = _Recorder()
    checked = 0
    member2 = lambda k: not member1(k)
    for keys, member, name in ((keys1, member1, "half1"), (keys2, member2, "half2")):
        for x in keys:
            for y in keys:
                checked += 2
                for k, c in product(x, y).items():
                    if not member(k):
                        rec.add(f"{name}-closure", (x, y), ((k, c),))
                v = form(x, y)
                if v:
                    rec.add(f"{name}-isotropy", (x, y), ((("scalar",), v),))
    return CheckReport.build(label, window, checked, rec.items, rec.extra())


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
    star1, star2 = (dual_rep(adjoint_representation(x)) for x in (alg, dual))
    return star1.l, star1.r, star2.l, star2.r


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
    if data.level != "PermKd" or family.form is None or family.form_m is None:
        raise ValueError("manin_lie_lift needs a PermKd double and a family with a form")
    double = data.total
    d = len(data.sub1)
    bracket, _ = induced_lie_bracket(double, family)
    kd = data.form

    def form_b(k1, k2) -> Fraction:
        v = kd(k1[1], k2[1])
        w = family.form(k1[2], k2[2]) if v else ZERO
        return v * w if w else ZERO

    keys = pair_keys(double, family, window)
    sub1 = tuple(k for k in keys if k[1][2] < d)
    sub2 = tuple(k for k in keys if k[1][2] >= d)

    def inner(margin, law) -> dict:  # a check's keys and window
        wm = Window(window.n, margin)
        gk = family.interior_keys(wm, law)
        return {"keys": [pair(f, g) for f in double.basis_keys() for g in gk], "window": wm}

    reports = {
        name: check_algebra(law, product=bracket, **inner(mg, law.value))
        for name, law, mg in (("lie-skew", LawId.LieSkew, 1), ("lie-jacobi", LawId.LieJacobi, 2))
    }
    reports |= {
        "pairing": check_form(
            LawId.ManinLieB,
            form=form_b,
            product=bracket,
            **inner(1, "ManinLieB"),
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
    )
    if not lift.passed:
        raise ValueError("lift fails: " + ", ".join(lift.failing()))
    return lift


def _b_dual(lift: ManinData, u):
    """The unique (coeff, key) in the opposite half with B(coeff key, u) = 1
    and B(coeff key, u') = 0 for every other same-half window key u'."""
    _, f, g = u
    d = lift.total.dim // 2
    if len(partners := lift.family.form_partners(g)) != 1:
        raise ValueError("pairing read-off needs a single graded partner")
    h, _ = partners[0]
    idx = f[2] + d if f[2] < d else f[2] - d
    cand = pair(fin(lift.total.space, idx), h)
    if not (val := lift.form(cand, u)):
        raise ValueError("halves do not pair")
    return (ONE / val, cand)


def manin_dual_bracket(lift: ManinData, u, v) -> list:
    """[u°, v°] as (key, coefficient) pairs, u° the B-dual of u in the
    opposite half.  Free of x: one per (u, v) serves delta(x) for every x."""
    if lift.level != "LieB":
        raise ValueError(f"manin_dual_bracket needs a LieB lift, not {lift.level}")
    cu, ku = _b_dual(lift, u)
    cv, kv = _b_dual(lift, v)
    return [(k, cu * cv * c) for k, c in lift.bracket(ku, kv).items()]


def manin_pairing(lift: ManinData, x, terms) -> Fraction:
    """B(x, sum of c k) over the (key, coefficient) pairs terms."""
    out = ZERO
    for k, c in terms:
        b = lift.form(x, k)
        if b:
            out += c * b
    return out


def manin_cobracket_coefficient(lift: ManinData, x, u, v) -> Fraction:
    """Coefficient of delta(x) on u (x) v read off the lift's pairing:
    B(x, [u°, v°]), x paired with the dual bracket of (u, v)."""
    return manin_pairing(lift, x, manin_dual_bracket(lift, u, v))


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
    w1 = wn_family(1).rule

    def pairing(f):
        """<s^i, t^j> = delta_(i+j,0): s^i pairs with t^(-i) only, value 1."""
        return (1, tee(-f[1]))

    def transposed(g, f, minus_left):
        # <R*(g) f, t^c> = <f, t^c g> and <L*(g) f, t^c> = <f, g t^c>.  Both
        # products of t^c with g land on exponent c + (exponent of g) - 1, so
        # the one probe t^c the pairing sees lands on f's partner h; its dual
        # s^(-c) carries the value.
        v, h = pairing(f)
        c = h[1] - g[1] + 1
        coeff = w1(wn((c,), 1), wn((g[1],), 1))[0]
        if minus_left:
            coeff = coeff - w1(wn((g[1],), 1), wn((c,), 1))[0]
        return (coeff * v, ess(-c))

    def rule(x, y):
        if x[0] == "Tee" and y[0] == "Tee":
            c, z = w1(wn((x[1],), 1), wn((y[1],), 1))
            return (c, tee(z[1][0]))
        if x[0] == "Tee":  # a x b° = (R* - L*)(a) b°
            return transposed(x, y, minus_left=True)
        if y[0] == "Tee":  # a° x b = R*(b) a°
            return transposed(y, x, minus_left=False)
        return None  # a° x b° = 0

    def partner(x):
        # w(a + a°, b + b°) = <a°, b> - <b°, a>
        if x[0] == "Ess":
            return pairing(x)
        f = ess(-x[1])
        return (-pairing(f)[0], f)

    return GradedFamily(
        name="w1-dual-double",
        kind="PreLie",
        keys_fn=_ats_keys,
        rule=rule,
        partner=partner,
        # pairing support: deg s^i + deg t^(-i) = (i - 1) + (-i - 1)
        form_m=-2,
    )


def _finite_restricted_double(alg: FiniteAlgebra):
    """2d-dim quadratic pre-Lie table on e_0..e_(d-1), e_0°..e_(d-1)°: the
    matched pair (A, A°, R* - L*, R*, 0, 0) with A° of zero product."""
    labels = (f"{x}°" for x in alg.labels)
    out = _semidirect(alg, *_prelie_actions(alg), labels, space=f"{alg.space}D")
    return replace(out, id=f"{alg.id}+dual", kind="PreLie"), dual_half_form(alg.dim)


# ---------------------------------------------------------------------------
# Pre-Lie double with its symplectic split.


def prelie_double(alg: FiniteAlgebra, delta: Optional[dict] = None):
    """Pre-Lie product on A + A* from a pre-Lie coproduct table:

        (a + a*)(b + b*) = (a b - (L* - R*)(a*) b + R*(b*) a)
                         + (a* b* - (L* - R*)(a) b* + R*(b) a*)

    where the starred operators are the transposed one-sided multiplications
    of the opposite half: the matched pair (A, A*, R* - L*, R*,
    R*_(A*) - L*_(A*), R*_(A*)).  Returns (table, skew pairing)."""
    table = alg.delta if delta is None else delta
    dual = dual_perm_algebra(alg, table)
    out = _assemble_matched_pair(
        alg, dual, *_prelie_actions(alg), *_prelie_actions(dual), space=f"{alg.space}P"
    )
    return replace(out, id=f"{alg.id}+dbl", kind="PreLie"), dual_half_form(alg.dim)


def para_kahler_reports(double: FiniteAlgebra, form) -> dict:
    """Commutator Lie + symplectic pairing + isotropic closed halves."""
    d = double.dim // 2
    lie = replace(double, mul=double.commutator())
    keys = double.basis_keys()
    return {
        "pre-lie": check_algebra(LawId.PreLie, alg=double),
        "lie-jacobi": check_algebra(LawId.LieJacobi, alg=lie),
        "symplectic": check_form(
            LawId.SymplecticLie, form=form, product=lie.product, keys=keys
        ),
        "halves": _halves_report(
            "para-kahler-halves",
            keys[:d],
            keys[d:],
            double.product,
            form,
            lambda k: k[2] < d,
            Window(0, 0),
        ),
    }


# ---------------------------------------------------------------------------
# Symplectic <-> pre-Lie conversions on finite tables.


def prelie_to_symplectic(alg: FiniteAlgebra):
    """Lie bracket on A + A* with the dual half abelian:

        [a, b] = a b - b a,   [a, b*] = -L*(a) b*,   [a*, b*] = 0,

    the matched pair (commutator of A, A*, -L*, L*, 0, 0), plus the skew
    pairing, which the bracket keeps symplectic."""
    d = alg.dim
    lie = replace(alg, mul=alg.commutator())
    lstar = dual_rep(adjoint_representation(alg)).l
    lminus = tuple(mat_scale(-ONE, m) for m in lstar)
    out = _semidirect(lie, lminus, lstar, (f"{x}*" for x in alg.labels), space=f"{alg.space}T")
    out = replace(out, id=f"{alg.id}+cot", kind="Lie")
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
    if combine_tables((1, out.commutator()), (-1, alg.mul)):
        raise ValueError("solved product's commutator differs from the bracket")
    return out


# ---------------------------------------------------------------------------
# Exact search for invariant skew forms on derivation families.


def _wn_weight(key) -> tuple:
    """wt(x^e d_i) = e - eps_i, the Z^n-grading of the derivation family."""
    return tuple(x - (k == key[2] - 1) for k, x in enumerate(key[1]))


def _wn_mirrors(n: int) -> list:
    """(s, key map) per coordinate permutation s: x^e d_i goes to x^(e o s) d_(s^-1 i)."""
    move = lambda s: lambda k: ("Wn", tuple(k[1][i] for i in s), s.index(k[2] - 1) + 1)
    return [(s, move(s)) for s in itertools.permutations(range(n))]


def _form_search_blocks(fam: GradedFamily, keys, weight, mirrors=()) -> tuple:
    """(skipped triples, built, blocks) of the triple row of
    FORM_PLANS[QuadPreLieForm] on the skew form values over keys.  built maps
    the least triple weight W of each mirror orbit, in order, to its count of
    triples before those leaving keys; blocks(ws) yields (W, rows, one key
    permutation per distinct image of W) for each W of ws that has rows (see
    invariant_form_search).  Weights are tuples; inside, each is packed into
    one int for the table and block lookups.

    The value w(keys[i], keys[j]), i < j, is unknown i m + j; w(y, x) is
    -w(x, y) and w(x, x) is 0, no term.  A triple (a, b, c) off the skipped
    ones gives the row {unknown: int} of its pairings, read off the tables
    with c the outer loop.  A row of one term is {unknown: 1}.  A longer row
    is divided by the gcd of its entries and signed so that its least
    unknown's entry is positive; one flat tuple, its unknowns in order then
    their entries, tells it apart.  Each distinct row is kept once: a block's
    rows are its one-term rows, then its longer rows by length, each in the
    order first built, so each one-term row kills its column at once in the
    reduction.  The split needs the product to be homogeneous for weight:
    ValueError where it is not.  A mirror (s, key map) is kept only where it
    permutes keys, maps the products on and off keys, and maps each key's
    weight w to w o s."""
    _, text = FORM_PLANS[LawId.QuadPreLieForm][1]
    index = {k: i for i, k in enumerate(keys)}
    m, full = len(keys), (1 << len(keys)) - 1
    wt = [weight(k) for k in keys]
    plus = lambda u, v: tuple(x + y for x, y in zip(u, v))
    # pw[i]: wt[i] packed as the sum of w[i] base^(n-1-i).  No entry of a key weight
    # exceeds base / 8, so two signed sums of up to four key weights pack alike only
    # where they are equal: a pair weight, and a triple weight less a key weight.
    base = 8 * max(abs(x) for u in wt for x in u) + 1
    pack = lambda u: sum(x * base**i for i, x in enumerate(reversed(u)))
    pw = [pack(u) for u in wt]
    # table[i, j]: ((index, int coeff),) of keys[i] keys[j] where on keys, a product table;
    # outside: the (i, j) where it leaves keys.  Bit c of off[i] (off[m + i]): keys[i] keys[c]
    # (keys[c] keys[i]) leaves keys.
    table, outside, off = {}, set(), [0] * (2 * m)
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            if (p := fam.product_one(a, b)) is None:
                continue
            k = index.get(p[1])
            if not (weight(p[1]) == plus(wt[i], wt[j]) if k is None else pw[k] == pw[i] + pw[j]):
                raise ValueError(f"not graded: {key_str(a)} {key_str(b)} = {key_str(p[1])}")
            if k is None:
                outside.add((i, j))
                off[i], off[m + j] = off[i] | 1 << j, off[m + j] | 1 << i
            else:
                table[i, j] = ((k, _int(p[0])),)
    perms = [(range(len(wt[0])), range(m))]  # the identity, then each mirror kept
    for s, move in mirrors:
        to = [index.get(move(k)) for k in keys]
        if (
            set(to) == set(range(m))
            and all(wt[to[k]] == tuple(wt[k][i] for i in s) for k in range(m))
            and outside == {(to[u], to[v]) for u, v in outside}
            and table == {(to[u], to[v]): ((to[k], f),) for (u, v), ((k, f),) in table.items()}
        ):
            perms.append((s, to))
    # The row is multilinear: each pairing holds a, b, c (0, 1, 2) once.  As (sign, bare
    # letter x, word), (yz|x) being -(x|yz), the pairings of one x sum to one table tab[x][u][v]
    # (u v the word's letters in order), read per (a, b) if the word lacks c.  col[u][k]: the
    # unknown of w(keys[u], keys[k]) and its sign (0 at u = k).
    plan = [(s, x, y) if len(x) == 1 else (-s, y, x) for s, x, y in _pairings(text)]
    plan = [(s, "abc".index(x), tuple(map("abc".index, y))) for s, x, y in plan]
    tab, share = {}, {}  # share: one object per distinct cell
    for x in {r[1] for r in plan}:
        cells: dict = {}  # (u, v) -> {index: coeff}
        for s, y, (p, q) in plan:
            if y == x:
                for (u, v), ((k, f),) in table.items():
                    terms = cells.setdefault((u, v) if p < q else (v, u), {})
                    terms[k] = terms.get(k, 0) + s * f
        tab[x] = [[()] * m for _ in range(m)]
        for (u, v), terms in cells.items():
            cell = tuple(sorted([kf for kf in terms.items() if kf[1]]))
            tab[x][u][v] = share.setdefault(cell, cell)
    col = [[(min(u, k) * m + max(u, k), (u < k) - (k < u)) for k in range(m)] for u in range(m)]
    # c stands in a word at most once.  Bit c of near[x][u]: the word of c and the
    # letter x leaves keys at x = keys[u]; bit b of far[a]: a word of a and b leaves keys.
    near, far = ([0] * m, [0] * m), [0] * m
    for _, _, (p, q) in plan:
        to = near[p + q - 2] if 2 in (p, q) else far
        for u in range(m):
            to[u] |= off[u] if p < q else off[m + u]
    bare = [x for x in (0, 1) if x in tab]
    # pairs: packed pair weight -> [(bits of the c whose (a, b, c) leaves keys, tables)];
    # named: packed pair weight -> the pair weight
    pairs, named, skipped = {}, {}, 0
    for t in itertools.product(range(m), repeat=2):
        a, b = t
        out = full if far[a] >> b & 1 else near[0][a] | near[1][b]
        skipped += out.bit_count()
        if out != full:
            head = tab[2][a][b] if 2 in tab else ()
            rest = tuple([(col[t[x]], tab[x][t[1 - x]]) for x in bare])
            if (pw_ab := pw[a] + pw[b]) not in pairs:
                pairs[pw_ab], named[pw_ab] = [], plus(wt[a], wt[b])
            pairs[pw_ab].append((out, head, rest))

    tri, mult = {}, {}  # packed W -> [W, triples]; packed key weight -> [it, keys]
    for v, u in zip(pw, wt):
        mult.setdefault(v, [u, 0])[1] += 1
    for (p, ps), (v, (u, k)) in itertools.product(pairs.items(), mult.items()):
        if p + v not in tri:
            tri[p + v] = [plus(named[p], u), 0]
        tri[p + v][1] += k * len(ps)
    packed = {w: p for p, (w, _) in tri.items()}
    built = {
        w: tri[packed[w]][1]
        for w in sorted(packed)
        if min(tuple(w[i] for i in s) for s, _ in perms) == w
    }

    def blocks(ws):
        for w in ws:
            if (p := packed.get(w)) is None:
                continue
            images = {tuple(w[i] for i in s): to for s, to in perms}
            ones, longer = {}, {}  # rows by their unknown; by their flat tuple
            for c in range(m):
                cc = col[c]
                for out, head, rest in pairs.get(p - pw[c], ()):
                    if out >> c & 1:
                        continue
                    row = {}
                    for k, f in head:
                        j, g = cc[k]
                        if g:
                            row[j] = g * f
                    for cu, tc in rest:
                        for k, f in tc[c]:
                            j, g = cu[k]
                            if g and (f := row.pop(j, 0) + g * f):
                                row[j] = f
                    if len(row) == 1:
                        ones.update(row)
                    elif row:
                        js = sorted(row)
                        d = math.gcd(*row.values())
                        if row[js[0]] < 0:
                            d = -d
                        if d != 1:
                            for j in js:
                                row[j] //= d
                        longer.setdefault((*js, *map(row.__getitem__, js)), row)
            if ones or longer:
                rows = [{j: 1} for j in ones] + sorted(longer.values(), key=len)
                yield w, rows, list(images.values())

    return skipped, built, blocks


def _fork_map(fn, shares) -> list:
    """[fn(s) for s in shares]: shares[0] runs here, each other share in a
    worker forked from this process (so it inherits the tables fn reads),
    which pipes back fn's result or exception, pickled, to be raised here.
    Every worker is killed and reaped before this returns: by then it has
    written its result, or the call has failed."""
    import pickle  # imported here: at package import it raised peak RSS by 0.2-0.5 MB
    workers = []
    try:
        for share in shares[1:]:
            r, w = (open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))
            if not (pid := os.fork()):  # the worker: _exit flushes no inherited stdio buffer
                try:
                    with w:
                        try:
                            pickle.dump(fn(share), w)
                        except BaseException as e:  # raised again in the caller
                            pickle.dump(e, w)
                finally:
                    os._exit(0)
            w.close()
            workers.append((pid, r))
        out = [fn(shares[0])] + [pickle.load(f) for _, f in workers]
        if errors := [e for e in out if isinstance(e, BaseException)]:
            raise errors[0]
        return out
    finally:
        for pid, f in workers:
            f.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def invariant_form_search(n: int, window: Window) -> dict:
    """Solve for all skew forms on the window of the n-variable derivation
    family satisfying the invariance row of FORM_PLANS[QuadPreLieForm].

    Unknowns are the form values on window key pairs.  ``skipped_triples``
    counts the key triples with a product off the window; each other triple
    gives one linear row, and ``rows`` counts the distinct rows up to scale:
    each is an int row divided by its gcd and signed by its least unknown,
    and a block lists its one-term rows first (see _form_search_blocks).
    w_n is Z^n-graded, wt(x^e d_i) = e - eps_i, so a row's unknowns share the
    pair weight wt(a) + wt(b) + wt(c): each weight block is built, reduced and
    dropped in turn.  Permuting the n variables maps the window, its products
    and its blocks onto themselves (each permutation is checked on the product
    table and dropped if it fails), so one block per orbit is built: its rows
    and rank count once per distinct image, and its forced zeros are mapped
    into each.  The built blocks are split into one share per CPU this process
    may run on, balanced by triple count: this process builds one share, and a
    worker forked once the tables are built builds each other share.  Rows and
    rank add and forced zeros unite, so the report does not depend on the
    split; on one CPU every block is built here.  The cyclic garbage collector
    is off from the tables to the last share, the rows being many small
    containers in no cycle, and is left as the caller had it, also when the
    search raises (in a worker too).  Returns the rank, solution
    dimension, how many pair values every solution kills, and whether all
    pairs against the probe key x1 d1 are among them (the degeneracy witness)."""
    if n not in (1, 2):
        raise ValueError("only the first two derivation families are supported")
    if window.n < 2:
        raise InsufficientWindowError("invariant-form-search", window.n, 2)
    if window.n > 4:
        raise ValueError("window too large: the m^3 triple enumeration is too slow for N >= 5")
    fam = wn_family(n)
    keys = fam.keys(window)
    m = len(keys)

    def share(ws) -> tuple:  # the rows, rank and forced zeros of the blocks at ws
        rows, rank, forced = 0, 0, set()
        for _, block, images in blocks(ws):
            basis = sparse_rref(block)
            rows, rank = rows + len(images) * len(block), rank + len(images) * len(basis)
            cols = [divmod(c, m) for c in forced_zero_columns(basis)]
            forced.update(min(p[i], p[j]) * m + max(p[i], p[j]) for p in images for i, j in cols)
        return rows, rank, forced

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    collect = gc.isenabled()
    gc.disable()
    try:
        skipped, built, blocks = _form_search_blocks(fam, keys, _wn_weight, _wn_mirrors(n))
        shares = [[0] for _ in range(max(1, min(cpus, len(built))))]  # [triples, W, ...]
        for w in sorted(built, key=built.get, reverse=True):  # each to the lightest share
            (least := min(shares)).append(w)
            least[0] += built[w]
        rows, rank, forced = zip(*_fork_map(share, [sorted(s[1:]) for s in shares]))
    finally:
        if collect:
            gc.enable()
    rows, rank, forced = sum(rows), sum(rank), set().union(*forced)
    probe = wn((1,) + (0,) * (n - 1), 1)
    p = keys.index(probe)
    unforced = [
        key_str(k) for i, k in enumerate(keys) if i != p and min(i, p) * m + max(i, p) not in forced
    ]
    return {
        "family": fam.name,
        "window": window.n,
        "keys": m,
        "unknowns": m * (m - 1) // 2,
        "rows": rows,
        "skipped_triples": skipped,
        "rank": rank,
        "solution_dim": m * (m - 1) // 2 - rank,
        "forced_zero_count": len(forced),
        "probe": key_str(probe),
        "probe_pairs_unforced": unforced,
        "probe_vanishes": not unforced,
    }
