"""Law checkers.

Every check quantifies over an explicit finite set of inputs (basis keys, or
the integer-slot box of a window) and evaluates residuals with exact rational
arithmetic.  A report passes only when every residual is identically zero;
there is no tolerance anywhere.

Windowed identities between completed tensors are decided by accumulating the
full template support inside the window box, so a pass certifies the law for
every probed input and every output key inside the box.
"""

from __future__ import annotations

import ast
import itertools
import operator
import re
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .kernel import (
    CheckReport,
    FormalVector,
    Fresh,
    ONE,
    TemplateSeries,
    Window,
    ZERO,
    apply_product_slot,
    expand_slot,
    key_degree,
    pat_const,
    sparse_rref,
)
from .families import (
    FiniteAlgebra,
    GradedFamily,
    Representation,
    mat_mul,
    mat_sub,
    mat_vec,
)


class LawId(str, Enum):
    Perm = "Perm"
    PreLie = "PreLie"
    Novikov = "Novikov"
    LieJacobi = "LieJacobi"
    LieSkew = "LieSkew"
    CoPerm = "CoPerm"
    CoPreLie = "CoPreLie"
    CoLieSkew = "CoLieSkew"
    CoLieJacobi = "CoLieJacobi"
    PermBi = "PermBi"
    PreLieBi = "PreLieBi"
    LieBiCocycle = "LieBiCocycle"
    QuadPreLieForm = "QuadPreLieForm"
    QuadPermForm = "QuadPermForm"
    ManinPermKd = "ManinPermKd"
    ManinLieB = "ManinLieB"
    Representation = "Representation"
    MatchedPairPerm = "MatchedPairPerm"
    OOperator = "OOperator"
    PrePerm = "PrePerm"
    SymplecticLie = "SymplecticLie"


# Number of composed operations per law: the default interior margin for a
# graded family is this count (finite inputs always use margin 0).
LAW_OPS = {
    LawId.Perm: 2,
    LawId.PreLie: 2,
    LawId.Novikov: 2,
    LawId.LieJacobi: 2,
    LawId.LieSkew: 1,
    LawId.CoPerm: 2,
    LawId.CoPreLie: 2,
    LawId.CoLieSkew: 1,
    LawId.CoLieJacobi: 2,
    LawId.LieBiCocycle: 2,
    LawId.QuadPreLieForm: 1,
    LawId.QuadPermForm: 1,
    LawId.ManinPermKd: 1,
    LawId.ManinLieB: 1,
    LawId.SymplecticLie: 1,
}

MAX_VIOLATIONS = 25


def default_margin(law: LawId, graded: bool) -> int:
    return LAW_OPS.get(law, 0) if graded else 0


class _Recorder:
    """Collects violations up to a cap while counting all of them."""

    def __init__(self, cap: int = MAX_VIOLATIONS):
        self.cap = cap
        self.items = []
        self.total = 0

    def add(self, label, at, residual):
        self.total += 1
        if len(self.items) < self.cap:
            self.items.append((label, at, residual))

    def extra(self) -> dict:
        out = {"violations_total": self.total}
        if self.total > len(self.items):
            out["violations_truncated"] = True
        return out


def _memo_one(one: Callable) -> Callable:
    """Memoize a single-term product (key, key) -> (coeff, key) | None."""
    cache: dict = {}

    def call(ka, kb):
        kk = (ka, kb)
        try:
            return cache[kk]
        except KeyError:
            r = one(ka, kb)
            cache[kk] = r
            return r

    return call


# ---------------------------------------------------------------------------
# Algebra laws.

# Each law once, as (label, lhs, rhs) rows.  A side is a signed sum of
# bracketings of the inputs a, b, c ("0" is the empty sum); a row holds when
# both sides agree on every input tuple.
LAW_PLANS = {
    LawId.Perm: (("assoc", "(ab)c", "a(bc)"), ("left-comm", "(ab)c", "(ba)c")),
    LawId.PreLie: (("pre-lie", "(ab)c - a(bc)", "(ba)c - b(ac)"),),
    LawId.Novikov: (
        ("pre-lie", "(ab)c - a(bc)", "(ba)c - b(ac)"),
        ("right-comm", "(ab)c", "(ac)b"),
    ),
    LawId.LieJacobi: (("jacobi", "(ab)c + (bc)a + (ca)b", "0"),),
    LawId.LieSkew: (("skew", "ab + ba", "0"),),
}


def _bracketing(text: str):
    """'(ab)c' -> ((0, 1), 2): each input letter becomes its position."""
    text = text.translate(str.maketrans("abc", "012"))
    return ast.literal_eval("(" + re.sub(r"(?<=[\d)])(?=[\d(])", ",", text) + ")")


def _side(text: str) -> tuple:
    """'(ab)c - a(bc)' -> ((1, ((0, 1), 2)), (-1, (0, (1, 2))))."""
    terms = re.findall(r"([+-]?)\s*([abc()]+)", text)
    return tuple((-1 if sign == "-" else 1, _bracketing(t)) for sign, t in terms)


def _pairs(v):
    return zip(v[::2], v[1::2])


def _vector(acc: dict) -> tuple:
    return tuple(x for kc in sorted(acc.items()) if kc[1] for x in kc)


def _axpy(x, y, s):
    """x + s y."""
    acc = dict(_pairs(x))
    for k, c in _pairs(y):
        acc[k] = acc.get(k, 0) + s * c
    return _vector(acc)


def _law_residuals(law: LawId, keys, terms: Callable, rec: _Recorder) -> int:
    """Evaluate every row of LAW_PLANS[law] on all input tuples over keys.

    terms(ka, kb) lists the (key, coeff) terms of the product ka kb.  Every
    input but the last is fixed in turn; each side then becomes a list over
    the last input, built from memoised product rows, and the two lists are
    compared in one step.  Residuals are built only where they differ.

    A vector is the flat tuple k1, c1, k2, c2, ... of its key indices and
    nonzero coefficients, sorted by index, so equal vectors compare equal.
    Integer coefficients are kept as ints (still exact); residuals wrap them
    back into Fractions.
    """
    plan = LAW_PLANS.get(law)
    if plan is None:
        raise ValueError(f"not an algebra law: {law}")
    rows = [(label, _side(lhs), _side(rhs)) for label, lhs, rhs in plan]
    last = max("abc".index(ch) for _, lhs, rhs in plan for ch in lhs + rhs if ch in "abc")
    ks = list(keys)
    n = len(ks)
    index: dict = {}  # a repeated input key keeps its first index
    for i, k in enumerate(ks):
        index.setdefault(k, i)
    prod_rows: dict = {}  # i -> [product of key i with input j, for each j]
    prod_far: dict = {}  # (i, j) -> product, for j past the inputs
    zeros = [()] * n

    def vec(ka, kb):
        acc = {}
        for k, c in terms(ka, kb):
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            i = index.get(k)
            if i is None:
                i = index[k] = len(ks)
                ks.append(k)
            acc[i] = c
        return _vector(acc)

    def row(i):
        r = prod_rows.get(i)
        if r is None:
            ki = ks[i]
            r = prod_rows[i] = [vec(ki, kj) for kj in ks[:n]]
        return r

    def prod(i, j):
        if j < n:
            return row(i)[j]
        r = prod_far.get((i, j))
        if r is None:
            r = prod_far[(i, j)] = vec(ks[i], ks[j])
        return r

    def mul(x, y):
        acc: dict = {}
        for i, f in _pairs(x):
            for j, g in _pairs(y):
                for k, h in _pairs(prod(i, j)):
                    acc[k] = acc.get(k, 0) + f * g * h
        return _vector(acc)

    # mul and _axpy over whole lists, with the single-term case inline:
    # these loops run for every input tuple.
    def times(x, vs):
        if len(x) != 2:
            return [mul(x, v) for v in vs]
        i, f = x
        r = row(i)
        out = []
        for v in vs:
            if len(v) != 2:
                out.append(v and mul(x, v))
                continue
            j, g = v
            p = r[j] if j < n else prod(i, j)
            g *= f
            if g != 1 and p:
                p = (p[0], g * p[1]) if len(p) == 2 else mul(x, v)
            out.append(p)
        return out

    def plus(us, vs, s):
        if us is zeros and s == 1:
            return vs
        out = []
        for u, v in zip(us, vs):
            if not v:
                out.append(u)
            elif not u and len(v) == 2:
                out.append(v if s == 1 else (v[0], s * v[1]))
            elif len(u) == len(v) == 2 and u[0] == v[0]:
                c = u[1] + s * v[1]
                out.append((u[0], c) if c else ())
            else:
                out.append(_axpy(u, v, s))
        return out

    def ev(t, fixed):
        """Bracketing t at the fixed inputs: a vector if t omits the last
        input, else a list of vectors over it."""
        if t.__class__ is int:
            return (fixed[t], 1)
        left, right = t
        if right == last:
            acc = zeros
            for i, f in _pairs(ev(left, fixed)):
                acc = plus(acc, row(i), f)
            return acc
        if left == last:
            y = ev(right, fixed)
            return [mul((i, 1), y) for i in range(n)]
        x, y = ev(left, fixed), ev(right, fixed)
        if x.__class__ is list:
            return [mul(u, y) for u in x]
        if y.__class__ is list:
            return times(x, y)
        return mul(x, y)

    def side(summands, fixed):
        acc = zeros
        for s, t in summands:
            acc = plus(acc, ev(t, fixed), s)
        return acc

    checked = 0
    for fixed in itertools.product(range(n), repeat=last):
        checked += n
        found = []
        for r, (label, lhs, rhs) in enumerate(rows):
            lv, rv = side(lhs, fixed), side(rhs, fixed)
            if lv == rv:
                continue
            if len(rec.items) == rec.cap:  # nothing more is kept: count only
                rec.total += sum(map(operator.ne, lv, rv))
            else:
                found.extend((c, r, label, lv[c], rv[c]) for c in range(n) if lv[c] != rv[c])
        if len(rows) > 1:
            found.sort(key=lambda f: f[:2])
        for c, _, label, lc, rc in found:
            at = tuple(ks[i] for i in fixed) + (ks[c],)
            diff = _pairs(_axpy(lc, rc, -1))
            rec.add(label, at, tuple(sorted((ks[k], Fraction(v)) for k, v in diff)))
    # ev reaches itself through its closure: unbinding it frees the product
    # memo now, not at the next full garbage collection.
    del ev
    return checked


def check_algebra(
    law: LawId,
    *,
    family: Optional[GradedFamily] = None,
    alg: Optional[FiniteAlgebra] = None,
    product: Optional[Callable] = None,
    keys: Optional[Iterable] = None,
    window: Optional[Window] = None,
    margin: Optional[int] = None,
) -> CheckReport:
    """Quantify an algebra law over key triples (pairs for LieSkew)."""
    if family is not None:
        if window is None:
            raise ValueError("graded family checks need a window")
        if margin is None:
            margin = default_margin(law, graded=True)
        window = Window(window.n, margin)
        if keys is None:
            keys = family.interior_keys(window, law.value)
        one = family.product_one

        def terms(ka, kb):
            r = one(ka, kb)
            return () if r is None else ((r[1], r[0]),)

    else:
        if alg is not None:
            product = alg.product
            if keys is None:
                keys = alg.basis_keys()
        elif product is None or keys is None:
            raise ValueError("need family, alg, or product+keys")
        elif margin is not None:
            window = Window((window or Window(0, 0)).n, margin)
        window = window or Window(0, 0)

        def terms(ka, kb):
            return product(ka, kb).items()

    rec = _Recorder()
    checked = _law_residuals(law, keys, terms, rec)
    return CheckReport.build(law.value, window, checked, rec.items, rec.extra())


# ---------------------------------------------------------------------------
# Coalgebra laws.


def check_coalgebra(
    law: LawId,
    *,
    delta: Callable,
    sym_co: Callable,
    keys: Iterable,
    window: Window,
    margin: Optional[int] = None,
) -> CheckReport:
    """Quantify a coalgebra law over input keys; identities between completed
    3-tensors are certified on the whole window box."""
    if margin is None:
        margin = default_margin(law, graded=True)
    window = Window(window.n, margin)
    box = window.n
    rec = _Recorder()
    checked = 0
    for x in keys:
        checked += 1
        d = delta(x)
        fresh = Fresh("k")
        if law == LawId.CoPerm:
            a = expand_slot(d, 0, sym_co, fresh)
            b = expand_slot(d, 1, sym_co, fresh)
            res = (a - b).support_in_box(box)
            if res:
                rec.add("coassoc", (x,), tuple(sorted(res.items())))
            res = (a - a.permuted((1, 0, 2))).support_in_box(box)
            if res:
                rec.add("left-cosym", (x,), tuple(sorted(res.items())))
        elif law == LawId.CoPreLie:
            a = expand_slot(d, 0, sym_co, fresh)
            b = expand_slot(d, 1, sym_co, fresh)
            res = (
                a - a.permuted((1, 0, 2)) - b + b.permuted((1, 0, 2))
            ).support_in_box(box)
            if res:
                rec.add("co-pre-lie", (x,), tuple(sorted(res.items())))
        elif law == LawId.CoLieSkew:
            res = (d + d.flip_hat()).support_in_box(box)
            if res:
                rec.add("co-skew", (x,), tuple(sorted(res.items())))
        elif law == LawId.CoLieJacobi:
            e = expand_slot(d, 1, sym_co, fresh)
            g = expand_slot(d, 0, sym_co, fresh)
            res = (e - e.permuted((1, 0, 2)) - g).support_in_box(box)
            if res:
                rec.add("co-jacobi", (x,), tuple(sorted(res.items())))
        else:
            raise ValueError(f"not a coalgebra law: {law}")
    return CheckReport.build(law.value, window, checked, rec.items, rec.extra())


# ---------------------------------------------------------------------------
# Finite bialgebra laws (2-tensors as dicts {(i, j): coeff}).


def _delta_dict(alg: FiniteAlgebra, i: int) -> dict:
    return {(a, b): c for a, b, c in alg.delta_terms(i)}


def _t_add(x: dict, y: dict, sign=ONE) -> dict:
    out = dict(x)
    for k, v in y.items():
        cur = out.get(k, ZERO) + sign * v
        if cur:
            out[k] = cur
        else:
            out.pop(k, None)
    return out


def _t_flip(x: dict) -> dict:
    return {(b, a): c for (a, b), c in x.items()}


def _t_apply(mat, x: dict, slot: int) -> dict:
    out: dict = {}
    for (a, b), c in x.items():
        src = a if slot == 0 else b
        for k in range(len(mat)):
            f = mat[k][src]
            if not f:
                continue
            key = (k, b) if slot == 0 else (a, k)
            cur = out.get(key, ZERO) + f * c
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)
    return out


def check_bialgebra(
    law: LawId,
    *,
    alg: Optional[FiniteAlgebra] = None,
    delta_table: Optional[dict] = None,
    bracket: Optional[Callable] = None,
    delta: Optional[Callable] = None,
    sym_bracket: Optional[Callable] = None,
    keys: Optional[Iterable] = None,
    window: Optional[Window] = None,
    margin: Optional[int] = None,
) -> CheckReport:
    """PermBi / PreLieBi on finite tables, LieBiCocycle on windowed series."""
    rec = _Recorder()
    if law in (LawId.PermBi, LawId.PreLieBi):
        assert alg is not None
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
        window = window or Window(0, 0)
        dim = work.dim
        lmats = [work.left_matrix(i) for i in range(dim)]
        rmats = [work.right_matrix(i) for i in range(dim)]
        lmr = [mat_sub(lmats[i], rmats[i]) for i in range(dim)]
        ds = [_delta_dict(work, i) for i in range(dim)]
        checked = 0
        for i in range(dim):
            for j in range(dim):
                checked += 1
                dprod: dict = {}
                for k, c in work.mul.get((i, j), ()):
                    dprod = _t_add(dprod, {kk: c * vv for kk, vv in ds[k].items()})
                if law == LawId.PermBi:
                    rhs1 = _t_add(_t_apply(lmr[i], ds[j], 0), _t_apply(rmats[j], ds[i], 1))
                    res = _t_add(dprod, rhs1, -ONE)
                    if res:
                        rec.add("pb1", (i, j), tuple(sorted(res.items())))
                    lhs2 = _t_flip(_t_apply(rmats[j], ds[i], 0))
                    rhs2 = _t_apply(rmats[i], ds[j], 0)
                    res = _t_add(lhs2, rhs2, -ONE)
                    if res:
                        rec.add("pb2", (i, j), tuple(sorted(res.items())))
                    anti = _t_add(ds[i], _t_flip(ds[i]), -ONE)
                    rhs3 = _t_add(_t_apply(lmats[i], ds[j], 1), _t_apply(lmr[j], anti, 0))
                    res = _t_add(dprod, rhs3, -ONE)
                    if res:
                        rec.add("pb3", (i, j), tuple(sorted(res.items())))
                else:
                    zij = _zeta(work, lmats, rmats, ds, i, j)
                    zji = _zeta(work, lmats, rmats, ds, j, i)
                    res = _t_add(zij, zji, -ONE)
                    if res:
                        rec.add("plb-sym", (i, j), tuple(sorted(res.items())))
                    res = _t_add(zij, _t_flip(zij), -ONE)
                    if res:
                        rec.add("plb-flip", (i, j), tuple(sorted(res.items())))
        return CheckReport.build(law.value, window, checked, rec.items, rec.extra())

    if law == LawId.LieBiCocycle:
        assert bracket is not None and delta is not None and sym_bracket is not None
        assert keys is not None and window is not None
        if margin is None:
            margin = default_margin(law, graded=True)
        window = Window(window.n, margin)
        box = window.n
        ks = list(keys)
        checked = 0
        for x in ks:
            dx = delta(x)
            for y in ks:
                checked += 1
                dy = delta(y)
                xy = bracket(x, y)
                lhs = TemplateSeries.zero(2)
                for k, c in xy.items():
                    lhs = lhs + delta(k).scale(c)
                rhs = (
                    _ad_apply(dy, x, sym_bracket, 0)
                    + _ad_apply(dy, x, sym_bracket, 1)
                    - _ad_apply(dx, y, sym_bracket, 0)
                    - _ad_apply(dx, y, sym_bracket, 1)
                )
                res = (lhs - rhs).support_in_box(box)
                if res:
                    rec.add("cocycle", (x, y), tuple(sorted(res.items())))
        return CheckReport.build(law.value, window, checked, rec.items, rec.extra())

    raise ValueError(f"not a bialgebra law: {law}")


def _zeta(work, lmats, rmats, ds, i, j):
    """Pre-Lie compatibility defect of the pair (e_i, e_j)."""
    out: dict = {}
    for k, c in work.mul.get((i, j), ()):
        out = _t_add(out, {kk: c * vv for kk, vv in ds[k].items()})
    out = _t_add(out, _t_apply(lmats[i], ds[j], 0), -ONE)
    out = _t_add(out, _t_apply(lmats[i], ds[j], 1), -ONE)
    out = _t_add(out, _t_apply(rmats[j], ds[i], 1), -ONE)
    return out


def _ad_apply(series: TemplateSeries, x, sym_bracket, slot: int) -> TemplateSeries:
    return apply_product_slot(series, slot, sym_bracket, pat_const(x), "left")


# ---------------------------------------------------------------------------
# Bilinear forms.

# Each form law once, as (label, identity) rows.  An identity is a signed sum
# of pairings (x|y) of the inputs a, b, c and their products that must vanish:
# the first row over every window pair (a, b), the second over every interior
# triple (a, b, c).
_SKEW = ("skew", "(a|b) + (b|a)")
FORM_PLANS = {
    LawId.QuadPermForm: (_SKEW, ("invariance", "(ab|c) - (a|bc) + (a|cb)")),
    LawId.QuadPreLieForm: (_SKEW, ("invariance", "(ab|c) + (b|ac) - (b|ca)")),
    LawId.ManinPermKd: (_SKEW, ("invariance", "(ab|c) - (a|bc) + (a|cb)")),
    LawId.ManinLieB: (("symmetric", "(a|b) - (b|a)"), ("invariance", "(ab|c) - (a|bc)")),
    LawId.SymplecticLie: (_SKEW, ("closed", "(ab|c) + (bc|a) + (ca|b)")),
}


def _int(c):
    """An integral Fraction as an int: exact, and faster to add and multiply."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def _pairings(text: str) -> tuple:
    """'(ab|c) - (a|bc)' -> ((1, 'ab', 'c'), (-1, 'a', 'bc'))."""
    terms = re.findall(r"([+-]?)\s*\((\w+)\|(\w+)\)", text)
    return tuple((-1 if sign == "-" else 1, x, y) for sign, x, y in terms)


def _form_residuals(row, keys, form: Callable, product: Callable, rec: _Recorder) -> int:
    """Evaluate a triple row of FORM_PLANS on all input triples over keys.

    product(ka, kb) is a FormalVector.  With a and b fixed, each pairing is
    nonzero at a few c only:

    - (xy|c) or (c|xy), x and y fixed: each key of x y pairs with the c that
      a scan of form against the inputs finds, done once per key;
    - (z|uc), (z|cu), (uc|z) or (cu|z), z and u fixed: an index, built once
      per u for all such pairings of z and u, maps each input z to the c
      whose product with u has a key pairing with z.

    Residuals are summed over those c, and violations are added in
    (a, b, c) order.  Integral values are summed as ints (still exact).
    """
    label, text = row
    by_scan = []  # (sign, x, y, left): x, y index the fixed inputs (a, b)
    by_index: dict = {}  # (z, u) -> ((sign, c on the right, left), ...)
    for s, x, y in _pairings(text):
        left = len(x) == 2  # the product stands left of the bar
        single, prod = (y, x) if left else (x, y)
        if single == "c" and len(prod) == 2 and "c" not in prod:
            by_scan.append((s, "ab".index(prod[0]), "ab".index(prod[1]), left))
        elif single in ("a", "b") and prod in ("ac", "bc", "ca", "cb"):
            zu = ("ab".index(single), "ab".index(prod.replace("c", "")))
            by_index[zu] = by_index.get(zu, ()) + ((s, prod[1] == "c", left),)
        else:
            raise ValueError(f"unsupported pairing ({x}|{y}) in {text!r}")
    ks = list(keys)
    n = len(ks)
    scans: dict = {}  # (key, left) -> [(i, (key|ks[i]) if left else (ks[i]|key))]
    index: dict = {}  # (u, pairings) -> {z: (c1, value1, c2, value2, ...)}

    def scan(k, left):
        r = scans.get((k, left))
        if r is None:
            ys = itertools.repeat(k)
            vals = map(form, ys, ks) if left else map(form, ks, ys)
            r = scans[(k, left)] = [(i, _int(v)) for i, v in enumerate(vals) if v]
        return r

    def solved(u, pairings):
        r = index.get((u, pairings))
        if r is None:
            acc: dict = {}
            for i, kc in enumerate(ks):
                for s, c_right, left in pairings:
                    for k, f in (product(ks[u], kc) if c_right else product(kc, ks[u])).items():
                        f = s * _int(f)
                        for z, v in scan(k, left):
                            row_z = acc.setdefault(z, {})
                            row_z[i] = row_z.get(i, 0) + f * v
            r = index[(u, pairings)] = {
                z: tuple(x for iv in row_z.items() if iv[1] for x in iv)
                for z, row_z in acc.items()
            }
        return r

    for a in range(n):
        for b in range(n):
            fixed = (a, b)
            acc: dict = {}
            for s, x, y, left in by_scan:
                for k, f in product(ks[fixed[x]], ks[fixed[y]]).items():
                    f = s * _int(f)
                    for i, v in scan(k, left):
                        acc[i] = acc.get(i, 0) + f * v
            for (z, u), pairings in by_index.items():
                found = solved(fixed[u], pairings).get(fixed[z], ())
                for i, v in zip(found[::2], found[1::2]):
                    acc[i] = acc.get(i, 0) + v
            for i in sorted(acc):
                if acc[i]:
                    rec.add(label, (ks[a], ks[b], ks[i]), ((("scalar",), Fraction(acc[i])),))
    return n ** 3


def check_form(
    law: LawId,
    *,
    family: Optional[GradedFamily] = None,
    form: Optional[Callable] = None,
    product: Optional[Callable] = None,
    keys: Optional[Iterable] = None,
    window: Optional[Window] = None,
    margin: Optional[int] = None,
    weight: Optional[int] = None,
    check_nondegenerate: bool = True,
) -> CheckReport:
    """Symmetry sense, graded weight, invariance, window nondegeneracy."""
    plan = FORM_PLANS.get(law)
    if plan is None:
        raise ValueError(f"not a form law: {law}")
    graded = family is not None
    if graded:
        form = family.form
        product = family.product
        weight = family.form_m if weight is None else weight
        assert window is not None
        box_keys = family.keys(window)
    else:
        assert form is not None and keys is not None
        box_keys = list(keys)
        window = window or Window(0, 0)
    if margin is None:
        margin = default_margin(law, graded)
    window = Window(window.n, margin)
    rec = _Recorder()

    # The pair row and the single graded weight over all window pairs.
    (pair_label, pair_text), triple_row = plan
    pair_terms = [(s, "ab".index(x), "ab".index(y)) for s, x, y in _pairings(pair_text)]
    for a in box_keys:
        for b in box_keys:
            ab = (a, b)
            bad = sum(s * v for s, x, y in pair_terms if (v := form(ab[x], ab[y])))
            if bad:
                rec.add(pair_label, ab, ((("scalar",), bad),))
            v = form(a, b)
            if v and weight is not None and key_degree(a) + key_degree(b) != weight:
                rec.add("graded-weight", ab, ((("scalar",), v),))

    inner = family.interior_keys(window, law.value) if graded else box_keys
    checked = len(box_keys) ** 2 + _form_residuals(triple_row, inner, form, product, rec)

    gram = {}
    if check_nondegenerate:
        rank = _gram_rank(box_keys, form)
        gram = {"gram_rank": rank, "gram_size": len(box_keys)}
        if rank < len(box_keys):
            rec.add("degenerate", (), ((("rank",), Fraction(rank)),))
    extra = {**rec.extra(), **gram}
    if weight is not None:
        extra["weight"] = weight
    return CheckReport.build(law.value, window, checked, rec.items, extra)


def _gram_rank(keys, form) -> int:
    """Exact rank of the window Gram matrix.

    Fast path: an injective partner assignment (each key sees exactly one
    nonzero column, all distinct) is a scaled permutation, hence full rank."""
    n = len(keys)
    rows = []
    partner_cols = []
    injective = True
    for a in keys:
        row = {}
        for j, b in enumerate(keys):
            v = form(a, b)
            if v:
                row[j] = v
        rows.append(row)
        if len(row) == 1:
            partner_cols.append(next(iter(row)))
        else:
            injective = False
    if injective and len(set(partner_cols)) == n:
        return n
    basis = sparse_rref(rows)
    return len(basis)


# ---------------------------------------------------------------------------
# Representations of finite perm algebras.


def check_representation(alg: FiniteAlgebra, rep: Representation) -> CheckReport:
    rec = _Recorder()
    checked = 0
    dim = alg.dim
    m = rep.module_dim
    zero = tuple((ZERO,) * m for _ in range(m))

    def act(mats, vec_terms):
        out = zero
        for k, c in vec_terms:
            out = tuple(
                tuple(x + c * y for x, y in zip(ro, rm)) for ro, rm in zip(out, mats[k])
            )
        return out

    for i in range(dim):
        for j in range(dim):
            checked += 1
            prod_terms = alg.mul.get((i, j), ())
            l_prod = act(rep.l, prod_terms)
            r_prod = act(rep.r, prod_terms)
            li_lj = mat_mul(rep.l[i], rep.l[j])
            lj_li = mat_mul(rep.l[j], rep.l[i])
            rj_ri = mat_mul(rep.r[j], rep.r[i])
            rj_li = mat_mul(rep.r[j], rep.l[i])
            li_rj = mat_mul(rep.l[i], rep.r[j])
            for label, x, y in (
                ("rep-l-hom", l_prod, li_lj),
                ("rep-l-swap", li_lj, lj_li),
                ("rep-r-antihom", r_prod, rj_ri),
                ("rep-r-lmix", rj_ri, rj_li),
                ("rep-r-commute", rj_li, li_rj),
            ):
                d = mat_sub(x, y)
                if any(any(v for v in row) for row in d):
                    rec.add(label, (i, j), _mat_items(d))
    return CheckReport.build(
        LawId.Representation.value, Window(0, 0), checked, rec.items, rec.extra()
    )


def _mat_items(d):
    return tuple(
        ((r, c), v) for r, row in enumerate(d) for c, v in enumerate(row) if v
    )


# ---------------------------------------------------------------------------
# Matched pairs of finite perm algebras.


def _assemble_matched_pair(alg1, alg2, l12, r12, l21, r21, space="MP"):
    """Perm product on the direct sum induced by the mutual actions."""
    d1, d2 = alg1.dim, alg2.dim
    mul = {}

    def put(i, j, terms):
        terms = tuple((k, c) for k, c in terms if c)
        if terms:
            mul[(i, j)] = terms

    for i in range(d1):
        for j in range(d1):
            put(i, j, alg1.mul.get((i, j), ()))
    for i in range(d2):
        for j in range(d2):
            put(
                d1 + i,
                d1 + j,
                tuple((d1 + k, c) for k, c in alg2.mul.get((i, j), ())),
            )
    for i in range(d1):
        for j in range(d2):
            # e_i * f_j = l1(e_i) f_j  +  r2(f_j) e_i
            terms = [(d1 + k, l12[i][k][j]) for k in range(d2)]
            terms += [(k, r21[j][k][i]) for k in range(d1)]
            put(i, d1 + j, terms)
            # f_j * e_i = l2(f_j) e_i  +  r1(e_i) f_j
            terms = [(k, l21[j][k][i]) for k in range(d1)]
            terms += [(d1 + k, r12[i][k][j]) for k in range(d2)]
            put(d1 + j, i, terms)
    return FiniteAlgebra(
        id=f"{alg1.id}|{alg2.id}",
        space=space,
        dim=d1 + d2,
        labels=tuple(alg1.labels) + tuple(alg2.labels),
        kind="Perm",
        mul=mul,
    )


def check_matched_pair(
    alg1: FiniteAlgebra,
    alg2: FiniteAlgebra,
    l12,
    r12,
    l21,
    r21,
) -> CheckReport:
    """Ten compatibility conditions, then reassembly passes the perm law.

    l12[i], r12[i] act on alg2's space (one matrix per alg1 basis index);
    l21[j], r21[j] act on alg1's space.
    """
    rec = _Recorder()
    d1, d2 = alg1.dim, alg2.dim

    def vec1(i):
        return tuple(ONE if k == i else ZERO for k in range(d1))

    def vec2(i):
        return tuple(ONE if k == i else ZERO for k in range(d2))

    def act(mats, vec, coeffs):
        # sum_k coeffs[k] mats[k] applied to vec
        out = [ZERO] * len(vec)
        for k, c in enumerate(coeffs):
            if not c:
                continue
            col = mat_vec(mats[k], vec)
            out = [x + c * y for x, y in zip(out, col)]
        return tuple(out)

    def mul1(u, v):
        out = [ZERO] * d1
        for i in range(d1):
            if not u[i]:
                continue
            for j in range(d1):
                f = u[i] * v[j]
                if not f:
                    continue
                for k, c in alg1.mul.get((i, j), ()):
                    out[k] += f * c
        return tuple(out)

    def mul2(u, v):
        out = [ZERO] * d2
        for i in range(d2):
            if not u[i]:
                continue
            for j in range(d2):
                f = u[i] * v[j]
                if not f:
                    continue
                for k, c in alg2.mul.get((i, j), ()):
                    out[k] += f * c
        return tuple(out)

    checked = 0
    # Conditions quantified over (p1 in B1, p2, p2' in B2).
    for i in range(d1):
        p1 = vec1(i)
        for a in range(d2):
            p2 = vec2(a)
            for b in range(d2):
                p2p = vec2(b)
                checked += 1
                l1p1_p2 = mat_vec(l12[i], p2)
                r1p1_p2 = mat_vec(r12[i], p2)
                l1p1_p2p = mat_vec(l12[i], p2p)
                r1p1_p2p = mat_vec(r12[i], p2p)
                r2p2_p1 = mat_vec(r21[a], p1)
                l2p2_p1 = mat_vec(l21[a], p1)
                r2p2p_p1 = mat_vec(r21[b], p1)
                prod22 = mul2(p2, p2p)
                # pmp1: l1(p1)(p2 p2') = (l1(p1)p2) p2' + l1(r2(p2)p1) p2'
                lhs = mat_vec(l12[i], prod22)
                rhs = tuple(
                    x + y
                    for x, y in zip(mul2(l1p1_p2, p2p), act(l12, p2p, r2p2_p1))
                )
                _diff(rec, "pmp1", (i, a, b), lhs, rhs)
                # pmp2: r1(p1)(p2 p2') = p2 (r1(p1)p2') + r1(l2(p2')p1) p2
                lhs = mat_vec(r12[i], prod22)
                l2p2p_p1 = mat_vec(l21[b], p1)
                rhs = tuple(
                    x + y
                    for x, y in zip(mul2(p2, r1p1_p2p), act(r12, p2, l2p2p_p1))
                )
                _diff(rec, "pmp2", (i, a, b), lhs, rhs)
                # pmp5: (r1(p1)p2) p2' + l1(l2(p2)p1) p2'
                #     = p2 (l1(p1)p2') + r1(r2(p2')p1) p2
                lhs = tuple(
                    x + y
                    for x, y in zip(mul2(r1p1_p2, p2p), act(l12, p2p, l2p2_p1))
                )
                rhs = tuple(
                    x + y
                    for x, y in zip(mul2(p2, l1p1_p2p), act(r12, p2, r2p2p_p1))
                )
                _diff(rec, "pmp5", (i, a, b), lhs, rhs)
                # pmp7: (l1(p1)p2) p2' + l1(r2(p2)p1) p2'
                #     = (r1(p1)p2) p2' + l1(l2(p2)p1) p2'
                lhs = tuple(
                    x + y
                    for x, y in zip(mul2(l1p1_p2, p2p), act(l12, p2p, r2p2_p1))
                )
                rhs = tuple(
                    x + y
                    for x, y in zip(mul2(r1p1_p2, p2p), act(l12, p2p, l2p2_p1))
                )
                _diff(rec, "pmp7", (i, a, b), lhs, rhs)
                # pmp9: r1(p1)(p2 p2') = r1(p1)(p2' p2)
                lhs = mat_vec(r12[i], prod22)
                rhs = mat_vec(r12[i], mul2(p2p, p2))
                _diff(rec, "pmp9", (i, a, b), lhs, rhs)
    # Conditions quantified over (p2 in B2, p1, p1' in B1).
    for a in range(d2):
        p2 = vec2(a)
        for i in range(d1):
            p1 = vec1(i)
            for j in range(d1):
                p1p = vec1(j)
                checked += 1
                l2p2_p1 = mat_vec(l21[a], p1)
                r2p2_p1 = mat_vec(r21[a], p1)
                l2p2_p1p = mat_vec(l21[a], p1p)
                r2p2_p1p = mat_vec(r21[a], p1p)
                r1p1_p2 = mat_vec(r12[i], p2)
                l1p1_p2 = mat_vec(l12[i], p2)
                r1p1p_p2 = mat_vec(r12[j], p2)
                l1p1p_p2 = mat_vec(l12[j], p2)
                prod11 = mul1(p1, p1p)
                # pmp3: l2(p2)(p1 p1') = (l2(p2)p1) p1' + l2(r1(p1)p2) p1'
                lhs = mat_vec(l21[a], prod11)
                rhs = tuple(
                    x + y
                    for x, y in zip(mul1(l2p2_p1, p1p), act(l21, p1p, r1p1_p2))
                )
                _diff(rec, "pmp3", (a, i, j), lhs, rhs)
                # pmp4: r2(p2)(p1 p1') = p1 (r2(p2)p1') + r2(l1(p1')p2) p1
                lhs = mat_vec(r21[a], prod11)
                rhs = tuple(
                    x + y
                    for x, y in zip(mul1(p1, r2p2_p1p), act(r21, p1, l1p1p_p2))
                )
                _diff(rec, "pmp4", (a, i, j), lhs, rhs)
                # pmp6: (r2(p2)p1) p1' + l2(l1(p1)p2) p1'
                #     = p1 (l2(p2)p1') + r2(r1(p1')p2) p1
                lhs = tuple(
                    x + y
                    for x, y in zip(mul1(r2p2_p1, p1p), act(l21, p1p, l1p1_p2))
                )
                rhs = tuple(
                    x + y
                    for x, y in zip(mul1(p1, l2p2_p1p), act(r21, p1, r1p1p_p2))
                )
                _diff(rec, "pmp6", (a, i, j), lhs, rhs)
                # pmp8: (l2(p2)p1) p1' + l2(r1(p1)p2) p1'
                #     = (r2(p2)p1) p1' + l2(l1(p1)p2) p1'
                lhs = tuple(
                    x + y
                    for x, y in zip(mul1(l2p2_p1, p1p), act(l21, p1p, r1p1_p2))
                )
                rhs = tuple(
                    x + y
                    for x, y in zip(mul1(r2p2_p1, p1p), act(l21, p1p, l1p1_p2))
                )
                _diff(rec, "pmp8", (a, i, j), lhs, rhs)
                # pmp10: r2(p2)(p1 p1') = r2(p2)(p1' p1)
                lhs = mat_vec(r21[a], prod11)
                rhs = mat_vec(r21[a], mul1(p1p, p1))
                _diff(rec, "pmp10", (a, i, j), lhs, rhs)

    assembled = _assemble_matched_pair(alg1, alg2, l12, r12, l21, r21)
    sub = check_algebra(LawId.Perm, alg=assembled)
    checked += sub.checked
    for label, at, residual in sub.violations:
        rec.add(f"assembled-{label}", at, residual)
    return CheckReport.build(
        LawId.MatchedPairPerm.value, Window(0, 0), checked, rec.items, rec.extra()
    )


def _diff(rec: _Recorder, label, at, lhs, rhs):
    d = tuple(x - y for x, y in zip(lhs, rhs))
    if any(d):
        rec.add(label, at, tuple(((k,), v) for k, v in enumerate(d) if v))


# ---------------------------------------------------------------------------
# O-operators and pre-perm structures.


def check_o_operator(alg: FiniteAlgebra, rep: Representation, t) -> CheckReport:
    """t: matrix (alg.dim rows x rep.module_dim cols) mapping module to algebra."""
    rec = _Recorder()
    m = rep.module_dim
    dim = alg.dim
    checked = 0
    tcols = [tuple(t[r][c] for r in range(dim)) for c in range(m)]
    for a in range(m):
        for b in range(m):
            checked += 1
            ta, tb = tcols[a], tcols[b]
            lhs = [ZERO] * dim
            for i in range(dim):
                if not ta[i]:
                    continue
                for j in range(dim):
                    f = ta[i] * tb[j]
                    if not f:
                        continue
                    for k, c in alg.mul.get((i, j), ()):
                        lhs[k] += f * c
            w = [ZERO] * m
            for k in range(dim):
                if ta[k]:
                    col = tuple(rep.l[k][r][b] for r in range(m))
                    w = [x + ta[k] * y for x, y in zip(w, col)]
                if tb[k]:
                    col = tuple(rep.r[k][r][a] for r in range(m))
                    w = [x + tb[k] * y for x, y in zip(w, col)]
            rhs = [ZERO] * dim
            for c_idx in range(m):
                if w[c_idx]:
                    rhs = [x + w[c_idx] * y for x, y in zip(rhs, tcols[c_idx])]
            d = tuple(x - y for x, y in zip(lhs, rhs))
            if any(d):
                rec.add("o-op", (a, b), tuple(((k,), v) for k, v in enumerate(d) if v))
    return CheckReport.build(
        LawId.OOperator.value, Window(0, 0), checked, rec.items, rec.extra()
    )


def check_preperm(alg: FiniteAlgebra) -> CheckReport:
    """Five defining chains of the splitting of a perm product."""
    assert alg.tri_left is not None and alg.tri_right is not None
    rec = _Recorder()
    dim = alg.dim

    def vec(i):
        return FormalVector.single(alg.key(i))

    def table_apply(table, va: FormalVector, vb: FormalVector) -> FormalVector:
        out = FormalVector()
        for ka, ca in va.items():
            for kb, cb in vb.items():
                for k, c in table.get((ka[2], kb[2]), ()):
                    out.add_term(alg.key(k), ca * cb * c)
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
                both23 = tri_r(p2, p3) + tri_l(p2, p3)
                a = tri_r(p1, both23)  # p1 < (p2 < p3 + p2 > p3)
                b = tri_r(tri_r(p1, p2), p3)  # (p1 < p2) < p3
                c = tri_r(tri_l(p2, p1), p3)  # (p2 > p1) < p3
                d = tri_l(p2, tri_r(p1, p3))  # p2 > (p1 < p3)
                both12 = tri_r(p1, p2) + tri_l(p1, p2)
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
                    res = x - y
                    if res:
                        rec.add(label, (i, j, k), tuple(res.sorted_items()))
    return CheckReport.build(
        LawId.PrePerm.value, Window(0, 0), checked, rec.items, rec.extra()
    )
