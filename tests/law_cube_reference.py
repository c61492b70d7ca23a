"""Reference for the algebra-law cube, which now runs the slot program of
axioms._program: the cube as it was written before, hand-vectorized over the
last input, with the LAW_PLANS rows written out as parsed bracketings.
law_residuals_by_cube has the signature of axioms._law_residuals, so a test
can put it in that one's place and compare the reports field for field."""

import itertools
import operator
from fractions import Fraction
from typing import Callable

from permlie.axioms import LawId, _Recorder

# (rows, last): the (label, lhs, rhs) rows of LAW_PLANS with each side a
# tuple of (sign, bracketing), an input being its position; last is the
# position of the last input.
_ABC, _A_BC = ((0, 1), 2), (0, (1, 2))
_PRE_LIE = ("pre-lie", ((1, _ABC), (-1, _A_BC)), ((1, ((1, 0), 2)), (-1, (1, (0, 2)))))
PLANS = {
    LawId.Perm: (
        [("assoc", ((1, _ABC),), ((1, _A_BC),)), ("left-comm", ((1, _ABC),), ((1, ((1, 0), 2)),))],
        2,
    ),
    LawId.PreLie: ([_PRE_LIE], 2),
    LawId.Novikov: ([_PRE_LIE, ("right-comm", ((1, _ABC),), ((1, ((0, 2), 1)),))], 2),
    LawId.LieJacobi: ([("jacobi", ((1, _ABC), (1, ((1, 2), 0)), (1, ((2, 0), 1))), ())], 2),
    LawId.LieSkew: ([("skew", ((1, (0, 1)), (1, (1, 0))), ())], 1),
}


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


def law_residuals_by_cube(law: LawId, keys, terms: Callable, rec: _Recorder) -> int:
    """Evaluate every row of LAW_PLANS[law] on all input tuples over keys.

    terms(ka, kb) lists the (key, coeff) terms of the product ka kb.  Every
    input but the last is fixed in turn; each side then becomes a list over
    the last input, built from memoised product rows and columns, and the
    two lists are compared in one step.  Residuals are built only where they
    differ.

    A vector is the flat tuple k1, c1, k2, c2, ... of its key indices and
    nonzero coefficients, sorted by index, so equal vectors compare equal.
    Integer coefficients are kept as ints (still exact); residuals wrap them
    back into Fractions.
    """
    rows, last = PLANS[law]
    ks = list(keys)
    n = len(ks)
    index: dict = {}  # a repeated input key keeps its first index
    for i, k in enumerate(ks):
        index.setdefault(k, i)
    prod_rows: dict = {}  # i -> [product of key i with input j, for each j]
    prod_cols: dict = {}  # j -> [product of input i with key j, for each i]
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

    def col(j):
        r = prod_cols.get(j)
        if r is None:
            r = prod_cols[j] = [prod(i, j) for i in range(n)]
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
    def times(x, vs, right=False):
        """[x v for v in vs], or [v x for v in vs] when right."""
        m = (lambda x, v: mul(v, x)) if right else mul
        if len(x) != 2:
            return [m(x, v) for v in vs]
        i, f = x
        r = col(i) if right else row(i)
        out = []
        for v in vs:
            if len(v) != 2:
                out.append(v and m(x, v))
                continue
            j, g = v
            p = r[j] if j < n else (prod(j, i) if right else prod(i, j))
            g *= f
            if g != 1 and p:
                p = (p[0], g * p[1]) if len(p) == 2 else m(x, v)
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
            acc = zeros
            for j, g in _pairs(ev(right, fixed)):
                acc = plus(acc, col(j), g)
            return acc
        x, y = ev(left, fixed), ev(right, fixed)
        if x.__class__ is list:
            return times(y, x, right=True)
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
