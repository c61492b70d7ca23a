"""Law checkers.

Every check quantifies over an explicit finite set of inputs (basis keys, or
the integer-slot box of a window) and evaluates residuals with exact rational
arithmetic.  A report passes only when every residual is identically zero;
there is no tolerance anywhere.

Windowed identities between completed tensors are decided by accumulating the
full template support inside the window box, so a pass certifies the law for
every probed input and every output key inside the box.

The algebra laws are written once, in LAW_PLANS, and each law's rows compile
once into a slot program (_program): slots 0..last hold the inputs, and each
distinct product of two sub-bracketings is one step.  One program is run by
the cube over key tuples (_law_residuals), by the pattern proof over shape
tuples (_holds_on_patterns), and by affinize's Pair-key Jacobi sweep.  The
co-laws and the matched-pair conditions are read from the same rows: a co-law
row is a law row with the coproduct in place of the product (_CO_PLANS; only
CoLieJacobi keeps a row of its own), and each matched-pair condition is one
summand's part of a Perm row of the assembled product (_MATCHED_PAIR_PLAN).
The bialgebra laws are written once, in BI_PLANS, as sums of mixed words that
one evaluator (bialgebra_residuals) reads at finite keys, at Pair keys and at
patterns.

Pattern proofs share one lift (_lifted): each input is a pattern of its key
shape with a fresh variable in every slot, and the residual at a tuple of
patterns, with the patterns prepended as leading slots, is one series that
collapses to nothing exactly when the law holds at every input tuple of
those shapes, for every N.  An algebra law on a graded family that is so
proved reports what the window cube would give; otherwise the cube runs, and
its violations are the witnesses.  A coalgebra law, the Lie bialgebra
cocycle row and the CLI's series equalities record through one primitive
(_lifted_violations): nothing when the lift collapses, otherwise each live
lifted series enumerated once on the box, or, when a rule cannot run on
patterns, the residuals read key by key.  A form law on a graded family is
proved on the same shape walk, with each pairing solved for its lone input
(_form_row_holds); a row that is not so proved runs its window loop.
"""

from __future__ import annotations

import ast
import functools
import itertools
import re
from dataclasses import replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .kernel import (
    Aff,
    CheckReport,
    Fresh,
    Poly,
    Template,
    TemplateSeries,
    Window,
    ZERO,
    _finite_terms,
    apply_product_slot,
    av,
    coproduct_at,
    expand_slot,
    key_degree,
    key_shape,
    key_slots,
    pat_const,
    pat_subst,
    poly_subst,
    sparse_rref,
    with_slots,
)
from .families import (
    FiniteAlgebra,
    GradedFamily,
    Representation,
    combine_tables,
    mat_inv,
    mat_mul,
    mat_sub,
    preperm_representation,
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

    def past_cap(self) -> bool:
        """True, counting one more violation, when the cap is reached: the
        caller then builds nothing for it (add would only count it)."""
        if len(self.items) < self.cap:
            return False
        self.total += 1
        return True

    def extra(self) -> dict:
        out = {"violations_total": self.total}
        if self.total > len(self.items):
            out["violations_truncated"] = True
        return out


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


def _signed_terms(text: str, term: str) -> list:
    """[(sign, groups of term)] for a sum 't1 - t2 + ...' whose terms match
    the regex term, every term but the first signed; ValueError when the
    terms do not take up the whole text."""
    item = re.compile(r"\s*([+-]?)\s*" + term + r"\s*")
    out, pos = [], 0
    while pos < len(text) or not out:
        m = item.match(text, pos)
        if m is None or (out and not m[1]):
            raise ValueError(f"cannot read {text!r} at character {pos}")
        out.append((-1 if m[1] == "-" else 1, m.groups()[1:]))
        pos = m.end()
    return out


def _bracketing(text: str):
    """'(ab)c' -> ((0, 1), 2): each input letter becomes its position."""
    text = text.translate(str.maketrans("abc", "012"))
    return ast.literal_eval("(" + re.sub(r"(?<=[\d)])(?=[\d(])", ",", text) + ")")


@functools.cache
def _side(text: str) -> tuple:
    """'(ab)c - a(bc)' -> ((1, ((0, 1), 2)), (-1, (0, (1, 2)))); '0' -> ()."""
    if text.strip() == "0":
        return ()
    term = r"(\([abc]{2}\)[abc]|[abc]\([abc]{2}\)|[abc]{1,2})"  # a bracketing of up to 3 letters
    return tuple((s, _bracketing(t)) for s, (t,) in _signed_terms(text, term))


def _int(c):
    """An integral Fraction as an int: exact, and faster to add and multiply."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def _terms(lhs, rhs) -> tuple:
    """The signed bracketings of lhs - rhs."""
    return lhs + tuple((-s, t) for s, t in rhs)


def _slot(t, steps: dict, last: int) -> int:
    """The slot of bracketing t, adding a step for each product not yet in
    steps ({(i, j): k}, slot k holding the product of slots i and j)."""
    if t.__class__ is int:
        return t
    ij = (_slot(t[0], steps, last), _slot(t[1], steps, last))
    return steps.setdefault(ij, last + 1 + len(steps))


@functools.cache
def _program(law: LawId, words: Optional[Callable] = None) -> tuple:
    """(steps, rows, last): the rows of LAW_PLANS[law] compiled into one slot
    program.  Slots 0..last hold the inputs, last being the position of the
    law's last input.  Each distinct product of two sub-bracketings is one
    step (k, i, j), slot k holding the product of slots i and j; the steps
    are numbered in order, so a step reads only the slots before it.  rows
    lists (label, ((sign, slot), ...)), the signed bracketings of lhs - rhs.
    words(t), when given, first rewrites each bracketing t as a list of
    signed bracketings."""
    plan = LAW_PLANS.get(law)
    if plan is None:
        raise ValueError(f"not an algebra law: {law}")
    last = max("abc".index(ch) for _, lhs, rhs in plan for ch in lhs + rhs if ch in "abc")
    words = words or (lambda t: ((1, t),))
    steps: dict = {}
    rows = []
    for label, lhs, rhs in plan:
        terms = [(s * r, w) for s, t in _terms(_side(lhs), _side(rhs)) for r, w in words(t)]
        rows.append((label, tuple((s, _slot(w, steps, last)) for s, w in terms)))
    return tuple((k, i, j) for (i, j), k in steps.items()), tuple(rows), last


def _run(steps, vals: list, mul: Callable) -> list:
    """Fill the slots of vals by the steps (k, i, j) of a _program."""
    for k, i, j in steps:
        vals[k] = mul(vals[i], vals[j])
    return vals


def _mul(product: Callable, zero, x: dict, y: dict) -> dict:
    """The product of vectors x and y, {key: coeff}, through product(p, q) ->
    [(coeff, key)]; zero is the coefficients' zero."""
    out: dict = {}
    for p, f in x.items():
        for q, g in y.items():
            for h, z in product(p, q):
                out[z] = out.get(z, zero) + f * g * h
    return out


def _signed_sum(terms, vals: list, zero) -> dict:
    """The sum of sign times vals[slot] over the (sign, slot) terms of a row."""
    acc: dict = {}
    for s, k in terms:
        for z, c in vals[k].items():
            acc[z] = acc.get(z, zero) + c * s
    return acc


def _shape_walk(keys, arity: int):
    """Yield (names, patterns) for every arity-tuple of the keys' shapes: each
    input is a pattern of its shape with a fresh variable in every slot (a
    Fin key is its own pattern), and names[i] are the variables of input i."""
    fresh = Fresh("key")
    one_per_shape = {key_shape(k): k for k in keys}.values()
    patterns = []
    for _ in range(arity):
        patterns.append([])
        for k in one_per_shape:
            names = tuple(fresh() for _ in key_slots(k))
            patterns[-1].append((names, with_slots(k, map(av, names))))
    for inputs in itertools.product(*patterns):
        yield tuple(vs for vs, _ in inputs), tuple(p for _, p in inputs)


def _lifted(keys, arity: int, residuals: Callable):
    """Yield (shape tuple, [(label, lifted series)]) for every arity-tuple of
    the keys' shapes whose residuals do not all vanish, one tuple at a time;
    nothing when the residuals vanish at every input tuple of the keys'
    shapes, whatever their slots.

    residuals(*patterns) lists (label, series) at the input patterns of
    _shape_walk.  Each series is lifted: the patterns are prepended as
    leading slots and their variables added to every template's, so it is
    the residual at every input tuple of those shapes at once.  It is
    collapsed, and it collapses to nothing exactly when the residual
    vanishes at every such tuple; the rows that do are left out.  A rule
    that cannot run on patterns raises TypeError from the walk."""
    for names, pats in _shape_walk(keys, arity):
        names = tuple(v for vs in names for v in vs)
        rows = []
        for label, res in residuals(*pats):
            lifted = TemplateSeries(
                arity + res.arity,
                (Template(names + t.vars, t.coeff, pats + t.keys) for t in res.templates),
            ).collapsed()
            if lifted.templates:
                rows.append((label, lifted))
        if rows:
            yield tuple(map(key_shape, pats)), rows


def _holds_on_patterns(law: LawId, sym_product: Callable, keys) -> bool:
    """True when every row of LAW_PLANS[law] vanishes on patterns, so the law
    holds at every input tuple of the keys' shapes, whatever their slots.

    The law's slot program (_program) runs at the input patterns of _lifted,
    each value a vector {output pattern: Poly} and each step a product
    through sym_product(p, q) -> [(Poly, pattern)] (a family's sym_product,
    or the symbolic rule of an induced bracket); each row is then a series
    of arity 1 with one template per output pattern.  The walk stops at the
    first shape tuple whose lifted rows do not collapse to nothing (the
    terms may still cancel at the given keys).  False then, or when the rule
    cannot run on patterns (TypeError).
    """
    steps, rows, last = _program(law)
    mul = functools.partial(_mul, sym_product, Poly())

    def residuals(*pats):
        vals = _run(steps, [{p: Poly.const(1)} for p in pats] + [None] * len(steps), mul)
        out = []
        for label, terms in rows:
            acc = _signed_sum(terms, vals, Poly())  # a cancelled row lifts to nothing
            out.append((label, TemplateSeries(1, (Template((), c, (z,)) for z, c in acc.items()))))
        return out

    try:
        return next(_lifted(keys, last + 1, residuals), None) is None
    except TypeError:  # the rule compares or branches on a slot value
        return False


def _law_residuals(law: LawId, keys, terms: Callable, rec: _Recorder) -> int:
    """Run the slot program of LAW_PLANS[law] (_program) on every input tuple
    over keys, recording each row that does not vanish, in tuple order and
    rows in plan order.

    terms(ka, kb) lists the (key, coeff) terms of the product ka kb.  A value
    is a vector {key index: coeff}: input i is {i: 1}, the product of keys i
    and j is memoised by (i, j), and an output off the key list is appended
    to it.  Steps that omit the last input run once per prefix of the other
    inputs, the rest once per tuple.  Integral coefficients are kept as ints
    (still exact); residuals wrap them back into Fractions.
    """
    steps, rows, last = _program(law)
    ks = list(keys)
    n = len(ks)
    index: dict = {}  # a repeated input key keeps its first index
    for i, k in enumerate(ks):
        index.setdefault(k, i)

    @functools.cache
    def product(i, j) -> tuple:
        out = []
        for k, c in terms(ks[i], ks[j]):
            if c:
                if k not in index:
                    index[k] = len(ks)
                    ks.append(k)
                out.append((_int(c), index[k]))
        return tuple(out)

    mul = functools.partial(_mul, product, 0)
    reads_last = {last}  # the slots whose value reads the last input
    for k, i, j in steps:
        if i in reads_last or j in reads_last:
            reads_last.add(k)
    head, tail = ([st for st in steps if (st[0] in reads_last) == t] for t in (False, True))
    vals: list = [None] * (last + 1 + len(steps))
    for prefix in itertools.product(range(n), repeat=last):
        vals[:last] = ({i: 1} for i in prefix)
        _run(head, vals, mul)
        for c in range(n):
            vals[last] = {c: 1}
            _run(tail, vals, mul)
            for label, row in rows:
                res = _signed_sum(row, vals, 0)
                if not any(res.values()):
                    continue
                if rec.past_cap():
                    continue
                at = tuple(ks[i] for i in prefix) + (ks[c],)
                rec.add(label, at, tuple(sorted((ks[k], Fraction(v)) for k, v in res.items() if v)))
    return n ** (last + 1)


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
    """Quantify an algebra law over key triples (pairs for LieSkew).

    product(ka, kb), given alone or read as alg.product, returns the product
    of two keys as a {key: Fraction} dict with no zero entries; only its
    items() are read."""
    if family is not None:
        if window is None:
            raise ValueError("graded family checks need a window")
        if margin is None:
            margin = default_margin(law, graded=True)
        window = Window(window.n, margin)
        keys = list(family.interior_keys(window, law.value) if keys is None else keys)
        one = family.product_one

        def terms(ka, kb):
            r = one(ka, kb)
            return () if r is None else ((r[1], r[0]),)

    else:
        if alg is not None:  # the call with product=alg.product, keys=alg.basis_keys()
            product = alg.product
            keys = alg.basis_keys() if keys is None else keys
        if product is None or keys is None:
            raise ValueError("need family, alg, or product+keys")
        if margin is not None:
            window = Window((window or Window(0, 0)).n, margin)
        window = window or Window(0, 0)

        def terms(ka, kb):
            return product(ka, kb).items()

    rec = _Recorder()
    if family is not None and _holds_on_patterns(law, family.sym_product, keys):
        checked = len(keys) ** (_program(law)[2] + 1)
    else:
        checked = _law_residuals(law, keys, terms, rec)
    return CheckReport.build(law.value, window, checked, rec.items, rec.extra())


# ---------------------------------------------------------------------------
# Coalgebra laws.


def _co_rows(law: LawId, *labels) -> tuple:
    """The rows of LAW_PLANS[law] under the given labels."""
    return tuple((label, lhs, rhs) for label, (_, lhs, rhs) in zip(labels, LAW_PLANS[law]))


# Each co-law once: a law's rows read with the coproduct in place of the
# product (see coalgebra_residuals).  CoLieJacobi keeps its Leibniz row,
# which equals the cyclic LieJacobi row only for a skew coproduct.
_CO_PLANS = {
    LawId.CoPerm: _co_rows(LawId.Perm, "coassoc", "left-cosym"),
    LawId.CoPreLie: _co_rows(LawId.PreLie, "co-pre-lie"),
    LawId.CoLieSkew: _co_rows(LawId.LieSkew, "co-skew"),
    LawId.CoLieJacobi: (("co-jacobi", "a(bc) - b(ac)", "(ab)c"),),
}


def _leaves(t) -> list:
    return [t] if t.__class__ is int else _leaves(t[0]) + _leaves(t[1])


def coalgebra_residuals(law: LawId, d: TemplateSeries, sym_co: Callable) -> list:
    """(label, residual series) for each row of _CO_PLANS[law] at one
    input key x, given d = delta(x); the law holds at x iff every residual
    is zero.

    A bracketing is read as a coproduct tensor: ab is d, (ab)c is d with
    slot 0 expanded by sym_co and a(bc) with slot 1 expanded, and the slots
    are then put in the order of the letters, so (ba)c is (ab)c permuted by
    (1, 0, 2)."""
    plan = _CO_PLANS.get(law)
    if plan is None:
        raise ValueError(f"not a coalgebra law: {law}")
    fresh = Fresh("k")
    expanded = {None: d}  # by the slot expanded, once each

    def tensor(t) -> TemplateSeries:
        idx = 0 if t[0].__class__ is tuple else 1 if t[1].__class__ is tuple else None
        if idx not in expanded:
            expanded[idx] = expand_slot(d, idx, sym_co, fresh)
        leaves = _leaves(t)
        perm = tuple(map(leaves.index, range(len(leaves))))
        return expanded[idx] if perm == tuple(range(len(perm))) else expanded[idx].permuted(perm)

    out = []
    for label, lhs, rhs in plan:
        res = None
        for s, t in _terms(_side(lhs), _side(rhs)):
            x = tensor(t) if s > 0 else -tensor(t)
            res = x if res is None else res + x
        out.append((label, res))
    return out


def _lifted_violations(keys: list, arity: int, residuals: Callable, box: int, rec: _Recorder):
    """Record into rec the box support of residuals(*xs) at every arity-tuple
    xs of keys, in the order of a loop over the tuples, each violation
    carrying that support.

    residuals lists (label, series) at keys and at patterns.  When every
    lifted series of _lifted collapses, the residuals vanish at every tuple
    of the keys, for every box, and nothing is recorded.  Otherwise each
    lifted series that does not is enumerated once on the box, when the
    walk over the tuples first reaches its shapes, and its points are
    grouped in one pass by their leading input slots, as one list of (other
    slots, coefficient) per input tuple that is sorted when rec keeps it;
    the groups are dropped after the last tuple of those shapes.  When the
    rule cannot run on patterns (TypeError), or a live series meets a key
    with a slot outside the box, the residuals are read at the keys, tuple
    by tuple."""
    try:
        live = dict(_lifted(keys, arity, residuals))
    except TypeError:  # the rule compares or branches on a slot value
        live = None
    if live == {}:  # proved on patterns
        return
    if live is None or not all(-box <= s <= box for k in keys for s in key_slots(k)):
        for xs in itertools.product(keys, repeat=arity):
            for label, res in residuals(*xs):
                support = res.support_in_box(box)
                if support and not rec.past_cap():
                    rec.add(label, xs, tuple(sorted(support.items())))
        return
    shape = [key_shape(k) for k in keys]
    tuples = list(itertools.product(range(len(keys)), repeat=arity))
    last = {tuple(shape[i] for i in at): n for n, at in enumerate(tuples)}
    groups: dict = {}  # the enumerated shape tuples still ahead in the walk
    for n, at in enumerate(tuples):
        shapes = tuple(shape[i] for i in at)
        rows = groups.get(shapes)
        if rows is None:
            rows = groups[shapes] = []
            for label, res in live.pop(shapes, ()):
                by_input: dict = {}
                for point, c in res.support_in_box(box).items():
                    by_input.setdefault(point[:arity], []).append((point[arity:], c))
                rows.append((label, by_input))
        xs = tuple(keys[i] for i in at)
        for label, by_input in rows:
            support = by_input.get(xs)
            if support and not rec.past_cap():
                support.sort()
                rec.add(label, xs, tuple(support))
        if last[shapes] == n:
            del groups[shapes]


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
    3-tensors are certified on the whole window box.

    The input key is lifted into slot 0 first (see _lifted_violations):
    delta is read at a pattern of each key shape.  When every lifted
    residual collapses to nothing, the law holds at every key of those
    shapes, for every N, and the report is the window's pass report.
    Otherwise each lifted residual is enumerated once on the box and its
    points grouped by input key; the violations are those of the loop over
    keys.  A delta or sym_co that cannot run on patterns (TypeError) is read
    key by key."""
    if margin is None:
        margin = default_margin(law, graded=True)
    window = Window(window.n, margin)
    keys = list(keys)
    rec = _Recorder()
    _lifted_violations(
        keys, 1, lambda x: coalgebra_residuals(law, delta(x), sym_co), window.n, rec
    )
    return CheckReport.build(law.value, window, len(keys), rec.items, rec.extra())


# ---------------------------------------------------------------------------
# Bialgebra laws.

# Each bialgebra law once, as (label, identity) rows: a signed sum of mixed
# words in the inputs a, b that vanishes at every input pair.  D(w) is the
# coproduct of w (an input or a product such as ab), ~D(w) its flip, and L(u)
# (u times the leg) or R(u) (the leg times u) acts on the first leg when
# written before D, on the second when written after it.  The PreLieBi rows
# ask _ZETA, zeta(a, b), to be symmetric in a, b and under the flip.  The
# cocycle's product is the Lie bracket.
_ZETA = "D(ab) - L(a)D(b) - D(b)L(a) - D(a)R(b)"
BI_PLANS = {
    LawId.PermBi: (
        ("pb1", "D(ab) - L(a)D(b) + R(a)D(b) - D(a)R(b)"),
        ("pb2", "~D(a)R(b) - R(a)D(b)"),
        ("pb3", "D(ab) - D(b)L(a) - L(b)D(a) + R(b)D(a) + L(b)~D(a) - R(b)~D(a)"),
    ),
    LawId.PreLieBi: (
        ("plb-sym", _ZETA + " - D(ba) + L(b)D(a) + D(a)L(b) + D(b)R(a)"),
        ("plb-flip", _ZETA + " - ~D(ab) + ~D(b)L(a) + L(a)~D(b) + R(b)~D(a)"),
    ),
    LawId.LieBiCocycle: (("cocycle", "D(ab) - L(a)D(b) - D(b)L(a) + L(b)D(a) + D(a)L(b)"),),
}
# A word's groups: the multiplication before D (L, R or None) and its factor,
# '~' or '', D's input, and the multiplication after D and its factor.
_WORD = r"(?:([LR])\(([ab])\))?(~?)D\(([ab]{1,2})\)(?:([LR])\(([ab])\))?"
_BI_ROWS = {
    law: [(label, _signed_terms(text, _WORD)) for label, text in rows]
    for law, rows in BI_PLANS.items()
}


def bialgebra_residuals(law: LawId, x, y, product: Callable, delta: Callable) -> list:
    """(label, residual 2-tensor) for each row of BI_PLANS[law] at a = x and
    b = y, keys or patterns, through the symbolic product(p, q) -> [(Poly,
    pattern)] and the coproduct series delta(z); each D(w) is read once."""
    ins = {"a": x, "b": y}
    ds = {"a": delta(x), "b": delta(y)}
    out = []
    for label, words in _BI_ROWS[law]:
        templates = []
        for s, (lm, lu, flip, w, rm, ru) in words:
            if w not in ds:  # D of a product: delta at each output, scaled
                pq = product(ins[w[0]], ins[w[1]])
                ts = [(h, t) for h, z in pq for t in delta(z).templates]
                ds[w] = TemplateSeries(2, (Template(t.vars, h * t.coeff, t.keys) for h, t in ts))
            t = ds[w].flip_hat() if flip else ds[w]
            for leg, m, u in ((0, lm, lu), (1, rm, ru)):
                if m:
                    side = "left" if m == "L" else "right"
                    t = apply_product_slot(t, leg, product, pat_const(ins[u]), side)
            templates += (t if s > 0 else -t).templates
        out.append((label, TemplateSeries(2, templates)))
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
    """The rows of BI_PLANS[law] (see bialgebra_residuals).  PermBi and
    PreLieBi read every pair of alg's basis keys, with delta_table or alg's
    coproduct, and locate a violation by basis indices.

    LieBiCocycle lifts the inputs (x, y) into slots 0 and 1 (see
    _lifted_violations), with the product sym_bracket.  When the lifted
    residuals collapse to nothing, the cocycle condition holds at every pair
    of keys of those shapes, for every N, and the report is the window's
    pass report; otherwise they are enumerated once on the box.  A delta
    that cannot run on patterns is read pair by pair.  bracket, the same
    bracket on keys, is not read.  A missing input raises ValueError."""
    if law not in BI_PLANS:
        raise ValueError(f"not a bialgebra law: {law}")
    rec = _Recorder()
    if law == LawId.LieBiCocycle:
        if delta is None or sym_bracket is None or keys is None or window is None:
            raise ValueError("LieBiCocycle needs delta, sym_bracket, keys and window")
        window = Window(window.n, default_margin(law, graded=True) if margin is None else margin)
        ks = list(keys)
        residuals = functools.partial(bialgebra_residuals, law, product=sym_bracket, delta=delta)
        _lifted_violations(ks, 2, residuals, window.n, rec)
        return CheckReport.build(law.value, window, len(ks) ** 2, rec.items, rec.extra())
    if alg is None:
        raise ValueError(f"{law.value} needs alg")
    work = alg if delta_table is None else replace(alg, delta=delta_table)
    xs = work.basis_keys()
    ds = {x: coproduct_at(work.sym_delta, x) for x in xs}
    for x, y in itertools.product(xs, repeat=2):
        for label, res in bialgebra_residuals(law, x, y, work.sym_product, ds.__getitem__):
            if terms := _finite_terms(res):
                rec.add(label, (x[2], y[2]), tuple(((a[2], b[2]), c) for (a, b), c in terms))
    window = window or Window(0, 0)
    return CheckReport.build(law.value, window, work.dim**2, rec.items, rec.extra())


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


@functools.cache
def _pairings(text: str) -> tuple:
    """'(ab|c) - (a|bc)' -> ((1, 'ab', 'c'), (-1, 'a', 'bc'))."""
    return tuple((s, x, y) for s, (x, y) in _signed_terms(text, r"\(([abc]+)\|([abc]+)\)"))


# Every plan text is parsed once, at import (the parsers keep what they read),
# so a malformed row raises here and not in a check.
for _row in itertools.chain(*LAW_PLANS.values(), *_CO_PLANS.values()):
    _side(_row[1]), _side(_row[2])
for _row in itertools.chain(*FORM_PLANS.values()):
    _pairings(_row[1])


def _form_residuals(row, keys, form: Callable, product: Callable, rec: _Recorder) -> int:
    """Evaluate a triple row of FORM_PLANS on all input triples over keys.

    product(ka, kb) is a {key: Fraction} dict with no zero entries, read
    through items().  With a and b fixed, each pairing is
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


class _NotUnimodular(Exception):
    """A partner equation has no single integer solution in the lone input."""


def _solve_lone(names: tuple, lhs, rhs):
    """{variable: Aff} for the variables names, the one integer solution of
    the pattern equation lhs == rhs whatever the other variables are; None
    when the shapes differ, so the equation has no solution.  Raises
    _NotUnimodular when the slot equations, linear in names, do not have a
    square matrix of determinant +-1."""
    if key_shape(lhs) != key_shape(rhs):
        return None
    rows, rest = [], []
    for p, q in zip(key_slots(lhs), key_slots(rhs)):
        d = Aff.of(p) - q
        coeffs = dict(d.terms)
        rows.append([coeffs.pop(v, 0) for v in names])
        rest.append(Aff(d.const, tuple(sorted(coeffs.items()))))
    inv = mat_inv(rows) if len(rows) == len(names) else None
    if inv is None or any(c.denominator != 1 for row in inv for c in row):
        raise _NotUnimodular
    # rows x + rest = 0, so x = -inv rest
    return {
        v: sum((r * -int(c) for c, r in zip(row, rest)), Aff())
        for v, row in zip(names, inv)
    }


def _form_row_holds(text: str, keys, arity: int, partner: Callable, sym_product: Callable) -> bool:
    """True when the FORM_PLANS identity text vanishes at every arity-tuple
    of the keys' shapes, whatever their slots, so at every window and N.

    A pairing (u|v) is nonzero only where partner(u) = (value, v).  Each
    pairing has one lone input, the single letter on one side of the bar
    (the right one when both sides are single).  At the input patterns of
    _shape_walk, that equation is solved for the lone input's variables and
    the solution substituted, so the pairing becomes one Template per
    product term, of the given arity, over the other inputs' variables.  The
    row holds at every tuple of those shapes when the sum of those templates
    collapses to nothing.  False when it does not, when the rule or the
    partner cannot run on patterns (TypeError), or when the partner
    equation is not unimodular in the lone input's variables."""
    terms = [(s, x, y, "abc".index(y if len(y) == 1 else x)) for s, x, y in _pairings(text)]

    def side(t, pats):
        if len(t) == 1:
            return [(Poly.const(1), pats["abc".index(t)])]
        return sym_product(pats["abc".index(t[0])], pats["abc".index(t[1])])

    try:
        for names, pats in _shape_walk(keys, arity):
            found = []
            for s, x, y, lone in terms:
                others = tuple(v for i, vs in enumerate(names) if i != lone for v in vs)
                for f, u in side(x, pats):
                    value, w = partner(u)
                    for g, v in side(y, pats):
                        env = _solve_lone(names[lone], w, v)
                        if env is not None:
                            coeff = poly_subst(f * g * Poly.of(value) * s, env)
                            found.append(Template(others, coeff, tuple(pat_subst(p, env) for p in pats)))
            if TemplateSeries(arity, found).collapsed().templates:
                return False
    except (TypeError, _NotUnimodular):
        return False
    return True


def _form_weight_holds(keys, partner: Callable, weight: int) -> bool:
    """True when deg a + deg partner(a) = weight, as an identity of Aff
    slots, at a pattern of every key shape whose partner value is nonzero;
    False otherwise or when the partner cannot run on patterns."""
    try:
        for _, (a,) in _shape_walk(keys, 1):
            value, b = partner(a)
            if Poly.of(value).is_zero():
                continue
            if Aff.of(key_degree(a) + key_degree(b)) != Aff(weight):
                return False
    except TypeError:
        return False
    return True


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
    """Symmetry sense, graded weight, invariance, window nondegeneracy.

    On a graded family each FORM_PLANS row is first proved on patterns (see
    _form_row_holds): the pair row over the box keys' shapes, with the
    graded weight as an Aff identity (_form_weight_holds), and the triple
    row over the interior keys' shapes.  A proved row holds at every tuple
    of keys of those shapes, so its window loop would record nothing and is
    skipped; checked still counts |box|^2 + |interior|^3.  A row that is not
    proved, because a rule or the partner branches on a slot, the partner
    equation is not unimodular in the lone input, or the row does not
    collapse, runs its window loop and reports that loop's witnesses.  A
    window without interior raises InsufficientWindowError either way.
    Finite forms (form=, product= and keys=) always run the loops; there
    product(ka, kb) returns a {key: Fraction} dict with no zero entries, as
    FiniteAlgebra.product does.  A missing input raises ValueError."""
    plan = FORM_PLANS.get(law)
    if plan is None:
        raise ValueError(f"not a form law: {law}")
    graded = family is not None
    if graded:
        form = family.form
        product = family.product
        weight = family.form_m if weight is None else weight
        if window is None:
            raise ValueError("a graded form needs window")
        box_keys = family.keys(window)
    else:
        if form is None or product is None or keys is None:
            raise ValueError("need family, or form+product+keys")
        box_keys = list(keys)
        window = window or Window(0, 0)
    if margin is None:
        margin = default_margin(law, graded)
    window = Window(window.n, margin)
    rec = _Recorder()

    (pair_label, pair_text), triple_row = plan
    inner = family.interior_keys(window, law.value) if graded else box_keys

    def proved(text, keys, arity):
        return graded and _form_row_holds(text, keys, arity, family.partner, family.sym_product)

    # The pair row and the single graded weight over all window pairs.
    if not (
        proved(pair_text, box_keys, 2)
        and (weight is None or _form_weight_holds(box_keys, family.partner, weight))
    ):
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

    checked = len(box_keys) ** 2
    if proved(triple_row[1], inner, 3):
        checked += len(inner) ** 3
    else:
        checked += _form_residuals(triple_row, inner, form, product, rec)

    gram = {}
    if check_nondegenerate:
        rank = _gram_rank(box_keys, form, family.form_partners if graded else None)
        gram = {"gram_rank": rank, "gram_size": len(box_keys)}
        if rank < len(box_keys):
            rec.add("degenerate", (), ((("rank",), Fraction(rank)),))
    extra = {**rec.extra(), **gram}
    if weight is not None:
        extra["weight"] = weight
    return CheckReport.build(law.value, window, checked, rec.items, extra)


def _gram_rank(keys, form, partners: Optional[Callable] = None) -> int:
    """Exact rank of the window Gram matrix.

    With partners (a family's form_partners) each key's row is read off its
    partners that lie in the window; otherwise form is scanned against every
    key.  Fast path: an injective partner assignment (each key sees exactly
    one nonzero column, all distinct) is a scaled permutation, hence full
    rank."""
    n = len(keys)
    index = {b: j for j, b in enumerate(keys)}
    rows = []
    partner_cols = []
    injective = True
    for a in keys:
        if partners is None:
            row = {j: v for j, b in enumerate(keys) if (v := form(a, b))}
        else:
            row = {index[b]: v for b, v in partners(a) if b in index}
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


def _representation_residuals(mul, l, r, dim):
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


def check_representation(alg: FiniteAlgebra, rep: Representation) -> CheckReport:
    rec = _Recorder()
    for label, i, j, d in _representation_residuals(alg.mul, rep.l, rep.r, alg.dim):
        rec.add(label, (i, j), _mat_items(d))
    return CheckReport.build(
        LawId.Representation.value, Window(0, 0), alg.dim**2, rec.items, rec.extra()
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


# The ten matched-pair conditions, as (labels, row, order, sign): at a mixed
# triple (p, q, q') with p in one summand and q, q' in the other, a condition
# is sign times the part in q's summand of a Perm row of the assembled
# product, read at the inputs (p, q, q') taken in the given order.  The first
# label is for p in alg1, the second (its mirror) for p in alg2.
_MATCHED_PAIR_PLAN = (
    (("pmp1", "pmp3"), "assoc", (0, 1, 2), -1),
    (("pmp2", "pmp4"), "assoc", (1, 2, 0), 1),
    (("pmp5", "pmp6"), "assoc", (1, 0, 2), 1),
    (("pmp7", "pmp8"), "left-comm", (0, 1, 2), 1),
    (("pmp9", "pmp10"), "left-comm", (1, 2, 0), 1),
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
    l21[j], r21[j] act on alg1's space.  The actions assemble a product on
    the direct sum (see _assemble_matched_pair), whose Perm law is checked
    once over every basis triple with no cap.  Each condition of
    _MATCHED_PAIR_PLAN is read off those residuals: first at every (p in
    alg1, q, q' in alg2), then at every (q in alg2, p, p' in alg1), located
    by basis indices within each summand.  The assembled product must also
    pass the whole Perm law, reported under assembled-* labels.
    """
    mp = _assemble_matched_pair(alg1, alg2, l12, r12, l21, r21)
    keys = mp.basis_keys()
    cube = _Recorder(cap=2 * mp.dim**3)  # every residual of the two rows
    cube_checked = _law_residuals(LawId.Perm, keys, lambda a, b: mp.product(a, b).items(), cube)
    residual = {(label, at): res for label, at, res in cube.items}

    rec = _Recorder()
    halves = (range(alg1.dim), range(alg1.dim, mp.dim))
    checked = 0
    for mirror, (one, two) in enumerate((halves, halves[::-1])):
        for at in itertools.product(one, two, two):
            checked += 1
            for labels, row, order, sign in _MATCHED_PAIR_PLAN:
                res = residual.get((row, tuple(keys[at[i]] for i in order)), ())
                part = tuple(((k[2] - two.start,), sign * c) for k, c in res if k[2] in two)
                if part:
                    where = (at[0] - one.start, at[1] - two.start, at[2] - two.start)
                    rec.add(labels[mirror], where, part)

    # the assembled Perm law as check_algebra reports it: the violations its
    # capped recorder keeps, in report order, and its uncapped count
    kept = sorted(cube.items[:MAX_VIOLATIONS], key=lambda v: v[:2])
    for label, at, res in kept:
        rec.add(f"assembled-{label}", at, res)
    rec.total += cube.total - len(kept)
    checked += cube_checked
    return CheckReport.build(
        LawId.MatchedPairPerm.value, Window(0, 0), checked, rec.items, rec.extra()
    )


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
            lhs = alg.times(ta, tb)
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


# The five pre-perm chains, in their order at one input (p1, p2, p3), as the
# representation identities they are, read one column at a time: a pp-right
# chain is column p1 of its identity at (p2, p3), a pp-left chain column p3
# of its identity at (p1, p2).
_PREPERM_CHAINS = (
    ("rep-r-antihom", "pp-right-1"),
    ("rep-r-lmix", "pp-right-2"),
    ("rep-r-commute", "pp-right-3"),
    ("rep-l-hom", "pp-left-1"),
    ("rep-l-swap", "pp-left-2"),
)


def check_preperm(alg: FiniteAlgebra) -> CheckReport:
    """Five defining chains of the splitting of a perm product: the
    representation identities of l(e_i) v = e_i > v and r(e_i) v = v < e_i
    (preperm_representation) for the product > + <."""
    rep = preperm_representation(alg)
    mul = combine_tables((1, alg.tri_left), (1, alg.tri_right))
    chains = {ident: (n, label) for n, (ident, label) in enumerate(_PREPERM_CHAINS)}
    found = []
    for ident, i, j, d in _representation_residuals(mul, rep.l, rep.r, alg.dim):
        n, label = chains[ident]
        for col in range(alg.dim):
            res = tuple((alg.key(k), row[col]) for k, row in enumerate(d) if row[col])
            if res:
                at = (col, i, j) if label.startswith("pp-right") else (i, j, col)
                found.append((at, n, label, res))
    rec = _Recorder()
    for at, _, label, res in sorted(found, key=lambda v: v[:2]):
        rec.add(label, at, res)
    return CheckReport.build(
        LawId.PrePerm.value, Window(0, 0), alg.dim**3, rec.items, rec.extra()
    )
