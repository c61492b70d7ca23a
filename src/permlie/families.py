"""Concrete structure families.

A graded family is one product rule, one partner rule and one symbolic
coproduct ``sym_co``.  The product rule ``rule(x, y) -> (coeff, z) | None``
gives the single term of x y; the partner rule ``partner(x) -> (value, z)``
gives the one key z with form(x, z) = value != 0.  Both are written with slot
arithmetic only and branch on key shape (tags, derivation indices), never on
a slot value, so the same function runs on keys (int slots) and on patterns
(``Aff`` slots).  ``GradedFamily`` reads them on keys as ``product_one``,
``form`` and ``form_partners`` and on patterns as ``sym_product`` and
``dual_pairs``.

* ``ats``: completed pre-Lie family on keys t^i, s^i with
  t^i * t^j = j t^(i+j-1), t^i * s^j = (2i+j-1) s^(i+j-1),
  s^j * t^i = i s^(i+j-1), s^i * s^j = 0, graded by deg = i - 1,
  carrying the skew form w(s^i, t^j) = delta_(i+j,0) of weight -2.

* ``permP``: completed perm family on monomial keys x1^a x2^b d_s (s in 1,2)
  with (u d_s)(v d_t) = x_s u v d_t, graded by deg = a + b + 1, carrying the
  skew form pairing d_1 against d_2 monomials with weight +2.

* ``wn(n)``: completed pre-Lie family of derivation keys x^e d_i with
  u d_i * v d_j = u (d_i v) d_j, graded by deg = |e| - 1.  n = 1 matches
  ``ats`` restricted to t-keys.

All products and coproducts are exact closed forms, so no window ever
truncates a value.  Finite algebras live in a small catalog keyed by id;
their structure constants are exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .kernel import (
    Fresh,
    ONE,
    Poly,
    TemplateSeries,
    Window,
    ZERO,
    add_term,
    av,
    coproduct_at,
    ess,
    fin,
    key_slots,
    mono,
    pat_ess,
    pat_mono,
    pat_tee,
    pat_wn,
    sparse_rref,
    tee,
    wn,
    with_slots,
)


# ---------------------------------------------------------------------------
# Graded family container.


@dataclass
class GradedFamily:
    """A graded family read off its product rule and its partner rule.

    ``keys_fn(bound)`` lists the keys with every slot in [-bound, bound], so
    ``keys_fn(0)`` has one key per shape.  Without a partner rule the family
    has no form: ``form`` and ``form_partners`` are None.

    The rules must branch on key shape only, never on a slot value.  That is
    what makes a law proved on patterns hold at every key: ``sym_product`` on
    patterns of given shapes, read at any slot values, is then ``rule`` on
    the keys with those values.  A rule that compares a slot with a number
    or tests its truth raises TypeError on a pattern, and ``check_algebra``
    falls back to the window cube.
    """

    name: str
    kind: str  # "Perm" or "PreLie" (wn(1) additionally satisfies Novikov)
    keys_fn: Callable
    rule: Callable  # (x, y) -> (coeff, z) | None, on keys and on patterns
    partner: Optional[Callable] = None  # x -> (value, z), form(x, z) = value
    form_m: Optional[int] = None  # the single weight with deg a + deg b = m
    sym_co: Optional[Callable] = None  # (pat, fresh) -> [(vars, Poly, (pat, pat))]
    # The readings on keys, derived from the rules in __post_init__.
    product_one: Callable = field(init=False, repr=False, compare=False)
    form: Optional[Callable] = field(init=False, repr=False, compare=False)
    form_partners: Optional[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rule = self.rule
        exact: dict = {}  # int coefficient -> its Fraction, built once

        def product_one(x, y):
            """(Fraction, key) or None: the rule on keys, zero dropped."""
            r = rule(x, y)
            if r is None or not r[0]:
                return None
            c = r[0]
            f = exact.get(c)
            if f is None:
                f = exact[c] = Fraction(c)
            return (f, r[1])

        self.product_one = product_one
        self.form = self.form_partners = None
        if self.partner is not None:
            self.form, self.form_partners = _form_readings(self.partner)

    def keys(self, window: Window):
        return self.keys_fn(window.n)

    def interior_keys(self, window: Window, law: str = "enumeration"):
        lo, hi = window.require_interior(law)
        bound = hi  # symmetric box
        return self.keys_fn(bound)

    def product(self, k1, k2) -> dict:
        r = self.product_one(k1, k2)
        return {} if r is None else {r[1]: r[0]}

    def sym_product(self, p1, p2):
        """The rule on patterns: [(Poly, pattern)], or [] where it has no term."""
        r = self.rule(p1, p2)
        return [] if r is None else [(Poly.of(r[0]), r[1])]

    def dual_pairs(self, fresh: Fresh):
        """[(vars, e, f, form(f, e))]: per key shape, e has a fresh variable
        in every slot (the shapes share them) and f is its partner.  Summed
        over the variables, each key pair with a nonzero form appears once."""
        shapes = self.keys_fn(0)
        names = [fresh() for _ in range(max(len(key_slots(k)) for k in shapes))]
        out = []
        for k in shapes:
            vs = tuple(names[: len(key_slots(k))])
            e = with_slots(k, map(av, vs))
            f = self.partner(e)[1]
            out.append((vs, e, f, Poly.of(self.partner(f)[0])))
        return out

    def delta(self, key) -> TemplateSeries:
        """Coproduct of a single key as a genuine template series."""
        if self.sym_co is None:
            raise ValueError(f"{self.name} has no coproduct")
        return coproduct_at(self.sym_co, key)


def _form_readings(partner):
    """form and form_partners on keys, with one partner lookup per key."""
    memo: dict = {}

    def lookup(x):
        v, z = partner(x)
        r = memo[x] = (Fraction(v), z)
        return r

    def form(x, y) -> Fraction:
        v, z = memo.get(x) or lookup(x)
        return v if z == y else ZERO

    def form_partners(x):
        v, z = memo.get(x) or lookup(x)
        return [(z, v)] if v else []

    return form, form_partners


# ---------------------------------------------------------------------------
# ats: the two-sequence pre-Lie family.


def _ats_keys(bound: int):
    out = []
    for i in range(-bound, bound + 1):
        out.append(tee(i))
    for i in range(-bound, bound + 1):
        out.append(ess(i))
    return out


def _ats_rule(x, y):
    (s, a), (t, b) = x, y
    if s == "Tee":
        if t == "Tee":
            return (b, tee(a + b - 1))
        return (2 * a + b - 1, ess(a + b - 1))
    if t == "Tee":
        return (b, ess(a + b - 1))
    return None


def _ats_partner(x):
    """w(s^i, t^(-i)) = 1 and w(t^i, s^(-i)) = -1."""
    tag, i = x
    if tag == "Ess":
        return (1, tee(-i))
    return (-1, ess(-i))


def delta_a_sym(p, fresh: Fresh):
    """Coproduct branches for the ats family."""
    j = fresh()
    tag, e = p[0], p[1]
    if tag == "Tee":
        return [
            ((j,), Poly.of(e + av(j) - 1), (pat_tee(-av(j)), pat_ess(e + av(j) - 1))),
            ((j,), Poly.of(e - av(j)), (pat_ess(-av(j)), pat_tee(e + av(j) - 1))),
        ]
    if tag == "Ess":
        return [
            ((j,), Poly.of(e + av(j) - 1), (pat_ess(-av(j)), pat_ess(e + av(j) - 1))),
        ]
    raise ValueError(f"not an ats pattern: {p!r}")


def ats_family() -> GradedFamily:
    return GradedFamily(
        name="ats",
        kind="PreLie",
        keys_fn=_ats_keys,
        rule=_ats_rule,
        partner=_ats_partner,
        form_m=-2,
        sym_co=delta_a_sym,
    )


def delta_a_family(key) -> TemplateSeries:
    return ats_family().delta(key)


# ---------------------------------------------------------------------------
# permP: the two-variable monomial perm family.


def _perm_p_keys(bound: int):
    out = []
    for d in (1, 2):
        for i1 in range(-bound, bound + 1):
            for i2 in range(-bound, bound + 1):
                out.append(mono(i1, i2, d))
    return out


def _perm_p_rule(x, y):
    _, a1, a2, s = x
    _, b1, b2, t = y
    if s == 1:
        return (1, mono(a1 + b1 + 1, a2 + b2, t))
    return (1, mono(a1 + b1, a2 + b2 + 1, t))


def _perm_p_partner(x):
    """kappa(u d_2, u^(-1) d_1) = 1 and kappa(u d_1, u^(-1) d_2) = -1."""
    _, a1, a2, s = x
    if s == 1:
        return (-1, mono(-a1, -a2, 2))
    return (1, mono(-a1, -a2, 1))


def delta_p_sym(p, fresh: Fresh):
    _, m, n, d = p
    i1, i2 = fresh(), fresh()
    a1, a2 = av(i1), av(i2)
    return [
        (
            (i1, i2),
            Poly.const(1),
            (pat_mono(a1, a2, 1), pat_mono(m - a1, n - a2 + 1, d)),
        ),
        (
            (i1, i2),
            Poly.const(-1),
            (pat_mono(a1, a2, 2), pat_mono(m - a1 + 1, n - a2, d)),
        ),
    ]


def perm_p_family() -> GradedFamily:
    return GradedFamily(
        name="permP",
        kind="Perm",
        keys_fn=_perm_p_keys,
        rule=_perm_p_rule,
        partner=_perm_p_partner,
        form_m=2,
        sym_co=delta_p_sym,
    )


def delta_p_family(key) -> TemplateSeries:
    return perm_p_family().delta(key)


# ---------------------------------------------------------------------------
# wn: derivation pre-Lie families.


def _wn_keys_fn(n: int):
    def keys(bound: int):
        exps = itertools.product(range(-bound, bound + 1), repeat=n)
        return [wn(e, d) for e in exps for d in range(1, n + 1)]

    return keys


def _wn_rule(x, y):
    """u d_i * v d_j = u (d_i v) d_j."""
    _, u, i = x
    _, v, j = y
    exps = [a + b for a, b in zip(u, v)]
    exps[i - 1] = exps[i - 1] - 1
    return (v[i - 1], wn(exps, j))


def wn_codelta_sym(n: int):
    def co(p, fresh: Fresh):
        _, exps, s = p
        jvars = [fresh() for _ in range(n)]
        javs = [av(v) for v in jvars]
        out = []
        for t in range(1, n + 1):
            left = [e - j for e, j in zip(exps, javs)]
            left[t - 1] = left[t - 1] + 1
            out.append(
                (
                    tuple(jvars),
                    Poly.var(jvars[t - 1]),
                    (pat_wn(left, t), pat_wn(javs, s)),
                )
            )
        return out

    return co


def wn_family(n: int) -> GradedFamily:
    return GradedFamily(
        name=f"w{n}",
        kind="PreLie",
        keys_fn=_wn_keys_fn(n),
        rule=_wn_rule,
        sym_co=wn_codelta_sym(n),
    )


def wn_codelta(n: int, key) -> TemplateSeries:
    return wn_family(n).delta(key)


# ---------------------------------------------------------------------------
# Small exact matrices (tuples of row tuples) for finite-dimensional work.


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


# ---------------------------------------------------------------------------
# Finite-dimensional algebras.


@dataclass
class FiniteAlgebra:
    """Finite algebra with exact structure constants on basis e_0..e_(dim-1).

    ``mul[(i, j)]`` lists (k, coeff) terms of e_i e_j.  Pre-perm entries carry
    the two partial products instead, with ``mul`` their sum.  ``delta``
    optionally lists coproduct terms (i, j, coeff) per basis index.
    """

    id: str
    space: str
    dim: int
    labels: tuple
    kind: str  # "Perm" | "PreLie" | "Lie" | "PrePerm" | "none"
    mul: dict = field(default_factory=dict)
    tri_left: Optional[dict] = None  # pre-perm left action u > v
    tri_right: Optional[dict] = None  # pre-perm right action u < v
    delta: Optional[dict] = None

    def __post_init__(self):
        """Refuse a table with an index outside range(dim): the table's keys
        and every term's basis indices (all entries but the coefficient)."""
        for name in ("mul", "tri_left", "tri_right", "delta"):
            for at, terms in (getattr(self, name) or {}).items():
                ixs = [*at] if isinstance(at, tuple) else [at]
                if not all(i in range(self.dim) for i in ixs + [i for t in terms for i in t[:-1]]):
                    raise ValueError(f"{self.id}: {name}[{at!r}] leaves range({self.dim})")

    def key(self, i: int):
        return fin(self.space, i)

    def basis_keys(self):
        return [fin(self.space, i) for i in range(self.dim)]

    def product(self, k1, k2) -> dict:
        out = {}
        for k, c in self.mul.get((k1[2], k2[2]), ()):
            add_term(out, fin(self.space, k), c)
        return out

    def sym_product(self, p1, p2):
        if p1[0] != "Fin" or p2[0] != "Fin":
            raise ValueError(f"{self.id} has only Fin keys: {p1!r} {p2!r}")
        return [
            (Poly.const(c), fin(self.space, k))
            for k, c in self.mul.get((p1[2], p2[2]), ())
        ]

    def commutator(self) -> dict:
        """The table of [e_i, e_j] = e_i e_j - e_j e_i, in the form of mul."""
        flipped = {(j, i): terms for (i, j), terms in self.mul.items()}
        return combine_tables((1, self.mul), (-1, flipped))

    def sym_delta(self, p, fresh: Fresh):
        if p[0] != "Fin":
            raise ValueError(f"{self.id} has only Fin keys: {p!r}")
        return [
            ((), Poly.const(c), (fin(self.space, i), fin(self.space, j)))
            for i, j, c in (self.delta or {}).get(p[2], ())
        ]

    # Left/right multiplication matrices: (L_i v)_k = sum_j c_(i,j)^k v_j.
    def left_matrix(self, i: int):
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.mul.get((i, j), ()):
                rows[k][j] += c
        return tuple(tuple(r) for r in rows)

    def right_matrix(self, i: int):
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.mul.get((j, i), ()):
                rows[k][j] += c
        return tuple(tuple(r) for r in rows)


def combine_tables(*signed) -> dict:
    """The sum of s * table over (s, table) pairs of product tables
    {(i, j): ((k, coeff), ...)}, with each entry's terms merged and sorted by
    k; zero terms and entries left empty are dropped, so two tables are
    equal as maps exactly when their difference is {}."""
    acc: dict = {}
    for s, table in signed:
        for ij, terms in table.items():
            row = acc.setdefault(ij, {})
            for k, c in terms:
                row[k] = row.get(k, 0) + s * c
    out = {}
    for ij, row in sorted(acc.items()):
        terms = tuple((k, c) for k, c in sorted(row.items()) if c)
        if terms:
            out[ij] = terms
    return out


@dataclass(frozen=True)
class Representation:
    """Module with exact action matrices l(e_i), r(e_i)."""

    module_dim: int
    l: tuple  # tuple of matrices, one per algebra basis index
    r: tuple


def adjoint_representation(alg: FiniteAlgebra) -> Representation:
    return Representation(
        module_dim=alg.dim,
        l=tuple(alg.left_matrix(i) for i in range(alg.dim)),
        r=tuple(alg.right_matrix(i) for i in range(alg.dim)),
    )


def preperm_representation(alg: FiniteAlgebra) -> Representation:
    """The two partial actions of a pre-perm table on its own space:
    l(e_i) v = e_i > v and r(e_i) v = v < e_i."""
    if alg.tri_left is None or alg.tri_right is None:
        raise ValueError(f"{alg.id} has no pre-perm tables")
    return Representation(
        module_dim=alg.dim,
        l=adjoint_representation(replace(alg, mul=alg.tri_left)).l,
        r=adjoint_representation(replace(alg, mul=alg.tri_right)).r,
    )


# ---------------------------------------------------------------------------
# Catalog.


def _tbl(entries):
    """entries: {(i, j): ((k, coeff), ...)}"""
    return {
        ij: tuple((k, Fraction(c)) for k, c in terms) for ij, terms in entries.items()
    }


def finite_catalog() -> dict:
    cat = {}

    # One-dimensional perm bialgebra: e e = e, delta(e) = e (x) e.
    cat["ex-1p"] = FiniteAlgebra(
        id="ex-1p",
        space="P1",
        dim=1,
        labels=("e",),
        kind="Perm",
        mul=_tbl({(0, 0): ((0, 1),)}),
        delta={0: ((0, 0, ONE),)},
    )

    # Two-dimensional semidirect extension of ex-1p by its dual module:
    # e e = e, e f = f e = f, f f = 0.
    cat["ex-sd2"] = FiniteAlgebra(
        id="ex-sd2",
        space="SD2",
        dim=2,
        labels=("e", "f"),
        kind="Perm",
        mul=_tbl({(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),)}),
    )

    # Nilpotent two-dimensional perm algebra: e1 e1 = e2.
    cat["ex-nilp2"] = FiniteAlgebra(
        id="ex-nilp2",
        space="N2",
        dim=2,
        labels=("e1", "e2"),
        kind="Perm",
        mul=_tbl({(0, 0): ((1, 1),)}),
    )

    # Broken two-dimensional table: left commutativity fails,
    # (e1 e2) e2 = e2 e2 = e2 but (e2 e1) e2 = 0.
    cat["ex-bad2"] = FiniteAlgebra(
        id="ex-bad2",
        space="B2",
        dim=2,
        labels=("e1", "e2"),
        kind="none",
        mul=_tbl({(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 1): ((1, 1),)}),
    )

    # One-dimensional pre-perm structure: e < e = 0, e > e = e.
    pp = FiniteAlgebra(
        id="ex-preperm-1",
        space="PP1",
        dim=1,
        labels=("e",),
        kind="PrePerm",
        mul=_tbl({(0, 0): ((0, 1),)}),
    )
    pp.tri_left = _tbl({(0, 0): ((0, 1),)})  # e > e = e
    pp.tri_right = _tbl({})  # e < e = 0
    cat["ex-preperm-1"] = pp

    # Broken pre-perm: both partial products equal e.
    bad = FiniteAlgebra(
        id="ex-preperm-bad",
        space="PPB",
        dim=1,
        labels=("e",),
        kind="none",
        mul=_tbl({(0, 0): ((0, 2),)}),
    )
    bad.tri_left = _tbl({(0, 0): ((0, 1),)})
    bad.tri_right = _tbl({(0, 0): ((0, 1),)})
    cat["ex-preperm-bad"] = bad

    # Two-dimensional commutative (hence pre-Lie) square-nilpotent algebra.
    cat["ex-prelie-n2"] = FiniteAlgebra(
        id="ex-prelie-n2",
        space="PL2",
        dim=2,
        labels=("e1", "e2"),
        kind="PreLie",
        mul=_tbl({(0, 0): ((1, 1),)}),
    )

    # One-dimensional pre-Lie algebra e e = e with delta(e) = e (x) e.
    cat["ex-prelie-1"] = FiniteAlgebra(
        id="ex-prelie-1",
        space="PLA1",
        dim=1,
        labels=("e",),
        kind="PreLie",
        mul=_tbl({(0, 0): ((0, 1),)}),
        delta={0: ((0, 0, ONE),)},
    )

    return cat


def mat_inv(a):
    """Exact inverse of a small square matrix; None if singular.  sparse_rref
    reduces the rows [a_i | e_i]; the inverse is read from columns n..2n-1."""
    n = len(a)
    basis = sparse_rref(
        {**{j: v for j, v in enumerate(row) if v}, n + i: ONE} for i, row in enumerate(a)
    )
    if any(j not in basis for j in range(n)):
        return None
    return tuple(tuple(basis[i].get(n + j, ZERO) for j in range(n)) for i in range(n))


def mul_of_dual_delta(delta: dict, dim: int) -> dict:
    """Product table on the dual basis read off a coproduct table."""
    mul: dict = {}
    for k, terms in (delta or {}).items():
        for i, j, c in terms:
            mul.setdefault((i, j), []).append((k, c))
    return {ij: tuple(sorted(v)) for ij, v in mul.items()}


def random_table(rng, dim: int, lo: int = -2, hi: int = 2, density=Fraction(1, 2)) -> dict:
    """Seeded random product table with small integer constants."""
    mul = {}
    for i in range(dim):
        for j in range(dim):
            terms = []
            for k in range(dim):
                if Fraction(rng.randint(1, 100), 100) <= density:
                    c = rng.randint(lo, hi)
                    if c:
                        terms.append((k, Fraction(c)))
            if terms:
                mul[(i, j)] = tuple(terms)
    return mul


def tensor_catalog() -> dict:
    """Named finite 2-tensors over catalog algebras: id -> (alg id, tensor),
    each tensor a {(key, key): Fraction} dict of e_i (x) e_j terms."""
    cat = finite_catalog()
    out = {}
    for name, alg_id, cells in (
        ("r-sd2", "ex-sd2", ((0, 1), (1, 0))),
        ("r-1p", "ex-1p", ((0, 0),)),
        ("r-nilp2", "ex-nilp2", ((0, 0),)),
        ("r-prelie-n2", "ex-prelie-n2", ((0, 0),)),
    ):
        alg, r = cat[alg_id], {}
        for i, j in cells:
            add_term(r, (alg.key(i), alg.key(j)), ONE)
        out[name] = (alg_id, r)
    return out
