"""Concrete structure families.

Graded families (all products and coproducts are exact closed forms, so no
window ever truncates a value):

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

Finite algebras live in a small catalog keyed by id; their structure
constants are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .kernel import (
    Fresh,
    FormalVector,
    ONE,
    Poly,
    TemplateSeries,
    Template,
    Window,
    ZERO,
    av,
    ess,
    fin,
    mono,
    pat_const,
    pat_ess,
    pat_fin,
    pat_mono,
    pat_tee,
    pat_wn,
    tee,
    wn,
)


# ---------------------------------------------------------------------------
# Graded family container.


@dataclass
class GradedFamily:
    name: str
    kind: str  # "Perm" or "PreLie" (wn(1) additionally satisfies Novikov)
    keys_fn: Callable  # bound -> list of keys with all slots in [-bound, bound]
    product_one: Callable  # (key, key) -> (Fraction, key) | None
    sym_product: Callable  # (pat, pat) -> list[(Poly, pat)]
    form: Optional[Callable] = None  # (key, key) -> Fraction
    form_m: Optional[int] = None  # the single weight with deg a + deg b = m
    form_partners: Optional[Callable] = None  # key -> list[(key, Fraction)]
    sym_co: Optional[Callable] = None  # (pat, fresh) -> [(vars, Poly, (pat, pat))]
    dual_pairs: Optional[Callable] = None  # fresh -> [(vars, e_pat, f_pat, sign)]

    def keys(self, window: Window):
        return self.keys_fn(window.n)

    def interior_keys(self, window: Window, law: str = "enumeration"):
        lo, hi = window.require_interior(law)
        bound = hi  # symmetric box
        return self.keys_fn(bound)

    def product(self, k1, k2) -> FormalVector:
        r = self.product_one(k1, k2)
        if r is None:
            return FormalVector()
        return FormalVector.single(r[1], r[0])

    def delta(self, key) -> TemplateSeries:
        """Coproduct of a single key as a genuine template series."""
        assert self.sym_co is not None
        fresh = Fresh("j")
        tpls = []
        for new_vars, poly, (pl, pr) in self.sym_co(pat_const(key), fresh):
            tpls.append(Template(tuple(new_vars), poly, (pl, pr)))
        return TemplateSeries(2, tpls)


# ---------------------------------------------------------------------------
# ats: the two-sequence pre-Lie family.


def _ats_keys(bound: int):
    out = []
    for i in range(-bound, bound + 1):
        out.append(tee(i))
    for i in range(-bound, bound + 1):
        out.append(ess(i))
    return out


def a_ts_product(k1, k2):
    """Single-term product; returns (coeff, key) or None."""
    t1, i = k1[0], k1[1]
    t2, j = k2[0], k2[1]
    if t1 == "Tee" and t2 == "Tee":
        if j == 0:
            return None
        return (Fraction(j), tee(i + j - 1))
    if t1 == "Tee" and t2 == "Ess":
        c = 2 * i + j - 1
        if c == 0:
            return None
        return (Fraction(c), ess(i + j - 1))
    if t1 == "Ess" and t2 == "Tee":
        if j == 0:
            return None
        return (Fraction(j), ess(i + j - 1))
    return None


def sym_ats_product(p1, p2):
    t1, a = p1[0], p1[1]
    t2, b = p2[0], p2[1]
    if t1 == "Tee" and t2 == "Tee":
        return [(Poly.of(b), pat_tee(a + b - 1))]
    if t1 == "Tee" and t2 == "Ess":
        return [(Poly.of(2 * a + b - 1), pat_ess(a + b - 1))]
    if t1 == "Ess" and t2 == "Tee":
        return [(Poly.of(b), pat_ess(a + b - 1))]
    return []


def omega_a(k1, k2) -> Fraction:
    t1, i = k1[0], k1[1]
    t2, j = k2[0], k2[1]
    if t1 == "Ess" and t2 == "Tee":
        return ONE if i + j == 0 else ZERO
    if t1 == "Tee" and t2 == "Ess":
        return -ONE if i + j == 0 else ZERO
    return ZERO


def _omega_partners(key):
    tag, i = key[0], key[1]
    if tag == "Ess":
        return [(tee(-i), ONE)]
    return [(ess(-i), -ONE)]


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


def _ats_dual_pairs(fresh: Fresh):
    """Pairs (e, f) with form(f, e) = 1, summed over the whole basis."""
    i = fresh()
    return [
        ((i,), pat_tee(av(i)), pat_ess(-av(i)), Poly.const(1)),
        ((i,), pat_ess(av(i)), pat_tee(-av(i)), Poly.const(-1)),
    ]


def ats_family() -> GradedFamily:
    return GradedFamily(
        name="ats",
        kind="PreLie",
        keys_fn=_ats_keys,
        product_one=a_ts_product,
        sym_product=sym_ats_product,
        form=omega_a,
        form_m=-2,
        form_partners=_omega_partners,
        sym_co=delta_a_sym,
        dual_pairs=_ats_dual_pairs,
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


def perm_p_product(k1, k2):
    _, i1, i2, s = k1
    _, j1, j2, t = k2
    if s == 1:
        return (ONE, mono(i1 + j1 + 1, i2 + j2, t))
    return (ONE, mono(i1 + j1, i2 + j2 + 1, t))


def sym_perm_p_product(p1, p2):
    _, a1, a2, s = p1
    _, b1, b2, t = p2
    if s == 1:
        return [(Poly.const(1), pat_mono(a1 + b1 + 1, a2 + b2, t))]
    return [(Poly.const(1), pat_mono(a1 + b1, a2 + b2 + 1, t))]


def kappa_p(k1, k2) -> Fraction:
    _, i1, i2, s = k1
    _, j1, j2, t = k2
    if i1 + j1 != 0 or i2 + j2 != 0:
        return ZERO
    if s == 2 and t == 1:
        return ONE
    if s == 1 and t == 2:
        return -ONE
    return ZERO


def _kappa_partners(key):
    _, i1, i2, s = key
    if s == 1:
        return [(mono(-i1, -i2, 2), -ONE)]
    return [(mono(-i1, -i2, 1), ONE)]


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


def _kappa_dual_pairs(fresh: Fresh):
    m, n = fresh(), fresh()
    a, b = av(m), av(n)
    return [
        ((m, n), pat_mono(a, b, 1), pat_mono(-a, -b, 2), Poly.const(1)),
        ((m, n), pat_mono(a, b, 2), pat_mono(-a, -b, 1), Poly.const(-1)),
    ]


def perm_p_family() -> GradedFamily:
    return GradedFamily(
        name="permP",
        kind="Perm",
        keys_fn=_perm_p_keys,
        product_one=perm_p_product,
        sym_product=sym_perm_p_product,
        form=kappa_p,
        form_m=2,
        form_partners=_kappa_partners,
        sym_co=delta_p_sym,
        dual_pairs=_kappa_dual_pairs,
    )


def delta_p_family(key) -> TemplateSeries:
    return perm_p_family().delta(key)


# ---------------------------------------------------------------------------
# wn: derivation pre-Lie families.


def _wn_keys_fn(n: int):
    def keys(bound: int):
        ranges = [range(-bound, bound + 1)] * n
        out = []

        def rec(prefix):
            if len(prefix) == n:
                for d in range(1, n + 1):
                    out.append(wn(prefix, d))
                return
            for e in ranges[len(prefix)]:
                rec(prefix + (e,))

        rec(())
        return out

    return keys


def wn_product(k1, k2):
    """u d_i * v d_j = u (d_i v) d_j, a single term or zero."""
    _, u, i = k1
    _, v, j = k2
    c = v[i - 1]
    if c == 0:
        return None
    exps = list(u)
    for t in range(len(u)):
        exps[t] += v[t]
    exps[i - 1] -= 1
    return (Fraction(c), wn(exps, j))


def sym_wn_product(p1, p2):
    _, u, i = p1
    _, v, j = p2
    exps = [a + b for a, b in zip(u, v)]
    exps[i - 1] = exps[i - 1] - 1
    return [(Poly.of(v[i - 1]), pat_wn(exps, j))]


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
        product_one=wn_product,
        sym_product=sym_wn_product,
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


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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

    def key(self, i: int):
        return fin(self.space, i)

    def basis_keys(self):
        return [fin(self.space, i) for i in range(self.dim)]

    def product(self, k1, k2) -> FormalVector:
        out = FormalVector()
        for k, c in self.mul.get((k1[2], k2[2]), ()):
            out.add_term(fin(self.space, k), c)
        return out

    def sym_product(self, p1, p2):
        assert p1[0] == "Fin" and p2[0] == "Fin"
        return [
            (Poly.const(c), pat_fin(self.space, k))
            for k, c in self.mul.get((p1[2], p2[2]), ())
        ]

    def delta_terms(self, idx: int):
        if not self.delta:
            return ()
        return tuple(self.delta.get(idx, ()))

    def sym_delta(self, p, fresh: Fresh):
        assert p[0] == "Fin"
        return [
            ((), Poly.const(c), (pat_fin(self.space, i), pat_fin(self.space, j)))
            for i, j, c in self.delta_terms(p[2])
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


@dataclass(frozen=True)
class Representation:
    """Module with exact action matrices l(e_i), r(e_i)."""

    alg_id: str
    module_dim: int
    l: tuple  # tuple of matrices, one per algebra basis index
    r: tuple


def adjoint_representation(alg: FiniteAlgebra) -> Representation:
    return Representation(
        alg_id=alg.id,
        module_dim=alg.dim,
        l=tuple(alg.left_matrix(i) for i in range(alg.dim)),
        r=tuple(alg.right_matrix(i) for i in range(alg.dim)),
    )


@dataclass(frozen=True)
class TensorElement:
    """Finite 2-tensor: terms (key_left, key_right, coeff)."""

    terms: tuple

    @staticmethod
    def of(terms) -> "TensorElement":
        acc = {}
        for kl, kr, c in terms:
            key = (kl, kr)
            acc[key] = acc.get(key, ZERO) + Fraction(c)
        return TensorElement(
            tuple((kl, kr, c) for (kl, kr), c in sorted(acc.items()) if c)
        )

    def flip(self) -> "TensorElement":
        return TensorElement.of((kr, kl, c) for kl, kr, c in self.terms)

    def __add__(self, other):
        return TensorElement.of(self.terms + other.terms)

    def __sub__(self, other):
        return TensorElement.of(
            self.terms + tuple((kl, kr, -c) for kl, kr, c in other.terms)
        )

    def is_zero(self) -> bool:
        return not self.terms

    def is_symmetric(self) -> bool:
        return (self - self.flip()).is_zero()

    def series(self) -> TemplateSeries:
        return TemplateSeries.from_terms(
            2, (((kl, kr), c) for kl, kr, c in self.terms)
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
    """Exact inverse of a small square matrix; None if singular."""
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, n):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    return tuple(tuple(row[n:]) for row in aug)


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


def random_invertible(rng, dim: int):
    while True:
        s = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(dim)
        )
        if mat_inv(s) is not None:
            return s


def conjugated_table(mul: dict, s, dim: int) -> dict:
    """Transport a product table through the basis change e'_j = sum_a s[a][j] e_a."""
    sinv = mat_inv(s)
    assert sinv is not None
    out: dict = {}
    for i in range(dim):
        for j in range(dim):
            acc = [ZERO] * dim
            for a in range(dim):
                if not s[a][i]:
                    continue
                for b in range(dim):
                    f = s[a][i] * s[b][j]
                    if not f:
                        continue
                    for m, c in mul.get((a, b), ()):
                        for k in range(dim):
                            acc[k] += sinv[k][m] * f * c
            terms = tuple((k, v) for k, v in enumerate(acc) if v)
            if terms:
                out[(i, j)] = terms
    return out


def tensor_catalog() -> dict:
    """Named finite 2-tensors over catalog algebras: id -> (alg id, tensor)."""
    cat = finite_catalog()
    out = {}
    sd2 = cat["ex-sd2"]
    out["r-sd2"] = (
        "ex-sd2",
        TensorElement.of(
            [(sd2.key(0), sd2.key(1), ONE), (sd2.key(1), sd2.key(0), ONE)]
        ),
    )
    p1 = cat["ex-1p"]
    out["r-1p"] = ("ex-1p", TensorElement.of([(p1.key(0), p1.key(0), ONE)]))
    n2 = cat["ex-nilp2"]
    out["r-nilp2"] = ("ex-nilp2", TensorElement.of([(n2.key(0), n2.key(0), ONE)]))
    pl2 = cat["ex-prelie-n2"]
    out["r-prelie-n2"] = (
        "ex-prelie-n2",
        TensorElement.of([(pl2.key(0), pl2.key(0), ONE)]),
    )
    return out
