"""Exact-arithmetic foundation: basis keys, formal vectors, index polynomials,
affine key patterns, and template series.

A template series is a finite list of summation templates, each carrying free
integer variables, a polynomial coefficient in those variables, and a tuple of
key patterns whose integer slots are affine expressions in the same variables.
A template is well-posed when its variables are the only ones it mentions and
its slots have full rank in them: then every concrete key tuple matches
finitely many assignments (at most one), so pointwise coefficients of elements
of completed tensor products are exact finite rational sums.  Box support is
read through one canonical form per template, over the coset of its free-slot
values given by a Hermite normal form.  Windows select which keys get probed;
they never truncate anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from typing import Iterable, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


class IllPosedTemplateError(ValueError):
    """A template admits infinitely many matches for some key tuple: it
    mentions a variable it does not sum over (a stray variable), or its slots
    have rank below its number of variables."""


class InsufficientWindowError(ValueError):
    """The requested margin leaves no interior keys to check."""

    def __init__(self, law: str, n: int, margin: int):
        super().__init__(f"window N={n} too small for law {law} (margin {margin})")
        self.law = law
        self.n = n
        self.margin = margin


# ---------------------------------------------------------------------------
# Basis keys.  Plain tuples with a leading tag keep hashing cheap and give a
# total order via tuple comparison (tags are compared first, and two keys with
# the same tag always have the same shape).


def tee(i: int):
    return ("Tee", i)


def ess(i: int):
    return ("Ess", i)


def mono(i1: int, i2: int, d: int):
    if d not in (1, 2):
        raise ValueError(f"Mono derivation must be 1 or 2, not {d!r}")
    return ("Mono", i1, i2, d)


def wn(exps, d: int):
    exps = tuple(exps)
    if not 1 <= d <= len(exps):
        raise ValueError(f"Wn derivation must be in 1..{len(exps)}, not {d!r}")
    return ("Wn", exps, d)


def fin(space: str, idx: int):
    return ("Fin", space, idx)


def pair(left, right):
    return ("Pair", left, right)


def key_degree(key) -> int:
    """Frozen grading constants for every key family."""
    tag = key[0]
    if tag == "Tee" or tag == "Ess":
        return key[1] - 1
    if tag == "Mono":
        return key[1] + key[2] + 1
    if tag == "Wn":
        return sum(key[1]) - 1
    if tag == "Fin":
        return 0
    if tag == "Pair":
        return key_degree(key[1]) + key_degree(key[2])
    raise ValueError(f"unknown key {key!r}")


def key_slots(key) -> tuple:
    """All integer index slots of a key (or the Aff slots of a pattern), in
    canonical order."""
    tag = key[0]
    if tag == "Tee" or tag == "Ess":
        return (key[1],)
    if tag == "Mono":
        return (key[1], key[2])
    if tag == "Wn":
        return key[1]
    if tag == "Fin":
        return ()
    if tag == "Pair":
        return key_slots(key[1]) + key_slots(key[2])
    raise ValueError(f"unknown key {key!r}")


def key_shape(key) -> tuple:
    """Everything about a key (or a pattern) except its integer slots."""
    tag = key[0]
    if tag == "Tee" or tag == "Ess":
        return (tag,)
    if tag == "Mono":
        return (tag, key[3])
    if tag == "Wn":
        return (tag, len(key[1]), key[2])
    if tag == "Fin":
        return key
    if tag == "Pair":
        return (tag, key_shape(key[1]), key_shape(key[2]))
    raise ValueError(f"unknown key {key!r}")


def key_str(key) -> str:
    """A key, or a pattern with its Aff slots, as text."""
    tag = key[0]
    if tag == "Tee":
        return f"t^{key[1]}"
    if tag == "Ess":
        return f"s^{key[1]}"
    if tag == "Mono":
        return f"x1^{key[1]}x2^{key[2]}d{key[3]}"
    if tag == "Wn":
        body = "".join(f"x{k+1}^{e}" for k, e in enumerate(key[1]))
        return f"{body}d{key[2]}"
    if tag == "Fin":
        return f"{key[1]}[{key[2]}]"
    if tag == "Pair":
        return f"({key_str(key[1])})({key_str(key[2])})"
    return repr(key)


# ---------------------------------------------------------------------------
# Formal vectors: finite rational linear combinations of keys, as
# {key: Fraction} dicts with no zero entries.


def add_term(vec: dict, key, coeff) -> None:
    """Add coeff * key to the vector vec, a {key: Fraction} dict, in place.
    A zero coeff is skipped, a new entry is stored as Fraction(coeff), and
    an entry that cancels is deleted, so vec never holds a zero."""
    if not coeff:
        return
    cur = vec.get(key)
    if cur is None:
        vec[key] = Fraction(coeff)
    else:
        cur = cur + coeff
        if cur:
            vec[key] = cur
        else:
            del vec[key]


# ---------------------------------------------------------------------------
# Affine integer expressions in named variables: const + sum coeff*var.


@dataclass(frozen=True)
class Aff:
    const: int = 0
    terms: tuple = ()  # sorted tuple of (var, nonzero int coeff)

    @staticmethod
    def of(x) -> "Aff":
        if isinstance(x, Aff):
            return x
        if isinstance(x, int):
            return Aff(x, ())
        if isinstance(x, str):
            return Aff(0, ((x, 1),))
        raise TypeError(f"cannot make Aff from {x!r}")

    @staticmethod
    def _norm(const: int, acc: dict) -> "Aff":
        return Aff(const, tuple(sorted((v, c) for v, c in acc.items() if c)))

    def __add__(self, other):
        other = Aff.of(other)
        acc = dict(self.terms)
        for v, c in other.terms:
            acc[v] = acc.get(v, 0) + c
        return Aff._norm(self.const + other.const, acc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Aff(-self.const, tuple((v, -c) for v, c in self.terms))

    def __sub__(self, other):
        return self + (-Aff.of(other))

    def __rsub__(self, other):
        return Aff.of(other) + (-self)

    # A pattern slot stands for every integer at once, so whether it equals
    # or is truthy like an int has no single answer: a rule that branches so
    # raises TypeError on a pattern, as it does for < and >.
    def __eq__(self, other):
        if other.__class__ is Aff:
            return self.const == other.const and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            raise TypeError(f"cannot compare the pattern slot {self} with {other!r}")
        return NotImplemented

    def __bool__(self):
        raise TypeError(f"the pattern slot {self} has no truth value")

    def __mul__(self, k: int):
        if k == 0:
            return Aff(0, ())
        return Aff(self.const * k, tuple((v, c * k) for v, c in self.terms))

    __rmul__ = __mul__

    def eval(self, env: dict) -> int:
        return self.const + sum(c * env[v] for v, c in self.terms)

    def subst(self, env: dict) -> "Aff":
        out = Aff(self.const, ())
        for v, c in self.terms:
            out = out + (env[v] * c if v in env else Aff(0, ((v, c),)))
        return out

    def __str__(self):
        if not self.terms:
            return str(self.const)
        parts = []
        for v, c in self.terms:
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}{v}")
        s = "+".join(parts).replace("+-", "-")
        if self.const:
            s += f"{self.const:+d}"
        return s


def av(name: str) -> Aff:
    return Aff.of(name)


# ---------------------------------------------------------------------------
# Polynomials with rational coefficients in named integer variables.
# Monomials are sorted tuples of (var, exponent).


@dataclass(frozen=True)
class Poly:
    m: tuple = ()  # sorted tuple of (monomial, Fraction) with nonzero coeffs

    @staticmethod
    def _norm(acc: dict) -> "Poly":
        return Poly(tuple(sorted((mo, co) for mo, co in acc.items() if co)))

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly((((), c),)) if c else Poly()

    @staticmethod
    def var(v: str) -> "Poly":
        return Poly(((((v, 1),), ONE),))

    @staticmethod
    def of(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, Aff):
            acc = {(): Fraction(x.const)}
            for v, c in x.terms:
                acc[((v, 1),)] = Fraction(c)
            return Poly._norm(acc)
        if isinstance(x, str):
            return Poly.var(x)
        return Poly.const(x)

    def __add__(self, other):
        other = Poly.of(other)
        acc = dict(self.m)
        for mo, co in other.m:
            acc[mo] = acc.get(mo, ZERO) + co
        return Poly._norm(acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple((mo, -co) for mo, co in self.m))

    def __sub__(self, other):
        return self + (-Poly.of(other))

    def __rsub__(self, other):
        return Poly.of(other) + (-self)

    def __mul__(self, other):
        other = Poly.of(other)
        # A nonzero constant on either side only scales the other's coefficients.
        for a, b in ((self, other), (other, self)):
            if len(b.m) == 1 and not b.m[0][0]:
                c = b.m[0][1]
                return a if c == 1 else Poly(tuple((mo, co * c) for mo, co in a.m))
        acc = {}
        for mo1, co1 in self.m:
            for mo2, co2 in other.m:
                ex = dict(mo1)
                for v, e in mo2:
                    ex[v] = ex.get(v, 0) + e
                mo = tuple(sorted(ex.items()))
                acc[mo] = acc.get(mo, ZERO) + co1 * co2
        return Poly._norm(acc)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.m

    def eval(self, env: dict) -> Fraction:
        total = ZERO
        for mo, co in self.m:
            term = co
            for v, e in mo:
                term *= Fraction(env[v]) ** e
            total += term
        return total

    def vars(self):
        out = set()
        for mo, _ in self.m:
            out.update(v for v, _ in mo)
        return out

    def __str__(self):
        if not self.m:
            return "0"
        parts = []
        for mo, co in self.m:
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mo)
            if not body:
                parts.append(str(co))
            elif co == 1:
                parts.append(body)
            elif co == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{co}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Key patterns: keys whose integer slots are Aff expressions.  A Fin key has
# no slots, so fin and pair build Fin and Pair patterns as they build keys.


def pat_tee(i):
    return ("Tee", Aff.of(i))


def pat_ess(i):
    return ("Ess", Aff.of(i))


def pat_mono(i1, i2, d: int):
    return ("Mono", Aff.of(i1), Aff.of(i2), d)


def pat_wn(exps, d: int):
    return ("Wn", tuple(Aff.of(e) for e in exps), d)


def with_slots(key, slots):
    """The key or pattern of key's shape whose integer slots, in key_slots
    order, are the given ints or Aff expressions."""
    return _slot_reader(key, 0)[0](list(slots))


def _slot_reader(p, pos: int):
    """(vals -> the key of p's shape whose slots, in key_slots order, are
    vals[pos], vals[pos + 1], ...; the position after them)."""
    tag = p[0]
    if tag == "Tee" or tag == "Ess":
        return (lambda vals: (tag, vals[pos])), pos + 1
    if tag == "Mono":
        d = p[3]
        return (lambda vals: ("Mono", vals[pos], vals[pos + 1], d)), pos + 2
    if tag == "Wn":
        end, d = pos + len(p[1]), p[2]
        return (lambda vals: ("Wn", tuple(vals[pos:end]), d)), end
    if tag == "Fin":
        return (lambda vals: p), pos
    if tag == "Pair":
        left, mid = _slot_reader(p[1], pos)
        right, end = _slot_reader(p[2], mid)
        return (lambda vals: ("Pair", left(vals), right(vals))), end
    raise ValueError(f"unknown key {p!r}")


def pat_const(key):
    """Pattern with constant slots matching exactly one key."""
    return with_slots(key, map(Aff.of, key_slots(key)))


def pat_subst(p, env: dict):
    return with_slots(p, [a.subst(env) for a in key_slots(p)])


def poly_rename(poly: Poly, ren: dict) -> Poly:
    acc = {}
    for mo, co in poly.m:
        nm = tuple(sorted((ren.get(v, v), e) for v, e in mo))
        acc[nm] = acc.get(nm, ZERO) + co
    return Poly._norm(acc)


def poly_subst(poly: Poly, env: dict) -> Poly:
    """poly with each variable named in env replaced by its Aff value."""
    out = Poly()
    for mo, co in poly.m:
        term = Poly.const(co)
        for v, e in mo:
            for _ in range(e):
                term = term * Poly.of(env.get(v, v))
        out = out + term
    return out


def pat_rename(p, ren: dict):
    env = {old: av(new) for old, new in ren.items()}
    return pat_subst(p, env)


class Fresh:
    """Deterministic fresh-variable factory for template composition."""

    def __init__(self, prefix: str = "j"):
        self.prefix = prefix
        self.n = 0

    def __call__(self) -> str:
        self.n += 1
        return f"{self.prefix}{self.n}"


# ---------------------------------------------------------------------------
# Templates and template series.


@dataclass(frozen=True)
class Template:
    vars: tuple  # tuple of variable names
    coeff: Poly
    keys: tuple  # tuple of patterns

    def arity(self) -> int:
        return len(self.keys)


def _solve_affine(rows, nvars):
    """Exact solve of rows [(coeff list, rhs)] in nvars unknowns.

    Returns ("many", None) if the rows have rank below nvars, consistent or
    not, so a rank-deficient template is refused at every key; else
    ("none", None) if inconsistent, ("one", values) for the unique rational
    solution (values may be non-integral; caller checks).  The augmented rows
    {j: a_j, nvars: -rhs} are reduced by sparse_rref, so the solution is
    x_j = -(column nvars of the row with pivot j).
    """
    basis = sparse_rref(
        {j: c for j, c in enumerate(coeffs + [-rhs]) if c} for coeffs, rhs in rows
    )
    if sum(j < nvars for j in basis) < nvars:
        return ("many", None)
    if nvars in basis:
        return ("none", None)
    return ("one", [-basis[j].get(nvars, ZERO) for j in range(nvars)])


class TemplateSeries:
    """Finite rational combination of summation templates of one arity."""

    __slots__ = ("arity", "templates", "_forms")

    def __init__(self, arity: int, templates: Iterable[Template] = ()):
        self.arity = arity
        self.templates = tuple(t for t in templates if not t.coeff.is_zero())
        self._forms = None  # _merged_forms(templates), which collapsed() keeps for the box walk
        if any(len(t.keys) != arity for t in self.templates):
            raise ValueError(f"a template of a series of arity {arity} has another arity")

    @staticmethod
    def zero(arity: int) -> "TemplateSeries":
        return TemplateSeries(arity, ())

    @staticmethod
    def from_terms(arity: int, terms) -> "TemplateSeries":
        """Finite element: terms is iterable of (key tuple, coeff)."""
        tpls = [
            Template((), Poly.const(c), tuple(pat_const(k) for k in ks))
            for ks, c in terms
            if c
        ]
        return TemplateSeries(arity, tpls)

    def __add__(self, other: "TemplateSeries") -> "TemplateSeries":
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} and {other.arity}")
        return TemplateSeries(self.arity, self.templates + other.templates)

    def __sub__(self, other: "TemplateSeries") -> "TemplateSeries":
        return self + other.scale(-ONE)

    def scale(self, c) -> "TemplateSeries":
        c = Fraction(c)
        if not c:
            return TemplateSeries.zero(self.arity)
        return TemplateSeries(
            self.arity,
            (Template(t.vars, Poly.const(c) * t.coeff, t.keys) for t in self.templates),
        )

    def __neg__(self) -> "TemplateSeries":
        return self.scale(-ONE)

    def permuted(self, perm) -> "TemplateSeries":
        """Slot permutation: out slot i carries the old slot perm[i]."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError(f"{perm} is not a permutation of {self.arity} slots")
        return TemplateSeries(
            self.arity,
            (
                Template(t.vars, t.coeff, tuple(t.keys[perm[i]] for i in range(self.arity)))
                for t in self.templates
            ),
        )

    def flip_hat(self) -> "TemplateSeries":
        return self.permuted((1, 0))  # raises ValueError unless the arity is 2

    def coefficient_at(self, keys) -> Fraction:
        keys = tuple(keys)
        if len(keys) != self.arity:
            raise ValueError("arity mismatch")
        shapes = tuple(key_shape(k) for k in keys)
        targets = []
        for k in keys:
            targets.extend(key_slots(k))
        total = ZERO
        for t in self.templates:
            if tuple(key_shape(p) for p in t.keys) != shapes:
                continue
            nv = len(t.vars)
            vidx = {v: i for i, v in enumerate(t.vars)}
            stray = t.coeff.vars() - vidx.keys()
            if stray:
                raise IllPosedTemplateError(f"stray variable {min(stray)}")
            rows = []
            slot_i = 0
            for p in t.keys:
                for a in key_slots(p):
                    coeffs = [0] * nv
                    for v, c in a.terms:
                        if v not in vidx:
                            raise IllPosedTemplateError(f"stray variable {v}")
                        coeffs[vidx[v]] = c
                    rows.append((coeffs, targets[slot_i] - a.const))
                    slot_i += 1
            status, values = _solve_affine(rows, nv)
            if status == "none":
                continue
            if status == "many":
                raise IllPosedTemplateError(
                    f"template with variables {t.vars} matches a continuum"
                )
            env = {}
            integral = True
            for v, val in zip(t.vars, values):
                if val.denominator != 1:
                    integral = False
                    break
                env[v] = int(val)
            if not integral:
                continue
            total += t.coeff.eval(env)
        return total

    def support_in_box(self, bound: int) -> dict:
        """All key tuples with every integer slot in [-bound, bound], with the
        exact accumulated coefficient at each.  Tuples absent from the result
        have coefficient exactly zero inside the box.

        The templates are merged into canonical forms first (see collapsed),
        and only the forms that do not vanish are enumerated, as ranges of
        their last lattice variable x (see _lattice_ranges).  Along a range,
        each slot is base + step * x and the coefficient a polynomial in x,
        read by Horner; a key is built once per value of its slots (an int
        for a single slot).  A form's points have distinct key tuples, so each
        form fills a dict of its own, and the dicts are added key by key only
        where a key tuple is in two of them."""
        parts = []
        fraction = _Memo(Fraction).__getitem__  # one Fraction per int, shared
        forms = self._forms if self._forms is not None else _merged_forms(self.templates)
        for (_, rows, consts), (proto, coeff) in forms.items():
            k = len(rows[0]) if rows else 0
            steps = [row[-1] if k else 0 for row in rows]
            moves = [(s, st) for s, st in enumerate(steps) if st]
            readers, pos = [], 0  # (its slots, whether one moves with x, key getter)
            for p in proto:
                reader, n = _slot_reader(p, 0)
                at, pos = range(pos, pos + n), pos + n
                make = (lambda v, r=reader: r((v,))) if n == 1 else reader
                readers.append((at, any(steps[s] for s in at), _Memo(make).__getitem__))
            degree = max(3, 1 + max(ex[-1] for ex in coeff) if k else 1)
            powers: dict = {}  # prefix exponents -> coefficients of x^0, x^1, ...
            for ex, c in coeff.items():
                powers.setdefault(ex[:-1], [0] * degree)[ex[-1] if k else 0] += c
            powers = [
                (tuple(j for j, e in enumerate(pre) for _ in range(e)),
                 [(d, a) for d, a in enumerate(cs) if a])
                for pre, cs in powers.items()
            ]
            parts.append({})
            for u, vals, xs in _lattice_ranges(rows, consts, bound):
                cx = [0] * degree
                for pows, cs in powers:
                    m = 1
                    for j in pows:
                        m *= u[j]
                    for d, a in cs:
                        cx[d] += m * a
                if not any(cx):
                    continue
                a0, a1, a2, *high = cx
                coeffs = [(a2 * x + a1) * x + a0 for x in xs]
                for d, a in enumerate(high, 3):  # terms past x^2 are rare
                    coeffs = [c + a * x**d for c, x in zip(coeffs, xs)]
                for s, st in moves:
                    vals[s] = range(vals[s] + st * xs.start, vals[s] + st * xs.stop, st)
                cols = [
                    (map(key, vals[at.start]) if moving else repeat(key(vals[at.start])))
                    if len(at) == 1
                    else map(key, zip(*(vals[s] if steps[s] else repeat(vals[s]) for s in at)))
                    if moving
                    else repeat(key(tuple(vals[s] for s in at)))
                    for at, moving, key in readers
                ]
                keys = zip(*cols) if cols else repeat(())
                parts[-1].update(compress(zip(keys, map(fraction, coeffs)), coeffs))
        acc: dict = {}
        for part in parts:
            acc.update(part)  # reads the hashes stored in part
        if len(acc) < sum(map(len, parts)):  # a key tuple in two forms: add them
            acc = {}
            for part in parts:
                for keys, c in part.items():
                    acc[keys] = acc.get(keys, 0) + c
            acc = {keys: c for keys, c in acc.items() if c}
        return acc

    def collapsed(self) -> "TemplateSeries":
        """The same series with templates describing the same function merged.

        A template with k variables sums over the integer values f of its
        first k linearly independent slots F, one match per f; those values
        make the coset c_F + A_F Z^k.  With H the Hermite normal form of A_F
        and rho the representative of c_F reduced mod H, the template is
        rewritten over lattice variables u with f = rho + H u: its slots
        become integer-affine in u, and its coefficient p(v) is read at an
        integer-affine v(u) (see _canonical_form).
        Templates with the same slot shapes, slot rows and constants in u
        have their rewritten coefficients added; a sum that vanishes drops
        out.  A template with a stray variable or rank below k raises
        IllPosedTemplateError."""
        forms = _merged_forms(self.templates)
        out = TemplateSeries(
            self.arity,
            (
                _form_template(proto, rows, consts, coeff)
                for (_, rows, consts), (proto, coeff) in forms.items()
            ),
        )
        out._forms = forms
        return out

    def __repr__(self):
        lines = []
        for t in self.templates:
            ks = " (x) ".join(key_str(p) for p in t.keys)
            vs = ",".join(t.vars)
            lines.append(f"sum_{{{vs}}} ({t.coeff}) {ks}")
        return " + ".join(lines) if lines else "0"


def _finite_terms(series: TemplateSeries) -> tuple:
    """The sorted nonzero (key tuple, coeff) terms of a series over Fin keys.
    Fin keys have no slots, so the box of bound 0 reads the series exactly."""
    return tuple(sorted(series.support_in_box(0).items()))


@lru_cache(maxsize=4096)
def _free_slot_transform(nvars: int, rows: tuple):
    """(free slots F, U, rows of A U) for the linear part A = rows of a
    template's slots over nvars variables, or None if A has rank below nvars.

    Integer column operations, tracked in the unimodular U, bring A to its
    Hermite normal form A U (H. Cohen, A Course in Computational Algebraic
    Number Theory, 2.4.2): F is the first nvars linearly independent rows,
    and the rows F of A U make a lower-triangular H with a positive diagonal
    and every entry left of it in [0, H_ii).  H depends only on the lattice
    A_F Z^k, so templates summing over the same lattice get the same H."""
    m = len(rows)
    cols = [
        [row[j] for row in rows] + [int(i == j) for i in range(nvars)]
        for j in range(nvars)
    ]
    free = []
    for s in range(m):
        p = len(free)
        if p == nvars:
            break
        for j in range(p + 1, nvars):
            while cols[j][s]:
                q = cols[p][s] // cols[j][s]
                cols[p] = [x - q * y for x, y in zip(cols[p], cols[j])]
                cols[p], cols[j] = cols[j], cols[p]
        if not cols[p][s]:
            continue
        if cols[p][s] < 0:
            cols[p] = [-x for x in cols[p]]
        for j in range(p):
            q = cols[j][s] // cols[p][s]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[p])]
        free.append(s)
    if len(free) < nvars:
        return None
    unimodular = tuple(tuple(col[m + i] for col in cols) for i in range(nvars))
    lattice_rows = tuple(tuple(col[s] for col in cols) for s in range(m))
    return tuple(free), unimodular, lattice_rows


def _canonical_form(t: Template):
    """((slot shapes, slot rows in u, slot constants), coefficient as
    {exponents in u: coeff}) for a template; see TemplateSeries.collapsed.

    With U and F from _free_slot_transform, v = U w sends the integer w to
    the template's points one to one, with slots A U w + c.  Shifting w by
    the integer t that reduces the free slots' constants mod H gives u = w - t,
    slots A U u + (c + A U t) and coefficient p(U u + U t).  Raises
    IllPosedTemplateError for a stray variable or rank below k: both make
    some key tuple match infinitely many points."""
    vpos = {v: i for i, v in enumerate(t.vars)}
    nv = len(t.vars)
    rows = []
    consts = []
    for p in t.keys:
        for a in key_slots(p):
            row = [0] * nv
            for v, c in a.terms:
                i = vpos.get(v)
                if i is None:
                    raise IllPosedTemplateError(f"stray variable {v}")
                row[i] = c
            rows.append(tuple(row))
            consts.append(a.const)
    transform = _free_slot_transform(nv, tuple(rows))
    if transform is None:
        raise IllPosedTemplateError(
            f"slots of the template with variables {t.vars} have rank below {nv}"
        )
    free, unimodular, lattice_rows = transform
    shift = []
    for i, s in enumerate(free):
        q = -(consts[s] // lattice_rows[s][i])
        shift.append(q)
        if q:
            consts = [c + q * row[i] for c, row in zip(consts, lattice_rows)]
    # v = U (u + t), one affine form in u per variable
    sub = [(sum(a * x for a, x in zip(row, shift)), row) for row in unimodular]
    one = (0,) * nv
    coeff: dict = {}
    for mo, co in t.coeff.m:
        terms = {one: co.numerator if co.denominator == 1 else co}
        for v, e in mo:
            i = vpos.get(v)
            if i is None:
                raise IllPosedTemplateError(f"stray variable {v}")
            const, lin = sub[i]
            for _ in range(e):
                nxt: dict = {}
                for ex, c in terms.items():
                    if const:
                        nxt[ex] = nxt.get(ex, 0) + c * const
                    for j, a in enumerate(lin):
                        if a:
                            ex2 = ex[:j] + (ex[j] + 1,) + ex[j + 1 :]
                            nxt[ex2] = nxt.get(ex2, 0) + c * a
                terms = nxt
        for ex, c in terms.items():
            coeff[ex] = coeff.get(ex, 0) + c
    shapes = tuple(key_shape(p) for p in t.keys)
    return (shapes, lattice_rows, tuple(consts)), coeff


def _merged_forms(templates) -> dict:
    """{canonical key: (one template's patterns, coefficient)} over the
    templates, with the coefficients of equal keys added and the forms whose
    coefficient vanishes left out."""
    forms: dict = {}
    for t in templates:
        key, coeff = _canonical_form(t)
        cur = forms.get(key)
        if cur is None:
            forms[key] = (t.keys, coeff)
            continue
        total = cur[1]
        for ex, c in coeff.items():
            total[ex] = total.get(ex, 0) + c
    merged = {}
    for key, (proto, coeff) in forms.items():
        coeff = {ex: c for ex, c in coeff.items() if c}
        if coeff:
            merged[key] = (proto, coeff)
    return merged


def _form_template(proto, rows, consts, coeff):
    """The template over variables u0, u1, ... with slots rows * u + consts
    on the shapes of the patterns proto."""
    names = tuple(f"u{j}" for j in range(len(rows[0]) if rows else 0))
    poly = Poly._norm(
        {
            tuple(sorted((names[j], e) for j, e in enumerate(ex) if e)): Fraction(c)
            for ex, c in coeff.items()
        }
    )
    slots = iter(
        Aff(c, tuple(sorted((names[j], a) for j, a in enumerate(row) if a)))
        for row, c in zip(rows, consts)
    )
    keys = tuple(with_slots(p, [next(slots) for _ in key_slots(p)]) for p in proto)
    return Template(names, poly, keys)


class _Memo(dict):
    """{v: make(v)}, filled on a miss."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, v):
        out = self[v] = self.make(v)
        return out


def _lattice_ranges(rows, consts, bound: int) -> list:
    """[(u_0..u_{k-2}, each slot's value at u_{k-1} = 0, the range of
    u_{k-1})] over the integer u putting each slot rows * u + consts in
    [-bound, bound], leaving out empty ranges; a form with no variables has
    one point, with the range range(1).

    Rows in Hermite normal form (see _free_slot_transform) give each u_i a
    first slot, in F, that involves u_0..u_i only, with a positive
    coefficient on u_i.  So fixing u_0, u_1, ... in order, u_i ranges over
    the bounds of the slots whose last variable is u_i, and every slot is
    checked exactly once."""
    cols = list(zip(*rows)) or [(0,) * len(rows)]  # each variable's slot coefficients
    cuts = [[] for _ in cols]
    for s, row in enumerate(rows):
        nonzero = [j for j, a in enumerate(row) if a]
        if nonzero:
            cuts[nonzero[-1]].append(s)
        elif not -bound <= consts[s] <= bound:
            return []
    points = [((), list(consts))]
    for cut, col in zip(cuts[:-1], cols):
        points = [
            (u + (x,), [b + a * x for b, a in zip(vals, col)])
            for u, vals in points
            for x in _cut_range(cut, col, vals, bound)
        ]
    last = [(u, vals, _cut_range(cuts[-1], cols[-1], vals, bound)) for u, vals in points]
    return [point for point in last if point[2]]


def _cut_range(cut, col, vals, bound: int) -> range:
    """The integers x putting each slot vals[s] + col[s] * x, s in cut, in
    [-bound, bound]; just 0 when cut is empty.  A negative col[s] swaps the
    ends of the box."""
    lo, hi = [], []
    for s in cut:
        e = bound if col[s] > 0 else -bound
        lo.append(-((e + vals[s]) // col[s]))
        hi.append((e - vals[s]) // col[s])
    return range(max(lo, default=0), min(hi, default=0) + 1)


# ---------------------------------------------------------------------------
# Symbolic composition.  A symbolic product rule maps two patterns to a list
# of (Poly, pattern) branches; a symbolic coproduct maps (pattern, fresh) to a
# list of (new vars, Poly, (pattern, pattern)) branches.


def coproduct_at(sym_co, key) -> TemplateSeries:
    """A symbolic coproduct read at one key: its branches at pat_const(key)."""
    return TemplateSeries(
        2,
        (
            Template(tuple(new_vars), poly, pats)
            for new_vars, poly, pats in sym_co(pat_const(key), Fresh("j"))
        ),
    )


def expand_slot(series: TemplateSeries, idx: int, sym_co, fresh: Fresh) -> TemplateSeries:
    """Replace slot idx by the two slots of a symbolic coproduct."""
    out = []
    for t in series.templates:
        for new_vars, poly, (pl, pr) in sym_co(t.keys[idx], fresh):
            keys = t.keys[:idx] + (pl, pr) + t.keys[idx + 1 :]
            out.append(Template(t.vars + tuple(new_vars), t.coeff * poly, keys))
    return TemplateSeries(series.arity + 1, out)


def apply_product_slot(
    series: TemplateSeries, idx: int, sym_prod, const_pat, side: str
) -> TemplateSeries:
    """Multiply slot idx by a fixed pattern on the given side."""
    out = []
    for t in series.templates:
        args = (const_pat, t.keys[idx]) if side == "left" else (t.keys[idx], const_pat)
        for poly, p in sym_prod(*args):
            keys = t.keys[:idx] + (p,) + t.keys[idx + 1 :]
            out.append(Template(t.vars, t.coeff * poly, keys))
    return TemplateSeries(series.arity, out)


def _rename_apart(t: Template, fresh: Fresh) -> Template:
    if not t.vars:
        return t
    ren = {v: fresh() for v in t.vars}
    return Template(
        tuple(ren[v] for v in t.vars),
        poly_rename(t.coeff, ren),
        tuple(pat_rename(p, ren) for p in t.keys),
    )


def place_product(
    a: TemplateSeries,
    b: TemplateSeries,
    legs_a: tuple,
    legs_b: tuple,
    sym_prod,
    fresh: Optional[Fresh] = None,
) -> TemplateSeries:
    """The leg-placement product for Yang-Baxter style expressions.

    Factor a sits on legs legs_a, factor b on legs_b (1-based, each of the
    factor's arity) of a 3-tensor.  A leg occupied by both factors carries
    the product (a component) * (b component); a leg occupied by one factor
    carries that component; every leg must be covered.
    """
    if (len(legs_a), len(legs_b), {*legs_a, *legs_b}) != (a.arity, b.arity, {1, 2, 3}):
        raise ValueError(f"legs {legs_a} {legs_b} do not fit arities {a.arity}, {b.arity}")
    fresh = fresh or Fresh("q")
    out = []
    for ta in a.templates:
        for tb0 in b.templates:
            tb = _rename_apart(tb0, fresh)
            slot_of_a = {leg: ta.keys[i] for i, leg in enumerate(legs_a)}
            slot_of_b = {leg: tb.keys[i] for i, leg in enumerate(legs_b)}
            base_vars = ta.vars + tb.vars
            base_coeff = ta.coeff * tb.coeff
            branches = [(Poly.const(1), ())]  # (coefficient, keys of legs so far)
            for leg in (1, 2, 3):
                if leg in slot_of_a and leg in slot_of_b:
                    prods = sym_prod(slot_of_a[leg], slot_of_b[leg])
                    branches = [(bc * poly, bk + (p,)) for bc, bk in branches for poly, p in prods]
                else:
                    p = slot_of_a[leg] if leg in slot_of_a else slot_of_b[leg]
                    branches = [(bc, bk + (p,)) for bc, bk in branches]
            out.extend(Template(base_vars, base_coeff * bc, bk) for bc, bk in branches)
    return TemplateSeries(3, out)


# ---------------------------------------------------------------------------
# Windows and reports.


@dataclass(frozen=True)
class Window:
    n: int
    margin: int = 0

    def interior_range(self):
        lo, hi = -self.n + self.margin, self.n - self.margin
        if lo > hi:
            return None
        return (lo, hi)

    def require_interior(self, law: str):
        r = self.interior_range()
        if r is None:
            raise InsufficientWindowError(law, self.n, self.margin)
        return r


@dataclass
class CheckReport:
    law: str
    passed: bool
    n: int
    margin: int
    checked: int
    violations: list = field(default_factory=list)  # (label, key tuple, residual)
    extra: dict = field(default_factory=dict)

    @staticmethod
    def build(law: str, window: Window, checked: int, violations, extra=None) -> "CheckReport":
        violations = sorted(violations, key=lambda v: (v[0], v[1]))
        return CheckReport(
            law=law,
            passed=not violations,
            n=window.n,
            margin=window.margin,
            checked=checked,
            violations=violations,
            extra=dict(extra or {}),
        )

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return f"{self.law}: {state} [N={self.n}, margin={self.margin}, checked={self.checked}]"


# ---------------------------------------------------------------------------
# Exact sparse row reduction, the one elimination over Fractions: used by the
# windowed invariant-form search, the degeneracy checks, coefficient_at's
# affine solve and families.mat_inv.


def sparse_rref(rows: Iterable[dict]) -> dict:
    """Reduce sparse rows {col: Fraction} to reduced echelon form.

    Returns {pivot col: row dict} with each row normalized to pivot 1 and
    fully reduced against the others, so no basis row mentions another
    row's pivot column.

    A basis row that is just {pivot: 1} stays so (later pivots are free
    columns of no such row), so a row whose columns are all such pivots
    reduces to zero and is skipped unread.
    """
    basis: dict = {}
    single: set = set()  # the pivots whose basis row is {pivot: 1}
    for row in rows:
        if single.issuperset(row):
            continue
        row = dict(row)
        # Basis rows carry only their own pivot plus free columns, so one
        # sweep over the pivots present cannot reintroduce any of them.
        hits = [c for c in row if c in basis]
        for c in hits:
            f = row.pop(c)
            for c2, v in basis[c].items():
                if c2 == c:
                    continue
                cur = row.get(c2, ZERO) - f * v
                if cur:
                    row[c2] = cur
                else:
                    row.pop(c2, None)
        if not row:
            continue
        lead = min(row)
        inv = ONE / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for lead2, row2 in basis.items():
            f = row2.get(lead)
            if f:
                row2.pop(lead)
                for c, v in row.items():
                    if c == lead:
                        continue
                    cur = row2.get(c, ZERO) - f * v
                    if cur:
                        row2[c] = cur
                    else:
                        row2.pop(c, None)
                if len(row2) == 1:
                    single.add(lead2)
        basis[lead] = row
        if len(row) == 1:
            single.add(lead)
    return basis


def forced_zero_columns(basis: dict) -> set:
    """Columns that vanish in every solution of the homogeneous system."""
    return {lead for lead, row in basis.items() if len(row) == 1}
