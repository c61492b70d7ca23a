"""Exact-arithmetic foundation: basis keys, formal vectors, index polynomials,
affine key patterns, and template series.

A template series is a finite list of summation templates, each carrying free
integer variables, a polynomial coefficient in those variables, and a tuple of
key patterns whose integer slots are affine expressions in the same variables.
For every concrete key tuple the matching assignments form a finite set (the
affine system per template has full column rank), so pointwise coefficients of
elements of completed tensor products are exact finite rational sums.  Windows
select which keys get probed; they never truncate anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class IllPosedTemplateError(ValueError):
    """A template admits infinitely many matches for some key tuple."""


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
    """All integer index slots of a key, in canonical order."""
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
    """Everything about a key except its integer slots."""
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
# Formal vectors: finite rational linear combinations of keys.


class FormalVector:
    """Finite map key -> nonzero Fraction with exact arithmetic."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for k, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                self.add_term(k, v)

    @staticmethod
    def zero() -> "FormalVector":
        return FormalVector()

    @staticmethod
    def single(key, coeff=ONE) -> "FormalVector":
        v = FormalVector()
        v.add_term(key, coeff)
        return v

    def add_term(self, key, coeff) -> None:
        if not coeff:
            return
        cur = self.c.get(key)
        if cur is None:
            self.c[key] = Fraction(coeff)
        else:
            cur = cur + coeff
            if cur:
                self.c[key] = cur
            else:
                del self.c[key]

    def add_vec(self, other: "FormalVector", scale=ONE) -> None:
        for k, v in other.c.items():
            self.add_term(k, v * scale)

    def __add__(self, other):
        out = FormalVector(dict(self.c))
        out.add_vec(other)
        return out

    def __sub__(self, other):
        out = FormalVector(dict(self.c))
        out.add_vec(other, -ONE)
        return out

    def __rmul__(self, scalar):
        out = FormalVector()
        s = Fraction(scalar)
        for k, v in self.c.items():
            out.add_term(k, v * s)
        return out

    def __neg__(self):
        return -ONE * self

    def __eq__(self, other):
        return isinstance(other, FormalVector) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def is_zero(self) -> bool:
        return not self.c

    def items(self):
        return self.c.items()

    def sorted_items(self):
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{v}*{key_str(k)}" for k, v in self.sorted_items())


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

    def __mul__(self, k: int):
        if k == 0:
            return Aff(0, ())
        return Aff(self.const * k, tuple((v, c * k) for v, c in self.terms))

    __rmul__ = __mul__

    def vars(self):
        return tuple(v for v, _ in self.terms)

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
# Key patterns: keys whose integer slots are Aff expressions.


def pat_tee(i):
    return ("Tee", Aff.of(i))


def pat_ess(i):
    return ("Ess", Aff.of(i))


def pat_mono(i1, i2, d: int):
    return ("Mono", Aff.of(i1), Aff.of(i2), d)


def pat_wn(exps, d: int):
    return ("Wn", tuple(Aff.of(e) for e in exps), d)


def pat_fin(space: str, idx: int):
    return ("Fin", space, idx)


def pat_pair(left, right):
    return ("Pair", left, right)


def pat_const(key):
    """Pattern with constant slots matching exactly one key."""
    tag = key[0]
    if tag == "Tee" or tag == "Ess":
        return (tag, Aff.of(key[1]))
    if tag == "Mono":
        return ("Mono", Aff.of(key[1]), Aff.of(key[2]), key[3])
    if tag == "Wn":
        return ("Wn", tuple(Aff.of(e) for e in key[1]), key[2])
    if tag == "Fin":
        return key
    if tag == "Pair":
        return ("Pair", pat_const(key[1]), pat_const(key[2]))
    raise ValueError(f"unknown key {key!r}")


def pat_shape(p) -> tuple:
    tag = p[0]
    if tag == "Tee" or tag == "Ess":
        return (tag,)
    if tag == "Mono":
        return (tag, p[3])
    if tag == "Wn":
        return (tag, len(p[1]), p[2])
    if tag == "Fin":
        return p
    if tag == "Pair":
        return (tag, pat_shape(p[1]), pat_shape(p[2]))
    raise ValueError(f"unknown pattern {p!r}")


def pat_slots(p) -> tuple:
    tag = p[0]
    if tag == "Tee" or tag == "Ess":
        return (p[1],)
    if tag == "Mono":
        return (p[1], p[2])
    if tag == "Wn":
        return p[1]
    if tag == "Fin":
        return ()
    if tag == "Pair":
        return pat_slots(p[1]) + pat_slots(p[2])
    raise ValueError(f"unknown pattern {p!r}")


def pat_eval(p, env: dict):
    tag = p[0]
    if tag == "Tee" or tag == "Ess":
        return (tag, p[1].eval(env))
    if tag == "Mono":
        return ("Mono", p[1].eval(env), p[2].eval(env), p[3])
    if tag == "Wn":
        return ("Wn", tuple(e.eval(env) for e in p[1]), p[2])
    if tag == "Fin":
        return p
    if tag == "Pair":
        return ("Pair", pat_eval(p[1], env), pat_eval(p[2], env))
    raise ValueError(f"unknown pattern {p!r}")


def pat_subst(p, env: dict):
    tag = p[0]
    if tag == "Tee" or tag == "Ess":
        return (tag, p[1].subst(env))
    if tag == "Mono":
        return ("Mono", p[1].subst(env), p[2].subst(env), p[3])
    if tag == "Wn":
        return ("Wn", tuple(e.subst(env) for e in p[1]), p[2])
    if tag == "Fin":
        return p
    if tag == "Pair":
        return ("Pair", pat_subst(p[1], env), pat_subst(p[2], env))
    raise ValueError(f"unknown pattern {p!r}")


def poly_rename(poly: Poly, ren: dict) -> Poly:
    acc = {}
    for mo, co in poly.m:
        nm = tuple(sorted((ren.get(v, v), e) for v, e in mo))
        acc[nm] = acc.get(nm, ZERO) + co
    return Poly._norm(acc)


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

    Returns ("none", None) if inconsistent, ("many", None) if the solution
    space is positive-dimensional, ("one", values) for a unique rational
    solution (values may be non-integral; caller checks).
    """
    aug = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    pivots = []
    r = 0
    for col in range(nvars):
        piv = None
        for i in range(r, len(aug)):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][nvars]:
            return ("none", None)
    if len(pivots) < nvars:
        return ("many", None)
    values = [ZERO] * nvars
    for i, col in enumerate(pivots):
        values[col] = aug[i][nvars]
    return ("one", values)


class TemplateSeries:
    """Finite rational combination of summation templates of one arity."""

    __slots__ = ("arity", "templates")

    def __init__(self, arity: int, templates: Iterable[Template] = ()):
        self.arity = arity
        self.templates = tuple(t for t in templates if not t.coeff.is_zero())
        for t in self.templates:
            assert len(t.keys) == arity

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
        assert self.arity == other.arity
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
        assert sorted(perm) == list(range(self.arity))
        return TemplateSeries(
            self.arity,
            (
                Template(t.vars, t.coeff, tuple(t.keys[perm[i]] for i in range(self.arity)))
                for t in self.templates
            ),
        )

    def flip_hat(self) -> "TemplateSeries":
        assert self.arity == 2
        return self.permuted((1, 0))

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
            if tuple(pat_shape(p) for p in t.keys) != shapes:
                continue
            nv = len(t.vars)
            vidx = {v: i for i, v in enumerate(t.vars)}
            rows = []
            ok = True
            slot_i = 0
            for p in t.keys:
                for a in pat_slots(p):
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

        Integer coefficients accumulate as machine ints (still exact) and are
        wrapped into Fractions once at the end."""
        acc: dict = {}
        for t in self.templates:
            plan = _compile_box_plan(t)
            builders = plan[3]
            poly_plan = plan[4]
            for env in _box_env_tuples(plan, bound):
                c = 0
                for co, pows in poly_plan:
                    m = co
                    for pos, e in pows:
                        m *= env[pos] ** e
                    c += m
                if not c:
                    continue
                keys = tuple(b(env) for b in builders)
                cur = acc.get(keys)
                if cur is None:
                    acc[keys] = c
                else:
                    cur = cur + c
                    if cur:
                        acc[keys] = cur
                    else:
                        del acc[keys]
        return {
            k: v if v.__class__ is Fraction else Fraction(v) for k, v in acc.items()
        }

    def equal_on_box(self, other: "TemplateSeries", bound: int) -> bool:
        return (self - other).support_in_box(bound) == {}

    def __repr__(self):
        lines = []
        for t in self.templates:
            ks = " (x) ".join(_pat_str(p) for p in t.keys)
            vs = ",".join(t.vars)
            lines.append(f"sum_{{{vs}}} ({t.coeff}) {ks}")
        return " + ".join(lines) if lines else "0"


def _pat_str(p) -> str:
    tag = p[0]
    if tag == "Tee":
        return f"t^{p[1]}"
    if tag == "Ess":
        return f"s^{p[1]}"
    if tag == "Mono":
        return f"x1^{p[1]}x2^{p[2]}d{p[3]}"
    if tag == "Wn":
        body = "".join(f"x{k+1}^{e}" for k, e in enumerate(p[1]))
        return f"{body}d{p[2]}"
    if tag == "Fin":
        return f"{p[1]}[{p[2]}]"
    if tag == "Pair":
        return f"({_pat_str(p[1])})({_pat_str(p[2])})"
    return repr(p)


def _compile_box_plan(t: Template):
    """One-time compilation of a template for box enumeration.

    Variables become positions in an env tuple.  Returns
    (var count, elimination steps, slot plans, key builders, poly plan)
    where the poly plan keeps integer coefficients as ints, each slot plan is
    (const, ((pos, coeff), ...)) and each step is
    (pos, ((const, rest terms, coeff of pos), ...)) giving the box bounds of
    the variable once earlier positions are fixed.  A variable appearing in
    no slot sums a continuum into the box: ill-posed.
    """
    vpos = {v: i for i, v in enumerate(t.vars)}
    slots = []
    for p in t.keys:
        slots.extend(pat_slots(p))
    plans = []
    for a in slots:
        try:
            terms = tuple((vpos[v], c) for v, c in a.terms)
        except KeyError as err:
            raise IllPosedTemplateError(f"stray variable {err.args[0]}")
        plans.append((a.const, terms))
    used = {pos for _, terms in plans for pos, _ in terms}
    for v, i in vpos.items():
        if i not in used:
            raise IllPosedTemplateError(f"variable {v} appears in no key slot")
    # Fix variables one at a time, always picking one appearing in a slot
    # whose other variables are already fixed (every family template here
    # admits such an order); the qualifying slots depend only on which
    # variables are fixed, so the order compiles statically.
    steps = []
    fixed: set = set()
    remaining = list(range(len(t.vars)))
    while remaining:
        chosen = None
        for pos in remaining:
            cands = []
            for const, terms in plans:
                unfixed = [p for p, _ in terms if p not in fixed]
                if unfixed != [pos]:
                    continue
                c = dict(terms)[pos]
                rest_terms = tuple((p, cc) for p, cc in terms if p != pos)
                cands.append((const, rest_terms, c))
            if cands:
                chosen = (pos, tuple(cands))
                break
        if chosen is None:
            raise IllPosedTemplateError(
                f"no orderable variable among {remaining} for box enumeration"
            )
        steps.append(chosen)
        fixed.add(chosen[0])
        remaining.remove(chosen[0])
    builders = tuple(_compile_pat_builder(p, vpos) for p in t.keys)
    poly_plan = tuple(
        (co.numerator if co.denominator == 1 else co, tuple((vpos[v], e) for v, e in mo))
        for mo, co in t.coeff.m
    )
    return (len(t.vars), tuple(steps), tuple(plans), builders, poly_plan)


def _compile_pat_builder(p, vpos: dict):
    """env tuple -> concrete key, mirroring pat_eval key construction."""
    tag = p[0]
    if tag == "Tee" or tag == "Ess":
        pl = _aff_plan(p[1], vpos)
        return lambda env: (tag, _aff_plan_eval(pl, env))
    if tag == "Mono":
        p1, p2 = _aff_plan(p[1], vpos), _aff_plan(p[2], vpos)
        d = p[3]
        return lambda env: ("Mono", _aff_plan_eval(p1, env), _aff_plan_eval(p2, env), d)
    if tag == "Wn":
        pls = tuple(_aff_plan(e, vpos) for e in p[1])
        d = p[2]
        return lambda env: (
            "Wn",
            tuple(_aff_plan_eval(pl, env) for pl in pls),
            d,
        )
    if tag == "Fin":
        return lambda env: p
    if tag == "Pair":
        f1, f2 = _compile_pat_builder(p[1], vpos), _compile_pat_builder(p[2], vpos)
        return lambda env: ("Pair", f1(env), f2(env))
    raise ValueError(f"unknown pattern {p!r}")


def _aff_plan(a: Aff, vpos: dict):
    return (a.const, tuple((vpos[v], c) for v, c in a.terms))


def _aff_plan_eval(pl, env) -> int:
    v = pl[0]
    for pos, c in pl[1]:
        v += c * env[pos]
    return v


def _step_range(cands, env, bound: int):
    """[lo, hi] for a step's variable once earlier positions are fixed."""
    lo = hi = None
    for const, rest_terms, c in cands:
        r = const
        for p2, cc in rest_terms:
            r += cc * env[p2]
        l2, h2 = (-bound - r), (bound - r)
        if c < 0:
            l2, h2, c2 = -h2, -l2, -c
        else:
            c2 = c
        l2 = -((-l2) // c2)
        h2 = h2 // c2
        lo = l2 if lo is None else max(lo, l2)
        hi = h2 if hi is None else min(hi, h2)
    return lo, hi


def _box_env_tuples(plan, bound: int) -> Iterator[tuple]:
    """Integer env tuples putting every slot of the plan in [-bound, bound].

    Each variable-bearing slot is enforced exactly by the step bounds at the
    step fixing its last variable, so only constant slots need a check here.
    """
    nv, steps, slot_plans, _, _ = plan
    for const, terms in slot_plans:
        if not terms and (const > bound or const < -bound):
            return
    if nv == 0:
        yield ()
        return
    if nv == 1:
        lo, hi = _step_range(steps[0][1], (), bound)
        for val in range(lo, hi + 1):
            yield (val,)
        return
    if nv == 2:
        (pa, ca), (pb, cb) = steps
        env = [0, 0]
        lo_a, hi_a = _step_range(ca, env, bound)
        for va in range(lo_a, hi_a + 1):
            env[pa] = va
            lo_b, hi_b = _step_range(cb, env, bound)
            if pa == 0:
                for vb in range(lo_b, hi_b + 1):
                    yield (va, vb)
            else:
                for vb in range(lo_b, hi_b + 1):
                    yield (vb, va)
        return
    env = [0] * nv
    nsteps = len(steps)

    def rec(k: int) -> Iterator[tuple]:
        if k == nsteps:
            yield tuple(env)
            return
        pos, cands = steps[k]
        lo, hi = _step_range(cands, env, bound)
        for val in range(lo, hi + 1):
            env[pos] = val
            yield from rec(k + 1)

    yield from rec(0)


# ---------------------------------------------------------------------------
# Symbolic composition.  A symbolic product rule maps two patterns to a list
# of (Poly, pattern) branches; a symbolic coproduct maps (pattern, fresh) to a
# list of (new vars, Poly, (pattern, pattern)) branches.


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
    nlegs: int = 3,
    fresh: Optional[Fresh] = None,
) -> TemplateSeries:
    """The leg-placement product for Yang-Baxter style expressions.

    Factor a sits on legs legs_a, factor b on legs_b (1-based, each of the
    factor's arity).  A leg occupied by both factors carries the product
    (a component) * (b component); a leg occupied by one factor carries that
    component; every leg must be covered.
    """
    assert len(legs_a) == a.arity and len(legs_b) == b.arity
    assert set(legs_a) | set(legs_b) == set(range(1, nlegs + 1))
    fresh = fresh or Fresh("q")
    out = []
    for ta in a.templates:
        for tb0 in b.templates:
            tb = _rename_apart(tb0, fresh)
            slot_of_a = {leg: ta.keys[i] for i, leg in enumerate(legs_a)}
            slot_of_b = {leg: tb.keys[i] for i, leg in enumerate(legs_b)}
            base_vars = ta.vars + tb.vars
            base_coeff = ta.coeff * tb.coeff
            branches = [((), Poly.const(1), {})]
            for leg in range(1, nlegs + 1):
                if leg in slot_of_a and leg in slot_of_b:
                    prods = sym_prod(slot_of_a[leg], slot_of_b[leg])
                    branches = [
                        (bv, bc * poly, {**bk, leg: p})
                        for bv, bc, bk in branches
                        for poly, p in prods
                    ]
                elif leg in slot_of_a:
                    branches = [(bv, bc, {**bk, leg: slot_of_a[leg]}) for bv, bc, bk in branches]
                else:
                    branches = [(bv, bc, {**bk, leg: slot_of_b[leg]}) for bv, bc, bk in branches]
            for bv, bc, bk in branches:
                keys = tuple(bk[leg] for leg in range(1, nlegs + 1))
                out.append(Template(base_vars + bv, base_coeff * bc, keys))
    return TemplateSeries(nlegs, out)


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
# Exact sparse row reduction, used by the windowed invariant-form search and
# the degeneracy checks.


def sparse_rref(rows: Iterable[dict]) -> dict:
    """Reduce sparse rows {col: Fraction} to reduced echelon form.

    Returns {pivot col: row dict} with each row normalized to pivot 1 and
    fully reduced against the others, so no basis row mentions another
    row's pivot column.
    """
    basis: dict = {}
    for row in rows:
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
        for row2 in basis.values():
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
        basis[lead] = row
    return basis


def forced_zero_columns(basis: dict) -> set:
    """Columns that vanish in every solution of the homogeneous system."""
    return {lead for lead, row in basis.items() if len(row) == 1}
