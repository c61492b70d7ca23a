"""Helpers shared by the tests: random basis changes of finite tables and
coproducts, a matrix-vector product, a signed sum of vectors, pattern
evaluation, a template series as JSON and the probe bank of acceptance
criterion 5.  None of them is used by the package itself."""

import random
from fractions import Fraction

from permlie.families import mat_inv, random_table
from permlie.kernel import ZERO, add_term, key_slots, with_slots
from permlie.serialize import pattern_to_json


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def random_invertible(rng, dim: int):
    while True:
        s = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(dim)
        )
        if mat_inv(s) is not None:
            return s


def conjugated_table(mul: dict, s, dim: int) -> dict:
    """Transport a product table through the basis change e'_j = sum_a s[a][j] e_a."""
    if (sinv := mat_inv(s)) is None:
        raise ValueError("the basis change is singular")
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


def conjugated_delta(delta: dict, s, dim: int) -> dict:
    """Transport a coproduct table through the basis change of conjugated_table."""
    sinv = mat_inv(s)
    out: dict = {}
    for i in range(dim):
        acc = {}
        for a in range(dim):
            for p, q, c in delta.get(a, ()) if s[a][i] else ():
                for k in range(dim):
                    for m in range(dim):
                        acc[(k, m)] = acc.get((k, m), ZERO) + s[a][i] * c * sinv[k][p] * sinv[m][q]
        terms = tuple((k, m, v) for (k, m), v in sorted(acc.items()) if v)
        if terms:
            out[i] = terms
    return out


def random_delta(rng, dim, lo=-2, hi=2, density=3):
    """Seeded coproduct table: each (i, j, k) carries a term with chance
    1/density, with a nonzero integer coefficient in [lo, hi]."""
    out = {}
    for i in range(dim):
        terms = tuple(
            (j, k, Fraction(rng.choice([v for v in range(lo, hi + 1) if v])))
            for j in range(dim)
            for k in range(dim)
            if rng.randrange(density) == 0
        )
        if terms:
            out[i] = terms
    return out


def signed_sum(*terms) -> dict:
    """sum scale * vec over the (scale, vec) pairs, each vec a {key: coeff}
    dict, as a {key: Fraction} dict with no zero entries."""
    out = {}
    for scale, vec in terms:
        for k, c in vec.items():
            add_term(out, k, scale * c)
    return out


def pat_eval(p, env: dict):
    """The key of pattern p at the variable values env."""
    return with_slots(p, [a.eval(env) for a in key_slots(p)])


def series_to_json(ts) -> dict:
    return {
        "arity": ts.arity,
        "templates": [
            {
                "vars": list(t.vars),
                "coeff": str(t.coeff),
                "keys": [pattern_to_json(p) for p in t.keys],
            }
            for t in ts.templates
        ],
    }


def criterion_5_bank(count: int):
    """(product tables, coproduct tables): the first count candidates of each
    direction of acceptance criterion 5, from its seed-7 generator, which
    draws the 100 product tables before the coproduct tables."""
    rng = random.Random(7)
    tables = [random_table(rng, 2) for _ in range(100)]
    deltas = []
    for _ in range(count):
        dt = {}
        for src in range(2):
            terms = tuple(
                (i, j, Fraction(rng.randint(-2, 2)))
                for i in range(2)
                for j in range(2)
                if rng.random() < 0.5
            )
            terms = tuple((i, j, c) for i, j, c in terms if c)
            if terms:
                dt[src] = terms
        deltas.append(dt)
    return tables[:count], deltas
