"""Helpers shared by the tests: random basis changes of finite tables, a
matrix-vector product, pattern evaluation and a template series as JSON.
None of them is used by the package itself."""

from fractions import Fraction

from permlie.families import mat_inv
from permlie.kernel import ZERO, key_slots, with_slots
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
