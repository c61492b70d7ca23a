"""Reference for doubles._form_search_blocks, shared by the doubles tests:
the invariance row of FORM_PLANS[QuadPreLieForm] evaluated triple by triple,
each pairing read through the product table as it is written in the plan."""

import math

from permlie.axioms import FORM_PLANS, LawId, _int, _pairings
from permlie.kernel import key_str


def blocks_by_plan(fam, keys, weight) -> tuple:
    """(skipped triples, [(W, rows sorted by length)]) for every triple
    weight W in order, with the unknowns, the normalisation and the order
    of rows within a block as in doubles._form_search_blocks."""
    _, text = FORM_PLANS[LawId.QuadPreLieForm][1]
    index = {k: i for i, k in enumerate(keys)}
    m, full = len(keys), (1 << len(keys)) - 1
    wt = [weight(k) for k in keys]
    plus = lambda u, v, s=1: tuple(x + s * y for x, y in zip(u, v))
    # pr[i][j]: (int coeff, index) of keys[i] keys[j] on keys, else None; row m is
    # a unit.  Bit c of off[i] (off[m + i]): keys[i] keys[c] (keys[c] keys[i]) leaves keys.
    pr = [[None] * m for _ in range(m)] + [[(1, j) for j in range(m)]]
    off = [0] * (2 * m)
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            p = fam.product_one(a, b)
            if p is None:
                continue
            if weight(p[1]) != plus(wt[i], wt[j]):
                raise ValueError(f"not graded: {key_str(a)} {key_str(b)} = {key_str(p[1])}")
            if p[1] in index:
                pr[i][j] = (_int(p[0]), index[p[1]])
            else:
                off[i], off[m + j] = off[i] | 1 << j, off[m + j] | 1 << i
    # each pairing as (sign, word, word), a word as two positions in (a, b, c, unit)
    at = lambda w: (3, "abc".index(w)) if len(w) == 1 else tuple(map("abc".index, w))
    plan = [(s, at(x), at(y)) for s, x, y in _pairings(text)]
    words = {w for _, x, y in plan for w in (x, y) if w[0] != 3}
    pairs: dict = {}  # pair weight -> [(a, b, bits of the c whose triple leaves keys)]
    skipped = 0
    for a in range(m):
        for b in range(m):
            t, out = (a, b), 0
            for p, q in words:  # c stands in a word at most once
                if 2 in (p, q):
                    out |= off[m + t[q]] if p == 2 else off[t[p]]
                elif off[t[p]] >> t[q] & 1:
                    out = full
            skipped += out.bit_count()
            pairs.setdefault(plus(wt[a], wt[b]), []).append((a, b, out))
    blocks = []
    for w in sorted({plus(p, q) for p in pairs for q in set(wt)}):
        rows: dict = {}
        for c in range(m):
            for a, b, out in pairs.get(plus(w, wt[c], -1), ()):
                if out >> c & 1:
                    continue
                t, row = (a, b, c, m), {}
                for s, (p, q), (p2, q2) in plan:
                    u, v = pr[t[p]][t[q]], pr[t[p2]][t[q2]]
                    if u and v and u[1] != v[1]:
                        (f, i), (g, j) = u, v
                        i, j, f = (i, j, s * f * g) if i < j else (j, i, -s * f * g)
                        row[i * m + j] = row.get(i * m + j, 0) + f
                items = sorted([it for it in row.items() if it[1]])
                if items:
                    d = math.gcd(*[f for _, f in items]) * (1 if items[0][1] > 0 else -1)
                    rows.setdefault(tuple([(col, f // d) for col, f in items]))
        if rows:
            blocks.append((w, sorted((dict(r) for r in rows), key=len)))
    return skipped, blocks
