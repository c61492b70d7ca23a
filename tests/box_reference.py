"""Reference for TemplateSeries.support_in_box, shared by the kernel and
axioms tests: the box support read key tuple by key tuple through
coefficient_at, which solves each template's affine system on its own."""

import itertools

from permlie.kernel import key_shape, key_slots, with_slots


def support_by_solving(series, bound: int) -> dict:
    """{key tuple: coefficient} over every key tuple whose shapes some
    template of series has and whose integer slots lie in [-bound, bound],
    keeping the nonzero coefficients."""
    out = {}
    protos = {tuple(map(key_shape, t.keys)): t.keys for t in series.templates}
    for pats in protos.values():
        count = sum(len(key_slots(p)) for p in pats)
        for vals in itertools.product(range(-bound, bound + 1), repeat=count):
            it = iter(vals)
            keys = tuple(with_slots(p, [next(it) for _ in key_slots(p)]) for p in pats)
            c = series.coefficient_at(keys)
            if c:
                out[keys] = c
    return out
