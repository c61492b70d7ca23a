"""References for the Yang-Baxter outputs whose code now goes through shared
paths: the classical Yang-Baxter residual written as its own loop over the
three brackets, and the finite three-tensor type with its JSON writer."""

from dataclasses import dataclass
from fractions import Fraction

from permlie.kernel import (
    CheckReport,
    Fresh,
    InsufficientWindowError,
    TemplateSeries,
    ZERO,
    place_product,
)
from permlie.serialize import frac_str, key_to_json


def cybe_residual_by_loop(sym_bracket, rtilde, window) -> CheckReport:
    """[r12, r13] + [r12, r23] + [r13, r23] accumulated on the window box,
    each bracket a placement minus its swap."""
    if window.n < 1:
        raise InsufficientWindowError("CYBE", window.n, 1)
    fresh = Fresh("y")
    total = TemplateSeries.zero(3)
    for legs_a, legs_b in (((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))):
        t = place_product(rtilde, rtilde, legs_a, legs_b, sym_bracket, fresh=fresh)
        u = place_product(rtilde, rtilde, legs_b, legs_a, sym_bracket, fresh=fresh)
        total = total + (t - u)
    res = total.support_in_box(window.n)
    violations = [("cybe", ks, ((ks, c),)) for ks, c in sorted(res.items())]
    return CheckReport.build("CYBE", window, 1, violations, {"box_terms": len(res)})


@dataclass(frozen=True)
class ThreeTensor:
    """Finite 3-tensor: canonically ordered zero-free (k1, k2, k3, coeff)."""

    terms: tuple

    @staticmethod
    def of(terms) -> "ThreeTensor":
        acc = {}
        for k1, k2, k3, c in terms:
            key = (k1, k2, k3)
            acc[key] = acc.get(key, ZERO) + Fraction(c)
        return ThreeTensor(
            tuple((k1, k2, k3, c) for (k1, k2, k3), c in sorted(acc.items()) if c)
        )


def three_tensor_to_json(t) -> list:
    return [
        [key_to_json(k1), key_to_json(k2), key_to_json(k3), frac_str(c)]
        for k1, k2, k3, c in t.terms
    ]
