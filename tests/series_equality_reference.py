"""Reference for cli._series_equality_report: the same report read tuple by
tuple, one TemplateSeries.support_in_box call per input tuple, with no lift."""

import itertools

from permlie.cli import _equality_report
from permlie.kernel import Window


def series_equality_by_keys(law, keys, lhs, rhs, bound: int, arity: int = 1):
    mismatches = []
    checked = 0
    for xs in itertools.product(keys, repeat=arity):
        checked += 1
        diff = (lhs(*xs) - rhs(*xs)).support_in_box(bound)
        if diff:
            mismatches.append((xs, tuple(sorted(diff.items()))))
    return _equality_report(law, Window(bound, 0), checked, mismatches)
