"""Reference for cli._series_equality_report: the same report read key by
key, one TemplateSeries.support_in_box call per key, with no lift."""

from permlie.cli import _equality_report
from permlie.kernel import Window


def series_equality_by_keys(law, keys, lhs, rhs, bound: int):
    mismatches = []
    checked = 0
    for key in keys:
        checked += 1
        diff = (lhs(key) - rhs(key)).support_in_box(bound)
        if diff:
            mismatches.append(((key,), tuple(sorted(diff.items()))))
    return _equality_report(law, Window(bound, 0), checked, mismatches)
