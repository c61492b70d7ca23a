"""Reference for the report encoders: encode_value and report_to_json as they
were before keys were shared, one fresh JSON object per key occurrence, and
canonical JSON as json.dumps writes it."""

import json
from fractions import Fraction

from permlie.serialize import KEY_TAGS, frac_str, key_to_json


def encode_value_by_isinstance(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, tuple) and x and x[0] in KEY_TAGS:
        try:
            return key_to_json(x)
        except ValueError:
            pass
    if isinstance(x, (tuple, list)):
        return [encode_value_by_isinstance(v) for v in x]
    if isinstance(x, dict):
        return {str(k): encode_value_by_isinstance(v) for k, v in x.items()}
    return str(x)


def report_to_json_unshared(rep) -> dict:
    return {
        "law": rep.law,
        "passed": rep.passed,
        "n": rep.n,
        "margin": rep.margin,
        "checked": rep.checked,
        "violations": [
            {
                "label": label,
                "at": encode_value_by_isinstance(at),
                "residual": encode_value_by_isinstance(res),
            }
            for label, at, res in rep.violations
        ],
        "extra": encode_value_by_isinstance(rep.extra),
    }


def canonical_json_by_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
