"""Exact JSON encoding of keys, tensors, templates, tables, and reports.

Scalars travel as strings "num/den" ("/1" omitted) so every value survives a
round trip exactly.  Concrete keys and tensors decode back; template series
and reports are export-only.
"""

import json
from fractions import Fraction

from .kernel import Aff, CheckReport, TemplateSeries, ess, fin, mono, pair, tee, wn
from .families import FiniteAlgebra, TensorElement

KEY_TAGS = ("Tee", "Ess", "Mono", "Wn", "Fin", "Pair")


def frac_str(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_scalar(s) -> Fraction:
    if isinstance(s, bool):
        raise ValueError(f"not a scalar: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {s!r}") from None
    raise ValueError(f"not a scalar: {s!r}")


# ---------------------------------------------------------------------------
# Concrete keys: two-way.


def key_to_json(key) -> dict:
    tag = key[0]
    if tag == "Tee" or tag == "Ess":
        return {"t": tag, "i": key[1]}
    if tag == "Mono":
        return {"t": "Mono", "i1": key[1], "i2": key[2], "d": key[3]}
    if tag == "Wn":
        return {"t": "Wn", "e": list(key[1]), "d": key[2]}
    if tag == "Fin":
        return {"t": "Fin", "space": key[1], "idx": key[2]}
    if tag == "Pair":
        return {"t": "Pair", "l": key_to_json(key[1]), "r": key_to_json(key[2])}
    raise ValueError(f"not a key: {key!r}")


def _field(data: dict, name: str, kind=int):
    """data[name], which must be present and of the given JSON kind."""
    if name not in data:
        raise ValueError(f"key object lacks {name!r}: {data!r}")
    v = data[name]
    if not isinstance(v, kind) or isinstance(v, bool):
        raise ValueError(f"key field {name!r} must be a JSON {kind.__name__}: {data!r}")
    return v


def key_from_json(data) -> tuple:
    if not isinstance(data, dict) or "t" not in data:
        raise ValueError(f"not a key object: {data!r}")
    tag = data["t"]
    if tag == "Tee":
        return tee(_field(data, "i"))
    if tag == "Ess":
        return ess(_field(data, "i"))
    if tag == "Mono":
        return mono(_field(data, "i1"), _field(data, "i2"), _field(data, "d"))
    if tag == "Wn":
        e = _field(data, "e", list)
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in e):
            raise ValueError(f"Wn exponents must be JSON ints: {data!r}")
        return wn(e, _field(data, "d"))
    if tag == "Fin":
        return fin(_field(data, "space", str), _field(data, "idx"))
    if tag == "Pair":
        return pair(key_from_json(_field(data, "l", dict)), key_from_json(_field(data, "r", dict)))
    raise ValueError(f"unknown key tag: {tag!r}")


# ---------------------------------------------------------------------------
# Patterns: export-only (affine slots become strings).


def _slot_json(x):
    if isinstance(x, Aff):
        return str(x)
    return x


def pattern_to_json(p) -> dict:
    tag = p[0]
    if tag == "Tee" or tag == "Ess":
        return {"t": tag, "i": _slot_json(p[1])}
    if tag == "Mono":
        return {"t": "Mono", "i1": _slot_json(p[1]), "i2": _slot_json(p[2]), "d": p[3]}
    if tag == "Wn":
        return {"t": "Wn", "e": [_slot_json(e) for e in p[1]], "d": p[2]}
    if tag == "Fin":
        return {"t": "Fin", "space": p[1], "idx": p[2]}
    if tag == "Pair":
        return {"t": "Pair", "l": pattern_to_json(p[1]), "r": pattern_to_json(p[2])}
    raise ValueError(f"not a pattern: {p!r}")


# ---------------------------------------------------------------------------
# Tensors: arrays of [key..., coeff].


def tensor_to_json(t: TensorElement) -> list:
    return [
        [key_to_json(ka), key_to_json(kb), frac_str(c)] for ka, kb, c in t.terms
    ]


def three_tensor_to_json(t) -> list:
    return [
        [key_to_json(k1), key_to_json(k2), key_to_json(k3), frac_str(c)]
        for k1, k2, k3, c in t.terms
    ]


def tensor_from_json(data, alg: FiniteAlgebra = None) -> TensorElement:
    """Decode [[key, key, coeff], ...]; bare integers index alg's basis.

    With an algebra, every key must be one of its basis keys."""
    if not isinstance(data, list):
        raise ValueError("tensor must be a JSON array of terms")
    basis = None if alg is None else set(alg.basis_keys())
    terms = []
    for row in data:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"tensor term must be [key, key, coeff]: {row!r}")
        keys = []
        for cell in row[:2]:
            if isinstance(cell, bool):
                raise ValueError(f"not a key: {cell!r}")
            if isinstance(cell, int):
                if alg is None:
                    raise ValueError("bare index keys need an algebra")
                if not 0 <= cell < alg.dim:
                    raise ValueError(f"basis index out of range: {cell}")
                keys.append(alg.key(cell))
            else:
                key = key_from_json(cell)
                if basis is not None and key not in basis:
                    raise ValueError(f"not a basis key of {alg.id}: {cell!r}")
                keys.append(key)
        terms.append((keys[0], keys[1], parse_scalar(row[2])))
    return TensorElement.of(terms)


# ---------------------------------------------------------------------------
# Template series, reports, tables.


def series_to_json(ts: TemplateSeries) -> dict:
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


def encode_value(x):
    """Generic exact encoding for report payloads."""
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
        return [encode_value(v) for v in x]
    if isinstance(x, dict):
        return {str(k): encode_value(v) for k, v in x.items()}
    return str(x)


def report_to_json(rep: CheckReport) -> dict:
    return {
        "law": rep.law,
        "passed": rep.passed,
        "n": rep.n,
        "margin": rep.margin,
        "checked": rep.checked,
        "violations": [
            {"label": label, "at": encode_value(at), "residual": encode_value(res)}
            for label, at, res in rep.violations
        ],
        "extra": encode_value(rep.extra),
    }


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    """Dense structure constants c[i][j][k] plus coproduct rows.

    Coproduct rows are [source, left, right, coeff]: the source index is
    required for a lossless round trip once dim > 1.
    """
    n = alg.dim
    c = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in alg.mul.items():
        for k, v in terms:
            c[i][j][k] = frac_str(v)
    out = {
        "id": alg.id,
        "space": alg.space,
        "n": n,
        "labels": list(alg.labels),
        "kind": alg.kind,
        "c": c,
        "delta": [
            [src, i, j, frac_str(v)]
            for src in sorted(alg.delta or ())
            for i, j, v in alg.delta[src]
        ],
    }
    for name in ("tri_left", "tri_right"):
        table = getattr(alg, name)
        if table is not None:
            dense = [[["0"] * n for _ in range(n)] for _ in range(n)]
            for (i, j), terms in table.items():
                for k, v in terms:
                    dense[i][j][k] = frac_str(v)
            out[name] = dense
    return out


def matrix_to_json(m) -> list:
    return [[frac_str(v) for v in row] for row in m]


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed indentation, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
