"""Exact JSON encoding of keys, tensors, templates, tables, and reports.

Scalars travel as strings "num/den" ("/1" omitted) so every value survives a
round trip exactly.  Concrete keys and tensors decode back; template series
and reports are export-only.
"""

import json
import re
import reprlib
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .kernel import (
    Aff,
    CheckReport,
    add_term,
    ess,
    fin,
    key_slots,
    mono,
    pair,
    tee,
    with_slots,
    wn,
)
from .families import FiniteAlgebra

KEY_TAGS = ("Tee", "Ess", "Mono", "Wn", "Fin", "Pair")


def frac_str(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def short_repr(x) -> str:
    """repr(x) for a one-line message that echoes outside input: cut to 80
    characters, ending in '...', when longer.  A value nested too deep for
    repr is abbreviated by reprlib first."""
    try:
        text = repr(x)
    except RecursionError:
        text = reprlib.repr(x)
    return text if len(text) <= 80 else text[:77] + "..."


SCALAR_STR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_scalar(s) -> Fraction:
    """A JSON int, or a string "num" or "num/den" as frac_str writes it.
    Other spellings Fraction would take ("1e4000000", "0.5") are refused:
    an exponent can ask for an arbitrarily large integer."""
    if isinstance(s, bool):
        raise ValueError(f"not a scalar: {short_repr(s)}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        if not SCALAR_STR.fullmatch(s):
            raise ValueError(f"not a scalar: {short_repr(s)}")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {short_repr(s)}") from None
    raise ValueError(f"not a scalar: {short_repr(s)}")


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
        raise ValueError(f"key object lacks {name!r}: {short_repr(data)}")
    v = data[name]
    if not isinstance(v, kind) or isinstance(v, bool):
        kind_name = kind.__name__
        raise ValueError(f"key field {name!r} must be a JSON {kind_name}: {short_repr(data)}")
    return v


def key_from_json(data) -> tuple:
    if not isinstance(data, dict) or "t" not in data:
        raise ValueError(f"not a key object: {short_repr(data)}")
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
            raise ValueError(f"Wn exponents must be JSON ints: {short_repr(data)}")
        return wn(e, _field(data, "d"))
    if tag == "Fin":
        return fin(_field(data, "space", str), _field(data, "idx"))
    if tag == "Pair":
        return pair(key_from_json(_field(data, "l", dict)), key_from_json(_field(data, "r", dict)))
    raise ValueError(f"unknown key tag: {short_repr(tag)}")


# ---------------------------------------------------------------------------
# Patterns: export-only (affine slots become strings).


def _slot_json(x):
    if isinstance(x, Aff):
        return str(x)
    return x


def pattern_to_json(p) -> dict:
    return key_to_json(with_slots(p, [_slot_json(s) for s in key_slots(p)]))


# ---------------------------------------------------------------------------
# Tensors: arrays of [key..., coeff].


def tensor_to_json(t: dict) -> list:
    """[[key, ..., key, coeff], ...], one row per term in key order, at any
    arity: t is a {key tuple: Fraction} dict."""
    return [[*map(key_to_json, keys), frac_str(c)] for keys, c in sorted(t.items())]


def tensor_from_json(data, alg: FiniteAlgebra = None) -> dict:
    """Decode [[key, key, coeff], ...] into a {(key, key): Fraction} dict;
    bare integers index alg's basis, repeated rows add up and a zero sum is
    dropped.  With an algebra, every key must be one of its basis keys."""
    if not isinstance(data, list):
        raise ValueError("tensor must be a JSON array of terms")
    basis = None if alg is None else set(alg.basis_keys())
    r = {}
    for row in data:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"tensor term must be [key, key, coeff]: {short_repr(row)}")
        keys = []
        for cell in row[:2]:
            if isinstance(cell, bool):
                raise ValueError(f"not a key: {short_repr(cell)}")
            if isinstance(cell, int):
                if alg is None:
                    raise ValueError("bare index keys need an algebra")
                if not 0 <= cell < alg.dim:
                    raise ValueError(f"basis index out of range: {short_repr(cell)}")
                keys.append(alg.key(cell))
            else:
                key = key_from_json(cell)
                if basis is not None and key not in basis:
                    raise ValueError(f"not a basis key of {alg.id}: {short_repr(cell)}")
                keys.append(key)
        add_term(r, tuple(keys), parse_scalar(row[2]))
    return r


# ---------------------------------------------------------------------------
# Template series, reports, tables.


def encode_value(x):
    """Generic exact encoding for report payloads."""
    return _encode(x, {})


def _encode(x, keys: dict):
    """encode_value(x), with one JSON object per distinct key tuple, kept in keys."""
    if x.__class__ is Fraction:
        return str(x)  # frac_str of a Fraction
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, tuple) and x and x[0] in KEY_TAGS:
        try:
            return keys[x] if x in keys else keys.setdefault(x, key_to_json(x))
        except ValueError:  # tagged like a key, but not one
            pass
    if isinstance(x, (tuple, list)):
        return [_encode(v, keys) for v in x]
    if isinstance(x, dict):
        return {str(k): _encode(v, keys) for k, v in x.items()}
    return str(x)


def report_to_json(rep: CheckReport) -> dict:
    keys: dict = {}  # private to this call: no two reports share an object
    return {
        "law": rep.law,
        "passed": rep.passed,
        "n": rep.n,
        "margin": rep.margin,
        "checked": rep.checked,
        "violations": [
            {"label": label, "at": _encode(at, keys), "residual": _encode(res, keys)}
            for label, at, res in rep.violations
        ],
        "extra": _encode(rep.extra, keys),
    }


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    """Dense structure constants c[i][j][k] plus coproduct rows.

    Coproduct rows are [source, left, right, coeff]: the source index is
    required for a lossless round trip once dim > 1.
    """
    out = {
        "id": alg.id,
        "space": alg.space,
        "n": alg.dim,
        "labels": list(alg.labels),
        "kind": alg.kind,
        "c": _dense(alg.mul, alg.dim),
        "delta": [
            [src, i, j, frac_str(v)]
            for src in sorted(alg.delta or ())
            for i, j, v in alg.delta[src]
        ],
    }
    for name in ("tri_left", "tri_right"):
        table = getattr(alg, name)
        if table is not None:
            out[name] = _dense(table, alg.dim)
    return out


def _dense(table: dict, n: int) -> list:
    """c[i][j][k]: the sum of the e_k terms that table lists for (i, j)."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in table.items():
        for k, v in terms:
            c[i][j][k] += v
    return [[[frac_str(v) for v in cij] for cij in ci] for ci in c]


def matrix_to_json(m) -> list:
    return [[frac_str(v) for v in row] for row in m]


def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) and a newline, in
    one pass that renders a key object met again at the same depth once.
    Anything but plain JSON data (an exact str, int, finite float, bool, None,
    list, tuple or str-keyed dict), or data too deep or cyclic, goes whole to
    json.dumps."""
    try:
        return _json_text(obj, "\n", {}) + "\n"
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_text(o, nl: str, done: dict) -> str:
    """o's text, nl being the line break and indentation of its line; done
    holds the text of each key object (a dict with a "t" field, the only
    dicts report_to_json shares) by (id, nl).  Raises TypeError on other
    data."""
    cls = o.__class__
    if cls is str:
        return _json_str(o)
    if cls is dict:
        shared = "t" in o
        if shared and (id(o), nl) in done:
            return done[id(o), nl]
        inner = nl + "  "
        parts = [_json_str(k) + ": " + _json_text(o[k], inner, done) for k in sorted(o)]
        text = "{" + inner + ("," + inner).join(parts) + nl + "}" if o else "{}"
        if shared:
            done[id(o), nl] = text
        return text
    if cls is list or cls is tuple:
        inner = nl + "  "
        parts = [_json_text(v, inner, done) for v in o]
        return "[" + inner + ("," + inner).join(parts) + nl + "]" if o else "[]"
    if cls is int or cls is float and o - o == 0:  # a finite float
        return repr(o)
    if cls is bool or o is None:
        return "true" if o is True else "false" if o is False else "null"
    raise TypeError(f"{cls.__name__} is left to json.dumps")
