"""JSON wire format: scalars, keys, tensors, reports, canonical output."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permlie.kernel import (
    CheckReport,
    Window,
    av,
    ess,
    fin,
    mono,
    pair,
    pat_ess,
    pat_pair,
    pat_tee,
    tee,
    wn,
)
from permlie.families import TensorElement, finite_catalog, delta_a_family
from permlie.doubles import dual_perm_algebra
from permlie.serialize import (
    algebra_to_json,
    canonical_json,
    encode_value,
    frac_str,
    key_from_json,
    key_to_json,
    matrix_to_json,
    parse_scalar,
    pattern_to_json,
    report_to_json,
    tensor_from_json,
    tensor_to_json,
)
from helpers import series_to_json

F = Fraction

ALL_KEYS = [
    tee(2),
    ess(-3),
    mono(1, -2, 2),
    wn((0, 3), 1),
    fin("P1", 0),
    pair(fin("P1", 0), tee(4)),
    pair(fin("A", 1), pair(fin("B", 0), ess(-1))),
]


class TestScalars:
    def test_frac_str(self):
        assert frac_str(F(3)) == "3"
        assert frac_str(F(-2, 5)) == "-2/5"
        assert frac_str(F(0)) == "0"

    def test_parse_scalar(self):
        assert parse_scalar("3/4") == F(3, 4)
        assert parse_scalar(-2) == F(-2)
        assert parse_scalar("-7") == F(-7)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar(True)

    @pytest.mark.parametrize("s", ["1e4000000", "0.5", "1/2/3", "", " 3", "/2", "3/-4"])
    def test_only_canonical_strings(self, s):
        with pytest.raises(ValueError):
            parse_scalar(s)

    @given(st.fractions(max_denominator=1000))
    def test_round_trip(self, q):
        assert parse_scalar(frac_str(q)) == q


class TestKeys:
    def test_round_trip_all_tags(self):
        for k in ALL_KEYS:
            assert key_from_json(key_to_json(k)) == k, k

    def test_json_is_plain_data(self):
        for k in ALL_KEYS:
            json.dumps(key_to_json(k))

    def test_tagged_shape(self):
        assert key_to_json(tee(2)) == {"t": "Tee", "i": 2}


class TestPatterns:
    def test_affine_slots_become_strings(self):
        p = pat_pair(pat_tee(av("i")), pat_ess(-av("k") + 1))
        data = pattern_to_json(p)
        assert data["l"]["i"] == "i"
        json.dumps(data)


class TestTensors:
    def test_round_trip_with_keys(self):
        cat = finite_catalog()
        alg = cat["ex-sd2"]
        t = TensorElement.of(
            [(alg.key(0), alg.key(1), F(2)), (alg.key(1), alg.key(0), F(-1, 3))]
        )
        data = tensor_to_json(t)
        assert tensor_from_json(data, alg) == t

    def test_bare_int_rows(self):
        alg = finite_catalog()["ex-sd2"]
        t = tensor_from_json([[0, 1, "1"], [1, 0, "1"]], alg)
        assert t == TensorElement.of(
            [(alg.key(0), alg.key(1), F(1)), (alg.key(1), alg.key(0), F(1))]
        )

    def test_range_check(self):
        alg = finite_catalog()["ex-sd2"]
        with pytest.raises(ValueError):
            tensor_from_json([[0, 5, "1"]], alg)

    def test_bool_coeff_rejected(self):
        alg = finite_catalog()["ex-sd2"]
        with pytest.raises(ValueError):
            tensor_from_json([[0, 1, True]], alg)


class TestAlgebraExport:
    def test_ex_1p_shape(self):
        data = algebra_to_json(finite_catalog()["ex-1p"])
        assert data["n"] == 1
        assert data["c"] == [[["1"]]]
        assert data["delta"] == [[0, 0, 0, "1"]]
        assert data["kind"] == "Perm"

    def test_repeated_output_index_is_summed(self):
        # a coproduct listing (0, 0) twice gives e* e* = 2 e*, one mul entry
        # with two terms on the same output index
        alg = dual_perm_algebra(finite_catalog()["ex-1p"], {0: ((0, 0, 1), (0, 0, 1))})
        assert dict(alg.product(alg.key(0), alg.key(0)).items()) == {alg.key(0): 2}
        assert algebra_to_json(alg)["c"] == [[["2"]]]

    def test_preperm_carries_split_products(self):
        data = algebra_to_json(finite_catalog()["ex-preperm-1"])
        assert "tri_left" in data and "tri_right" in data

    def test_matrix(self):
        assert matrix_to_json([[F(1), F(0)], [F(-1, 2), F(3)]]) == [
            ["1", "0"],
            ["-1/2", "3"],
        ]


class TestSeriesAndReports:
    def test_series_shape(self):
        data = series_to_json(delta_a_family(tee(2)))
        assert data["arity"] == 2
        assert data["templates"]
        for t in data["templates"]:
            assert set(t) == {"vars", "coeff", "keys"}
            json.dumps(t)

    def test_report_round_shape(self):
        rep = CheckReport.build(
            "X", Window(3, 1), 7, [("lbl", (tee(1),), ((("k",), F(2)),))], {"a": 1}
        )
        data = report_to_json(rep)
        assert data["passed"] is False
        assert data["violations"][0]["label"] == "lbl"
        json.dumps(data)


class TestCanonicalJson:
    def test_sorted_and_newline(self):
        s = canonical_json({"b": 1, "a": 2})
        assert s.index('"a"') < s.index('"b"')
        assert s.endswith("\n")

    def test_deterministic(self):
        payload = {"x": [1, 2, {"z": "3/4", "y": None}]}
        assert canonical_json(payload) == canonical_json(payload)

    def test_encode_value_fractions(self):
        out = encode_value({"q": F(1, 2), "t": (tee(1), F(3))})
        json.dumps(out)
        assert out["q"] == "1/2"
