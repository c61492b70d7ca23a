"""JSON wire format: scalars, keys, tensors, reports, canonical output."""

import contextlib
import io
import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permlie.kernel import (
    CheckReport,
    Window,
    av,
    ess,
    fin,
    mono,
    pair,
    pat_ess,
    pat_tee,
    tee,
    wn,
)
from permlie import cli, serialize
from permlie.affinize import affinization_probe
from permlie.families import (
    FiniteAlgebra,
    TensorElement,
    ats_family,
    delta_a_family,
    finite_catalog,
)
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
from helpers import criterion_5_bank, series_to_json
from serialize_reference import (
    canonical_json_by_dumps,
    encode_value_by_isinstance,
    report_to_json_unshared,
)

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
        p = pair(pat_tee(av("i")), pat_ess(-av("k") + 1))
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


# Plain JSON data for the one-pass writer: strings with non-ASCII and control
# characters, big and negative ints, bools, None, finite and non-finite
# floats, in nested lists, tuples and dicts, some of them empty or int-keyed.
_LEAVES = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x1F), max_size=4),
    st.text(st.characters(min_codepoint=0x80, max_codepoint=0x10FFFF), max_size=4),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=24,
)


def _containers(obj, out):
    """The ids of every list and dict inside obj, obj included."""
    if isinstance(obj, (list, dict)):
        out.add(id(obj))
        for v in obj.values() if isinstance(obj, dict) else obj:
            _containers(v, out)
    return out


class TestOnePassWriter:
    """canonical_json writes json.dumps(obj, sort_keys=True, indent=2) and a
    newline, and raises what json.dumps raises."""

    @settings(max_examples=300, deadline=None)
    @given(_VALUES, st.dictionaries(st.text(max_size=3), _VALUES, min_size=1, max_size=3))
    def test_equals_json_dumps(self, value, shared):
        # shared sits at two depths, and twice at one depth
        for obj in (value, {"a": shared, "b": [shared, shared, [shared]], "c": value}):
            assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "bad", [F(1, 2), {1, 2}, {"a": 1, 2: 3}], ids=["fraction", "set", "mixed-keys"]
    )
    def test_raises_as_json_dumps(self, bad):
        for obj in (bad, {"x": [1, bad]}):
            with pytest.raises(Exception) as want:
                json.dumps(obj, sort_keys=True, indent=2)
            with pytest.raises(want.type) as got:
                canonical_json(obj)
            assert str(got.value) == str(want.value)

    def test_subclasses_as_json_dumps(self):
        # json.dumps writes an int subclass with int.__repr__, not its own
        class Flag(int):
            def __repr__(self):
                return "flag"

        class Name(str):
            pass

        obj = {"a": Flag(3), "b": OrderedDict(z=1, y=Name("x")), "c": [True, Flag(0), 2.5]}
        assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert '"a": 3' in canonical_json(obj)

    def test_self_containing_list(self):
        loop = [1]
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference detected"):
            json.dumps(loop, sort_keys=True, indent=2)
        with pytest.raises(ValueError, match="Circular reference detected"):
            canonical_json({"loop": loop})


class TestSharedKeys:
    """report_to_json encodes each distinct key tuple of one report as one
    JSON object; the values are those of the unshared reference encoder."""

    @staticmethod
    def assert_as_reference(rep):
        data = report_to_json(rep)
        assert data == report_to_json_unshared(rep)
        assert canonical_json(data) == canonical_json_by_dumps(report_to_json_unshared(rep))
        assert encode_value(rep.extra) == encode_value_by_isinstance(rep.extra)
        for _, at, res in rep.violations:
            assert encode_value((at, res)) == encode_value_by_isinstance((at, res))

    def test_verify_all_window_4(self, monkeypatch):
        reports = []

        def kept(rep):
            reports.append(rep)
            return report_to_json(rep)

        monkeypatch.setattr(cli, "report_to_json", kept)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--window", "4", "--format", "json"]) == 0
        assert len(reports) > 40 and any(rep.violations for rep in reports)
        for rep in reports:
            self.assert_as_reference(rep)

    @pytest.mark.parametrize(
        "direction, window", [("algebra", Window(5)), ("coalgebra", Window(4))]
    )
    def test_criterion_5_failing_probes(self, direction, window):
        # the first two failing candidates of criterion 5's bank, whose window
        # reports carry the witness lists
        fam = ats_family()
        tables, deltas = criterion_5_bank(10)
        failing = 0
        for table in tables if direction == "algebra" else deltas:
            co = direction == "coalgebra"
            alg = FiniteAlgebra(
                id="probe", space="PR", dim=2, labels=("a", "b"), kind="none",
                mul={} if co else table, delta=table if co else None,
            )
            v = affinization_probe(alg, fam, direction, window, delta_table=table if co else None)
            if v.is_law:
                continue
            assert v.window_report.violations
            self.assert_as_reference(v.window_report)
            failing += 1
            if failing == 2:
                break
        assert failing == 2

    def test_equal_keys_are_one_object(self):
        at = pair(fin("P1", 0), tee(2))
        rep = CheckReport.build(
            "X", Window(3, 1), 2,
            [
                ("a", (pair(fin("P1", 0), tee(2)),), (((tee(1),), F(2)),)),
                ("b", (tee(1),), (((pair(fin("P1", 0), tee(2)),), F(1)),)),
            ],
            {"at": at},
        )
        data = report_to_json(rep)
        assert data == report_to_json_unshared(rep)
        a, b = data["violations"]
        assert a["at"][0] is b["residual"][0][0][0] is data["extra"]["at"]
        assert a["residual"][0][0][0] is b["at"][0]

    def test_writer_keeps_key_objects_only(self):
        # the one-pass writer's memo holds the key objects, which a report
        # shares, and not the report, violation or extra dicts around them
        at = pair(fin("P1", 0), tee(2))
        rep = CheckReport.build(
            "X", Window(3, 1), 2,
            [("a", (at,), (((tee(1),), F(2)),)), ("b", (tee(1),), (((at,), F(1)),))],
            {"at": at},
        )
        data = report_to_json(rep)
        dicts = []

        def walk(x):
            if isinstance(x, dict):
                dicts.append(x)
                x = list(x.values())
            if isinstance(x, list):
                for v in x:
                    walk(v)

        walk(data)
        done = {}
        assert serialize._json_text(data, "\n", done) + "\n" == canonical_json_by_dumps(data)
        kept = {i for i, _ in done}
        assert kept == {id(d) for d in dicts if "t" in d}

    def test_reports_share_no_object(self):
        rep = CheckReport.build(
            "X", Window(3, 1), 1, [("a", (tee(1),), (((tee(1),), F(2)),))], {"k": [tee(1)]}
        )
        one, two = report_to_json(rep), report_to_json(rep)
        assert one == two
        assert not _containers(one, set()) & _containers(two, set())
