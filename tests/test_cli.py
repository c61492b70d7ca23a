"""Command-line behaviors: exit codes, determinism, residuals, exports."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from permlie import cli
from permlie.affinize import coproduct_from_form, delta_bullet_rule, induced_lie_bracket, pair_keys
from permlie.doubles import restricted_dual_double
from permlie.families import (
    TensorElement,
    ats_family,
    delta_p_family,
    finite_catalog,
    perm_p_family,
    tensor_catalog,
    wn_family,
)
from permlie.kernel import TemplateSeries, Window, key_shape, key_slots, pair
from permlie.serialize import report_to_json
from permlie.ybe import affinize_r, coboundary_delta_perm, lie_delta_from_r
from key_loop_reference import bracket_table_by_keys, restricted_dual_by_keys
from series_equality_reference import series_equality_by_keys
from test_axioms import _keys_only

CMD = [sys.executable, "-m", "permlie.cli"]
# The CLI runs from this checkout's src, installed or not.
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
PATH = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
ENV = {**os.environ, "PYTHONPATH": PATH}


def run(*args, stdin=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, input=stdin, env=ENV
    )


class TestVerifyExitCodes:
    def test_paper_examples_passes(self):
        p = run("verify", "paper-examples", "--window", "3")
        assert p.returncode == 0
        assert "suite paper-examples: ok" in p.stdout

    def test_window_too_small(self):
        p = run("verify", "all", "--window", "2")
        assert p.returncode == 3
        assert "too small for law" in p.stderr

    def test_form_row_without_interior(self):
        # The first appendix row that needs an interior is the w1 form row,
        # whose laws are proved on patterns; the window is still refused.
        p = run("verify", "appendix", "--window", "3", "--margin", "4")
        assert p.returncode == 3
        assert "too small for law QuadPreLieForm" in p.stderr

    def test_unknown_suite(self):
        p = run("verify", "bogus")
        assert p.returncode == 2

    def test_ybe_suite_passes(self):
        p = run("verify", "ybe", "--window", "3")
        assert p.returncode == 0
        for name in (
            "ybe:residual-zero:semidirect",
            "ybe:diagram",
            "neg:coprelie:perturbed-ats",
            "neg:preperm:broken",
        ):
            assert name in p.stdout


class TestAppendixRoundTrip:
    def test_failing_roundtrip_is_a_fail_row(self, monkeypatch, capsys):
        # symplectic_to_prelie raises when the solved product is not a
        # compatible pre-Lie product; verify appendix reports that as a FAIL
        # row carrying the message, not as a traceback
        def refuse(lie, gram):
            raise ValueError("solved product's commutator differs from the bracket")

        monkeypatch.setattr(cli, "symplectic_to_prelie", refuse)
        assert cli.main(["verify", "appendix", "--window", "3"]) == 1
        out, err = capsys.readouterr()
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails and all("appendix:symplectic-roundtrip:" in line for line in fails)
        assert all("commutator differs from the bracket" in line for line in fails)
        assert "Traceback" not in out + err


class TestFailureRows:
    # a failing construction or a control that does not fail is a FAIL row
    # with a note, not a traceback

    def verify(self, capsys, suite):
        code = cli.main(["verify", suite, "--window", "3"])
        out, err = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in out + err
        return out.splitlines()

    def test_failing_manin_assembly(self, monkeypatch, capsys):
        def boom(alg, delta=None):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "manin_double_from_bialgebra", boom)
        lines = self.verify(capsys, "doubles")
        for tag in ("delta-ee", "delta-zero"):
            assert f"FAIL  doubles:manin:{tag}  [ManinAssembly]  (boom)" in lines
        assert not any("doubles:lie-triple:" in line for line in lines)
        assert not any("doubles:diagram" in line for line in lines)

    def test_o_operator_that_does_not_raise(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "o_to_ybe", lambda t, alg, rep: None)
        lines = self.verify(capsys, "ybe")
        assert "FAIL  neg:o-operator:adjoint  [OOperator]  (did not raise)" in lines
        assert [line for line in lines if line.startswith("FAIL  ")] == [
            "FAIL  neg:o-operator:adjoint  [OOperator]  (did not raise)"
        ]


class TestCanonicalDigests:
    # The bytes of `verify all --window 4`, pinned in both formats, and of
    # `export` for each exported object: a change that alters them on purpose
    # updates these digests and says so.
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "a3bb3033cd10bcab2c7e618976d5780a810aa3b4b58dfa85afa7e9cfd8b8f0f3"),
            ("text", "4b818f3c9f605d4866834a05be6c820002e70af771a25ec4872de7de9c9e1822"),
        ],
    )
    def test_verify_all_window_4(self, capsys, fmt, digest):
        assert cli.main(["verify", "all", "--window", "4", "--format", fmt]) == 0
        out, _ = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "obj, digest",
        [
            ("delta:e-t", "667b01d4c718a088963397a793acc3e5b9bb3966dd10e858eab2581828e7f5da"),
            ("delta:e-s", "150d4627b49c5029d912a5f290d08e42af819a0b1022d31d55efe0dc3115bb72"),
            ("double:ex-1p", "a594438ad7eba5eb52f1490ab7c8cce31e85b0dce95d8ebca83168c97d7f7e6c"),
            (
                "double:ex-prelie-1",
                "5838fb61c89f57da533e49f9db2671545bc1e25580e95a5ad7b78f320f31de64",
            ),
            ("ex-preperm-1", "dd81590477873cfed58c65cb20533ba41e3cb5ae38f96a81d3d7b3d36482734f"),
        ],
    )
    def test_export(self, capsys, obj, digest):
        assert cli.main(["export", obj]) == 0
        out, _ = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _failing_equality(name, bound):
    """(law, keys, lhs, rhs) of an equality row with one side perturbed."""
    if name == "coproduct-from-form:ats":
        fam = ats_family()
        return "CoproductFromForm", fam.keys(Window(bound)), coproduct_from_form(fam), (
            cli._perturbed_ats_delta
        )
    if name == "coproduct-from-form:permP":
        # the coproduct of the d1 monomials doubled
        fam = perm_p_family()

        def rhs(key):
            d = delta_p_family(key)
            return d + d if key_shape(key) == ("Mono", 1) else d

        return "CoproductFromForm", fam.keys(Window(bound)), coproduct_from_form(fam), rhs
    alg = finite_catalog()["ex-1p" if name == "cobracket-table" else "ex-sd2"]
    fam = ats_family()
    if name == "cobracket-table":
        # the Ess closed form tripled, the Tee one kept
        delta, _ = delta_bullet_rule(alg, fam)

        def rhs(key):
            want = cli._expected_cobracket(alg.space, key[2])
            return want.scale(3) if key[2][0] == "Ess" else want

        keys = [pair(alg.key(0), g) for g in fam.interior_keys(Window(bound), "cobracket-table")]
        return "CobracketTable", keys, delta, rhs
    # ybe:diagram with the tensor e0 (x) e1 + e1 (x) e0 read as e0 (x) e1 + 2 e1 (x) e0
    r = tensor_catalog()["r-sd2"][1]
    bad = TensorElement.of([(alg.key(0), alg.key(1), 1), (alg.key(1), alg.key(0), 2)])
    delta, _ = delta_bullet_rule(replace(alg, delta=coboundary_delta_perm(alg, r)), fam)
    _, sbr = induced_lie_bracket(alg, fam)
    rt = affinize_r(bad, fam)
    keys = pair_keys(alg, fam, Window(bound))
    return "CoboundaryDiagram", keys, delta, lambda key: lie_delta_from_r(sbr, rt, key)


class TestSeriesEquality:
    """cli._series_equality_report against the loop over keys of
    series_equality_reference, on perturbed sides whose reports fail."""

    @pytest.mark.parametrize("keys_only", [False, True], ids=["patterns", "keys-only"])
    @pytest.mark.parametrize(
        "name, bound",
        [
            ("coproduct-from-form:ats", 4),
            ("coproduct-from-form:ats", 6),
            ("coproduct-from-form:permP", 2),
            ("cobracket-table", 3),
            ("cobracket-table", 5),
            ("ybe:diagram", 3),
        ],
    )
    def test_failing_reports_match_the_key_loop(self, name, bound, keys_only):
        law, keys, lhs, rhs = _failing_equality(name, bound)
        if keys_only:
            lhs = _keys_only(lhs)
        got = cli._series_equality_report(law, keys, lhs, rhs, bound, 1)
        want = series_equality_by_keys(law, keys, lhs, rhs, bound)
        assert not want.passed
        assert report_to_json(got) == report_to_json(want)

    @pytest.mark.parametrize("window", [4, 6])
    def test_rows_close_on_patterns(self, monkeypatch, window):
        # each of the five rows is proved on patterns: inside the helper no
        # lifted series is left to enumerate and no key is read on the box
        inside, entered, boxed = [], [], []
        box = TemplateSeries.support_in_box
        helper = cli._lifted_violations

        def counted_box(series, bound):
            if inside:
                boxed.append(bound)
            return box(series, bound)

        def counted_helper(*args):
            inside.append(True)
            entered.append(True)
            try:
                return helper(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(TemplateSeries, "support_in_box", counted_box)
        monkeypatch.setattr(cli, "_lifted_violations", counted_helper)
        afam, pfam = ats_family(), perm_p_family()
        wp, we = min(5, window), min(6, window)
        reports = [
            cli._cobracket_table_report(wp, "t"),
            cli._cobracket_table_report(wp, "s"),
            cli._coproduct_from_form_report(afam, cli.delta_a_family, we),
            cli._coproduct_from_form_report(pfam, delta_p_family, we),
            cli._ybe_diagram_report(min(4, window)),
        ]
        assert all(rep.passed and rep.checked for rep in reports)
        assert len(entered) == len(reports)
        assert boxed == []


def _in_box(key, bound):
    return all(-bound <= s <= bound for s in key_slots(key))


def _flipped_closed_form(case):
    """cli._bracket_closed_form with the sign of one case ("tt", "ts", "st")
    flipped, on keys and on patterns."""
    closed, tag = cli._bracket_closed_form, {"Tee": "t", "Ess": "s"}

    def rule(p, q):
        out = closed(p, q)
        if tag[p[2][0]] + tag[q[2][0]] == case:
            return [(-c, k) for c, k in out]
        return out

    return rule


def _perturbed_w1_double(read):
    """The restricted double of w1 with its product doubled on the shape pair
    (s, t), or its partner value doubled on s keys."""
    w1d = restricted_dual_double(wn_family(1))
    if read == "rule":
        def rule(x, y):
            r = w1d.rule(x, y)
            return (r[0] + r[0], r[1]) if (x[0], y[0]) == ("Ess", "Tee") else r

        return replace(w1d, rule=rule)

    def partner(x):
        v, z = w1d.partner(x)
        return (v + v, z) if x[0] == "Ess" else (v, z)

    return replace(w1d, partner=partner)


class TestTableRowsOnPatterns:
    """affinize:bracket-table and appendix:restricted-dual:w1-equals-ats go
    through cli._series_equality_report on pairs of keys and are proved on
    patterns; key_loop_reference keeps the loops they replaced.

    A failing row lists the pairs whose difference has support on the box
    [-N, N], as every series-equality row does; the key loops also listed
    the pairs whose difference lies wholly outside it (an output index such
    as i + j - 1 past N).  The negative controls compare with the key loops
    on the pairs inside, and field for field with the tuple-by-tuple
    reference of the series-equality reading."""

    @pytest.mark.parametrize("window", range(2, 8))
    def test_rows_match_the_key_loops(self, window):
        got = cli._bracket_table_report(window)
        assert got.passed and got.checked == 4 * (2 * window + 1) ** 2
        assert report_to_json(got) == report_to_json(bracket_table_by_keys(window))
        got = cli._restricted_dual_equality_report(window)
        want = restricted_dual_by_keys(window, restricted_dual_double(wn_family(1)))
        assert got.passed
        assert report_to_json(got) == report_to_json(want)

    @pytest.mark.parametrize("keys_only", [False, True], ids=["patterns", "keys-only"])
    @pytest.mark.parametrize("case", ["tt", "ts", "st"])
    @pytest.mark.parametrize("bound", [3, 5])
    def test_flipped_closed_form_fails(self, monkeypatch, case, bound, keys_only):
        flipped = _flipped_closed_form(case)
        if keys_only:  # read tuple by tuple at the keys, with no lift
            rule = flipped

            def flipped(p, q):
                if not all(isinstance(s, int) for s in key_slots(p) + key_slots(q)):
                    raise TypeError("keys, not patterns")
                return rule(p, q)

        monkeypatch.setattr(cli, "_bracket_closed_form", flipped)
        got = cli._bracket_table_report(bound)
        want = bracket_table_by_keys(bound, flipped=case)
        assert not got.passed and not want.passed
        assert got.checked == want.checked
        inside = {
            at: tuple(((k,), c) for k, c in res if _in_box(k, bound))
            for _, at, res in want.violations
        }
        inside = {at: res for at, res in inside.items() if res}
        assert {at: res for _, at, res in got.violations} == inside
        assert len(inside) < len(want.violations)  # the outside pairs are not listed
        alg, fam = finite_catalog()["ex-1p"], ats_family()
        _, sbr = induced_lie_bracket(alg, fam)
        keys = [pair(alg.key(0), g) for g in fam.keys(Window(bound))]
        lhs, rhs = cli._series(sbr), cli._series(flipped)
        ref = series_equality_by_keys("AffineBracketTable", keys, lhs, rhs, bound, 2)
        assert report_to_json(got) == report_to_json(ref)

    @pytest.mark.parametrize("read", ["rule", "partner"])
    @pytest.mark.parametrize("bound", [3, 6])
    def test_perturbed_restricted_double_fails(self, monkeypatch, read, bound):
        bad = _perturbed_w1_double(read)
        monkeypatch.setattr(cli, "restricted_dual_double", lambda fam: bad)
        got = cli._restricted_dual_equality_report(bound)
        want = restricted_dual_by_keys(bound, bad)
        assert not got.passed and got.checked == want.checked
        afam = ats_family()

        def inside(at):  # a pair's products, or a key's partner, on the box
            if len(at) == 1:
                return True
            outs = (bad.product_one(*at), afam.product_one(*at))
            return any(_in_box(p[1], bound) for p in outs if p)

        flagged = [at for _, at, _ in got.violations]
        if read == "partner":
            # the key loop also flags each pair (a, b) whose form differs, and
            # a is then a key whose partner differs
            assert flagged == [at for _, at, _ in want.violations if len(at) == 1]
            assert {at[0] for _, at, _ in want.violations} == {a for a, in flagged}
        else:
            assert flagged == [at for _, at, _ in want.violations if inside(at)]
            assert {len(at) for at in flagged} == {2}

    @pytest.mark.parametrize("window", [4, 40])
    def test_passing_rows_read_no_box(self, monkeypatch, window):
        calls = []
        box = TemplateSeries.support_in_box

        def counted(series, bound):
            calls.append(bound)
            return box(series, bound)

        monkeypatch.setattr(TemplateSeries, "support_in_box", counted)
        table = cli._bracket_table_report(window)
        dual = cli._restricted_dual_equality_report(min(6, window))
        assert table.passed and table.checked == 4 * (2 * window + 1) ** 2
        assert dual.passed and dual.checked == 4 * (2 * min(6, window) + 1) ** 2
        assert calls == []


class TestDeterminism:
    def test_seeded_json_runs_identical(self):
        a = run("verify", "ybe", "--seed", "7", "--window", "3", "--format", "json")
        b = run("verify", "ybe", "--seed", "7", "--window", "3", "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout)
        assert payload["passed"] is True
        assert payload["seed"] == 7


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 3, "format": "json"}))
        p = run("verify", "paper-examples", "--config", str(cfg), "--format", "text")
        assert p.returncode == 0
        assert p.stdout.startswith("ok")  # text, not json

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        p = run(
            "verify", "ybe", "--window", "3", "--format", "json",
            "--out", str(out),
        )
        assert p.returncode == 0
        assert p.stdout == ""
        assert json.loads(out.read_text())["suite"] == "ybe"


class TestResidual:
    def test_catalog_solution_zero(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('[[0, 1, "1"], [1, 0, "1"]]')
        p = run("residual", "perm-ybe", "--algebra", "ex-sd2", "--input", str(f))
        assert p.returncode == 0
        assert p.stdout.strip() == "zero"

    def test_empty_tensor_zero(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text("[]")
        p = run("residual", "perm-ybe", "--algebra", "ex-sd2", "--input", str(f))
        assert p.returncode == 0

    def test_nonsolution_prints_terms(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('[[0, 0, "1"]]')
        p = run("residual", "perm-ybe", "--algebra", "ex-nilp2", "--input", str(f))
        assert p.returncode == 1
        lines = [ln for ln in p.stdout.splitlines() if ln]
        assert len(lines) == 2
        assert lines == sorted(lines)

    def test_parse_error_has_position(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('[[0, 1, "1"],\n [1, oops]]')
        p = run("residual", "perm-ybe", "--algebra", "ex-sd2", "--input", str(f))
        assert p.returncode == 2
        assert "line 2" in p.stderr and "column" in p.stderr

    def test_unknown_algebra(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text("[]")
        p = run("residual", "perm-ybe", "--algebra", "nope", "--input", str(f))
        assert p.returncode == 2

    def test_stdin_and_s_eq(self):
        p = run(
            "residual", "s-eq", "--algebra", "ex-prelie-n2", "--input", "-",
            stdin='[[1, 0, "1"], [0, 1, "1"], [1, 1, "-1"]]',
        )
        assert p.returncode in (0, 1)

    def test_cybe_json_report(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('[[0, 1, "1"], [1, 0, "1"]]')
        p = run(
            "residual", "cybe", "--algebra", "ex-sd2", "--input", str(f),
            "--window", "3", "--format", "json",
        )
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["report"]["passed"] is True

    def test_json_payload_for_nonzero(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('[[0, 0, "1"]]')
        p = run(
            "residual", "perm-ybe", "--algebra", "ex-nilp2", "--input", str(f),
            "--format", "json",
        )
        assert p.returncode == 1
        payload = json.loads(p.stdout)
        assert payload["zero"] is False
        assert payload["residual"]


class TestExport:
    def test_ex_1p_values(self):
        p = run("export", "ex-1p")
        assert p.returncode == 0
        data = json.loads(p.stdout)
        assert data["n"] == 1
        assert data["c"][0][0][0] == "1"
        assert data["delta"] == [[0, 0, 0, "1"]]

    def test_byte_stable(self):
        a = run("export", "double:ex-1p")
        b = run("export", "double:ex-1p")
        assert a.stdout == b.stdout and a.returncode == 0

    def test_manin_double_export(self):
        p = run("export", "double:ex-1p")
        data = json.loads(p.stdout)
        assert data["algebra"]["n"] == 2
        assert data["kappa"] == [["0", "-1"], ["1", "0"]]

    def test_prelie_double_export(self):
        p = run("export", "double:ex-prelie-1")
        data = json.loads(p.stdout)
        assert data["algebra"]["n"] == 2
        assert "form" in data

    def test_delta_templates(self):
        p = run("export", "delta:e-t")
        data = json.loads(p.stdout)
        assert data["arity"] == 2
        assert len(data["templates"]) == 4
        for t in data["templates"]:
            assert t["vars"] == ["j1"]
        p = run("export", "delta:e-s")
        data = json.loads(p.stdout)
        assert len(data["templates"]) == 2
        assert all("i" in t["coeff"] for t in data["templates"])

    def test_unknown_object(self):
        p = run("export", "nothing")
        assert p.returncode == 2


class TestMalformedInput:
    """Each malformed input exits 2 with a one-line message, no traceback."""

    def assert_usage_error(self, p):
        assert p.returncode == 2
        assert "Traceback" not in p.stderr
        assert len(p.stderr.strip().splitlines()) == 1

    def test_config_bad_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"window": 3,')
        self.assert_usage_error(run("verify", "ybe", "--config", str(cfg)))

    def test_config_missing_file(self, tmp_path):
        cfg = tmp_path / "absent.json"
        self.assert_usage_error(run("verify", "ybe", "--config", str(cfg)))

    def test_config_window_not_a_number(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": "x"}))
        self.assert_usage_error(run("verify", "ybe", "--config", str(cfg)))

    def test_config_window_infinite(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"window": Infinity}')
        self.assert_usage_error(run("verify", "ybe", "--config", str(cfg)))

    def test_config_nested_too_deep(self, tmp_path):
        # the decoder's recursion limit is a parse error, not a failed check
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        p = run("verify", "ybe", "--config", str(cfg))
        self.assert_usage_error(p)
        assert p.stderr.startswith(f"permlie: bad config {cfg}: ")

    def test_residual_nested_too_deep(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text("[" * 100_000)
        p = run("residual", "perm-ybe", "--algebra", "ex-1p", "--input", str(f))
        self.assert_usage_error(p)
        assert p.stderr.startswith("parse error: ")

    def test_residual_zero_denominator(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('[[0, 1, "1/0"]]')
        p = run("residual", "perm-ybe", "--algebra", "ex-sd2", "--input", str(f))
        self.assert_usage_error(p)

    @pytest.mark.parametrize(
        "cfg",
        [{"window": 2.5}, {"window": True}, {"seed": "7"}, {"window": None}],
        ids=["float-window", "bool-window", "string-seed", "null-window"],
    )
    def test_config_value_of_wrong_kind(self, tmp_path, cfg):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        self.assert_usage_error(run("verify", "ybe", "--config", str(f)))

    @pytest.mark.parametrize(
        "cfg, key",
        [({"windw": 3}, "windw"), ({"suite": "ybe"}, "suite"), ({"window": 3, "Seed": 7}, "Seed")],
        ids=["misspelt", "suite", "with-known-key"],
    )
    def test_config_unknown_key(self, tmp_path, cfg, key):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        p = run("verify", "ybe", "--config", str(f))
        self.assert_usage_error(p)
        assert p.stderr.strip() == f"permlie: bad config {f}: unknown key {key!r}"

    @pytest.mark.parametrize("coeff", ["1e4000000", "0.5", " 3", "1_0"])
    def test_residual_scalar_not_canonical(self, tmp_path, coeff):
        f = tmp_path / "r.json"
        f.write_text(json.dumps([[0, 1, coeff]]))
        p = run("residual", "perm-ybe", "--algebra", "ex-sd2", "--input", str(f))
        self.assert_usage_error(p)

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["verify", "ybe", "--window", "4"], "absent/x.json"),
            (["residual", "perm-ybe", "--algebra", "ex-sd2", "--input", "-"], "."),
            (["export", "ex-1p"], "."),
        ],
        ids=["verify", "residual", "export"],
    )
    def test_out_not_writable(self, tmp_path, argv, target):
        # a missing parent directory, or a directory in place of a file
        out = tmp_path / target
        p = run(*argv, "--out", str(out), stdin="[]")
        self.assert_usage_error(p)
        assert p.stderr.startswith(f"permlie: cannot write {out}: ")

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
    def test_verify_out_checked_before_suites(self, tmp_path, monkeypatch, target):
        calls = []

        def builder(cfg):
            calls.append(cfg.suite)
            return []

        monkeypatch.setattr(cli, "SUITES", {name: [builder] for name in cli.SUITES})
        out = tmp_path / target
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "all", "--window", "6", "--out", str(out)])
        lines = err.getvalue().strip().splitlines()
        assert code == 2
        assert "Traceback" not in err.getvalue()
        assert len(lines) == 1 and lines[0].startswith(f"permlie: cannot write {out}: ")
        assert calls == []

    def test_negative_margin_flag(self):
        self.assert_usage_error(run("verify", "ybe", "--window", "3", "--margin", "-3"))

    def test_negative_margin_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 3, "margin": -3}))
        self.assert_usage_error(run("verify", "ybe", "--config", str(cfg)))

    @pytest.mark.parametrize(
        "term",
        [
            [{"t": "Tee"}, 0, "1"],
            [{"t": "Mono", "i1": 0, "i2": 0, "d": 3}, 0, "1"],
            [{"t": "Wn", "e": [], "d": 1}, 0, "1"],
            [{"t": "Fin", "space": "SD2", "idx": 0}, {"t": "Tee", "i": 1}, "1"],
            [{"t": "Fin", "space": "SD2", "idx": 7}, 0, "1"],
        ],
        ids=["missing-field", "mono-derivation", "wn-derivation", "foreign-key", "fin-index"],
    )
    def test_residual_bad_key(self, tmp_path, term):
        f = tmp_path / "r.json"
        f.write_text(json.dumps([term]))
        p = run("residual", "perm-ybe", "--algebra", "ex-sd2", "--input", str(f))
        self.assert_usage_error(p)


# Front-door fuzzing: generated config files and residual inputs go straight
# into cli.main; whatever they hold, the exit code is one of the documented
# four and no exception escapes.

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/0", "3/4", "-2", "0", "x", "1/", "text", "json"])
    | st.sampled_from([-3, 2.5, 1e300, float("inf"), float("-inf"), float("nan")])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# "out" is left out: any value for it names a file the CLI would write.
_CONFIGS = st.dictionaries(
    st.sampled_from(["window", "margin", "seed", "format", "other"]),
    _SCALARS | _JSON,
    max_size=4,
)
_KEYS = st.integers(-2, 4) | st.fixed_dictionaries(
    {"t": st.sampled_from(["Fin", "Tee", "Mono", "Wn", "Pair", "x"])},
    optional={
        "space": st.sampled_from(["SD2", "N2", "P1", "PL2"]) | _SCALARS,
        "idx": st.integers(-1, 3) | _SCALARS,
        "i": _SCALARS,
        "i1": _SCALARS,
        "i2": _SCALARS,
        "d": _SCALARS,
        "e": _JSON,
        "l": _JSON,
        "r": _JSON,
    },
)
_TERMS = st.lists(st.tuples(_KEYS, _KEYS, _SCALARS).map(list), max_size=4)


def _main_on_file(argv, text):
    """cli.main with the generated file as the last argument: (code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as f:
            f.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + [path])
    return code, err.getvalue()


class TestFrontDoorFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=_CONFIGS | _JSON, truncated=st.booleans())
    def test_config(self, cfg, truncated):
        text = json.dumps(cfg)[:-1] if truncated else json.dumps(cfg)
        code, err = _main_on_file(["export", "ex-1p", "--config"], text)
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert len(err.strip().splitlines()) == 1

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        payload=_TERMS | _JSON,
        kind=st.sampled_from(["perm-ybe", "s-eq"]),
        alg=st.sampled_from(["ex-sd2", "ex-nilp2", "ex-1p", "ex-prelie-n2", "nope"]),
    )
    def test_residual_input(self, payload, kind, alg):
        argv = ["residual", kind, "--algebra", alg, "--input"]
        code, err = _main_on_file(argv, json.dumps(payload))
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert len(err.strip().splitlines()) == 1
