"""Command-line behaviors: exit codes, determinism, residuals, exports."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "permlie.cli"]


def run(*args, stdin=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, input=stdin
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

    def test_residual_zero_denominator(self, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('[[0, 1, "1/0"]]')
        p = run("residual", "perm-ybe", "--algebra", "ex-sd2", "--input", str(f))
        self.assert_usage_error(p)

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
