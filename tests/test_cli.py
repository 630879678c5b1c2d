import json
import math

import numpy as np
import pytest

from certbound import ProbVec, sample_outcomes
from certbound.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNorms:
    def test_uniform_builtin(self, capsys):
        code, out, _ = run(capsys, "norms", "--dist", "uniform:4", "--eps", "0.0")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 4
        assert data["l2_3"] == pytest.approx(2.0, rel=1e-12)
        assert data["core_support"] == 3
        assert data["min_entropy_bits"] == pytest.approx(2.0)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "norms", "--dist", "/nonexistent.json")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("spec", ["uniform:1048577", "pointmass:1048577", "uniform:1000000000000000"])
    def test_builtin_dimension_cap(self, capsys, spec):
        code, out, err = run(capsys, "norms", "--dist", spec)
        assert code == 2 and out == ""
        assert err.startswith("resource limit:") and len(err.splitlines()) == 1


class TestBounds:
    def test_default_kind_reference_value(self, capsys):
        code, out, _ = run(capsys, "bounds", "--dist", "uniform:1024", "--eps", "0.1", "--c2", "1")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "vv_lower"
        assert data["value"] == pytest.approx(100.0 * 819.0**1.5 / 1024.0, rel=1e-9)
        assert abs(data["value"] - 2288.9) < 0.1

    def test_sandwich_kind(self, capsys):
        code, out, _ = run(capsys, "bounds", "--kind", "sandwich", "--dist", "uniform:4", "--eps", "0")
        data = json.loads(out)
        assert code == 0
        assert data["lower"] == pytest.approx(data["upper"], abs=1e-9)

    def test_postselected_kind(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--kind", "postselected", "--dist", "uniform:8",
            "--subset", "0,1,2,3", "--eps", "0.05",
        )
        data = json.loads(out)
        assert code == 0
        assert data["value"] == pytest.approx((1 / 0.0025) * 0.5 * 2 * 0.75**1.5, rel=1e-9)

    def test_smin_kinds(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--kind", "smin_boson", "--n", "4", "--m", "1024",
            "--delta", "0.5", "--eps", "0.05", "--zeta", "0.25",
        )
        data = json.loads(out)
        assert code == 0
        assert data["inputs"]["failure_probability"] == pytest.approx(0.5 + 0.125, rel=1e-9)


class TestSimulate:
    def test_iqp_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "simulate", "iqp", "--n", "3", "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        p = ProbVec.from_json(a.read_text())
        assert p.dim == 8 and p.normalized

    def test_manifest_written(self, tmp_path, capsys):
        out_file = tmp_path / "dist.json"
        code, _, _ = run(capsys, "simulate", "haar", "--n", "2", "--seed", "3", "--out", str(out_file))
        assert code == 0
        manifest = json.loads((tmp_path / "dist.json.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["config"]["n"] == 2
        import hashlib

        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert manifest["outputs"][0]["sha256"] == digest

    def test_manifest_config_reproducible(self, tmp_path, capsys):
        configs = []
        for name in ("a.json", "b.json"):
            code, _, _ = run(capsys, "simulate", "haar", "--n", "2", "--seed", "3", "--out", str(tmp_path / name))
            assert code == 0
            configs.append(json.loads((tmp_path / f"{name}.manifest.json").read_text())["config"])
        assert configs[0] == configs[1]

    def test_pvec_binary_output(self, tmp_path, capsys):
        out_file = tmp_path / "dist.pvec"
        code, _, _ = run(capsys, "simulate", "rcs", "--n", "3", "--depth", "5", "--seed", "1", "--out", str(out_file))
        assert code == 0
        p = ProbVec.from_bytes(out_file.read_bytes())
        assert p.dim == 8 and p.normalized

    def test_boson_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "boson", "--n", "2", "--m", "3", "--seed", "5", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "occupation,probability"
        assert len(lines) == 1 + math.comb(4, 2)
        assert lines[1].startswith("200,")
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run(capsys, "simulate", "iqp", "--n", "25", "--seed", "0")
        assert code == 2
        assert "resource limit" in err


class TestMonteCarloCommands:
    def test_moments(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--ensemble", "haar", "--n", "2", "--instances", "200", "--seed", "4",
        )
        data = json.loads(out)
        assert code == 0
        assert abs(data["sum_second_moments"] - 0.4) < 6 * data["std_error"]

    def test_tail_check(self, capsys):
        code, out, _ = run(
            capsys, "tail-check", "--ensemble", "haar", "--n", "3",
            "--delta", "0.2", "--instances", "300", "--seed", "2",
        )
        data = json.loads(out)
        assert code == 0
        assert data["violation_fraction"] <= 0.2 + 4 * math.sqrt(0.2 * 0.8 / 300)

    def test_anticoncentration(self, capsys):
        code, out, _ = run(
            capsys, "anticoncentration", "--ensemble", "haar", "--n", "3",
            "--alpha", "0.5", "--instances", "300", "--seed", "2",
        )
        data = json.loads(out)
        assert code == 0
        assert data["passed"]


class TestCertify:
    def test_accepts_own_samples(self, tmp_path, capsys):
        p = ProbVec.uniform(8)
        target = tmp_path / "p.json"
        target.write_text(p.to_json())
        samples = tmp_path / "s.json"
        samples.write_text(json.dumps(sample_outcomes(p, 200, 5).tolist()))
        code, out, _ = run(
            capsys, "certify", "--target", str(target), "--samples", str(samples), "--eps", "0.5",
        )
        data = json.loads(out)
        assert code == 0
        assert data["samples_used"] == 200


class TestComplexity:
    def test_small_search(self, capsys):
        code, out, _ = run(
            capsys, "complexity", "--dist", "uniform:8", "--eps", "0.5",
            "--adversary", "pairwise_shift", "--distance", "1.0", "--trials", "300",
        )
        data = json.loads(out)
        assert code == 0
        assert data["samples"] >= 1
        assert data["adversary_l1"] == pytest.approx(1.0, abs=1e-9)


class TestBsTail:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "bs-tail", "--n", "30", "--m", str(30**4))
        data = json.loads(out)
        assert code == 0
        assert 0 < data["bound"] < 1

    def test_divergent_sentinel(self, capsys):
        code, out, _ = run(capsys, "bs-tail", "--n", "3", "--m", "9")
        assert code == 0
        assert json.loads(out)["bound"] == math.inf


class TestArgHandling:
    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run(capsys, "norms", "--dist", "uniform:4", "--bogus-flag", "1")
        assert code == 1

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exit_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "certbound" in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist = uniform:16\neps = 0.1\n# comment line\n")
        code, out, _ = run(capsys, "norms", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["dim"] == 16
        # explicit flag wins over the config value
        code, out, _ = run(capsys, "norms", "--config", str(cfg), "--dist", "uniform:4")
        assert code == 0
        assert json.loads(out)["dim"] == 4


class TestMalformedInput:
    """Malformed input exits 1 with a single error line, not a traceback."""

    def assert_one_line_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_config_without_path(self, capsys):
        self.assert_one_line_error(capsys, "norms", "--dist", "uniform:4", "--config")

    def test_truncated_pvec(self, tmp_path, capsys):
        short = tmp_path / "short.pvec"
        short.write_bytes(b"PVEC1\x01")
        self.assert_one_line_error(capsys, "norms", "--dist", str(short))

    def test_samples_file_holding_an_object(self, tmp_path, capsys):
        samples = tmp_path / "s.json"
        samples.write_text(json.dumps({"samples": [0, 1, 2]}))
        self.assert_one_line_error(
            capsys, "certify", "--target", "uniform:8", "--samples", str(samples), "--eps", "0.5",
        )

    @pytest.mark.parametrize("bad", [0.9, True])
    def test_samples_file_holding_non_integers(self, tmp_path, capsys, bad):
        samples = tmp_path / "s.json"
        samples.write_text(json.dumps([0, 1, 2, bad] * 4))
        self.assert_one_line_error(
            capsys, "certify", "--target", "uniform:8", "--samples", str(samples), "--eps", "0.5",
        )

    def test_threads_flag_is_gone(self, capsys):
        assert build_parser().parse_args(["bs-tail", "--n", "2", "--m", "2"]).threads == 1
        code, out, _ = run(capsys, "bs-tail", "--n", "2", "--m", "2", "--threads", "2")
        assert code == 1 and out == ""
