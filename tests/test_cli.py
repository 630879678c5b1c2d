import argparse
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from certbound import ProbVec, bounds, cli, sample_outcomes
from certbound.boson import BosonEnsemble, OutcomeSpace, boson_distribution
from certbound.cli import build_parser, main
from certbound.errors import MAX_DRAWS, MAX_OUTCOMES
from certbound.qsim import CircuitEnsemble
from certbound.rng import stream_rng


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

    def test_point_mass_entropies_print_as_plus_zero(self, capsys):
        code, out, _ = run(capsys, "norms", "--dist", "pointmass:4")
        assert code == 0
        assert '"min_entropy_bits": 0.0' in out and '"renyi2_bits": 0.0' in out and "-0.0" not in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "norms", "--dist", "/nonexistent.json")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("spec", ["uniform:1048577", "pointmass:1048577", "uniform:1000000000000000"])
    def test_builtin_dimension_cap(self, capsys, spec):
        code, out, err = run(capsys, "norms", "--dist", spec)
        assert code == 2 and out == ""
        assert err.startswith("resource limit:") and len(err.splitlines()) == 1


class TestDistributionCap:
    """One dimension cap, 2**MAX_QUBITS, on every source of a distribution."""

    @staticmethod
    def zeros_pvec(path, dim):
        # a header and a sparse payload of dim zero entries
        with open(path, "wb") as f:
            f.write(b"PVEC1" + dim.to_bytes(8, "little"))
            f.truncate(13 + 8 * dim)
        return str(path)

    def test_pvec_refused_from_its_size(self, tmp_path, capsys, monkeypatch):
        big = self.zeros_pvec(tmp_path / "big.pvec", 2**21)

        def unread(self):
            raise AssertionError(f"{self} was read")

        monkeypatch.setattr(pathlib.Path, "read_bytes", unread)
        code, out, err = run(capsys, "norms", "--dist", big)
        assert code == 2 and out == ""
        assert err == f"resource limit: {big}: dimension exceeds 2**20\n"

    def test_pvec_at_the_cap_is_read(self, tmp_path, capsys):
        code, out, _ = run(capsys, "norms", "--dist", self.zeros_pvec(tmp_path / "cap.pvec", 2**20))
        assert code == 0 and json.loads(out)["dim"] == 2**20

    def test_json_refused_before_parsing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_QUBITS", 3)
        path = tmp_path / "u9.json"
        path.write_text(ProbVec.uniform(9).to_json())

        def unparsed(text):
            raise AssertionError(f"{path} was parsed")

        monkeypatch.setattr(ProbVec, "from_json", staticmethod(unparsed))
        code, out, err = run(capsys, "norms", "--dist", str(path))
        assert code == 2 and out == ""
        assert err == f"resource limit: {path}: dimension exceeds 2**3\n"

    @pytest.mark.parametrize("suffix", [".json", ".pvec"])
    def test_file_over_a_lowered_cap(self, tmp_path, capsys, monkeypatch, suffix):
        monkeypatch.setattr(cli, "MAX_QUBITS", 3)
        for dim, expect in ((8, 0), (9, 2)):
            path = tmp_path / f"u{dim}{suffix}"
            u = ProbVec.uniform(dim)
            if suffix == ".pvec":
                path.write_bytes(u.to_bytes())
            else:
                path.write_text(u.to_json())
            code, _, err = run(capsys, "bounds", "--dist", str(path), "--eps", "0.1")
            assert code == expect, err
        assert err == f"resource limit: {path}: dimension exceeds 2**3\n"


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

    @pytest.mark.parametrize(
        "kind, flags, expected",
        [
            ("vv_lower", ["--dist", "uniform:64", "--c2", "2"], lambda: bounds.vv_lower_bound(ProbVec.uniform(64), 0.1, 2.0)),
            ("vv_upper", ["--dist", "uniform:64", "--c1", "3"], lambda: bounds.vv_upper_bound(ProbVec.uniform(64), 0.1, 3.0)),
            ("postselected", ["--dist", "uniform:8", "--subset", "1,2"],
             lambda: bounds.postselected_lower_bound(ProbVec.uniform(8), [1, 2], 0.1, 1.0)),
            ("smin_iqp", ["--n", "10", "--delta", "0.3"], lambda: bounds.smin_iqp(10, 0.3, 0.1, 1.0)),
            ("smin_design", ["--n", "10", "--eps-tilde", "0.01"], lambda: bounds.smin_design(10, 0.5, 0.1, 0.01, 1.0)),
            ("smin_boson", ["--n", "4", "--m", "1024", "--C", "1"],
             lambda: bounds.smin_boson(4, 1024, 0.5, 0.1, 0.25, 1.0, 1.0)),
            ("smin_boson_b", ["--n", "4"], lambda: bounds.smin_boson_full_space(4, 0.1, 1.0)),
        ],
    )
    def test_each_kind_reaches_its_bound(self, capsys, kind, flags, expected):
        code, out, _ = run(capsys, "bounds", "--kind", kind, "--eps", "0.1", *flags)
        assert code == 0
        assert out == expected().to_json() + "\n"

    def test_a_foreign_flag_at_its_default_is_accepted(self, capsys):
        plain = run(capsys, "bounds", "--kind", "vv_lower", "--dist", "uniform:64", "--eps", "0.1")
        assert plain[0] == 0
        assert run(capsys, "bounds", "--kind", "vv_lower", "--dist", "uniform:64", "--eps", "0.1", "--c1", "1") == plain

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
        dist, outcomes = boson_distribution(BosonEnsemble(2, 3, 5).instance(0))
        assert lines[1:] == [f"{occ},{float(p)!r}" for occ, p in zip(outcomes, dist.entries)]

    def test_boson_csv_stdout_equals_out_file(self, tmp_path, capsys):
        argv = ["simulate", "boson", "--n", "3", "--m", "6", "--csv"]
        out_file = tmp_path / "dist.csv"
        code, _, _ = run(capsys, *argv, "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == out_file.read_text()

    @pytest.mark.parametrize("n, m", [(4, 16), (5, 16)])
    def test_boson_csv_has_the_repr_of_each_probability(self, capsys, n, m):
        code, out, _ = run(capsys, "simulate", "boson", "--n", str(n), "--m", str(m), "--seed", "7", "--csv")
        assert code == 0
        dist, outcomes = boson_distribution(BosonEnsemble(n, m, 7).instance(0))
        rows = [f"{occ},{prob!r}" for occ, prob in zip(outcomes.labels(), dist.entries.tolist())]
        assert out == "\n".join(["occupation,probability", *rows]) + "\n"

    def test_boson_csv_rows_have_two_fields(self, capsys, monkeypatch):
        # ten photons in three modes: labels such as 10,0,0 hold commas, 910 does not.  A real
        # instance needs m >= n, and the 92 378 outcomes of (10, 10) take seconds to simulate.
        space = OutcomeSpace(3, 10)
        dist = ProbVec(np.arange(1.0, len(space) + 1) / math.fsum(range(1, len(space) + 1)))
        monkeypatch.setattr(cli, "boson_distribution", lambda inst: (dist, space))
        code, out, _ = run(capsys, "simulate", "boson", "--n", "2", "--m", "3", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["occupation", "probability"]
        probs = dist.entries.tolist()
        assert rows[1:] == [[str(occ), repr(p)] for occ, p in zip(space, probs)]
        assert out.splitlines()[1:3] == [f'"10,0,0",{probs[0]!r}', f"910,{probs[1]!r}"]

    def test_json_stdout_file_and_json_dumps_agree(self, tmp_path, capsys):
        argv = ["simulate", "haar", "--n", "12", "--seed", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(tmp_path / "x.json"))[0] == 0
        assert run(capsys, *argv, "--out", str(tmp_path / "x.pvec"))[0] == 0
        entries = ProbVec.from_bytes((tmp_path / "x.pvec").read_bytes()).entries
        assert out == (tmp_path / "x.json").read_text() + "\n"
        assert out == json.dumps(entries.tolist()) + "\n"

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize(
        "argv, ensemble",
        [
            (["iqp", "--n", "4"], CircuitEnsemble("iqp", 4, 0)),
            (["haar", "--n", "3"], CircuitEnsemble("haar_state", 3, 0)),
            (["rcs", "--n", "3", "--depth", "6"], CircuitEnsemble("local_random", 3, 0, depth=6)),
            (["boson", "--n", "2", "--m", "4"], BosonEnsemble(2, 4, 0)),
        ],
    )
    def test_writes_instance_0_of_the_sweeps_ensemble(self, tmp_path, capsys, argv, ensemble, seed):
        out_file = tmp_path / "dist.pvec"
        code, _, _ = run(capsys, "simulate", *argv, "--seed", str(seed), "--out", str(out_file))
        assert code == 0
        expected = dataclasses.replace(ensemble, seed=seed).instance_distribution(0)
        assert out_file.read_bytes() == expected.to_bytes()

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run(capsys, "simulate", "iqp", "--n", "25", "--seed", "0")
        assert code == 2
        assert "resource limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "rcs", "--n", "1", "--depth", str(MAX_OUTCOMES // 4 + 1)],
            ["simulate", "rcs", "--n", "2", "--depth", str(MAX_OUTCOMES // 16 + 1)],
            ["moments", "--ensemble", "rcs", "--n", "2", "--depth", str(MAX_OUTCOMES // 16 + 1), "--instances", "2"],
            # |Phi| = m passes the outcome cap, but the m x m unitary does not
            ["simulate", "boson", "--n", "1", "--m", str(math.isqrt(MAX_OUTCOMES) + 1)],
            ["moments", "--ensemble", "boson", "--n", "1", "--m", str(math.isqrt(MAX_OUTCOMES) + 1), "--instances", "2"],
        ],
    )
    def test_matrix_stack_over_the_cap_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("resource limit:") and len(err.splitlines()) == 1


class TestMonteCarloCommands:
    def test_moments(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--ensemble", "haar", "--n", "2", "--instances", "200", "--seed", "4",
        )
        data = json.loads(out)
        assert code == 0
        assert abs(data["sum_second_moments"] - 0.4) < 6 * data["std_error"]

    @pytest.mark.parametrize(
        "ensemble, flags", [("iqp", []), ("haar", []), ("rcs", ["--depth", "2"]), ("boson", ["--m", "3"])]
    )
    def test_moments_names_the_ensemble_as_the_flag_does(self, capsys, ensemble, flags):
        code, out, _ = run(capsys, "moments", "--ensemble", ensemble, "--n", "2", "--instances", "2", *flags)
        assert code == 0 and json.loads(out)["ensemble"] == ensemble

    def test_tail_check(self, capsys):
        code, out, _ = run(
            capsys, "tail-check", "--ensemble", "haar", "--n", "3",
            "--delta", "0.2", "--instances", "300", "--seed", "2",
        )
        data = json.loads(out)
        assert code == 0
        assert data["violation_fraction"] <= 0.2 + 4 * math.sqrt(0.2 * 0.8 / 300)
        f = data["violation_fraction"]
        assert data["std_error"] == math.sqrt(max(f * (1 - f), 1 / 300) / 300) and data["seed"] == 2

    def test_anticoncentration(self, capsys):
        code, out, _ = run(
            capsys, "anticoncentration", "--ensemble", "haar", "--n", "3",
            "--alpha", "0.5", "--instances", "300", "--seed", "2",
        )
        data = json.loads(out)
        assert code == 0
        assert data["passed"] and data["seed"] == 2 and data["std_error"] > 0


class TestCertify:
    def test_accepts_own_samples(self, tmp_path, capsys):
        p = ProbVec.uniform(8)
        target = tmp_path / "p.json"
        target.write_text(p.to_json())
        samples = tmp_path / "s.json"
        samples.write_text(json.dumps(sample_outcomes(p, 200, stream_rng(5)).tolist()))
        code, out, _ = run(
            capsys, "certify", "--target", str(target), "--samples", str(samples), "--eps", "0.5",
        )
        data = json.loads(out)
        assert code == 0
        assert data["samples_used"] == 200

    def test_sample_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # refused from the file's comma count: the JSON is never parsed
        def no_parse(*args, **kwargs):
            raise AssertionError("parsed the samples file")

        samples = tmp_path / "s.json"
        samples.write_text(json.dumps([0] * (MAX_DRAWS + 1)))
        monkeypatch.setattr(json, "loads", no_parse)
        code, out, err = run(capsys, "certify", "--target", "uniform:8", "--samples", str(samples), "--eps", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("resource limit:") and len(err.splitlines()) == 1

    def test_monte_carlo_caps_exit_2(self, tmp_path, capsys):
        # refused from the flags alone, before a sample set is drawn
        samples = tmp_path / "s.json"
        samples.write_text(json.dumps([0] * 10))
        for argv in (
            ["certify", "--target", "uniform:8", "--samples", str(samples), "--eps", "0.5",
             "--calibration-runs", "1000000000"],
            ["complexity", "--dist", "uniform:8", "--eps", "0.2", "--distance", "0.5", "--trials", "1000000000"],
            ["moments", "--ensemble", "haar", "--n", "2", "--instances", str(MAX_DRAWS + 1)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("resource limit:") and len(err.splitlines()) == 1


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

    def test_one_parser_serves_every_call(self, capsys):
        # build_parser() is built once per process, so each call's result must be its own
        assert build_parser() is build_parser()
        code, out, err = run(capsys, "norms", "--dist", "uniform:4", "--bogus-flag", "1")
        assert code == 1 and out == "" and err == "error: unrecognized arguments: --bogus-flag 1\n"
        code, out, err = run(capsys, "norms", "--dist", "uniform:4")
        assert code == 0 and json.loads(out)["dim"] == 4 and err == ""
        code, out, err = run(capsys, "--version")
        assert code == 0 and out == f"{cli.__version__}\n" and err == ""

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

    def test_config_file_boolean_flags(self, tmp_path, capsys):
        argv = ["simulate", "boson", "--n", "2", "--m", "3", "--seed", "5"]
        _, csv, _ = run(capsys, *argv, "--csv")
        _, pvec, _ = run(capsys, *argv)
        for text, expected in (("csv = true\n", csv), ("csv = false\n", pvec)):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(text)
            code, out, _ = run(capsys, *argv, "--config", str(cfg))
            assert code == 0 and out == expected


# a single instance, a batched boson sweep and a batched Haar-state sweep
_SEEDED_COMMANDS = [
    ["simulate", "boson", "--n", "2", "--m", "3"],
    ["moments", "--ensemble", "boson", "--n", "2", "--m", "3", "--instances", "4"],
    ["moments", "--ensemble", "haar", "--n", "2", "--instances", "4"],
]


class TestMalformedInput:
    """Malformed input exits 1 with a single error line, not a traceback."""

    def assert_one_line_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        return err

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

    @pytest.mark.parametrize(
        "text", ['[{}, 0.5]', '["0.5", "0.5"]', '[true, false]', '[0.5, true]', '[null, 1]', "[1" + "0" * 400 + "]"]
    )
    def test_dist_file_holding_non_numbers(self, tmp_path, capsys, text):
        dist = tmp_path / "d.json"
        dist.write_text(text)
        self.assert_one_line_error(capsys, "norms", "--dist", str(dist))

    def test_threads_flag_is_gone(self, capsys):
        assert build_parser().parse_args(["bs-tail", "--n", "2", "--m", "2"]).threads == 1
        code, out, _ = run(capsys, "bs-tail", "--n", "2", "--m", "2", "--threads", "2")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("argv", _SEEDED_COMMANDS)
    def test_seed_outside_64_bits(self, capsys, argv, seed):
        # SeedSequence would take -1 as 2^64 - 1 and 2^64 + 1 as 1
        err = self.assert_one_line_error(capsys, *argv, "--seed", seed)
        assert err == f"error: seed must be in [0, 2^64), got {seed}\n"

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    @pytest.mark.parametrize("argv", _SEEDED_COMMANDS)
    def test_seed_at_the_ends_of_its_range(self, capsys, argv, seed):
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("argv", [["norms", "--dist", "uniform:8"], ["bounds", "--dist", "uniform:8", "--eps", "0.1"]])
    def test_seed_is_no_flag_of_norms_or_bounds(self, capsys, argv):
        # neither command draws, so a --seed would only be recorded in the manifest
        assert "--seed" in self.assert_one_line_error(capsys, *argv, "--seed", "99")

    @pytest.mark.parametrize(
        "argv",
        [
            ["norms", "--dist", "uniform:8", "--bogus", "1"],  # unknown flag
            ["moments", "--ensemble", "haar"],  # missing required flag
            ["moments", "--ensemble", "ghz", "--n", "2"],  # bad choice
            ["moments", "--ensemble", "haar", "--n", "two"],  # bad int
            [],  # missing subcommand
        ],
    )
    def test_argparse_errors_are_one_line(self, capsys, argv):
        self.assert_one_line_error(capsys, *argv)

    @pytest.mark.parametrize("command", [["simulate", "boson"], ["moments", "--ensemble", "boson", "--instances", "2"]])
    def test_more_photons_than_modes(self, capsys, command):
        assert self.assert_one_line_error(capsys, *command, "--n", "3", "--m", "2") == "error: need m >= n >= 1\n"

    def test_version_exits_0(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == 0 and out.strip() and err == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "iqp", "--n", "3", "--depth", "7"], "--depth"),
            (["simulate", "haar", "--n", "2", "--m", "9"], "--m"),
            (["simulate", "boson", "--n", "2", "--m", "4", "--depth", "3"], "--depth"),
            (["simulate", "rcs", "--n", "2", "--depth", "3", "--m", "4"], "--m"),
            (["moments", "--ensemble", "iqp", "--n", "2", "--depth", "3", "--instances", "2"], "--depth"),
            (["tail-check", "--ensemble", "haar", "--n", "2", "--m", "4", "--delta", "0.5", "--instances", "2"], "--m"),
            (["anticoncentration", "--ensemble", "boson", "--n", "2", "--m", "4", "--depth", "3",
              "--alpha", "0.5", "--instances", "2"], "--depth"),
        ],
    )
    def test_flag_of_another_ensemble(self, capsys, argv, flag):
        err = self.assert_one_line_error(capsys, *argv)
        assert flag in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "smin_iqp", "--n", "0", "--eps", "0.45", "--c2", "-1"],
            ["--kind", "smin_iqp", "--n", "4", "--eps", "0.1", "--c2", "-1"],
            ["--kind", "smin_boson_b", "--n", "2", "--eps", "0.1", "--c2", "0"],
            ["--kind", "vv_upper", "--dist", "uniform:8", "--eps", "0.1", "--c1", "0"],
        ],
    )
    def test_bound_constant_at_most_0(self, capsys, flags):
        err = self.assert_one_line_error(capsys, "bounds", *flags)
        assert "must be > 0" in err

    @pytest.mark.parametrize("kind, n", [("smin_iqp", "-3"), ("smin_design", "-3"), ("smin_boson_b", "0")])
    def test_bound_qubit_count_below_1(self, capsys, kind, n):
        err = self.assert_one_line_error(capsys, "bounds", "--kind", kind, "--n", n, "--eps", "0.1")
        assert err == "error: n must be >= 1\n"

    @pytest.mark.parametrize("kind", ["vv_lower", "vv_upper", "sandwich", "postselected"])
    def test_bound_without_dist(self, capsys, kind):
        err = self.assert_one_line_error(capsys, "bounds", "--kind", kind, "--eps", "0.1", "--subset", "0")
        assert "--dist" in err

    @pytest.mark.parametrize(
        "kind, dest",
        [(kind, dest) for kind, (_, reads) in cli._BOUNDS.items() for dest in cli._BOUND_FLAGS if dest not in reads],
    )
    def test_bound_flag_the_kind_does_not_read(self, capsys, kind, dest):
        flag = "--" + dest.replace("_", "-")
        value = {"dist": "nofile.json", "subset": "0", "n": "3", "m": "9"}.get(dest, "0.3")
        dist = ["--dist", "uniform:8"] if "dist" in cli._BOUNDS[kind][1] else []
        err = self.assert_one_line_error(capsys, "bounds", "--kind", kind, "--eps", "0.1", *dist, flag, value)
        assert err == f"error: {flag} is not read by --kind {kind}\n"

    @pytest.mark.parametrize("subset", [[], ["--subset", "0,a"]])
    def test_postselected_without_a_subset(self, capsys, subset):
        err = self.assert_one_line_error(
            capsys, "bounds", "--kind", "postselected", "--dist", "uniform:8", "--eps", "0.1", *subset
        )
        assert "--subset" in err

    @pytest.mark.parametrize("ensemble", ["iqp", "haar", "rcs"])
    def test_csv_is_boson_only(self, capsys, ensemble):
        err = self.assert_one_line_error(capsys, "simulate", ensemble, "--n", "2", "--csv")
        assert "--csv" in err


def _subcommands() -> dict:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _takes_floats(action) -> bool:
    try:
        return action.type is not None and isinstance(action.type("0.5"), float)
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return False


_FLOAT_FLAGS = [
    (name, action.option_strings[0])
    for name, sp in _subcommands().items()
    for action in sp._actions
    if _takes_floats(action)
]


class TestParserGuards:
    """Walks build_parser(): every float flag is finite, and `bounds --kind` offers exactly _BOUNDS."""

    def test_the_walk_finds_the_float_flags(self):
        assert {("norms", "--eps"), ("bounds", "--eps-tilde"), ("complexity", "--distance"), ("bs-tail", "--c")} <= set(
            _FLOAT_FLAGS
        )

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, flag", _FLOAT_FLAGS)
    def test_float_flag_rejects_non_finite(self, capsys, name, flag, bad):
        code, out, err = run(capsys, name, f"{flag}={bad}")
        assert code == 1 and out == ""
        assert err == f"error: argument {flag}: not a finite float: {bad!r}\n"

    def test_kind_choices_are_the_bounds_table(self):
        (kind,) = [a for a in _subcommands()["bounds"]._actions if a.dest == "kind"]
        assert list(kind.choices) == list(cli._BOUNDS)
        for _, reads in cli._BOUNDS.values():
            assert set(reads) <= set(cli._BOUND_FLAGS)


def _loaded_by_import(package: str) -> str:
    """The modules of `package` in sys.modules after `import certbound.cli` in a fresh interpreter, as printed."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = f"import sys, certbound, certbound.cli; print([m for m in sys.modules if (m + '.').startswith('{package}.')])"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves only the tests' oracles
    assert _loaded_by_import("scipy") == "[]\n"


def test_import_loads_no_numpy_random():
    # numpy.random (~16 ms of start-up) loads at the first stream a command draws
    assert _loaded_by_import("numpy.random") == "[]\n"
