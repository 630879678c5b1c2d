import argparse
import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from certbound import ProbVec, bounds, certtest, cli, sample_outcomes
from certbound.boson import BosonEnsemble, boson_distribution
from certbound.cli import build_parser, main
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
        samples.write_text(json.dumps(sample_outcomes(p, 200, stream_rng(5)).tolist()))
        code, out, _ = run(
            capsys, "certify", "--target", str(target), "--samples", str(samples), "--eps", "0.5",
        )
        data = json.loads(out)
        assert code == 0
        assert data["samples_used"] == 200

    def test_sample_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(certtest, "_S_MAX", 16)
        samples = tmp_path / "s.json"
        samples.write_text(json.dumps([0] * 17))
        code, out, err = run(capsys, "certify", "--target", "uniform:8", "--samples", str(samples), "--eps", "0.5")
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

    def test_threads_flag_is_gone(self, capsys):
        assert build_parser().parse_args(["bs-tail", "--n", "2", "--m", "2"]).threads == 1
        code, out, _ = run(capsys, "bs-tail", "--n", "2", "--m", "2", "--threads", "2")
        assert code == 1 and out == ""

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
