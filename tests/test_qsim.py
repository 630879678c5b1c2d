import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from certbound import (
    CircuitEnsemble,
    IqpWeights,
    ProbVec,
    haar_state_distribution,
    haar_unitary,
    iqp_output_distribution,
    local_random_circuit_distribution,
    sample_outcomes,
)
from certbound import qsim
from certbound.errors import InvalidParameterError, ResourceLimitError
from certbound.qsim import DEFAULT_ANGLE_SET, fwht
from certbound.rng import stream_rng


def iqp_unitary_dense(w: IqpWeights) -> np.ndarray:
    """Oracle: dense matrix exponential of the commuting X-type Hamiltonian."""
    n = w.n
    x_pauli = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def x_on(i):
        out = np.array([[1.0]], dtype=complex)
        for k in range(n):
            out = np.kron(out, x_pauli if k == i else eye)
        return out

    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        h += w.w[i, i] * x_on(i)
        for j in range(i + 1, n):
            h += w.w[i, j] * (x_on(i) @ x_on(j))
    return expm(1j * h)


class TestIqpWeights:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            IqpWeights(2, (0.0,), np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
        with pytest.raises(InvalidParameterError):
            IqpWeights(2, (0.0,), np.array([[0.0, 0.5], [0.5, 0.0]]))  # outside angle set
        with pytest.raises(InvalidParameterError):
            IqpWeights(2, (0.0,), np.zeros((3, 3)))

    def test_random_is_symmetric_and_in_set(self):
        w = IqpWeights.random(6, stream_rng(1))
        assert np.array_equal(w.w, w.w.T)
        assert np.all(np.isin(w.w, np.asarray(DEFAULT_ANGLE_SET)))

    def test_json_roundtrip(self):
        w = IqpWeights.random(5, stream_rng(2))
        w2 = IqpWeights.from_json(w.to_json())
        assert np.array_equal(w.w, w2.w)
        assert w.angle_set == w2.angle_set


class TestFwht:
    def test_matches_hadamard_matrix(self):
        rng = stream_rng(3)
        n = 4
        a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        h1 = np.array([[1, 1], [1, -1]], dtype=float)
        h = np.array([[1.0]])
        for _ in range(n):
            h = np.kron(h, h1)
        assert np.allclose(fwht(a), h @ a)

    def test_involution_up_to_scale(self):
        a = stream_rng(4).standard_normal(64)
        assert np.allclose(fwht(fwht(a)), 64 * a)

    def test_leaves_argument_unchanged(self):
        a = stream_rng(4).standard_normal(64) + 1j * stream_rng(5).standard_normal(64)
        before = a.copy()
        fwht(a)
        assert np.array_equal(a, before)


class TestIqpDistribution:
    def test_zero_weights_point_mass(self):
        w = IqpWeights(3, (0.0,), np.zeros((3, 3)))
        p = iqp_output_distribution(w)
        assert p.entries[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_pi_half_flip(self):
        # exp(i pi X / 2) = i X maps |0> to |1>
        w = IqpWeights(1, (0.0, math.pi / 2), np.array([[math.pi / 2]]))
        p = iqp_output_distribution(w)
        assert p.entries[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        rng = stream_rng(5)
        for n in (1, 2, 3, 5, 6):
            for _ in range(5):
                w = IqpWeights.random(n, rng)
                oracle = np.abs(iqp_unitary_dense(w)[:, 0]) ** 2
                mine = iqp_output_distribution(w).entries
                assert np.max(np.abs(oracle - mine)) < 1e-8

    def test_normalized(self):
        rng = stream_rng(6)
        for n in (2, 5, 8):
            p = iqp_output_distribution(IqpWeights.random(n, rng))
            assert p.normalized

    def test_two_pi_periodicity(self):
        rng = stream_rng(7)
        base = IqpWeights.random(4, rng)
        shifted = base.w.copy()
        shifted[1, 2] += 2 * math.pi
        shifted[2, 1] += 2 * math.pi
        angle_set = tuple(base.angle_set) + (float(shifted[1, 2]),)
        w2 = IqpWeights(4, angle_set, shifted)
        p1 = iqp_output_distribution(base).entries
        p2 = iqp_output_distribution(w2).entries
        assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            iqp_output_distribution(IqpWeights(21, (0.0,), np.zeros((21, 21))))

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_same_bits_as_the_complex_formula(self, n, monkeypatch):
        # blocks of 16 entries, so n = 7 runs three levels across blocks
        monkeypatch.setattr(qsim, "_BLOCK", 16)
        w = IqpWeights.random(n, stream_rng(14, n))
        oracle = np.abs(fwht(np.exp(1j * qsim._phases(w)))) ** 2
        mine = iqp_output_distribution(w).entries
        assert mine.tobytes() == (oracle / oracle.sum()).tobytes()


class TestHaar:
    def test_d1_is_phase(self):
        u = haar_unitary(1, stream_rng(8))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity_d64(self):
        u = haar_unitary(64, stream_rng(9))
        assert np.max(np.abs(u.conj().T @ u - np.eye(64))) < 1e-10
        assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-10

    def test_first_moment(self):
        # E[|U_00|^2] = 1/d for Haar
        rng = stream_rng(10)
        d = 16
        draws = np.array([abs(haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(3000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0 / d) < 4 * se

    def test_entry_squared_uniform_for_d2(self):
        # |U_00|^2 is uniform on [0,1] at d=2
        rng = stream_rng(11)
        draws = np.array([abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10000)])
        stat = kstest(draws, "uniform").statistic
        assert stat < 1.63 / math.sqrt(draws.size)  # 1% critical value

    def test_seed_reproducible(self):
        assert np.array_equal(haar_unitary(8, stream_rng(123)), haar_unitary(8, stream_rng(123)))


class TestHaarStateDistribution:
    def test_normalized(self):
        p = haar_state_distribution(5, stream_rng(12))
        assert p.normalized

    @pytest.mark.parametrize("n", [1, 6, 9])
    def test_same_bits_as_the_complex_formula(self, n, monkeypatch):
        monkeypatch.setattr(qsim, "_BLOCK", 64)
        rng = stream_rng(15, n)
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        oracle = np.abs(psi) ** 2
        mine = haar_state_distribution(n, stream_rng(15, n)).entries
        assert mine.tobytes() == (oracle / oracle.sum()).tobytes()

    def test_single_qubit_second_moment(self):
        # E[P(0)^2] = 2/(D(D+1)) = 1/3 at D=2
        rng = stream_rng(13)
        draws = np.array([haar_state_distribution(1, rng).entries[0] ** 2 for _ in range(20000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0 / 3.0) < 4 * se


class TestLocalRandomCircuit:
    def test_depth_zero_point_mass(self):
        p = local_random_circuit_distribution(4, 0, stream_rng(14))
        assert p.entries[0] == 1.0

    def test_single_gate_matches_haar_column(self):
        seed = 99
        p = local_random_circuit_distribution(2, 1, stream_rng(seed))
        rng = stream_rng(seed)
        int(rng.integers(0, 1))  # pair choice consumed first
        u = haar_unitary(4, rng)
        assert np.allclose(p.entries, np.abs(u[:, 0]) ** 2)

    def test_normalized_at_depth(self):
        p = local_random_circuit_distribution(5, 40, stream_rng(15))
        assert p.normalized

    def test_single_qubit_chain(self):
        p = local_random_circuit_distribution(1, 3, stream_rng(16))
        assert p.normalized and p.dim == 2


class TestSampleOutcomes:
    def test_point_mass(self):
        s = sample_outcomes(ProbVec.point_mass(5, 3), 100, stream_rng(0))
        assert np.all(s == 3)

    def test_uniform_frequencies(self):
        s = sample_outcomes(ProbVec.uniform(4), 10**6, stream_rng(1))
        counts = np.bincount(s, minlength=4)
        sigma = math.sqrt(10**6 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 250000) < 5 * sigma)

    def test_deterministic(self):
        p = ProbVec.uniform(8)
        assert np.array_equal(sample_outcomes(p, 1000, stream_rng(7)), sample_outcomes(p, 1000, stream_rng(7)))

    def test_requires_normalized(self):
        with pytest.raises(InvalidParameterError):
            sample_outcomes(ProbVec(np.array([0.3, 0.3])), 10, stream_rng(0))
        with pytest.raises(InvalidParameterError):
            sample_outcomes(ProbVec.uniform(2), -1, stream_rng(0))

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_matches_searchsorted_on_the_raw_stream(self, seed):
        for p in (ProbVec.uniform(7), ProbVec(np.array([0.0, 0.5, 0.0, 0.25, 0.25, 0.0])), ProbVec.point_mass(4, 3)):
            cdf = np.cumsum(p.entries)
            cdf[-1] = 1.0
            reference = np.searchsorted(cdf, stream_rng(seed).random(1000), side="right")
            drawn = sample_outcomes(p, 1000, stream_rng(seed))
            assert drawn.dtype == np.int64 and np.array_equal(drawn, reference)

    def test_one_inverse_cdf_in_the_package(self):
        # every sampler draws through qsim.inverse_cdf, the one place that pins the CDF's last entry
        src = Path(qsim.__file__).parent
        lines = [line for f in sorted(src.glob("*.py")) for line in f.read_text().splitlines()]
        assert sum(line.strip() == "cdf[-1] = 1.0" for line in lines) == 1


class TestCircuitEnsemble:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CircuitEnsemble(kind="bogus", n=3, seed=0)
        with pytest.raises(ResourceLimitError):
            CircuitEnsemble(kind="iqp", n=40, seed=0)

    def test_instance_reproducible(self):
        e = CircuitEnsemble(kind="haar_state", n=3, seed=5)
        a = e.instance_distribution(7).entries
        b = e.instance_distribution(7).entries
        assert np.array_equal(a, b)
        assert not np.array_equal(a, e.instance_distribution(8).entries)

    def test_sample_space_size(self):
        assert CircuitEnsemble(kind="iqp", n=6, seed=0).sample_space_size == 64
