import inspect
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import kstest

from certbound import (
    BosonEnsemble,
    BosonInstance,
    CircuitEnsemble,
    IqpWeights,
    ProbVec,
    boson_distribution,
    haar_state_distribution,
    haar_unitary,
    iqp_output_distribution,
    local_random_circuit_distribution,
    sample_outcomes,
)
from certbound import boson, qsim
from certbound.errors import MAX_OUTCOMES, InvalidParameterError, ResourceLimitError
from certbound.qsim import DEFAULT_ANGLE_SET, fwht
from certbound.rng import _hash, _mix, stream_rng, stream_rngs

from conftest import normalized_targets


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
        with pytest.raises(InvalidParameterError, match="n must be >= 1"):
            IqpWeights(n=0, angle_set=(0.0,), w=np.zeros((0, 0)))

    def test_random_is_symmetric_and_in_set(self):
        w = IqpWeights.random(6, stream_rng(1))
        assert np.array_equal(w.w, w.w.T)
        assert np.all(np.isin(w.w, np.asarray(DEFAULT_ANGLE_SET)))

    def test_off_set_weights_from_outside_still_raise(self):
        w = IqpWeights.random(3, stream_rng(3))
        off = w.w.copy()
        off[0, 1] = off[1, 0] = 0.1
        with pytest.raises(InvalidParameterError, match="angle_set"):
            IqpWeights(3, DEFAULT_ANGLE_SET, off)
        data = json.loads(w.to_json())
        data["upper_triangle"][1] = 0.1
        with pytest.raises(InvalidParameterError, match="angle_set"):
            IqpWeights.from_json(json.dumps(data))
        with pytest.raises(InvalidParameterError):
            IqpWeights.random(0, stream_rng(3))

    @pytest.mark.parametrize("n", [4, 10, 16])
    def test_random_equals_the_checked_constructor(self, n):
        def checked(rng):
            angles = np.asarray(DEFAULT_ANGLE_SET)
            w = angles[rng.integers(0, angles.size, size=(n, n))]
            return IqpWeights(n=n, angle_set=DEFAULT_ANGLE_SET, w=np.triu(w) + np.triu(w, 1).T)

        count = 3 if n == 16 else 6
        ens = CircuitEnsemble("iqp", n, 11)
        want = [iqp_output_distribution(checked(stream_rng(11, i))).entries.tobytes() for i in range(count)]
        assert [p.entries.tobytes() for p in ens.distributions(count)] == want
        assert [ens.instance_distribution(i).entries.tobytes() for i in range(count)] == want
        w, ref = IqpWeights.random(n, stream_rng(11, 0)), checked(stream_rng(11, 0))
        assert w.w.tobytes() == ref.w.tobytes() and w.angle_set == ref.angle_set and not w.w.flags.writeable

    def test_random_refuses_n_below_1_before_it_draws(self):
        rng = stream_rng(3)
        for n in (0, -1):
            with pytest.raises(InvalidParameterError, match="n must be"):
                IqpWeights.random(n, rng)
        assert rng.random() == stream_rng(3).random()

    def test_one_construction_path_in_the_package(self):
        # every instance is built through its class's checked constructor: nothing skips __post_init__
        src = Path(qsim.__file__).parent
        assert not any("object.__new__" in f.read_text() for f in sorted(src.glob("*.py")))

    def test_json_roundtrip(self):
        w = IqpWeights.random(5, stream_rng(2))
        w2 = IqpWeights.from_json(w.to_json())
        assert np.array_equal(w.w, w2.w)
        assert w.angle_set == w2.angle_set

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_json_has_the_bytes_of_the_row_by_row_triangle(self, n):
        w = IqpWeights.random(n, stream_rng(20, n))
        upper = [float(w.w[i, j]) for i in range(n) for j in range(i, n)]
        assert w.to_json() == json.dumps({"n": n, "angle_set": list(w.angle_set), "upper_triangle": upper})
        assert IqpWeights.from_json(w.to_json()).w.tobytes() == w.w.tobytes()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 2.7, "n must be"),
            ("n", True, "n must be"),
            ("n", 0, "n must be"),
            ("upper_triangle", [0.0] * 6, "upper_triangle"),
            ("upper_triangle", [0.0] * 2, "upper_triangle"),
            ("upper_triangle", 0.0, "upper_triangle"),
        ],
    )
    def test_json_fields_are_checked(self, field, value, message):
        data = json.loads(IqpWeights.random(2, stream_rng(2)).to_json())
        data[field] = value
        with pytest.raises(InvalidParameterError, match=message):
            IqpWeights.from_json(json.dumps(data))


_IQP_JSON = IqpWeights.random(2, stream_rng(2)).to_json()
_BOSON_JSON = BosonInstance.haar(2, 3, stream_rng(1)).to_json()


def _without(text, field):
    data = json.loads(text)
    del data[field]
    return json.dumps(data)


def _with(text, field, value):
    return json.dumps({**json.loads(text), field: value})


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (IqpWeights.from_json, "[1]", "must be an object with fields n, angle_set, upper_triangle"),
        (IqpWeights.from_json, '"s"', "must be an object"),
        (IqpWeights.from_json, "null", "must be an object"),
        (IqpWeights.from_json, _without(_IQP_JSON, "angle_set"), "no field angle_set"),
        (IqpWeights.from_json, _without(_IQP_JSON, "n"), "no field n"),
        (IqpWeights.from_json, _with(_IQP_JSON, "angle_set", "ab"), "angle_set must be a list of numbers"),
        (IqpWeights.from_json, _with(_IQP_JSON, "angle_set", 3), "angle_set must be a list of numbers"),
        (IqpWeights.from_json, _with(_IQP_JSON, "angle_set", [0.0, True]), "angle_set must be a list of numbers"),
        (IqpWeights.from_json, _with(_IQP_JSON, "upper_triangle", ["0", 0, 0]), "upper_triangle must be a list"),
        (IqpWeights.from_json, _with(_IQP_JSON, "upper_triangle", [None, 0, 0]), "upper_triangle must be a list"),
        (BosonInstance.from_json, "[1]", "must be an object with fields n, m, U_re_im"),
        (BosonInstance.from_json, _without(_BOSON_JSON, "U_re_im"), "no field U_re_im"),
        (BosonInstance.from_json, _without(_BOSON_JSON, "m"), "no field m"),
        (BosonInstance.from_json, _with(_BOSON_JSON, "U_re_im", [False] * 18), "U_re_im must be a list of numbers"),
    ],
    ids=[
        "iqp-list", "iqp-string", "iqp-null", "iqp-no-angle_set", "iqp-no-n", "iqp-angle_set-string",
        "iqp-angle_set-int", "iqp-angle_set-bool", "iqp-upper_triangle-string", "iqp-upper_triangle-null",
        "boson-list", "boson-no-U_re_im", "boson-no-m", "boson-U_re_im-bools",
    ],
)
def test_instance_readers_name_the_field_at_fault(reader, text, message):
    with pytest.raises(InvalidParameterError, match=message):
        reader(text)


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

    @pytest.mark.parametrize("rows, k", [(1, k) for k in range(13)] + [(6, 1), (6, 2), (6, 5)])
    def test_real_rows_have_the_bits_of_the_complex_transform(self, rows, k):
        a = stream_rng(16, rows, k).standard_normal((rows, 2**k))
        want = np.stack([fwht(row.astype(complex)).real for row in a])
        assert qsim._fwht_inplace(a.copy()).tobytes() == want.tobytes()

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
    def test_same_bits_as_re_squared_plus_im_squared(self, n):
        w = IqpWeights.random(n, stream_rng(14, n))
        a = fwht(np.exp(1j * qsim._phases(w.w[None])[0]))
        mine = iqp_output_distribution(w).entries
        _assert_is_re_squared_plus_im_squared(mine, a)


def _assert_is_re_squared_plus_im_squared(p, a):
    """p has the bits of (re^2 + im^2) / sum over the amplitudes a, and is |a|^2 / sum to 2e-15 relative."""
    q = a.real**2 + a.imag**2
    assert p.tobytes() == (q / q.sum()).tobytes()
    c = np.abs(a) ** 2
    assert np.allclose(p, c / c.sum(), rtol=2e-15, atol=0)


def _concatenated_phases(*weights):
    """Oracle: the doubling with theta + a and theta - a built as new arrays and concatenated."""
    rev = np.stack([w.w for w in weights])[:, ::-1, ::-1]
    theta = np.zeros((len(weights), 1))
    acc = np.diagonal(rev, axis1=1, axis2=2)[:, :, None]
    for i in range(rev.shape[1]):
        a, acc = acc[:, 0], acc[:, 1:]
        theta = np.concatenate((theta + a, theta - a), axis=1)
        col = rev[:, i + 1 :, i, None]
        acc = np.concatenate((acc + col, acc - col), axis=2)
    return theta


class TestPhases:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_same_bits_as_the_concatenated_doubling(self, n):
        weights = [IqpWeights.random(n, stream_rng(19, n, j)) for j in range(3)]
        assert qsim._phases(np.stack([w.w for w in weights])).tobytes() == _concatenated_phases(*weights).tobytes()
        assert qsim._phases(weights[1].w[None]).tobytes() == _concatenated_phases(weights[1]).tobytes()

    def test_peak_memory(self):
        w = IqpWeights.random(16, stream_rng(1))
        tracemalloc.start()
        try:
            qsim._phases(w.w[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # theta (8 B per entry) and the accumulator's last levels; the concatenated doubling reads 24
        assert peak < 21 * 2**16


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

    def test_dimension_below_1_is_refused(self):
        with pytest.raises(InvalidParameterError, match="d must be >= 1"):
            haar_unitary(0, stream_rng(0))


class TestHaarStateDistribution:
    def test_normalized(self):
        p = haar_state_distribution(5, stream_rng(12))
        assert p.normalized

    @pytest.mark.parametrize("n", [1, 6, 9])
    def test_same_bits_as_re_squared_plus_im_squared(self, n):
        rng = stream_rng(15, n)
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        mine = haar_state_distribution(n, stream_rng(15, n)).entries
        _assert_is_re_squared_plus_im_squared(mine, psi)

    def test_single_qubit_second_moment(self):
        # E[P(0)^2] = 2/(D(D+1)) = 1/3 at D=2
        rng = stream_rng(13)
        draws = np.array([haar_state_distribution(1, rng).entries[0] ** 2 for _ in range(20000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0 / 3.0) < 4 * se


@pytest.mark.parametrize("n", [1, 3, 10])
def test_row_probabilities_of_a_batch_and_of_a_strided_state(n):
    rng = stream_rng(21, n)
    re, im = rng.standard_normal((5, 2**n)), rng.standard_normal((5, 2**n))
    rows = [qsim._row_probabilities(re[j].copy(), im[j].copy()).tobytes() for j in range(5)]
    assert qsim._row_probabilities(re.copy(), im.copy()).tobytes() == b"".join(rows)
    psi = re[0] + 1j * im[0]
    assert qsim._row_probabilities(psi.real, psi.imag).tobytes() == rows[0]


@pytest.mark.parametrize(
    "simulate, per_entry",
    [
        # the re and im rows, squared in place
        (lambda n: haar_state_distribution(n, stream_rng(2)), 16),
        # the phase build, then cos(theta) and sin(theta) written over theta, each transformed in place
        (lambda n: iqp_output_distribution(IqpWeights.random(n, stream_rng(1))), 26),
        # the complex state and the buffer each gate is written into; the spare one is released
        # before the ProbVec copy of the strided real row
        (lambda n: local_random_circuit_distribution(n, 20, stream_rng(3)), 32),
    ],
    ids=["haar", "iqp", "local_random"],
)
def test_single_instance_peak_memory(simulate, per_entry):
    n = 16
    simulate(n)
    tracemalloc.start()
    try:
        simulate(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (per_entry + 1) * 2**n


@pytest.mark.parametrize(
    "draw",
    [
        lambda: local_random_circuit_distribution(1, MAX_OUTCOMES // 4 + 1, stream_rng(0)),  # 2 x 2 gates
        lambda: local_random_circuit_distribution(2, MAX_OUTCOMES // 16 + 1, stream_rng(0)),  # 4 x 4 gates
        lambda: CircuitEnsemble("local_random", 2, 0, depth=MAX_OUTCOMES // 16 + 1),
        lambda: haar_unitary(math.isqrt(MAX_OUTCOMES) + 1, stream_rng(0)),
    ],
    ids=["gates_n1", "gates_n2", "ensemble", "haar_unitary"],
)
def test_matrix_stack_over_the_cap_is_refused_before_it_is_drawn(draw):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"cap of {MAX_OUTCOMES}"):
            draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_matrix_stacks_at_the_cap_are_accepted():
    assert CircuitEnsemble("local_random", 2, 0, depth=MAX_OUTCOMES // 16).depth == MAX_OUTCOMES // 16
    assert CircuitEnsemble("local_random", 1, 0, depth=MAX_OUTCOMES // 4).depth == MAX_OUTCOMES // 4
    with pytest.raises(ResourceLimitError):
        CircuitEnsemble("local_random", 1, 0, depth=MAX_OUTCOMES // 4 + 1)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
    @pytest.mark.parametrize("depth", [0, 1, 5, 40])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_stacked_qr_matches_gate_by_gate_loop(self, n, depth, seed):
        assert (local_random_circuit_distribution(n, depth, stream_rng(seed)).entries.tobytes()
                == _per_gate_circuit(n, depth, stream_rng(seed)).entries.tobytes())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("depth", [1, 5, 40])
    def test_matches_dense_kronecker_oracle(self, n, depth):
        for seed in range(5):
            mine = local_random_circuit_distribution(n, depth, stream_rng(seed)).entries
            assert np.max(np.abs(mine - _dense_circuit(n, depth, stream_rng(seed)))) <= 1e-13


def _per_gate_haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _per_gate_circuit(n, depth, rng):
    """Oracle: one QR per gate, applied as soon as it is drawn."""
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = 1.0
    for _ in range(depth):
        q = int(rng.integers(0, n - 1)) if n > 1 else 0
        gate = _per_gate_haar_unitary(2 if n == 1 else 4, rng)
        psi = np.matmul(gate, psi.reshape(2**q, gate.shape[0], -1)).reshape(-1)
    a = psi.real**2 + psi.imag**2
    return ProbVec(a / a.sum())


def _dense_circuit(n, depth, rng):
    """Oracle: each gate as the 2^n x 2^n matrix I_{2^q} (x) G (x) I_rest, applied to the state."""
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = 1.0
    for _ in range(depth):
        q = int(rng.integers(0, n - 1)) if n > 1 else 0
        gate = haar_unitary(2 if n == 1 else 4, rng)
        rest = 2**n // (2**q * gate.shape[0])
        psi = np.kron(np.kron(np.eye(2**q), gate), np.eye(rest)) @ psi
    return np.abs(psi) ** 2


def _zero_run(lead, mass, run, trail):
    """`lead` zeros, `mass` at one entry, a run of `run` zeros, the rest of the mass, `trail` zeros: the run's
    CDF entries all equal `mass`, mostly inside one bucket of the lookup."""
    return np.array([0.0] * lead + [mass] + [0.0] * run + [1.0 - mass] + [0.0] * trail)


def _past_one(seed):
    """A normalized vector, then zeros, whose cumsum passes 1 before the last entry is pinned to it."""
    rng = np.random.default_rng(seed)
    while True:
        x = rng.dirichlet(np.ones(rng.integers(2, 30)))
        if np.cumsum(x)[-1] > 1.0:
            return np.concatenate([x, np.zeros(rng.integers(1, 4))])


lookup_targets = st.one_of(
    normalized_targets,
    st.builds(_zero_run, st.integers(0, 3), st.floats(0.01, 0.99), st.integers(qsim._REFINE + 1, 80), st.integers(0, 3)),
    st.integers(1, 40).flatmap(lambda d: st.integers(0, d - 1).map(lambda i: ProbVec.point_mass(d, i).entries)),
    st.integers(0, 2**16).map(_past_one),
    st.integers(0, 12).map(lambda n: np.full(2**n, 2.0**-n)),
)


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

    @given(lookup_targets, st.integers(0, 2**16))
    def test_bucketed_lookup_matches_searchsorted(self, x, seed):
        p = ProbVec(x)
        cdf = np.cumsum(p.entries)
        cdf[-1] = 1.0
        k = 2 << (p.dim - 1).bit_length()  # the lookup's buckets, so that edges and CDF values are probed exactly
        marks = np.concatenate([np.arange(k) / k, cdf])
        u = np.concatenate([marks, np.nextafter(marks, 0), np.nextafter(marks, 1), [0.0, 1 - 2**-53]])
        u = np.concatenate([u[(u >= 0) & (u < 1)], stream_rng(seed).random(64)])
        outcomes = qsim.inverse_cdf(p)
        for v in (u, u[: u.size // 2 * 2].reshape(2, -1), u[:1].reshape(()), u[:0], u[:0].reshape(3, 0)):
            drawn = outcomes(v)
            assert drawn.dtype == np.int64 and drawn.shape == v.shape
            assert np.array_equal(drawn, np.searchsorted(cdf, v, side="right"))
        assert sample_outcomes(p, 0, stream_rng(seed)).dtype == np.int64

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
        with pytest.raises(InvalidParameterError, match="depth must be >= 0"):
            CircuitEnsemble(kind="local_random", n=3, seed=0, depth=-1)
        with pytest.raises(InvalidParameterError, match="depth must be >= 0"):
            local_random_circuit_distribution(3, -1, stream_rng(0))

    @pytest.mark.parametrize("kind", ["iqp", "haar_state"])
    def test_depth_only_for_local_random(self, kind):
        with pytest.raises(InvalidParameterError, match="depth"):
            CircuitEnsemble(kind=kind, n=3, seed=0, depth=5)
        assert CircuitEnsemble(kind=kind, n=3, seed=0, depth=0).depth == 0
        assert CircuitEnsemble(kind="local_random", n=3, seed=0, depth=5).depth == 5

    def test_instance_reproducible(self):
        e = CircuitEnsemble(kind="haar_state", n=3, seed=5)
        a = e.instance_distribution(7).entries
        b = e.instance_distribution(7).entries
        assert np.array_equal(a, b)
        assert not np.array_equal(a, e.instance_distribution(8).entries)

    def test_sample_space_size(self):
        assert CircuitEnsemble(kind="iqp", n=6, seed=0).sample_space_size == 64

    @pytest.mark.parametrize(
        "ensemble",
        [CircuitEnsemble(kind="iqp", n=n, seed=21) for n in (1, 2, 3, 4, 5, 6)]
        + [CircuitEnsemble(kind="haar_state", n=n, seed=22) for n in (1, 3, 5, 6)]
        + [CircuitEnsemble(kind="local_random", n=n, seed=23, depth=4) for n in (1, 3)]
        + [BosonEnsemble(n, m, seed=24) for n, m in ((1, 5), (2, 4), (3, 9), (4, 8))],
        ids=lambda e: f"{e.kind}-{e.n}",
    )
    def test_distributions_have_the_bits_of_instance_distribution(self, ensemble, monkeypatch):
        # batches of 32 entries: 16, 8 and 4 instances at n = 1, 2, 3, one at n >= 5, and 37 leaves a partial last batch
        monkeypatch.setattr(qsim, "_BATCH_ENTRIES", 2**5)
        if ensemble.kind == "boson":
            # 4 instances a batch, 37 = 9 x 4 + 1; at n >= 2 the Ryser chunks of 4 (n |Phi| + m^2) // (n (2^n - 1))
            # rows (24, 109 and 92) end inside an instance of 10, 165 and 330 outcomes
            per_instance = ensemble.n * ensemble.sample_space_size + ensemble.m**2
            monkeypatch.setattr(boson, "_CHUNK_ENTRIES", 4 * per_instance)
        batched = list(ensemble.distributions(37))  # all kept, so a reused buffer would show
        single = [ensemble.instance_distribution(i) for i in range(37)]
        assert [p.entries.tobytes() for p in batched] == [p.entries.tobytes() for p in single]


def _public_distribution(kind, size, rng):
    """The distribution that the public single-instance call of `kind` draws from `rng`."""
    if kind == "iqp":
        return iqp_output_distribution(IqpWeights.random(size, rng))
    if kind == "haar_state":
        return haar_state_distribution(size, rng)
    if kind == "local_random":
        return local_random_circuit_distribution(size, 6, rng)
    return boson_distribution(BosonInstance.haar(*size, rng))[0]


class TestEnsemblesMatchThePublicFunctions:
    """Instance i of each ensemble has the bits of the public single-instance call on stream (seed, i)."""

    @pytest.mark.parametrize("seed", [3, 2**33 + 1])
    @pytest.mark.parametrize(
        "kind, size",
        [("iqp", n) for n in (1, 3, 6)]
        + [("haar_state", n) for n in (1, 4, 7)]
        + [("local_random", n) for n in (1, 3, 5)]
        + [("boson", nm) for nm in ((1, 4), (2, 5), (3, 6))],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_instance_has_the_bits_of_the_public_call(self, kind, size, seed):
        if kind == "boson":
            ensemble = BosonEnsemble(*size, seed=seed)
        else:
            ensemble = CircuitEnsemble(kind=kind, n=size, seed=seed, depth=6 if kind == "local_random" else 0)
        swept = list(ensemble.distributions(41))  # one batch, or a batch an instance for local random circuits
        for i in (0, 1, 7, 40):
            want = _public_distribution(kind, size, stream_rng(seed, i)).entries.tobytes()
            assert ensemble.instance_distribution(i).entries.tobytes() == want
            assert swept[i].entries.tobytes() == want
        if kind == "boson":
            # U' = i conj(U) if the real and imaginary Ginibre draws swap, and no distribution sees it: so the
            # interferometer is checked against one whose Ginibre matrix the oracle draws itself, real part first
            for i in (0, 7):
                oracle = _per_gate_haar_unitary(ensemble.m, stream_rng(seed, i))
                assert np.allclose(ensemble.instance(i).U, oracle, rtol=0, atol=1e-13)

    def test_one_batch_loop_in_the_package(self):
        # every sweep makes its streams in qsim._Sweep.distributions, and no Ryser sum is left to a BLAS matrix-vector product
        src = Path(qsim.__file__).parent
        texts = {f.name: f.read_text() for f in sorted(src.glob("*.py"))}
        assert [name for name, text in texts.items() if name != "rng.py" for _ in range(text.count("stream_rngs("))] == [
            "qsim.py"
        ]
        assert "stream_rngs(" in inspect.getsource(qsim._Sweep.distributions)
        assert not any("@ sign" in text for text in texts.values())


    def test_seed_sequence_hash_is_written_once(self):
        # the xor-shift of SeedSequence's hash and of its mix each appear once, in _hash and _mix
        text = Path(inspect.getsourcefile(stream_rngs)).read_text()
        assert text.count(">> 16") == 2
        assert ">> 16" in inspect.getsource(_hash) and ">> 16" in inspect.getsource(_mix)


class TestStreamRngs:
    """stream_rngs(seed, ids) makes the streams stream_rng(seed, i), keys hashed in one pass per batch."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("ids", [range(0, 1), range(1, 2), range(2**20 - 1, 2**20), range(1024), range(5, 5)])
    def test_each_stream_is_stream_rng(self, seed, ids):
        # the batch's uint32 products wrap without a RuntimeWarning, which the suite turns into an error
        batch = list(stream_rngs(seed, ids))
        assert len(batch) == len(ids)
        for i, rng in zip(ids, batch):
            ref = stream_rng(seed, i)
            key, want = rng.bit_generator.state["state"]["key"], ref.bit_generator.state["state"]["key"]
            assert key.tobytes() == want.tobytes()
            assert rng.bit_generator.random_raw(64).tobytes() == ref.bit_generator.random_raw(64).tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(InvalidParameterError, match=r"seed must be in \[0, 2\^64\)"):
            stream_rng(seed, 0)
        with pytest.raises(InvalidParameterError, match=r"seed must be in \[0, 2\^64\)"):
            stream_rngs(seed, range(3))  # before any stream is made

    @pytest.mark.parametrize("seed", [3.7, 5.0, "5", True, False, np.True_, None])
    def test_non_integer_seed_is_refused(self, seed):
        # refused, not truncated: a report would echo 3.7 and carry the bits of seed 3
        with pytest.raises(InvalidParameterError, match=r"seed must be an integer, got "):
            stream_rng(seed, 0)
        with pytest.raises(InvalidParameterError, match=r"seed must be an integer, got "):
            stream_rngs(seed, range(3))
        with pytest.raises(InvalidParameterError, match=r"seed must be an integer, got "):
            list(CircuitEnsemble(kind="iqp", n=3, seed=seed).distributions(2))

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_has_the_int_bits(self, seed):
        want = stream_rng(int(seed), 3).bit_generator.random_raw(8)
        assert stream_rng(seed, 3).bit_generator.random_raw(8).tobytes() == want.tobytes()
        assert next(stream_rngs(seed, range(3, 4))).bit_generator.random_raw(8).tobytes() == want.tobytes()
        ensemble = CircuitEnsemble(kind="iqp", n=3, seed=seed)
        assert next(ensemble.distributions(1)).entries.tobytes() == ensemble.instance_distribution(0).entries.tobytes()

    def test_ids_beyond_one_word_are_refused(self):
        with pytest.raises(InvalidParameterError, match="ids must be in"):
            stream_rngs(0, range(2**32 - 1, 2**32 + 1))

    @pytest.mark.parametrize("kind, size", [("iqp", 3), ("haar_state", 4), ("local_random", 3), ("boson", (2, 5))])
    def test_an_instance_beyond_one_word_is_its_stream(self, kind, size):
        # a sweep's batched streams stop at 2^32 ids, but instance_distribution takes any index through stream_rng
        if kind == "boson":
            ensemble = BosonEnsemble(*size, seed=9)
        else:
            ensemble = CircuitEnsemble(kind=kind, n=size, seed=9, depth=6 if kind == "local_random" else 0)
        for i in (2**32, 2**40 + 3):
            want = _public_distribution(kind, size, stream_rng(9, i)).entries.tobytes()
            assert ensemble.instance_distribution(i).entries.tobytes() == want
