import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certbound import (
    ProbVec,
    l1_distance,
    lp_quasinorm,
    min_entropy,
    remove_max,
    renyi_entropy,
    truncate_tail,
    truncated_core,
)
from certbound import distvec
from certbound.errors import InvalidParameterError
from certbound.rng import stream_rng

from conftest import corpus


class TestProbVec:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidParameterError):
            ProbVec(np.array([0.5, -0.1, 0.6]))

    def test_rejects_empty_and_non_1d(self):
        with pytest.raises(InvalidParameterError):
            ProbVec(np.array([]))
        with pytest.raises(InvalidParameterError):
            ProbVec(np.ones((2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            ProbVec(np.array([0.5, np.inf]))
        with pytest.raises(InvalidParameterError):
            ProbVec(np.array([0.5, np.nan]))

    def test_normalized_flag_derived(self):
        assert ProbVec(np.array([0.5, 0.5])).normalized
        assert not ProbVec(np.array([0.5, 0.4])).normalized
        # NORMALIZATION_TOL is 1e-9; sums just inside and just outside it at 2^20 entries
        assert ProbVec(np.full(2**20, (1 + 5e-10) / 2**20)).normalized
        assert not ProbVec(np.full(2**20, (1 + 2e-9) / 2**20)).normalized
        with pytest.raises(TypeError):
            ProbVec(np.array([0.5, 0.4]), normalized=True)

    def test_entries_immutable(self):
        v = ProbVec.uniform(4)
        with pytest.raises(ValueError):
            v.entries[0] = 0.3

    def test_uniform_and_point_mass(self):
        u = ProbVec.uniform(8)
        assert u.dim == 8 and u.normalized
        pm = ProbVec.point_mass(4, 2)
        assert pm.entries[2] == 1.0 and pm.entries.sum() == 1.0
        with pytest.raises(InvalidParameterError):
            ProbVec.point_mass(4, 4)

    def test_json_roundtrip(self):
        v = ProbVec(np.array([0.25, 0.5, 0.25]))
        w = ProbVec.from_json(v.to_json())
        assert np.array_equal(v.entries, w.entries)
        with pytest.raises(InvalidParameterError):
            ProbVec.from_json(json.dumps({"not": "an array"}))
        # ints and floats mixed keep the bits np.asarray gives them
        data = [0, 1, 0.1, 2**53 + 1, 5e-324]
        assert ProbVec.from_json(json.dumps(data)).entries.tobytes() == np.asarray(data, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("bad", [{}, "0.5", True, False, None, [0.5]])
    def test_json_reads_only_numbers(self, bad):
        with pytest.raises(InvalidParameterError, match="array of numbers"):
            ProbVec.from_json(json.dumps([0.5, bad]))

    def test_bytes_roundtrip(self):
        rng = stream_rng(3)
        x = rng.dirichlet(np.ones(1000))
        v = ProbVec(x)
        blob = v.to_bytes()
        assert blob[:5] == b"PVEC1"
        w = ProbVec.from_bytes(blob)
        assert np.array_equal(v.entries, w.entries)
        with pytest.raises(InvalidParameterError):
            ProbVec.from_bytes(b"XXXXX" + blob[5:])
        with pytest.raises(InvalidParameterError):
            ProbVec.from_bytes(blob[:-8])


class TestLpQuasinorm:
    def test_three_unit_entries(self):
        v = ProbVec(np.array([1.0, 1.0, 1.0]))
        assert lp_quasinorm(v, 2 / 3) == pytest.approx(3.0**1.5, rel=1e-12)

    def test_homogeneity_example(self):
        v = ProbVec(np.array([0.25, 0.25, 0.25]))
        assert lp_quasinorm(v, 2 / 3) == pytest.approx(3.0**1.5 / 4, rel=1e-12)

    def test_support_count(self):
        v = ProbVec(np.array([0.5, 0.0, 0.5]))
        assert lp_quasinorm(v, 0) == 2

    def test_infinity_is_max(self):
        v = ProbVec(np.array([0.1, 0.7, 0.2]))
        assert lp_quasinorm(v, math.inf) == 0.7

    def test_negative_p_rejected(self):
        with pytest.raises(InvalidParameterError):
            lp_quasinorm(ProbVec.uniform(2), -1.0)

    def test_nan_p_rejected(self):
        with pytest.raises(InvalidParameterError):
            lp_quasinorm(ProbVec.uniform(2), math.nan)

    def test_homogeneity_property(self):
        rng = stream_rng(7)
        for _ in range(50):
            x = rng.random(20)
            c = float(rng.random()) + 0.1
            for p in (0.5, 2 / 3, 1.0, 2.0):
                a = lp_quasinorm(ProbVec(c * x), p)
                b = c * lp_quasinorm(ProbVec(x), p)
                assert a == pytest.approx(b, rel=1e-12)


class TestCompensatedSums:
    @pytest.mark.parametrize("dim", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_sums_match_fsum_over_one_list(self, dim):
        rng = stream_rng(dim)
        x = rng.random(dim) ** 8  # many binades, so a chunk dropped or counted twice shows in the bits
        y = rng.random(dim)
        v, w = ProbVec(x), ProbVec(y)
        assert v.sum() == math.fsum(x.tolist())
        assert lp_quasinorm(v, 1.0) == math.fsum(x.tolist())
        assert lp_quasinorm(v, 2 / 3) == math.fsum(np.power(x, 2 / 3).tolist()) ** (1.0 / (2 / 3))
        assert l1_distance(v, w) == math.fsum(np.abs(x - y).tolist())

    def test_one_fsum_in_the_package(self):
        # every compensated sum goes through distvec._fsum, which never lists a whole array at once
        src = Path(distvec.__file__).parent
        assert sum(f.read_text().count("math.fsum(") for f in sorted(src.glob("*.py"))) == 1


_TINY = 2.0**-1022  # the smallest normal float
# sizes about the binned kernel's size cut and its chunk size
_KERNEL_SIZES = [1, 17, distvec._BINNED_MIN - 1, distvec._BINNED_MIN, distvec._BINNED_MIN + 1,
                 distvec._FSUM_CHUNK - 1, distvec._FSUM_CHUNK, distvec._FSUM_CHUNK + 1, 3 * distvec._FSUM_CHUNK + 5]
_EDGE_VALUES = np.array([0.0, 5e-324, 2 * 5e-324, np.nextafter(_TINY, 0), _TINY, np.nextafter(_TINY, 1), 2 * _TINY,
                         2.0**-53, 0.1, 1.0, 1.0 + 2.0**-52, 3.0, 2.0**52, 2.0**900])


def _summands(size: int, family: str, mixed_signs: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "binades":  # every exponent from the subnormals up to 2^959
        x = rng.random(size) * np.exp2(rng.integers(-1074, 960, size)).astype(float)
    elif family == "subnormal":  # subnormals around the normal edge, with the edge values among them
        x = rng.integers(0, 1 << 53, size).view(np.float64)
        x[rng.integers(0, size, min(size, 64))] = rng.choice(_EDGE_VALUES[:7], min(size, 64))
    elif family == "edges":
        x = rng.choice(_EDGE_VALUES, size)
    else:  # near one binade, the probability vectors' case
        x = rng.random(size) ** 8
    if mixed_signs:
        x *= rng.choice([-1.0, 1.0], size)
    return x


def _fsum_bits(x: np.ndarray, p=None) -> bytes:
    return np.float64(math.fsum((x if p is None else np.power(x, p)).tolist())).tobytes()


class TestBinnedSum:
    """distvec._fsum has the bits of math.fsum over one list, on both of its paths."""

    @settings(max_examples=60)
    @given(st.sampled_from(_KERNEL_SIZES), st.sampled_from(["binades", "subnormal", "edges", "narrow"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_fsum_bits(self, size, family, mixed_signs, seed):
        x = _summands(size, family, mixed_signs, seed)
        assert np.float64(distvec._fsum(x)).tobytes() == _fsum_bits(x)
        if not mixed_signs:
            assert np.float64(distvec._fsum(x, 2 / 3)).tobytes() == _fsum_bits(x, 2 / 3)

    @pytest.mark.parametrize("size", _KERNEL_SIZES)
    def test_cancelling_sums(self, size):
        # x and -x cancel exactly, leaving 2^-60 - 2^-1074, zero, or the tie 1 + 2^-53 that rounds to even
        x = _summands(size, "narrow", False, size)
        y = np.concatenate([x, -x[::-1], [2.0**-60, -(2.0**-1074)]])
        for z in (y, y[:-2], np.concatenate([[1.0, 2.0**-53], y[:-2]])):
            assert np.float64(distvec._fsum(z)).tobytes() == _fsum_bits(z)

    @pytest.mark.parametrize("size", _KERNEL_SIZES)
    def test_negative_zeros(self, size):
        # fsum decides the sign of a zero sum; the kernel does not hard-code one
        x = np.full(size, -0.0)
        assert np.float64(distvec._fsum(x)).tobytes() == _fsum_bits(x)

    @pytest.mark.parametrize("size", _KERNEL_SIZES)
    def test_non_finite_follows_fsum(self, size):
        x = _summands(size, "narrow", False, 1)
        for special in (math.inf, -math.inf, math.nan):
            y = x.copy()
            y[-1] = special
            assert np.float64(distvec._fsum(y)).tobytes() == _fsum_bits(y)
        y = np.concatenate([[math.inf], x, [-math.inf]])
        with pytest.raises(ValueError):
            math.fsum(y.tolist())
        with pytest.raises(ValueError):
            distvec._fsum(y)

    def test_overflow_follows_fsum(self):
        x = np.full(distvec._BINNED_MIN, 1e308)
        with pytest.raises(OverflowError):
            math.fsum(x.tolist())
        with pytest.raises(OverflowError):
            distvec._fsum(x)
        x[x.size // 2 :] = -1e308  # the total is 0, but fsum overflows on the way there
        with pytest.raises(OverflowError):
            math.fsum(x.tolist())
        with pytest.raises(OverflowError):
            distvec._fsum(x)

    def test_quasinorm_makes_no_whole_array_temporary(self):
        v = ProbVec(np.random.default_rng(4).dirichlet(np.ones(2**20)))
        tracemalloc.start()
        try:
            lp_quasinorm(v, 2 / 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # np.power of the whole vector alone is 8 MiB; the kernel's three buffers are 1.5 MiB
        assert peak < 4 * 2**20


# any finite non-negative entries, with zeros, subnormals and single entries drawn often
_any_entries = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310]), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=64,
).map(np.array)


class TestL1Distance:
    def test_examples(self):
        a = ProbVec(np.array([0.5, 0.5]))
        assert l1_distance(a, a) == 0.0
        assert l1_distance(ProbVec(np.array([1.0, 0.0])), ProbVec(np.array([0.0, 1.0]))) == 2.0
        p = ProbVec(np.array([0.5, 0.25, 0.25]))
        q = ProbVec(np.array([0.25, 0.5, 0.25]))
        assert l1_distance(p, q) == pytest.approx(0.5, abs=1e-15)

    @given(_any_entries, st.integers(0, 2**32 - 1))
    def test_bits_of_the_whole_array_difference(self, x, seed):
        y = np.random.default_rng(seed).permutation(x)
        assert l1_distance(ProbVec(x), ProbVec(y)) == distvec._fsum(np.abs(x - y))

    def test_bits_and_memory_at_2_20(self):
        rng = stream_rng(17)
        p, q = ProbVec(rng.dirichlet(np.ones(2**20))), ProbVec(rng.dirichlet(np.ones(2**20)))
        assert l1_distance(p, q) == distvec._fsum(np.abs(p.entries - q.entries))
        tracemalloc.start()
        try:
            l1_distance(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # np.abs(p - q) alone is two 8 MiB arrays; the kernel's three buffers are 1.5 MiB
        assert peak <= 2.5 * 2**20

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            l1_distance(ProbVec.uniform(2), ProbVec.uniform(3))


class TestTruncation:
    def test_remove_max_examples(self):
        v = ProbVec(np.array([0.5, 0.25, 0.15, 0.1]))
        assert np.allclose(remove_max(v).entries, [0, 0.25, 0.15, 0.1])
        assert remove_max(ProbVec(np.array([1.0]))).entries[0] == 0.0
        # tie broken at lowest index
        assert np.allclose(remove_max(ProbVec(np.array([0.5, 0.5]))).entries, [0, 0.5])

    def test_truncate_tail_greedy(self):
        v = ProbVec(np.array([0.5, 0.25, 0.15, 0.1]))
        out = truncate_tail(v, 0.2)
        assert np.allclose(out.entries, [0.5, 0.25, 0.15, 0.0])

    def test_truncate_tail_eps_zero_is_identity(self, small_corpus):
        for v in small_corpus[:30]:
            assert np.array_equal(truncate_tail(v, 0.0).entries, v.entries)

    def test_truncate_tail_uniform_count(self):
        out = truncate_tail(ProbVec.uniform(1024), 0.2)
        assert int(np.count_nonzero(out.entries == 0)) == 204

    def test_truncate_tail_negative_eps(self):
        with pytest.raises(InvalidParameterError):
            truncate_tail(ProbVec.uniform(4), -0.1)

    def test_truncate_tail_nan_eps(self):
        # a NaN sorts after every cumulative sum, so unchecked it would zero every entry
        with pytest.raises(InvalidParameterError, match="eps must be >= 0"):
            truncate_tail(ProbVec.uniform(4), math.nan)

    def test_truncate_tail_maximal(self, small_corpus):
        # removed weight <= eps, and the smallest surviving nonzero would overflow
        for v in small_corpus[:50]:
            for eps in (0.05, 0.2):
                out = truncate_tail(v, eps)
                removed = v.sum() - out.sum()
                assert removed <= eps + 1e-12
                survivors = out.entries[out.entries > 0]
                if survivors.size:
                    assert removed + survivors.min() > eps

    def test_truncated_core_examples(self):
        core = truncated_core(ProbVec.uniform(4), 0.0)
        assert np.count_nonzero(core.entries) == 3
        assert lp_quasinorm(core, 2 / 3) == pytest.approx(2 * 0.75**1.5, rel=1e-12)
        assert np.all(truncated_core(ProbVec(np.array([1.0, 0.0, 0.0])), 0.5).entries == 0)
        out = truncated_core(ProbVec(np.array([0.4, 0.3, 0.2, 0.1])), 0.15)
        assert np.allclose(out.entries, [0, 0.3, 0.2, 0])

    def test_core_monotone_in_eps(self, small_corpus):
        for v in small_corpus[:50]:
            n1 = lp_quasinorm(truncated_core(v, 0.05), 2 / 3)
            n2 = lp_quasinorm(truncated_core(v, 0.2), 2 / 3)
            assert n1 >= n2 - 1e-12
            assert lp_quasinorm(truncated_core(v, 0.0), 2 / 3) <= lp_quasinorm(v, 2 / 3) + 1e-12

    def test_core_can_be_zero_for_large_eps(self):
        v = ProbVec(np.array([0.9, 0.05, 0.05]))
        assert np.all(truncated_core(v, 0.2).entries == 0)


def _truncate_tail_loop(x: np.ndarray, eps: float) -> np.ndarray:
    """Reference: visit entries in ascending order, zero them while the removed sum stays <= eps."""
    out = x.copy()
    removed = 0.0
    for i in np.argsort(out, kind="stable"):
        if out[i] == 0.0:
            continue
        if removed + out[i] > eps:
            break
        removed += out[i]
        out[i] = 0.0
    return out


# entries with many zeros and ties, as truncation meets them in flat and sparse targets
_entries = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([1e-3, 0.1, 0.25]), st.floats(0.0, 1.0)), min_size=1, max_size=64
).map(np.array)
_eps = st.floats(0.0, 2.0)


class TestTruncateTailProperties:
    @given(_entries, _eps)
    def test_removes_at_most_eps(self, x, eps):
        out = truncate_tail(ProbVec(x), eps).entries
        assert math.fsum(x[out != x].tolist()) <= eps + 1e-12

    @given(_entries, _eps)
    def test_removal_is_maximal(self, x, eps):
        out = truncate_tail(ProbVec(x), eps).entries
        survivors = out[out > 0]
        if survivors.size:
            assert math.fsum(x[out != x].tolist()) + survivors.min() > eps - 1e-12

    @given(_entries, _eps)
    def test_matches_loop_oracle(self, x, eps):
        assert np.array_equal(truncate_tail(ProbVec(x), eps).entries, _truncate_tail_loop(x, eps))

    @given(_entries, _eps)
    def test_core_never_raises_the_2_3_norm(self, x, eps):
        v = ProbVec(x)
        assert lp_quasinorm(truncated_core(v, eps), 2 / 3) <= lp_quasinorm(v, 2 / 3)


def _truncate_tail_argsort(x: np.ndarray, eps: float) -> np.ndarray:
    """Reference: a stable argsort of the indices, a cumsum in that order, and one cut."""
    out = x.copy()
    order = np.argsort(out, kind="stable")
    out[order[: np.searchsorted(np.cumsum(out[order]), eps, side="right")]] = 0.0
    return out


def _tied_vectors(rng: np.random.Generator):
    """Vectors up to dim 4096 whose values come from 3-4 levels, as IQP targets have them, with zeros and -0.0."""
    for dim in (1, 2, 3, 7, 64, 255, 1024, 4096):
        for levels in ([0.0, 1.0, 3.0], [0.0, -0.0, 1.0, 3.0], [-0.0, 2.0**-10, 3 * 2.0**-10, 7 * 2.0**-12]):
            x = rng.choice(np.array(levels), size=dim)
            yield x / x.sum() if x.sum() > 0 else x
        x = rng.random(dim)
        x[rng.random(dim) < 0.3] = -0.0
        yield x


class TestTruncateTailBitExact:
    """`truncate_tail` and `truncated_core` give the argsort reference's bytes, ties, zeros and -0.0 included."""

    @staticmethod
    def _cases():
        for x in _tied_vectors(stream_rng(17)):
            sums = np.cumsum(np.sort(x))
            # every exact cumsum value is a cut point; 0 and eps above the total bracket them
            picks = sums if sums.size <= 64 else sums[stream_rng(x.size).choice(sums.size, 64, replace=False)]
            for eps in [0.0, *picks.tolist(), float(sums[-1]) + 1.0]:
                yield x, eps

    def test_truncate_tail_matches_argsort(self):
        for x, eps in self._cases():
            assert truncate_tail(ProbVec(x), eps).entries.tobytes() == _truncate_tail_argsort(x, eps).tobytes()

    def test_truncated_core_matches_argsort(self):
        for x, eps in self._cases():
            v = ProbVec(x)
            want = _truncate_tail_argsort(remove_max(v).entries, eps)
            assert truncated_core(v, eps).entries.tobytes() == want.tobytes()


def _as_float(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


class TestRoundTripProperties:
    @given(_any_entries)
    def test_json_round_trip_is_exact(self, x):
        v = ProbVec(x)
        assert ProbVec.from_json(v.to_json()).entries.tobytes() == v.entries.tobytes()

    @given(st.lists(st.one_of(st.just(-0.0), st.integers(0, 0x7FEFFFFFFFFFFFFF).map(_as_float)), min_size=1, max_size=64))
    def test_json_text_is_json_dumps_on_any_bit_pattern(self, entries):
        x = np.array(entries, dtype=np.float64)
        assert ProbVec(x).to_json() == json.dumps(x.tolist())

    @given(_any_entries)
    def test_pvec_round_trip_is_exact(self, x):
        v = ProbVec(x)
        assert ProbVec.from_bytes(v.to_bytes()).entries.tobytes() == v.entries.tobytes()


class TestEntropies:
    def test_renyi_uniform(self):
        assert renyi_entropy(ProbVec.uniform(8), 2) == pytest.approx(3.0, abs=1e-12)

    def test_renyi_infinity_is_min_entropy(self):
        v = ProbVec(np.array([0.5, 0.5, 0.0]))
        assert renyi_entropy(v, math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_renyi_2_matches_direct_sum(self):
        rng = stream_rng(11)
        x = rng.exponential(size=256)
        v = ProbVec(x / x.sum())
        direct = -math.log2(math.fsum((v.entries**2).tolist()))
        assert renyi_entropy(v, 2) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 4])
    def test_point_mass_entropies_are_plus_zero(self, d):
        # -log2(1.0) and 2 / (1 - 2) * 0.0 are -0.0; the sign bit must be clear
        v = ProbVec.point_mass(d)
        for h in (min_entropy(v), renyi_entropy(v, 2), renyi_entropy(v, 0.5), renyi_entropy(v, math.inf)):
            assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_renyi_rejections(self):
        with pytest.raises(InvalidParameterError):
            renyi_entropy(ProbVec.uniform(4), 1)
        with pytest.raises(InvalidParameterError):
            renyi_entropy(ProbVec(np.array([0.3, 0.3])), 2)
        with pytest.raises(InvalidParameterError, match="alpha must be >= 0"):
            renyi_entropy(ProbVec.uniform(4), math.nan)

    def test_min_entropy_examples(self):
        assert min_entropy(ProbVec.uniform(2**5)) == pytest.approx(5.0, abs=1e-12)
        assert min_entropy(ProbVec(np.array([1.0, 0.0]))) == 0.0

    def test_min_entropy_matches_renyi_inf(self):
        rng = stream_rng(13)
        x = rng.random(100)
        v = ProbVec(x / x.sum())
        assert min_entropy(v) == renyi_entropy(v, math.inf)

    def test_entropy_order_sandwich(self):
        # H_alpha >= H_inf >= ((alpha-1)/alpha) H_alpha on 1000 random vectors
        for v in corpus(1000, seed=21, dims=(4, 16, 64, 256)):
            h_inf = min_entropy(v)
            for alpha in (1.5, 2, 4, 8):
                h_a = renyi_entropy(v, alpha)
                assert h_a >= h_inf - 1e-10
                assert h_inf >= (alpha - 1) / alpha * h_a - 1e-10
