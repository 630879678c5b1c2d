import json
import math

import numpy as np
import pytest
from hypothesis import given
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


class TestL1Distance:
    def test_examples(self):
        a = ProbVec(np.array([0.5, 0.5]))
        assert l1_distance(a, a) == 0.0
        assert l1_distance(ProbVec(np.array([1.0, 0.0])), ProbVec(np.array([0.0, 1.0]))) == 2.0
        p = ProbVec(np.array([0.5, 0.25, 0.25]))
        q = ProbVec(np.array([0.25, 0.5, 0.25]))
        assert l1_distance(p, q) == pytest.approx(0.5, abs=1e-15)

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


# any finite non-negative entries, with zeros, subnormals and single entries drawn often
_any_entries = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310]), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=64,
).map(np.array)


class TestRoundTripProperties:
    @given(_any_entries)
    def test_json_round_trip_is_exact(self, x):
        v = ProbVec(x)
        assert ProbVec.from_json(v.to_json()).entries.tobytes() == v.entries.tobytes()

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
