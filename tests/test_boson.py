import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from certbound import (
    BosonEnsemble,
    BosonInstance,
    ModeOccupation,
    boson_distribution,
    bs_flatness_tail_bound,
    collision_weight,
    enumerate_phi,
    gaussian_concentration_bound,
    gaussian_repeated_sample,
    haar_unitary,
    permanent,
    trivial_permanent_bound,
)
from certbound import boson
from certbound.boson import OutcomeSpace, phi_size_bound, submatrix
from certbound.errors import MAX_OUTCOMES, InvalidParameterError, ResourceLimitError
from certbound.rng import stream_rng


class TestModeOccupation:
    def test_basic(self):
        occ = ModeOccupation((1, 0, 2))
        assert occ.m == 3 and occ.n == 3
        assert not occ.collision_free
        assert ModeOccupation((1, 1, 0)).collision_free
        assert str(occ) == "102"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ModeOccupation((1, -1))
        with pytest.raises(InvalidParameterError):
            ModeOccupation(())
        # int() would truncate 1.5 to 1 and take True as 1
        for bad in [(1.5, 0), (np.float64(1.0), 0), (True, 0), (0, False), (np.True_, 0), ("1", 0), (None,)]:
            with pytest.raises(InvalidParameterError, match="non-negative integers"):
                ModeOccupation(bad)
        occ = ModeOccupation((np.int64(2), np.uint8(0), 1))  # OutcomeSpace.__getitem__ passes numpy ints
        assert occ.s == (2, 0, 1) and all(type(x) is int for x in occ.s)


class TestBosonInstance:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BosonInstance(3, 2, np.eye(2))
        with pytest.raises(InvalidParameterError):
            BosonInstance(1, 2, np.ones((2, 2)))  # not unitary
        with pytest.raises(InvalidParameterError):
            BosonInstance(1, 2, np.eye(3))

    def test_haar_and_json_roundtrip(self):
        inst = BosonInstance.haar(2, 5, stream_rng(1))
        inst2 = BosonInstance.from_json(inst.to_json())
        assert inst2.n == 2 and inst2.m == 5
        assert np.allclose(inst.U, inst2.U)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 2.7, "n must be"),
            ("n", True, "n must be"),
            ("m", "3", "m must be"),
            ("m", 0, "m must be"),
            ("U_re_im", [0.0] * 5, "U_re_im"),
            ("U_re_im", [0.0] * 19, "U_re_im"),
            ("U_re_im", "0", "U_re_im"),
            ("U_re_im", [float("nan")] * 18, "not unitary"),
        ],
    )
    def test_json_fields_are_checked(self, field, value, message):
        data = json.loads(BosonInstance.haar(2, 3, stream_rng(1)).to_json())
        data[field] = value
        with pytest.raises(InvalidParameterError, match=message):
            BosonInstance.from_json(json.dumps(data))


class TestEnumeratePhi:
    def test_m3_n2_order(self):
        seqs = [o.s for o in enumerate_phi(3, 2)]
        assert seqs == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

    def test_order_is_descending_lexicographic(self):
        for m, n in [(3, 2), (6, 3), (9, 3), (4, 0)]:
            want = sorted((s for s in itertools.product(range(n + 1), repeat=m) if sum(s) == n), reverse=True)
            assert [o.s for o in enumerate_phi(m, n)] == want
            assert [o.s for o in enumerate_phi(m, n, True)] == [s for s in want if max(s, default=0) <= 1]

    def test_collision_free_subset(self):
        cf = enumerate_phi(3, 2, collision_free_only=True)
        assert len(cf) == 3
        assert all(o.collision_free for o in cf)

    def test_counts_match_binomials(self):
        assert len(enumerate_phi(6, 3)) == math.comb(8, 3) == 56
        for m, n in [(4, 2), (5, 3), (7, 2)]:
            assert len(enumerate_phi(m, n)) == math.comb(m + n - 1, n)
            assert len(enumerate_phi(m, n, True)) == math.comb(m, n)

    @pytest.mark.parametrize("chunk", [1 << 16, 7])
    def test_labels_are_the_outcomes_as_text(self, chunk, monkeypatch):
        # a chunk of 7 entries splits every space below into chunks of one or a few outcomes
        monkeypatch.setattr(boson, "_CHUNK_ENTRIES", chunk)
        for m, n in [(3, 2), (16, 2), (1, 0), (4, 0), (2, 10), (3, 12), (11, 10)]:
            for free in (False, True):
                space = OutcomeSpace(m, n, free)
                assert space.labels() == [str(o) for o in space]
        assert OutcomeSpace(3, 12).labels()[:3] == ["12,0,0", "11,1,0", "11,0,1"]

    @pytest.mark.parametrize("chunk", [1 << 16, 7])
    def test_iteration_counts_the_rows_that_indexing_does(self, chunk, monkeypatch):
        monkeypatch.setattr(boson, "_CHUNK_ENTRIES", chunk)
        for m, n in [(3, 2), (16, 2), (1, 0), (4, 0), (2, 10), (3, 12), (6, 5), (2, 3)]:
            for free in (False, True):
                space = OutcomeSpace(m, n, free)
                assert list(space) == [space[i] for i in range(len(space))]
        assert [str(o) for o in OutcomeSpace(2, 10)][:2] == ["10,0", "91"]

    def test_n_exceeding_m_collision_free_empty(self):
        assert enumerate_phi(2, 3, collision_free_only=True) == []

    @pytest.mark.parametrize("free", [False, True])
    def test_rows_are_the_itertools_rows(self, free):
        # every small space, n = 0 and collision-free n > m among them, the uint8 -> uint16 step and a uint32 one,
        # and (1000, 2) and (60, 3), whose int32 prefix aranges run to ~5e5 and ~4e4 rows
        pick = itertools.combinations if free else itertools.combinations_with_replacement
        shapes = [(m, n) for m in range(1, 9) for n in range(6)] + [(256, 2), (257, 2), (300, 2), (70_000, 1)]
        shapes += [(1000, 2), (60, 3)]
        for m, n in shapes:
            want = list(pick(range(m), n))
            want = np.array(want, dtype=np.min_scalar_type(m - 1)).reshape(len(want), n)
            rows = OutcomeSpace(m, n, free).rows
            assert rows.dtype == want.dtype and rows.shape == want.shape and np.array_equal(rows, want), (m, n)

    def test_factorials_are_the_products_of_occupation_factorials(self):
        for m in range(1, 9):
            for n in range(6):
                for free in (False, True):
                    space = OutcomeSpace(m, n, free)
                    want = [math.prod(map(math.factorial, o.s)) for o in space]
                    assert boson._factorials(space.rows).tolist() == want, (m, n, free)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            enumerate_phi(0, 1)
        with pytest.raises(InvalidParameterError):
            enumerate_phi(3, -1)

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_phi(100, 10)

    @pytest.mark.parametrize(
        "m, n, free, message",
        [
            (2, 10**5, False, "n = 100000 photons exceed the cap of 1000"),  # 10^5 x 100 001 rows, ~10 GB
            (1, 10**5, False, "n = 100000 photons exceed the cap of 1000"),  # one outcome
            (2, 10**5, True, "n = 100000 photons exceed the cap of 1000"),  # no outcome
            (2, 4000, False, "n = 4000 photons exceed the cap of 1000"),
            (2, 1001, False, "n = 1001 photons exceed the cap of 1000"),
            (3, 252, False, r"n \|Phi\| = 8097012 row entries exceed the cap of 8000000"),
            (6, 30, False, r"n \|Phi\| = 9738960 row entries exceed the cap of 8000000"),
        ],
    )
    def test_photons_and_row_entries_are_capped_before_the_build(self, m, n, free, message):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=message):
                OutcomeSpace(m, n, free)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_spaces_at_the_caps_build(self):
        # the most photons, the most row entries, and the largest spaces of ensembles that sweep
        for m, n, size in [(2, 1000, 1001), (1, 1000, 1), (3, 250, 31626), (39, 5, 962598), (180, 3, 988260)]:
            assert OutcomeSpace(m, n).rows.shape == (size, n)
        assert len(OutcomeSpace(2, 1000, True)) == 0


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(3)) == pytest.approx(1.0)

    def test_all_ones(self):
        assert permanent(np.ones((5, 5))) == pytest.approx(120.0)
        assert permanent(np.ones((5, 5)), "naive") == pytest.approx(120.0)

    def test_ryser_matches_naive(self):
        rng = stream_rng(2)
        for n in range(1, 8):
            for _ in range(10):
                x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                a = permanent(x, "ryser")
                b = permanent(x, "naive")
                assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            permanent(np.ones((2, 3)))
        with pytest.raises(InvalidParameterError):
            permanent(np.eye(2), "magic")


class TestBosonDistribution:
    def test_single_photon_is_first_column(self):
        u = haar_unitary(4, stream_rng(3))
        inst = BosonInstance(1, 4, u)
        p, outcomes = boson_distribution(inst)
        assert np.allclose(p.entries, np.abs(u[:, 0]) ** 2)
        assert [o.s for o in outcomes] == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_identity_point_mass(self):
        p, outcomes = boson_distribution(BosonInstance(2, 4, np.eye(4)))
        target = outcomes.index(ModeOccupation((1, 1, 0, 0)))
        assert p.entries[target] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_haar(self):
        rng = stream_rng(4)
        for _ in range(5):
            inst = BosonInstance.haar(2, 4, rng)
            p, _ = boson_distribution(inst)
            assert abs(p.sum() - 1.0) < 1e-8

    def test_row_permutation_covariance(self):
        rng = stream_rng(5)
        inst = BosonInstance.haar(2, 4, rng)
        perm = np.array([2, 0, 3, 1])
        inst2 = BosonInstance(2, 4, inst.U[perm])
        p1, out1 = boson_distribution(inst)
        p2, out2 = boson_distribution(inst2)
        # outcome s under U maps to s permuted under the row-permuted U
        lookup = {o.s: p2.entries[i] for i, o in enumerate(out2)}
        for i, o in enumerate(out1):
            s2 = tuple(np.zeros(4, dtype=int))
            arr = np.zeros(4, dtype=int)
            arr[perm] = o.s  # mode j of U becomes mode perm^-1... build directly
            # row j of U moved to position where perm[k] = j
            moved = np.zeros(4, dtype=int)
            for k in range(4):
                moved[k] = o.s[perm[k]]
            assert p1.entries[i] == pytest.approx(lookup[tuple(moved)], abs=1e-10)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            boson_distribution(BosonInstance(10, 1000, np.eye(1000)))

    def test_submatrix_shape(self):
        inst = BosonInstance.haar(3, 5, stream_rng(6))
        occ = ModeOccupation((2, 0, 1, 0, 0))
        us = submatrix(inst, occ)
        assert us.shape == (3, 3)
        assert np.array_equal(us[0], us[1])  # repeated row
        for s in ((2, 0, 1, 0), (2, 0, 1, 1, 0)):  # 4 modes, or 4 photons
            with pytest.raises(InvalidParameterError, match="occupation does not match the instance"):
                submatrix(inst, ModeOccupation(s))


class TestCollisionWeight:
    def test_no_collisions_single_photon(self):
        assert collision_weight(BosonInstance.haar(1, 5, stream_rng(7))) == 0.0

    def test_identity_zero(self):
        assert collision_weight(BosonInstance(2, 4, np.eye(4))) == pytest.approx(0.0, abs=1e-12)

    def test_haar_mean_below_2n2_over_m(self):
        rng = stream_rng(8)
        n, m = 2, 20
        vals = np.array([collision_weight(BosonInstance.haar(n, m, rng)) for _ in range(100)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() <= 2 * n * n / m + 4 * se


class TestGaussianMeasure:
    def test_collision_free_no_repeats(self):
        x = gaussian_repeated_sample(ModeOccupation((1, 1, 1)), 3, 1.0, stream_rng(9))
        assert x.shape == (3, 3)
        assert not np.array_equal(x[0], x[1])

    def test_full_repetition(self):
        x = gaussian_repeated_sample(ModeOccupation((3, 0, 0)), 3, 1.0, stream_rng(10))
        assert np.array_equal(x[0], x[1]) and np.array_equal(x[1], x[2])

    def test_entry_variance(self):
        sigma = 0.7
        x = gaussian_repeated_sample(ModeOccupation(tuple([1] * 300)), 300, sigma, stream_rng(11))
        re = x.real.ravel()
        var = re.var(ddof=1)
        se = var * math.sqrt(2.0 / (re.size - 1))
        assert abs(var - sigma**2) < 4 * se

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gaussian_repeated_sample(ModeOccupation((1, 1)), 3, 1.0, stream_rng(0))
        with pytest.raises(InvalidParameterError):
            gaussian_repeated_sample(ModeOccupation((1, 1)), 2, 0.0, stream_rng(0))


class TestConcentrationBound:
    def test_xi_zero_is_one(self):
        assert gaussian_concentration_bound(3, 1.0, 0.0) == pytest.approx(1.0)

    def test_n1_matches_erfc(self):
        assert gaussian_concentration_bound(1, 1.0, math.sqrt(2)) == pytest.approx(
            float(erfc(1.0)), rel=1e-12
        )

    def test_monotonicity(self):
        xs = [gaussian_concentration_bound(3, 1.0, xi) for xi in (0.5, 1.0, 2.0, 3.0)]
        assert all(a > b for a, b in zip(xs, xs[1:]))
        assert gaussian_concentration_bound(5, 1.0, 1.0) > gaussian_concentration_bound(2, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gaussian_concentration_bound(1, 1.0, -0.1)
        with pytest.raises(InvalidParameterError):
            gaussian_concentration_bound(0, 1.0, 1.0)

    def test_empirical_tail_below_bound(self):
        # the erfc formula bounds the max over the per-entry real components
        # exactly; the complex modulus obeys the exp(-xi^2 / (2 sigma^2))
        # variant, which is what the downstream tail bound substitutes anyway
        rng = stream_rng(12)
        n, sigma, trials = 3, 1.0, 2000
        for s in [(1, 1, 1), (2, 1, 0)]:
            draws = [gaussian_repeated_sample(ModeOccupation(s), n, sigma, rng) for _ in range(trials)]
            re_max = np.array([np.abs(x.real).max() for x in draws])
            mod_max = np.array([np.abs(x).max() for x in draws])
            for xi in (1.0, 2.0, 3.0):
                bound = gaussian_concentration_bound(n, sigma, xi)
                frac = float(np.mean(re_max >= xi))
                se = math.sqrt(max(frac * (1 - frac), 1.0 / trials) / trials)
                assert frac <= bound + 4 * se
                mod_bound = 1.0 - (1.0 - math.exp(-(xi**2) / (2 * sigma**2))) ** (n * n)
                mfrac = float(np.mean(mod_max >= xi))
                mse = math.sqrt(max(mfrac * (1 - mfrac), 1.0 / trials) / trials)
                assert mfrac <= mod_bound + 4 * mse


class TestTrivialPermanentBound:
    def test_examples(self):
        assert trivial_permanent_bound(np.eye(2)) == pytest.approx(4.0)
        assert trivial_permanent_bound(np.ones((3, 3))) == pytest.approx(36.0)

    def test_dominates_permanent(self):
        rng = stream_rng(13)
        for _ in range(20):
            x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert trivial_permanent_bound(x) >= abs(permanent(x)) ** 2

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_refused(self, shape):
        with pytest.raises(InvalidParameterError, match="need a square matrix"):
            trivial_permanent_bound(np.ones(shape))


class TestFlatnessTailBound:
    def test_divergence_guard(self):
        assert bs_flatness_tail_bound(3, 9) == math.inf

    def test_nu4_decays(self):
        vals = [bs_flatness_tail_bound(n, n**4) for n in (30, 35, 40, 45)]
        assert vals[0] < 1.0
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_phi_size_bound_dominates_binomial(self):
        for n, nu, c in [(3, 2.0, 1.0), (4, 3.0, 1.0), (5, 2.5, 2.0), (8, 4.0, 1.0)]:
            m = int(math.ceil(c * n**nu))
            assert phi_size_bound(n, nu, c) >= math.comb(m + n - 1, n)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            bs_flatness_tail_bound(5, 3)
        with pytest.raises(InvalidParameterError):
            bs_flatness_tail_bound(1, 10)
        with pytest.raises(InvalidParameterError):
            bs_flatness_tail_bound(4, 100, c=0.0)
        for n, c in ((0, 1.0), (3, -0.5)):
            with pytest.raises(InvalidParameterError, match="need n >= 1 and c >= 0"):
                phi_size_bound(n, 2.0, c)

    def test_bound_past_e700_is_inf(self):
        # at n = 100, m = n^3 the geometric series converges (x^2 ~ 86), but the log of the bound is ~1 100
        assert bs_flatness_tail_bound(60, 60**3) < math.inf
        assert bs_flatness_tail_bound(100, 100**3) == math.inf

    @pytest.mark.parametrize("c, C", [(math.nan, 0.0), (1.0, math.nan)])
    def test_nan_constants_rejected(self, c, C):
        with pytest.raises(InvalidParameterError, match="need c > 0 and C >= 0"):
            bs_flatness_tail_bound(3, 9, c, C)


class TestBosonEnsemble:
    def test_sample_space_size(self):
        assert BosonEnsemble(2, 6, seed=0).sample_space_size == 21

    def test_instance_reproducible(self):
        e = BosonEnsemble(2, 5, seed=3)
        a = e.instance_distribution(4).entries
        b = e.instance_distribution(4).entries
        assert np.array_equal(a, b)
        assert not np.array_equal(a, e.instance_distribution(5).entries)

    @pytest.mark.parametrize("n, m", [(3, 2), (0, 3), (1, 0)])
    def test_refuses_the_modes_that_every_instance_would(self, n, m):
        with pytest.raises(InvalidParameterError, match="need m >= n >= 1"):
            BosonEnsemble(n, m, seed=0)

    def test_refuses_a_unitary_over_the_cap(self):
        with pytest.raises(ResourceLimitError, match="unitary exceeds the cap"):
            BosonEnsemble(1, math.isqrt(MAX_OUTCOMES) + 1, seed=0)

    def test_instances_skip_the_checked_instance(self, monkeypatch):
        # instance i is a batch of one of the sweep's kernel: no BosonInstance, so no second unitarity check
        e = BosonEnsemble(2, 5, seed=3)
        want = [p.entries.tobytes() for p in e.distributions(3)]

        def refuse(*args):
            raise AssertionError("an ensemble path went through BosonInstance or boson_distribution")

        monkeypatch.setattr(BosonInstance, "__post_init__", refuse)
        monkeypatch.setattr(boson, "boson_distribution", refuse)
        assert [e.instance_distribution(i).entries.tobytes() for i in range(3)] == want
        assert [p.entries.tobytes() for p in e.distributions(3)] == want

    def test_a_lone_last_row_keeps_its_bits(self, monkeypatch):
        # 3 instances of 126 outcomes a batch in Ryser chunks of 29 rows: 378 = 13 x 29 + 1, so the batch's
        # last row would be a chunk of its own, whose one-row product numpy takes by its dot path, with other bits
        monkeypatch.setattr(boson, "_CHUNK_ENTRIES", 1742)
        e = BosonEnsemble(4, 6, seed=3)
        batched = [p.entries.tobytes() for p in e.distributions(3)]
        assert batched == [e.instance_distribution(i).entries.tobytes() for i in range(3)]


class TestBatchedRyser:
    @staticmethod
    def per_outcome(inst, method):
        return np.array([
            abs(permanent(submatrix(inst, occ), method)) ** 2 / math.prod(math.factorial(x) for x in occ.s)
            for occ in enumerate_phi(inst.m, inst.n)
        ])

    def test_matches_naive_permanent_on_every_outcome(self):
        rng = stream_rng(14)
        for n in (1, 2, 3):
            for m in (3, 5):
                for inst in (BosonInstance.haar(n, m, rng), BosonInstance(n, m, np.eye(m))):
                    p, outcomes = boson_distribution(inst)
                    assert len(outcomes) == math.comb(m + n - 1, n)
                    assert np.max(np.abs(p.entries - self.per_outcome(inst, "naive"))) <= 1e-14

    def test_matches_scalar_path_at_5_16(self):
        inst = BosonInstance.haar(5, 16, stream_rng(15))
        p, outcomes = boson_distribution(inst)
        assert len(outcomes) == 15504
        assert np.max(np.abs(p.entries - self.per_outcome(inst, "ryser"))) <= 1e-12
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_products_have_the_bits_of_the_gathered_block(self):
        # the (rows, n, 2^n - 1) gather reduced along its middle axis is the reference
        for n, m in [(1, 4), (3, 9), (5, 8)]:
            inst = BosonInstance.haar(n, m, stream_rng(17))
            sums = inst.U[:, :n] @ boson._subsets(n)[0].T
            rows = OutcomeSpace(m, n).rows
            assert boson._products(sums, rows).tobytes() == sums[rows].prod(axis=1).tobytes()

    @pytest.mark.parametrize("n, m", [(1, 5), (3, 9), (5, 16)])
    def test_each_row_has_its_bits_in_any_chunk(self, n, m, monkeypatch):
        # each row's signed sum is taken on its own, so no chunk size (nor BLAS kernel) moves a row's bits
        cols = BosonInstance.haar(n, m, stream_rng(18)).U[:, :n]
        rows = OutcomeSpace(m, n).rows
        alone = b"".join(boson._ryser(cols, rows[r : r + 1]).tobytes() for r in range(len(rows)))
        assert boson._ryser(cols, rows).tobytes() == alone  # at the default chunk
        for chunk_rows in (1, 2, 3, 5):
            monkeypatch.setattr(boson, "_CHUNK_ENTRIES", chunk_rows * n * (2**n - 1))
            assert boson._ryser(cols, rows).tobytes() == alone

    def test_peak_memory_at_the_cap(self):
        # 962 598 outcomes; the kernel that gathered a (rows, n, 2^n - 1) block per chunk peaked at 46.3 MiB,
        # and taking the products photon by photon may not cost more than 1 MiB over that
        inst = BosonInstance.haar(5, 39, stream_rng(16))
        tracemalloc.start()
        try:
            boson_distribution(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 47.3 * 2**20

    def test_empty_permanent_is_one(self):
        assert permanent(np.zeros((0, 0))) == 1.0
        assert permanent(np.zeros((0, 0)), "naive") == 1.0

    def test_subset_count_is_capped(self):
        with pytest.raises(ResourceLimitError):
            permanent(np.eye(20))
