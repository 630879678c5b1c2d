import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from certbound import (
    ProbVec,
    lp_quasinorm,
    norm23_bounds,
    postselected_lower_bound,
    smin_boson,
    smin_boson_full_space,
    smin_design,
    smin_from_min_entropy,
    smin_iqp,
    truncated_core,
    vv_lower_bound,
    vv_upper_bound,
)
from certbound.boson import ModeOccupation, gaussian_concentration_bound, gaussian_repeated_sample, phi_size_bound
from certbound.bounds import UNSPECIFIED_CONSTANT_NOTE, BoundReport
from certbound.errors import InvalidParameterError
from certbound.rng import stream_rng

from conftest import corpus, normalized_targets


_U8 = ProbVec.uniform(8)


@pytest.mark.parametrize(
    "kind, bound",
    [
        ("vv_lower", lambda c: vv_lower_bound(_U8, 0.1, c)),
        ("vv_upper", lambda c: vv_upper_bound(_U8, 0.1, c)),
        ("postselected", lambda c: postselected_lower_bound(_U8, [0, 1], 0.1, c)),
        ("min_entropy_based", lambda c: smin_from_min_entropy(4.0, 0.1, c)),
        ("iqp", lambda c: smin_iqp(4, 0.5, 0.1, c)),
        ("design", lambda c: smin_design(4, 0.5, 0.1, 0.0, c)),
        ("boson_a", lambda c: smin_boson(2, 8, 0.5, 0.1, 0.25, 0.0, c)),
        ("boson_b", lambda c: smin_boson_full_space(2, 0.1, c)),
    ],
)
def test_every_kind_rejects_a_constant_at_most_0(kind, bound):
    assert bound(1.0).kind == kind
    for c in (0.0, -1.0):
        with pytest.raises(InvalidParameterError, match=r"^c[12] must be > 0$"):
            bound(c)


class TestBoundReport:
    def test_kind_and_value_validated(self):
        with pytest.raises(InvalidParameterError):
            BoundReport(kind="nonsense", value=1.0)
        with pytest.raises(InvalidParameterError):
            BoundReport(kind="vv_lower", value=-1.0)

    def test_json_stable_order(self):
        rep = BoundReport(kind="vv_lower", value=2.0, inputs={"b": 1, "a": 2})
        text = rep.to_json()
        assert text.index('"kind"') < text.index('"value"') < text.index('"inputs"') < text.index('"notes"')
        assert text.index('"a"') < text.index('"b"')
        assert UNSPECIFIED_CONSTANT_NOTE in text


class TestVVBounds:
    def test_uniform_1024_lower(self):
        # 204 tail entries removable at tail parameter 0.2, plus the max:
        # 819 survivors of 1/1024 each
        rep = vv_lower_bound(ProbVec.uniform(1024), 0.1)
        expect = 100.0 * 819.0**1.5 / 1024.0
        assert rep.value == pytest.approx(expect, rel=1e-12)
        assert rep.inputs["branch"] == "quasinorm"

    def test_uniform_1024_upper(self):
        # tail parameter 0.1/16 removes 6 entries, 1017 survivors
        rep = vv_upper_bound(ProbVec.uniform(1024), 0.1)
        expect = 100.0 * 1017.0**1.5 / 1024.0
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_point_mass_trivial_branch(self):
        rep = vv_lower_bound(ProbVec.point_mass(8), 0.2)
        assert rep.value == pytest.approx(5.0, rel=1e-12)
        assert rep.inputs["branch"] == "1/eps"
        assert rep.inputs["norm_2_3"] == 0.0

    def test_small_eps_uniform_4(self):
        eps = 1e-4
        rep = vv_lower_bound(ProbVec.uniform(4), eps)
        assert rep.value == pytest.approx(2 * 0.75**1.5 / eps**2, rel=1e-10)

    def test_upper_dominates_lower(self, small_corpus):
        for v in small_corpus[:100]:
            for eps in (0.05, 0.2, 0.5):
                lo = vv_lower_bound(v, eps).value
                hi = vv_upper_bound(v, eps).value
                assert hi >= lo - 1e-12

    def test_input_validation(self):
        u = ProbVec.uniform(4)
        with pytest.raises(InvalidParameterError):
            vv_lower_bound(u, 0.0)
        with pytest.raises(InvalidParameterError):
            vv_upper_bound(u, 1.0)
        with pytest.raises(InvalidParameterError):
            vv_lower_bound(u, 0.1, c2=0.0)
        with pytest.raises(InvalidParameterError):
            vv_lower_bound(ProbVec(np.array([0.3, 0.3])), 0.1)


class TestNorm23Bounds:
    def test_uniform_4_tight(self):
        lo, hi = norm23_bounds(ProbVec.uniform(4), 0.0)
        true = lp_quasinorm(truncated_core(ProbVec.uniform(4), 0.0), 2 / 3)
        assert lo == pytest.approx(true, abs=1e-9)
        assert hi == pytest.approx(true, abs=1e-9)
        assert lo == pytest.approx(2 * 0.75**1.5, rel=1e-12)

    def test_point_mass_collapses(self):
        lo, hi = norm23_bounds(ProbVec.point_mass(8), 0.0)
        assert lo == 0.0 and hi == 0.0

    @pytest.mark.parametrize("eps", [-0.1, math.nan])
    def test_eps_below_0_or_nan_rejected(self, eps):
        with pytest.raises(InvalidParameterError, match="eps must be >= 0"):
            norm23_bounds(ProbVec.uniform(8), eps)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidParameterError, match="p must be normalized"):
            norm23_bounds(ProbVec(np.array([0.3, 0.3])), 0.1)

    def test_sandwich_on_corpus(self):
        for v in corpus(400, seed=5, dims=(4, 16, 64, 256)):
            for eps in (0.0, 0.1):
                lo, hi = norm23_bounds(v, eps)
                true = lp_quasinorm(truncated_core(v, eps), 2 / 3)
                assert lo <= true + 1e-9
                assert true <= hi + 1e-9


_targets = normalized_targets.map(ProbVec)
# two eps values in (0, 1), the smaller first
_eps_pairs = st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=2).map(sorted)


class TestMonotoneInEps:
    @given(_targets, _eps_pairs)
    def test_vv_bounds_do_not_increase(self, p, eps):
        small, large = eps
        assert vv_lower_bound(p, small).value >= vv_lower_bound(p, large).value
        assert vv_upper_bound(p, small).value >= vv_upper_bound(p, large).value

    @given(_targets, _eps_pairs)
    def test_norm23_terms_do_not_increase(self, p, eps):
        (lo_small, hi_small), (lo_large, hi_large) = (norm23_bounds(p, e) for e in eps)
        assert lo_small >= lo_large and hi_small >= hi_large


class TestPostselected:
    def test_full_space_matches_vv_lower(self, small_corpus):
        for v in small_corpus[:20]:
            a = postselected_lower_bound(v, range(v.dim), 0.1)
            b = vv_lower_bound(v, 0.1)
            assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_uniform_8_first_half(self):
        rep = postselected_lower_bound(ProbVec.uniform(8), range(4), 0.05)
        # weight 1/2, renormalized uniform-4, tail parameter 0.2 removes nothing
        expect = (1 / 0.0025) * 0.5 * 2 * 0.75**1.5
        assert rep.value == pytest.approx(expect, rel=1e-12)
        assert rep.inputs["subset_weight"] == pytest.approx(0.5, abs=1e-15)
        assert not rep.inputs["trivial"]

    def test_trivial_flag(self):
        # weight exactly 2 eps
        rep = postselected_lower_bound(ProbVec.uniform(8), [0], 1 / 16)
        assert rep.inputs["trivial"]
        assert rep.value >= 16.0 - 1e-12

    def test_zero_weight_subset_rejected(self):
        v = ProbVec(np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(InvalidParameterError):
            postselected_lower_bound(v, [2, 3], 0.1)
        with pytest.raises(InvalidParameterError):
            postselected_lower_bound(v, [], 0.1)
        with pytest.raises(InvalidParameterError):
            postselected_lower_bound(v, [7], 0.1)

    def test_support_subset_recovers_quasinorm_term(self, small_corpus):
        # restricting to the full support leaves the quasinorm term intact;
        # smaller subsets hand the restriction a fresh tail budget and can
        # only weaken the bound
        for v in small_corpus[:20]:
            eps = 0.05
            support = np.flatnonzero(v.entries > 0)
            rep = postselected_lower_bound(v, support, eps)
            ref = vv_lower_bound(v, eps)
            assert rep.value == pytest.approx(ref.value, rel=1e-9)

    def test_restriction_never_exceeds_unrestricted(self, small_corpus):
        rng = np.random.default_rng(5)
        for v in small_corpus[:20]:
            k = int(rng.integers(1, v.dim + 1))
            subset = rng.choice(v.dim, size=k, replace=False)
            if v.entries[subset].sum() <= 0:
                continue
            rep = postselected_lower_bound(v, subset, 0.05)
            ref = vv_lower_bound(v, 0.05)
            assert rep.value <= ref.value * (1 + 1e-9)


class TestOneVVForm:
    """The three VV kinds equal, field for field and bit for bit, their formulas written out in full."""

    @staticmethod
    def written_out(kind, p, eps, const, tail_eps):
        norm = lp_quasinorm(truncated_core(p, tail_eps), 2.0 / 3.0)
        quasi_term = norm / eps**2
        trivial_term = 1.0 / eps
        inputs = {
            "eps": eps,
            "tail_eps": tail_eps,
            "constant": const,
            "norm_2_3": norm,
            "branch": "quasinorm" if quasi_term >= trivial_term else "1/eps",
        }
        return BoundReport(kind=kind, value=const * max(trivial_term, quasi_term), inputs=inputs)

    @staticmethod
    def written_out_postselected(p, subset, eps, const):
        idx = np.asarray(sorted(set(subset)), dtype=np.intp)
        weight = math.fsum(p.entries[idx].tolist())
        core = truncated_core(ProbVec(p.entries[idx] / weight), 2.0 * eps / weight)
        norm = lp_quasinorm(core, 2.0 / 3.0)
        quasi_term = weight * norm / eps**2
        inputs = {
            "eps": eps,
            "constant": const,
            "subset_weight": weight,
            "norm_2_3": norm,
            "trivial": weight <= 2.0 * eps,
            "branch": "quasinorm" if quasi_term >= 1.0 / eps else "1/eps",
        }
        return BoundReport(kind="postselected", value=const * max(1.0 / eps, quasi_term), inputs=inputs)

    @given(normalized_targets, st.floats(1e-3, 0.999), st.sampled_from([1.0, 2.5]) | st.floats(1e-3, 1e3), st.data())
    def test_reports_equal_the_written_out_formulas(self, x, eps, const, data):
        p = ProbVec(x)
        pairs = [
            (vv_lower_bound(p, eps, const), self.written_out("vv_lower", p, eps, const, 2.0 * eps)),
            (vv_upper_bound(p, eps, const), self.written_out("vv_upper", p, eps, const, eps / 16.0)),
        ]
        subset = data.draw(st.lists(st.integers(0, p.dim - 1), min_size=1))
        if p.entries[subset].sum() > 0:
            pairs.append((postselected_lower_bound(p, subset, eps, const),
                          self.written_out_postselected(p, subset, eps, const)))
        else:
            with pytest.raises(InvalidParameterError, match="zero probability weight"):
                postselected_lower_bound(p, subset, eps, const)
        for rep, expected in pairs:
            assert rep == expected
            assert rep.to_json() == expected.to_json()

    @pytest.mark.parametrize("n", [1, 4, 20, 53])
    def test_min_entropy_kinds_relabel_its_report(self, n):
        def relabelled(kind, h, notes=UNSPECIFIED_CONSTANT_NOTE, **extra):
            rep = smin_from_min_entropy(h, 0.1, 2.5)
            return BoundReport(kind=kind, value=rep.value, inputs=dict(rep.inputs, n=n, **extra), notes=notes)

        h_iqp = max(0.0, 0.5 * (n + math.log2(0.3 / 3.0)))
        h_design = max(0.0, 0.5 * (n + math.log2(0.3 / (2.0 * (1.0 + 0.2)))))
        full = smin_boson_full_space(n, 0.1, 2.5)
        assert smin_iqp(n, 0.3, 0.1, 2.5) == relabelled("iqp", h_iqp, delta=0.3)
        assert smin_design(n, 0.3, 0.1, 0.2, 2.5) == relabelled("design", h_design, delta=0.3, eps_tilde=0.2)
        assert full == relabelled("boson_b", 2.0 * n, notes=full.notes)
        assert full.notes.startswith(UNSPECIFIED_CONSTANT_NOTE + "; holds for nu > 3")


class TestMinEntropyBounds:
    def test_scalar_example(self):
        rep = smin_from_min_entropy(10.0, 0.1)
        expect = 100.0 * 32.0 * (1 - 0.2 - 2.0**-10) ** 1.5
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_clamp_at_zero_entropy(self):
        rep = smin_from_min_entropy(0.0, 0.1)
        assert rep.value == 0.0 and rep.inputs["clamped"]

    def test_eps_domain(self):
        with pytest.raises(InvalidParameterError):
            smin_from_min_entropy(2.0, 0.0)
        with pytest.raises(InvalidParameterError):
            smin_from_min_entropy(2.0, 0.5)
        with pytest.raises(InvalidParameterError):
            smin_from_min_entropy(-1.0, 0.1)

    def test_iqp_formula(self):
        rep = smin_iqp(20, 0.3, 0.1)
        h = 0.5 * (20 + math.log2(0.1))
        expect = 100.0 * 2.0 ** (h / 2) * (1 - 0.2 - 2.0**-h) ** 1.5
        assert rep.value == pytest.approx(expect, rel=1e-12)
        assert rep.inputs["h_inf"] == pytest.approx(h, rel=1e-12)

    def test_iqp_clamp_boundary(self):
        n = 10
        rep = smin_iqp(n, 3.0 * 2.0**-n, 0.1)
        assert rep.value == 0.0

    def test_iqp_doubles_every_four_qubits(self):
        prev = smin_iqp(40, 0.3, 0.1).value
        for n in (44, 48, 52):
            cur = smin_iqp(n, 0.3, 0.1).value
            assert cur / prev == pytest.approx(2.0, rel=0.01)
            prev = cur

    def test_design_formula(self):
        rep = smin_design(20, 0.3, 0.1, eps_tilde=0.1)
        h = 0.5 * (20 + math.log2(0.3 / 2.2))
        expect = 100.0 * 2.0 ** (h / 2) * (1 - 0.2 - 2.0**-h) ** 1.5
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_design_doubles_every_four_qubits(self):
        prev = smin_design(40, 0.3, 0.1, 0.1).value
        for n in (44, 48):
            cur = smin_design(n, 0.3, 0.1, 0.1).value
            assert cur / prev == pytest.approx(2.0, rel=0.01)
            prev = cur

    def test_design_exact_case_substitutes_two_for_three(self):
        a = smin_design(20, 0.3, 0.1, eps_tilde=0.0)
        h = 0.5 * (20 + math.log2(0.3 / 2.0))
        assert a.inputs["h_inf"] == pytest.approx(h, rel=1e-12)

    def test_design_clamp_boundary(self):
        n = 12
        rep = smin_design(n, 2.0 * 1.1 * 2.0**-n, 0.1, eps_tilde=0.1)
        assert rep.value == 0.0

    @pytest.mark.parametrize(
        "bound, message",
        [
            (lambda: smin_from_min_entropy(math.nan, 0.1), "h_inf must be >= 0"),
            (lambda: smin_design(10, 0.5, 0.1, eps_tilde=math.nan), "eps_tilde must be >= 0"),
            (lambda: smin_boson(3, 30, 0.5, 0.1, 0.25, C=math.nan), "C must be >= 0"),
            (lambda: smin_boson(3, 30, 0.5, 0.1, math.nan), r"^zeta must be in \(0, 1\)$"),
            (lambda: smin_boson(3, 30, 0.5, math.nan, 0.25), r"^eps must be in \(0, 1\)$"),
            (lambda: smin_iqp(10, math.nan, 0.1), r"^delta must be in \(0, 1\]$"),
            (lambda: smin_from_min_entropy(4.0, math.nan), r"^eps must be in \(0, 0\.5\)$"),
            (lambda: smin_from_min_entropy(4.0, 0.1, math.nan), "^c2 must be > 0$"),
            (lambda: vv_upper_bound(_U8, 0.1, math.nan), "^c1 must be > 0$"),
            (lambda: gaussian_concentration_bound(2, math.nan, 1.0), "^sigma must be > 0$"),
            (lambda: gaussian_concentration_bound(2, 1.0, math.nan), "^xi must be >= 0$"),
            (lambda: phi_size_bound(2, math.nan, 1.0), r"^nu must be in \(-inf, inf\)$"),
            (lambda: phi_size_bound(2, math.inf, 1.0), r"^nu must be in \(-inf, inf\)$"),
            (lambda: phi_size_bound(2, 3.0, math.nan), "^need n >= 1 and c >= 0$"),
            (
                lambda: gaussian_repeated_sample(ModeOccupation((1, 1)), 2, math.nan, stream_rng(0)),
                "^sigma must be > 0$",
            ),
        ],
    )
    def test_nan_parameter_rejected(self, bound, message):
        with pytest.raises(InvalidParameterError, match=message):
            bound()

    def test_delta_domain(self):
        with pytest.raises(InvalidParameterError):
            smin_iqp(10, 0.0, 0.1)
        with pytest.raises(InvalidParameterError):
            smin_design(10, 1.5, 0.1)


class TestBosonBounds:
    def test_reference_point(self):
        rep = smin_boson(4, 1024, delta=0.5, eps=0.05, zeta=0.25)
        log_inner = math.log2(math.factorial(4) * 5) - 4 * math.log2(1024)
        h = 0.5 * (2 * math.log2(0.75) + math.log2(0.5) - log_inner)
        expect = max(20.0, (1 / 0.0025) * 0.75 * 2.0 ** (h / 2) * 0.65**1.5)
        assert rep.value == pytest.approx(expect, rel=1e-12)
        assert rep.inputs["h_inf"] == pytest.approx(h, rel=1e-12)
        assert h == pytest.approx(15.63, abs=0.01)

    def test_failure_probability_field(self):
        rep = smin_boson(3, 100, delta=0.2, eps=0.05, zeta=0.5)
        assert rep.inputs["failure_probability"] == pytest.approx(0.2 + 18 / 50.0, rel=1e-12)

    def test_trivial_when_zeta_large(self):
        rep = smin_boson(3, 100, delta=0.2, eps=0.3, zeta=0.5)
        assert rep.inputs["trivial"]
        assert rep.value == pytest.approx(1 / 0.3, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(InvalidParameterError):
            smin_boson(5, 4, 0.5, 0.05, 0.25)
        with pytest.raises(InvalidParameterError):
            smin_boson(2, 8, 0.5, 0.05, 0.0)
        with pytest.raises(InvalidParameterError):
            smin_boson(2, 8, 0.5, 0.05, 0.25, C=-0.1)
        for delta in (0.0, 1.5, math.nan):
            with pytest.raises(InvalidParameterError, match=r"delta must be in \(0, 1\]"):
                smin_boson(2, 8, delta, 0.05, 0.25)

    def test_full_space_variant(self):
        rep = smin_boson_full_space(5, 0.1)
        ref = smin_from_min_entropy(10.0, 0.1)
        assert rep.value == pytest.approx(ref.value, rel=1e-12)
        assert rep.kind == "boson_b"
        assert "nu > 3" in rep.notes
