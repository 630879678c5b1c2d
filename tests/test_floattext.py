import json
import warnings

import numpy as np
import pytest

from certbound import ProbVec
from certbound.floattext import join_reprs
from certbound.rng import stream_rng


def _reprs(x: np.ndarray) -> str:
    return ", ".join(map(repr, x.tolist()))


def _powers_with_neighbours() -> np.ndarray:
    base = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{k}") for k in range(-323, 309)]])
    return np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, 0.0)])


def _bulk_cases():
    rng = stream_rng(20181204, 0xF7)
    pt = rng.exponential(size=2**20)
    yield "porter_thomas_2^20", pt / pt.sum()
    yield "uniform_2^-18", np.full(2**18, 2.0**-18)
    yield "bit_patterns", rng.integers(0, 0x7FF0000000000000, size=2**19, dtype=np.uint64).view(np.float64)
    yield "powers_and_neighbours", _powers_with_neighbours()
    # the layout switches between fixed and scientific notation at 1e-4 and 1e16
    yield "across_1e-4", np.geomspace(1e-5, 1e-3, 2**17)
    yield "across_1e16", np.geomspace(1e15, 1e17, 2**17)


class TestJoinReprs:
    def test_bulk_matches_repr(self):
        total = 0
        for name, x in _bulk_cases():
            assert join_reprs(x) == _reprs(x), name
            total += x.size
        assert total >= 2_000_000

    @pytest.mark.parametrize(
        "x",
        [
            [],
            [0.0],
            [-0.0],
            [1.0, 0.5, 0.1, 1 / 3, 100.0, 12300.0, 2.0**49, 2.0**50, 2.0**52, 1e16, 1e17],
            [1e-4, 9.999999999999999e-05, 1e-5, 0.00012345678901234567, 5e-324, 2.2250738585072014e-308],
            [-1.5, -1e-300, np.inf, -np.inf, np.nan, 1.7976931348623157e308],
        ],
    )
    @pytest.mark.parametrize("sep", [", "])  # json.dumps's separator, the only one join_reprs writes
    def test_edges_and_separators(self, x, sep):
        x = np.array(x, dtype=np.float64)
        assert join_reprs(x) == sep.join(map(repr, x.tolist()))

    def test_every_chunk_splices_its_other_entries(self):
        # zeros of both signs, subnormals, negatives and large values spread over several chunks
        rng = stream_rng(3, 0xF7)
        x = rng.exponential(size=3 * 2**13 + 5)
        picks = rng.integers(0, x.size, 400)
        x[picks] = rng.choice([0.0, -0.0, 5e-324, 1e-310, -2.5, 2.0**60, 1e300], picks.size)
        assert join_reprs(x) == _reprs(x)

    def test_strided_input(self):
        x = stream_rng(4, 0xF7).exponential(size=2**14)
        assert join_reprs(x[::3]) == _reprs(x[::3])

    def test_no_warning_from_the_wrapping_arithmetic(self):
        x = stream_rng(5, 0xF7).integers(0, 0x7FEFFFFFFFFFFFFF, size=2**14, dtype=np.uint64).view(np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert join_reprs(x) == _reprs(x)

    def test_probvec_json_is_json_dumps(self):
        x = stream_rng(6, 0xF7).dirichlet(np.ones(4096))
        assert ProbVec(x).to_json() == json.dumps(x.tolist())
