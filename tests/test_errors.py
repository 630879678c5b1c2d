import ast
import math
from pathlib import Path

import pytest

from certbound import errors
from certbound.errors import MAX_DRAWS, InvalidParameterError, ResourceLimitError, check_draws, check_real


class TestCheckReal:
    @pytest.mark.parametrize(
        "low, high, ends, inside, outside, message",
        [
            (0, math.inf, "[]", [0.0, 1e-300, math.inf], [-1e-300, -math.inf], "x must be >= 0"),
            (0, math.inf, "(]", [1e-300, math.inf], [0.0, -1.0], "x must be > 0"),
            (0, 1, "(]", [1e-300, 1.0], [0.0, 1.5], r"x must be in \(0, 1\]"),
            (0, 1, "()", [0.5], [0.0, 1.0], r"x must be in \(0, 1\)"),
            (0, 0.5, "()", [0.25], [0.5], r"x must be in \(0, 0\.5\)"),
            (0, 2, "[]", [0.0, 2.0], [-0.5, 2.5, math.inf], r"x must be in \[0, 2\]"),
            (-math.inf, math.inf, "()", [-1e308, 0.0, 1e308], [-math.inf, math.inf], r"x must be in \(-inf, inf\)"),
        ],
    )
    def test_interval_and_message(self, low, high, ends, inside, outside, message):
        for x in inside:
            check_real("x", x, low, high, ends)
        for x in [*outside, math.nan]:
            with pytest.raises(InvalidParameterError, match=f"^{message}$"):
                check_real("x", x, low, high, ends)


class TestCheckDraws:
    def test_floor_and_cap(self):
        check_draws("trials", 300, 300)
        check_draws("trials", MAX_DRAWS, 300)
        with pytest.raises(InvalidParameterError, match="^trials must be >= 300$"):
            check_draws("trials", 299, 300)
        with pytest.raises(ResourceLimitError, match=f"^trials must be <= {MAX_DRAWS}$"):
            check_draws("trials", MAX_DRAWS + 1, 300)
        with pytest.raises(InvalidParameterError, match="^samples must be >= 1$"):
            check_draws("samples", 0)

    def test_draw_cap_is_read_in_three_places(self):
        # every draw count goes through check_draws; MAX_DRAWS is read elsewhere only by cmd_certify's comma
        # pre-count and by the stop of the sample-size search's doubling loop
        def reads(node):
            return sum(isinstance(n, ast.Name) and n.id == "MAX_DRAWS" and isinstance(n.ctx, ast.Load) for n in ast.walk(node))

        readers = {}
        for f in sorted(Path(errors.__file__).parent.glob("*.py")):
            for statement in ast.parse(f.read_text()).body:
                if reads(statement):
                    readers[f"{f.stem}.{getattr(statement, 'name', '<module>')}"] = statement
        assert set(readers) == {"errors.check_draws", "cli.cmd_certify", "certtest.empirical_sample_complexity"}
        search = readers["certtest.empirical_sample_complexity"]
        loop = next(n for n in ast.walk(search) if isinstance(n, ast.While))
        assert reads(loop) == reads(search)
