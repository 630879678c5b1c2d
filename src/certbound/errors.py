"""Exception types, resource caps and the input checks shared across the package.

Each input rule is written once here: `check_draws` holds a draw count to
[floor, MAX_DRAWS], and `check_real` holds a real parameter to an interval
in a form that refuses NaN.  `read_instance_json` checks an instance file.
"""

import json
import math


class CertboundError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CertboundError, ValueError):
    """A parameter is outside its documented domain."""


class ResourceLimitError(CertboundError):
    """An instance exceeds the configured desk-scale resource caps."""


# Central resource caps.  Distributions are held densely in memory, so these
# keep a single instance below a few hundred MB.
MAX_QUBITS = 20
MAX_OUTCOMES = 10**6
# Largest sample size a tester takes, and most calibration runs, Monte-Carlo
# trials or ensemble instances one call draws.
MAX_DRAWS = 1 << 20


def check_draws(name: str, count: int, floor: int = 1) -> None:
    """Refuse a count of draws below `floor` (InvalidParameterError) or above MAX_DRAWS (ResourceLimitError)."""
    if count < floor:
        raise InvalidParameterError(f"{name} must be >= {floor}")
    if count > MAX_DRAWS:
        raise ResourceLimitError(f"{name} must be <= {MAX_DRAWS}")


def check_real(name: str, x: float, low: float, high: float = math.inf, ends: str = "[]") -> None:
    """Refuse, with InvalidParameterError, an x outside the interval from low to high.

    `ends` holds the interval's brackets: "[" or "(" for low, "]" or ")" for
    high.  Every comparison is one that NaN fails.  The message is
    `<name> must be >= low` (or `> low`) for the half-line up to +inf
    included, else `<name> must be in (low, high]` with the brackets of `ends`.
    """
    above = x >= low if ends[0] == "[" else x > low
    below = x <= high if ends[1] == "]" else x < high
    if not (above and below):
        if high == math.inf and ends[1] == "]":
            raise InvalidParameterError(f"{name} must be {'>=' if ends[0] == '[' else '>'} {low:g}")
        raise InvalidParameterError(f"{name} must be in {ends[0]}{low:g}, {high:g}{ends[1]}")


def read_instance_json(text: str, integers: tuple, number_lists: tuple) -> dict:
    """The JSON object in `text`, whose `integers` fields are positive ints and `number_lists` lists of numbers.

    Any other object raises InvalidParameterError naming the field at fault.
    """
    data = json.loads(text)
    names = integers + number_lists
    if not isinstance(data, dict):
        raise InvalidParameterError(f"instance JSON must be an object with fields {', '.join(names)}")
    for name in names:
        if name not in data:
            raise InvalidParameterError(f"instance JSON has no field {name}")
    for name in integers:
        if type(data[name]) is not int or data[name] < 1:  # bool is a subclass of int
            raise InvalidParameterError(f"{name} must be a positive integer, got {data[name]!r}")
    for name in number_lists:
        value = data[name]
        if not isinstance(value, list) or not all(type(x) in (int, float) for x in value):
            raise InvalidParameterError(f"{name} must be a list of numbers")
    return data
