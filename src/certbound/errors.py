"""Exception types, resource caps and the instance-JSON check shared across the package."""

import json


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
