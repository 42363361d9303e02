"""Exception types shared across the package, and the argument rules
every module applies: a count is an integer, a span a finite real > 0.
Each rule raises a ValueError naming the argument, whatever the type of
the value it is given."""

import numbers
import sys


class SpderkError(Exception):
    """Base class for all spderk errors."""


class DimensionError(SpderkError):
    """An array of the wrong shape: a problem map's result, a step's noise
    tables, a path, a QSpec's eigenvalues, an erkm15 c vector or a sine
    transform's input that is not 1-d.  A 1-d transform input of the wrong
    length is numpy's ValueError."""


class CapabilityError(SpderkError):
    """An optional capability (e.g. a derivative map) is required but missing."""


class DivergenceError(SpderkError):
    """A trajectory produced a non-finite coefficient.

    Attributes:
        scheme: name of the stepper that diverged.
        step:   0-based index of the offending step.
        mode:   index of the first non-finite coefficient.
    """

    def __init__(self, scheme, step, mode):
        self.scheme = scheme
        self.step = step
        self.mode = mode
        super().__init__(
            "scheme %r produced a non-finite coefficient at step %d, mode %d"
            % (scheme, step, mode)
        )


class ConfigError(SpderkError):
    """A config file could not be parsed, or a StudyConfig could not be
    built.  key is the StudyConfig field the error blames, or None (say,
    when the problem's factory rejects the problem); the command line
    names that key's line of the config file."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class StudyError(SpderkError):
    """A Monte-Carlo study failed (e.g. too many flagged realizations)."""


def is_int(v):
    """An int or NumPy integer (any numbers.Integral), and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v):
    """An int, float or NumPy number (any numbers.Real), and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_label(v):
    """A scheme label, as one field of an error-table CSV row holds it: a
    non-empty str without commas, line breaks or outer whitespace."""
    return (isinstance(v, str) and v != "" and v == v.strip()
            and not any(c in v for c in ",\r\n"))


def count(name, value, minimum=1):
    """value as an int if is_int(value) and value >= minimum, else a ValueError."""
    if not is_int(value) or value < minimum:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, minimum, value))
    return int(value)


def positive(name, value):
    """value as a float if a finite real > 0 and not a bool, else a ValueError.
    Compared, not converted: float() of a huge integer overflows."""
    if not is_real(value) or not 0 < value <= sys.float_info.max:
        raise ValueError("%s must be finite and > 0, got %r" % (name, value))
    return float(value)
