"""Exception hierarchy and the type checks on outside input. Each error
class carries the CLI's exit code for it and the label of its message.

The entry points check the values they are given with ``check_int``,
``check_number``, ``check_flag``, ``check_str`` and ``check_list``. Each
returns its value or raises a ``ConfigError`` naming the key: a string is
neither parsed nor split into characters, a boolean is not read as a number,
and a number must be finite. Range rules stay with the code that owns them.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Any, Mapping

import numpy as np


class PanelThreshError(Exception):
    """Base class for all package errors."""


class ConfigError(PanelThreshError):
    """Invalid run configuration (CLI exit code 2)."""

    exit_code, label = 2, "config"


class DataError(PanelThreshError):
    """Malformed or unbalanced input data (CLI exit code 3)."""

    exit_code, label = 3, "data"


class EstimationError(PanelThreshError):
    """Estimation failed: rank deficiency, empty regime, degenerate grid (CLI exit code 4)."""

    exit_code, label = 4, "estimation"


def _is_number(value: Any) -> bool:
    try:  # np.bool_ is no Real
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


_SEQUENCES = (list, tuple, np.ndarray)
_ITEMS = {  # check_list's item kinds: their plural name and test
    float: ("numbers", _is_number),
    str: ("strings", lambda v: isinstance(v, str)),
    dict: ("objects", lambda v: isinstance(v, Mapping)),
    list: ("lists", lambda v: isinstance(v, _SEQUENCES)),
}


def _check(ok: bool, value: Any, name: str, what: str):
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def check_int(value: Any, name: str, low: int | None = None):
    """An integer, numpy's included, booleans not; at least ``low`` if given."""
    at_least = "" if low is None else f" >= {low}"
    ok = isinstance(value, Integral) and not isinstance(value, bool)
    return _check(ok and (low is None or value >= low), value, name, f"an integer{at_least}")


def check_number(value: Any, name: str):
    """A finite real number, integers and numpy's included, booleans not."""
    return _check(_is_number(value), value, name, "a number")


def check_flag(value: Any, name: str):
    """A ``bool`` or ``np.bool_``."""
    return _check(isinstance(value, (bool, np.bool_)), value, name, "true or false")


def check_str(value: Any, name: str) -> str:
    """A string; a list, number or object is not turned into its repr."""
    return _check(isinstance(value, str), value, name, "a string")


def check_list(value: Any, name: str, kind: type) -> tuple:
    """A list, tuple or numpy array, as a tuple, whose items are all numbers
    (``kind`` float), strings (str), mappings (dict) or sequences (list)."""
    what, is_kind = _ITEMS[kind]
    ok = isinstance(value, _SEQUENCES) and all(map(is_kind, value))
    return tuple(_check(ok, value, name, f"a list of {what}"))
