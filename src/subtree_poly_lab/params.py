"""The accepted range of every numeric parameter, one check per rule.

A check takes the value and the name it prints, returns the value in the
type the lab computes with, and raises ValidationError outside the range.
Library functions call it under the parameter's name (`samples`); the CLI
parses each flag with the same check under the flag's name (`--samples`),
so a flag is refused as it is parsed, before a graph is built or a sweep
row runs. Text from the command line is parsed here, as a decimal integer
or a float.

This module loads neither numpy nor mpmath: the CLI's parser imports it.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from .errors import ValidationError


def _as_int(value) -> int | None:
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        return None


def _as_float(value) -> float | None:
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _rule(parse: Callable, kind: str, accepts: Callable) -> Callable:
    """The check of one rule: `parse` the value, then refuse it unless it `accepts`."""

    def check(value, name: str):
        number = parse(value)
        if number is None or not accepts(number):
            raise ValidationError(f"{name} must be {kind}, got {value}")
        return number

    return check


def _at_least(least: int) -> Callable:
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        least, f"an integer of at least {least}"
    )
    return _rule(_as_int, kind, lambda number: number >= least)


samples = _at_least(1)
threads = _at_least(1)
circle_points = _at_least(1)
cap = _at_least(0)
tree_cap = _at_least(0)
k_max = _at_least(0)
precision_bits = _at_least(106)
seed = _rule(_as_int, "an integer in [0, 2^64)", lambda s: 0 <= s < 1 << 64)
finite = _rule(_as_float, "a finite number", math.isfinite)  # epsilon, tolerance
# the constant of the Rouche construction and of the root bound C / (alpha log n)
rouche_C = _rule(_as_float, "a finite number greater than 6", lambda c: math.isfinite(c) and c > 6)
probability = _rule(_as_float, "a finite number in [0, 1]", lambda p: 0 <= p <= 1)


def deviation_order(value, n: int, name: str) -> int:
    """The k_max of the Poisson deviations of an n-vertex host: 0 <= k_max < n.

    The upper end depends on the host, so the CLI checks it once the graph
    is built and before its counts are taken.
    """
    value = k_max(value, name)
    if value >= n:
        raise ValidationError(f"{name} must be below n = {n}")
    return value


def b_grid(value, name: str) -> list[float]:
    """A nonempty grid of positive finite deviations; text is comma-separated."""
    entries = [b for b in value.split(",") if b.strip()] if isinstance(value, str) else value
    grid = [_as_float(b) for b in entries]
    if not grid or not all(b is not None and math.isfinite(b) and b > 0 for b in grid):
        raise ValidationError(
            f"{name} must be a nonempty list of positive finite numbers, got {value!r}"
        )
    return grid
