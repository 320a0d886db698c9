"""The accepted range of every numeric parameter, one check per rule.

A check takes the value and the name it prints, returns the value in the
type the lab computes with, and raises ValidationError outside the range
(CapacityError past a limit on the work a value asks for).
Library functions call it under the parameter's name (`samples`); the CLI
parses each flag with the same check under the flag's name (`--samples`),
so a flag is refused as it is parsed, before a graph is built or a sweep
row runs. Text from the command line is parsed here, as a decimal integer
or a float. The default of each parameter that both a library function
and a CLI flag take is defined here once, and read by both.

This module loads neither numpy nor mpmath: the CLI's parser imports it.
"""

import math
import operator
from typing import Callable

from .errors import CapacityError, ValidationError


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


DEFAULT_PRECISION_BITS = 192
DEFAULT_ROUCHE_C = 7.0
DEFAULT_CIRCLE_POINTS = 256
# the Rouche transform holds O(lcm(N, 4)) big integers: at most 16 times the default
MAX_CIRCLE_POINTS = 4096
# M P of the Rouche circle's transform, M = lcm(N, 4) values at P bits; it
# holds about 6 M P bits at its peak, so this bounds it near 100 MB
MAX_CIRCLE_BITS = 2**27
DEFAULT_ENUMERATION_CAP = 24  # vertices counted by subset enumeration
DEFAULT_SPANNING_TREE_CAP = 10**6
DEFAULT_EPSILON = 0.05  # the few-leaves lemma's slack in weight_experiment
DEFAULT_TOLERANCE = 1e-9  # the slack of the tree root bound in tree_root_check
DEFAULT_SEED = 0
DEFAULT_THREADS = 1  # worker processes of the sampling pool

samples = _at_least(1)
threads = _at_least(1)
cap = _at_least(0)
tree_cap = _at_least(0)
k_max = _at_least(0)
precision_bits = _at_least(106)
seed = _rule(_as_int, "an integer in [0, 2^64)", lambda s: 0 <= s < 1 << 64)
finite = _rule(_as_float, "a finite number", math.isfinite)  # epsilon, tolerance
# the constant of the Rouche construction and of the root bound C / (alpha log n)
rouche_C = _rule(_as_float, "a finite number greater than 6", lambda c: math.isfinite(c) and c > 6)
probability = _rule(_as_float, "a finite number in [0, 1]", lambda p: 0 <= p <= 1)


def circle_points(value, name: str) -> int:
    """A positive number of circle points, refused past MAX_CIRCLE_POINTS as over capacity."""
    value = _at_least(1)(value, name)
    if value > MAX_CIRCLE_POINTS:
        raise CapacityError(
            f"{name} = {value} exceeds the limit of {MAX_CIRCLE_POINTS} circle points"
        )
    return value


def deviation_order(value, n: int, name: str) -> int:
    """The k_max of the Poisson deviations of an n-vertex host: 0 <= k_max < n.

    The upper end depends on the host, so the CLI checks it once the graph
    is built and before its counts are taken.
    """
    value = k_max(value, name)
    if value >= n:
        raise ValidationError(f"{name} must be below n = {n}")
    return value


def sweep_order(value, n_list: list[int], name: str) -> int:
    """The k_max of a poisson sweep: 0 <= k_max <= the largest n of `n_list`.

    Every row pads its deviations to k_max + 1 columns, one per k; a host
    of n vertices fills only k < n, so a k_max past the largest n adds
    nothing but columns of nan. An empty list runs no row, so its bound is 0.
    """
    value = k_max(value, name)
    largest = max(n_list, default=0)
    if value > largest:
        raise ValidationError(f"{name} must be at most the largest n of the sweep, {largest}")
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
