"""The parameter checks: each accepts its range, from text or from a value."""

import math

import pytest

from subtree_poly_lab import ValidationError, params


@pytest.mark.parametrize(
    "check, accepted, refused",
    [
        (params.samples, [1, "1", " 200 "], [0, "0", -3, 2.0, "2.0", "x", "", None]),
        (params.k_max, [0, "0", 3], [-1, "-1", "nan"]),
        (params.precision_bits, [106, "512"], [105, "105", "inf"]),
        (params.seed, [0, "0", 2**64 - 1, str(2**64 - 1)], [-1, "-1", 2**64, str(2**64), 1.0]),
        (params.finite, [0, "-0.5", 1e-9, "1e300"], [math.nan, "inf", "1e400", "x", ""]),
        (params.rouche_C, [6.5, "7", 12], [6, "6", "nan", math.inf, "x"]),
        (params.probability, [0, "0.5", 1], [-0.1, "1.5", "nan", "inf"]),
        (params.b_grid, ["0.3", "0.2,,0.5", [0.2, 1]], ["", ",", "0", "0.3,nan", [], [0.2, -1], ["x"]]),
    ],
)
def test_check_accepts_its_range_and_names_the_parameter(check, accepted, refused):
    for value in accepted:
        check(value, "name")
    for value in refused:
        with pytest.raises(ValidationError, match=r"^--the-flag must be "):
            check(value, "--the-flag")


def test_checks_return_the_parsed_value():
    assert params.samples(" 12 ", "samples") == 12
    assert params.seed(str(2**64 - 1), "seed") == 2**64 - 1
    assert params.rouche_C("7", "C") == 7.0
    assert params.b_grid("0.3,,0.5", "b_grid") == [0.3, 0.5]


def test_deviation_order_stays_below_the_host_size():
    assert params.deviation_order("3", 4, "k_max") == 3
    for value in (4, "9", -1, "nan"):
        with pytest.raises(ValidationError, match=r"^--k-max must be "):
            params.deviation_order(value, 4, "--k-max")


def test_sweep_order_stays_within_the_largest_host():
    assert params.sweep_order("3", [1, 3], "k_max") == 3
    assert params.sweep_order(0, [], "k_max") == 0
    for value, n_list in ((4, [1, 3]), ("1", []), (-1, [5]), ("nan", [5])):
        with pytest.raises(ValidationError, match=r"^--k-max must be "):
            params.sweep_order(value, n_list, "--k-max")
